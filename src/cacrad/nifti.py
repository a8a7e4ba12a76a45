"""Minimal NIfTI-1 single-file reader/writer.

Scope is deliberately narrow: single-file ``.nii``/``.nii.gz``, datatypes
int16/float32/float64, either byte order. Unscaled int16 voxels are kept
as stored, two bytes each, until preprocess.apply_mask takes the ROI's
voxels as float64; float32, float64 and scaled files are read as float64.
A mask is a bool array, its voxels tested as they are read.

A read holds the header, the voxels it declares and CHUNK bytes, whatever
the file's size: a header of more than MAX_VOXELS voxels, or a file with
more than MAX_TRAILING bytes after its voxels, is refused as
UnsupportedDatatype before the rest is inflated.

Spacing comes from ``pixdim`` and is kept at 32-bit float precision
because that is all the container can store; quantizing at construction
time makes write-then-read round trips bitwise stable. A declared sform or
qform is checked for finite entries and otherwise not read: features are
computed on the voxel grid with its spacing.
"""

import gzip
import io
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    IoFailure,
    NonFiniteOrientation,
    NonPositiveSpacing,
    TruncatedFile,
    UnsupportedDatatype,
)
from .table import write_atomic

HEADER_SIZE = 348
VOX_OFFSET = 352
# Deflate level for .nii.gz output. Level 1 is about 20x faster than
# gzip's default 9 on int16 CT volumes, for files a few percent larger;
# the voxel payload, and so everything read back, is the same.
GZIP_LEVEL = 1
# Most voxels a grid may hold, read or resampled: a 512 x 512 x 512 grid
# (2^27) fits, so any 512 x 512 scan of up to 512 slices does, while a
# mistyped header or target spacing is refused before numpy allocates it.
MAX_VOXELS = 2 ** 27
# Bytes read at a time: into the voxel array, or dropped before and after it.
CHUNK = 1 << 20
# Bytes a voxel read asks of the file per call: gzip holds about four times
# what one call returns while it inflates.
READ_SIZE = 1 << 16
# Most bytes a file may hold after the voxels its header declares. Writers
# add none; reading on would let a few KiB of gzip inflate to any size.
MAX_TRAILING = 1 << 16

# NIfTI-1 datatype code -> (numpy dtype char, bitpix)
_DTYPES = {4: ("i2", 16), 16: ("f4", 32), 64: ("f8", 64)}
_DTYPE_CODES = {"int16": 4, "float32": 16, "float64": 64}


def _f32(values):
    return tuple(float(np.float32(v)) for v in values)


@dataclass(frozen=True)
class Volume3D:
    """A 3D scalar field in Hounsfield units on a regular grid.

    ``intensities`` is indexed ``[ix, iy, iz]`` (x fastest on disk);
    ``spacing`` is the voxel size along x, y and z in mm. Integer
    intensities keep their dtype (read_nifti's int16 voxels, as stored);
    any other is converted to float64.
    """

    dims: tuple
    spacing: tuple
    intensities: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"dims must be three positive counts, got {self.dims}")
        spacing = _f32(self.spacing)
        if any(s <= 0 for s in spacing):
            raise NonPositiveSpacing(f"spacing must be positive, got {self.spacing}")
        data = np.asarray(self.intensities)
        if data.dtype.kind not in "iu":
            data = data.astype(np.float64, copy=False)
        if data.size != dims[0] * dims[1] * dims[2]:
            raise ValueError(
                f"intensity count {data.size} != {dims[0]}*{dims[1]}*{dims[2]}"
            )
        data = data.reshape(dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "intensities", data)


def _skip(fh, count: int) -> int:
    """Read and drop up to count bytes of fh, CHUNK at a time; how many."""
    dropped = 0
    while dropped < count:
        got = len(fh.read(min(CHUNK, count - dropped)))
        if not got:
            break
        dropped += got
    return dropped


def _fill(fh, buf: memoryview) -> int:
    """Read fh into buf, READ_SIZE at a time, until buf is full or fh ends;
    how many bytes."""
    filled = 0
    while filled < len(buf):
        got = fh.readinto(buf[filled:filled + READ_SIZE])
        if not got:
            break
        filled += got
    return filled


def _read_stored(path, voxels):
    """Check a NIfTI-1 single file (optionally gzipped) and return what
    voxels(fh, dtype, count, scale) makes of its voxels, read in file order,
    the grid shape, the (scl_slope, scl_inter) pair to apply or None, and
    the spacing. voxels also returns how many bytes it read.

    The header is checked before any voxel is read. What follows the
    voxels is still read, up to MAX_TRAILING, so a gzip stream's checksum
    and length are checked."""
    try:
        with gzip.open(path, "rb") if str(path).endswith(".gz") else open(path, "rb") as fh:
            return _read_open(path, fh, voxels)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise TruncatedFile(f"{path}: truncated or corrupt gzip stream") from exc
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc


def _read_open(path, fh, voxels):
    raw = fh.read(HEADER_SIZE)
    if len(raw) < 4:
        raise TruncatedFile(f"{path}: {len(raw)} bytes, no header")
    if struct.unpack_from("<i", raw, 0)[0] == HEADER_SIZE:
        bo = "<"
    elif struct.unpack_from(">i", raw, 0)[0] == HEADER_SIZE:
        bo = ">"
    else:
        raise BadMagic(f"{path}: first four bytes are not a NIfTI-1 header size")
    if len(raw) < HEADER_SIZE:
        raise TruncatedFile(f"{path}: header is {len(raw)} bytes, need {HEADER_SIZE}")

    magic = raw[344:348]
    if magic == b"ni1\x00":
        raise UnsupportedDatatype(
            f"{path}: detached .hdr/.img pair; only single-file NIfTI-1 is supported"
        )
    if magic != b"n+1\x00":
        raise BadMagic(f"{path}: magic {magic!r} is not 'n+1\\0'")

    dim = struct.unpack_from(bo + "8h", raw, 40)
    datatype, _bitpix = struct.unpack_from(bo + "2h", raw, 70)
    pixdim = struct.unpack_from(bo + "8f", raw, 76)
    vox_offset = struct.unpack_from(bo + "f", raw, 108)[0]
    scl_slope, scl_inter = struct.unpack_from(bo + "2f", raw, 112)
    qform_code, sform_code = struct.unpack_from(bo + "2h", raw, 252)
    quat = struct.unpack_from(bo + "6f", raw, 256)
    srows = np.array(struct.unpack_from(bo + "12f", raw, 280)).reshape(3, 4)

    ndim = dim[0]
    if ndim < 1 or ndim > 7:
        raise UnsupportedDatatype(f"{path}: dim[0]={ndim} out of range")
    shape = [dim[k] if k <= ndim else 1 for k in (1, 2, 3)]
    if any(d < 1 for d in shape):
        raise UnsupportedDatatype(f"{path}: non-positive dimension in {shape}")
    for k in range(4, ndim + 1):
        if dim[k] > 1:
            raise UnsupportedDatatype(f"{path}: {ndim}-D volume with dim[{k}]={dim[k]}")
    if datatype not in _DTYPES:
        raise UnsupportedDatatype(f"{path}: datatype code {datatype}")

    spacing = pixdim[1:4]
    if any(not np.isfinite(s) or s <= 0 for s in spacing):
        raise NonPositiveSpacing(f"{path}: pixdim {spacing}")

    if not np.isfinite(vox_offset):
        raise UnsupportedDatatype(f"{path}: vox_offset {vox_offset}")
    if sform_code > 0 and not np.all(np.isfinite(srows)):
        raise NonFiniteOrientation(f"{path}: sform rows {srows.tolist()}")
    if qform_code > 0 and not np.all(np.isfinite(quat)):
        raise NonFiniteOrientation(f"{path}: quaternion and offset {quat}")

    dtype = np.dtype(bo + _DTYPES[datatype][0])
    nvox = shape[0] * shape[1] * shape[2]
    if nvox > MAX_VOXELS:
        raise UnsupportedDatatype(f"{path}: {shape} is {nvox} voxels, more than {MAX_VOXELS}")
    scale = None
    if scl_slope != 0.0 and np.isfinite(scl_slope) and (scl_slope != 1.0 or scl_inter != 0.0):
        scale = (scl_slope, scl_inter)
    offset = max(int(vox_offset), HEADER_SIZE)
    need = offset + nvox * dtype.itemsize
    have = HEADER_SIZE + _skip(fh, offset - HEADER_SIZE)
    if have == offset:
        data, got = voxels(fh, dtype, nvox, scale)
        have += got
    if have < need:
        raise TruncatedFile(f"{path}: need {need} bytes for voxels, have {have}")
    if _skip(fh, MAX_TRAILING + 1) > MAX_TRAILING:
        raise UnsupportedDatatype(
            f"{path}: more than {MAX_TRAILING} bytes follow the {nvox} voxels the header declares")
    return data, tuple(shape), scale, tuple(spacing)


def _stored(fh, dtype, count, scale):
    """count voxels of dtype, as stored, and how many bytes were read."""
    stored = np.empty(count, dtype=dtype)
    return stored, _fill(fh, memoryview(stored).cast("B"))


def _nonzero(fh, dtype, count, scale):
    """Which of count voxels of dtype are nonzero as read_nifti gives them,
    and how many bytes were read: CHUNK bytes at a time into one buffer,
    which _fill fills unless fh ends, so a full one holds whole voxels."""
    labels = np.empty(count, dtype=bool)
    buf = np.empty(min(count, max(1, CHUNK // dtype.itemsize)), dtype=dtype)
    have = 0
    for start in range(0, count, len(buf)):
        part = buf[:count - start]
        got = _fill(fh, memoryview(part).cast("B"))
        have += got
        if got < part.nbytes:
            break
        np.not_equal(_intensities(part, scale), 0.0, out=labels[start:start + len(part)])
    return labels, have


def _intensities(stored: np.ndarray, scale) -> np.ndarray:
    """Stored voxels as stored, or as float64 scaled as the header asks."""
    if scale is None:
        return stored
    data = stored.astype(np.float64)
    data *= np.float64(scale[0])
    data += np.float64(scale[1])
    return data


def read_nifti(path) -> Volume3D:
    """Parse a NIfTI-1 single file (optionally gzipped) into a Volume3D."""
    stored, shape, scale, spacing = _read_stored(path, _stored)
    return Volume3D(
        dims=shape,
        spacing=spacing,
        intensities=_intensities(stored, scale).reshape(shape, order="F"),
    )


def read_mask(path) -> np.ndarray:
    """The ROI of a NIfTI-1 label file, a bool array of its grid's shape:
    every voxel whose intensity, as read_nifti gives it, is nonzero. Voxels
    are compared as they are read, so neither the stored mask nor a float64
    copy of it is held whole."""
    labels, shape, _, _ = _read_stored(path, _nonzero)
    return labels.reshape(shape, order="F")


def write_nifti(vol: Volume3D, path, dtype: str = "float32", byteorder: str = "<"):
    """Write a Volume3D as single-file NIfTI-1 (gzipped when path ends '.gz').

    read_nifti(write_nifti(vol)) reproduces dims and spacing exactly and
    intensities to storage precision (exact for dtype='float64'). The
    sform is diag(spacing) with voxel (0, 0, 0) at the origin. A failed
    write leaves the old file or none, never a partial one (write_atomic).
    """
    if dtype not in _DTYPE_CODES:
        raise UnsupportedDatatype(f"writer dtype {dtype!r}")
    if byteorder not in ("<", ">"):
        raise ValueError(f"byteorder must be '<' or '>', got {byteorder!r}")
    code = _DTYPE_CODES[dtype]
    np_char, bitpix = _DTYPES[code]

    header = bytearray(HEADER_SIZE)
    struct.pack_into(byteorder + "i", header, 0, HEADER_SIZE)
    header[38] = ord("r")  # regular
    nx, ny, nz = vol.dims
    struct.pack_into(byteorder + "8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into(byteorder + "2h", header, 70, code, bitpix)
    sx, sy, sz = vol.spacing
    struct.pack_into(byteorder + "8f", header, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(byteorder + "f", header, 108, float(VOX_OFFSET))
    struct.pack_into(byteorder + "2f", header, 112, 0.0, 0.0)  # scl: none
    struct.pack_into(byteorder + "2h", header, 252, 0, 1)  # sform only
    srows = ((sx, 0.0, 0.0, 0.0), (0.0, sy, 0.0, 0.0), (0.0, 0.0, sz, 0.0))
    for row, off in zip(srows, (280, 296, 312)):
        struct.pack_into(byteorder + "4f", header, off, *row)
    header[344:348] = b"n+1\x00"

    data = vol.intensities
    if dtype == "int16":
        data = np.rint(data)
    body = data.astype(byteorder + np_char).tobytes(order="F")
    payload = bytes(header) + b"\x00\x00\x00\x00" + body

    if str(path).endswith(".gz"):
        # mtime pinned and no embedded filename: equal volumes always
        # produce identical bytes, whatever path they are written to
        packed = io.BytesIO()
        with gzip.GzipFile(filename="", fileobj=packed, mode="wb",
                           compresslevel=GZIP_LEVEL, mtime=0) as fh:
            fh.write(payload)
        payload = packed.getvalue()
    write_atomic(path, payload)
