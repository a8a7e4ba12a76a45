"""Minimal NIfTI-1 single-file reader/writer.

Scope is deliberately narrow: single-file ``.nii``/``.nii.gz``, datatypes
int16/float32/float64, either byte order. Intensities are promoted to
float64 on read so downstream texture code never sees storage precision;
a mask is tested for nonzero voxels block by block, without that copy.

Spacing and origin are kept at 32-bit float precision because that is all
the container can store; quantizing at construction time makes
write-then-read round trips bitwise stable.
"""

import gzip
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagic,
    IoFailure,
    NonFiniteOrientation,
    NonPositiveSpacing,
    TruncatedFile,
    UnsupportedDatatype,
)

HEADER_SIZE = 348
VOX_OFFSET = 352
# Deflate level for .nii.gz output. Level 1 is about 20x faster than
# gzip's default 9 on int16 CT volumes, for files a few percent larger;
# the voxel payload, and so everything read back, is the same.
GZIP_LEVEL = 1
# Voxels of a mask converted at a time: an 8 MiB float64 block.
MASK_BLOCK = 1 << 20

# NIfTI-1 datatype code -> (numpy dtype char, bitpix)
_DTYPES = {4: ("i2", 16), 16: ("f4", 32), 64: ("f8", 64)}
_DTYPE_CODES = {"int16": 4, "float32": 16, "float64": 64}


def _f32(values):
    return tuple(float(np.float32(v)) for v in values)


@dataclass(frozen=True)
class Volume3D:
    """A 3D scalar field in Hounsfield units on a regular grid.

    ``intensities`` is indexed ``[ix, iy, iz]`` (x fastest on disk);
    ``orientation`` columns are unit direction cosines for the x/y/z axes;
    ``origin`` is the position of voxel (0,0,0) in mm.
    """

    dims: tuple
    spacing: tuple
    intensities: np.ndarray
    orientation: np.ndarray = None
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"dims must be three positive counts, got {self.dims}")
        spacing = _f32(self.spacing)
        if any(s <= 0 for s in spacing):
            raise NonPositiveSpacing(f"spacing must be positive, got {self.spacing}")
        orient = self.orientation
        orient = np.eye(3) if orient is None else np.asarray(orient, dtype=np.float64)
        norms = np.linalg.norm(orient, axis=0)
        if orient.shape != (3, 3) or not np.all(np.abs(norms - 1.0) <= 1e-6):
            raise ValueError("orientation columns must be unit vectors")
        data = np.asarray(self.intensities, dtype=np.float64)
        if data.size != dims[0] * dims[1] * dims[2]:
            raise ValueError(
                f"intensity count {data.size} != {dims[0]}*{dims[1]}*{dims[2]}"
            )
        data = data.reshape(dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "orientation", orient)
        object.__setattr__(self, "origin", _f32(self.origin))
        object.__setattr__(self, "intensities", data)


@dataclass(frozen=True)
class MaskVolume:
    """Boolean ROI on the same grid as a Volume3D."""

    dims: tuple
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        labels = np.asarray(self.labels, dtype=bool).reshape(dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)


def _read_bytes(path):
    try:
        if str(path).endswith(".gz"):
            with gzip.open(path, "rb") as fh:
                return fh.read()
        with open(path, "rb") as fh:
            return fh.read()
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise TruncatedFile(f"{path}: truncated or corrupt gzip stream") from exc
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc


def _quaternion_to_matrix(b, c, d, qfac):
    sq = b * b + c * c + d * d
    if sq > 1.0:
        norm = np.sqrt(sq)
        b, c, d = b / norm, c / norm, d / norm
        sq = 1.0
    a = np.sqrt(max(0.0, 1.0 - sq))
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )
    if qfac < 0:
        rot[:, 2] *= -1
    return rot


def _normalized_columns(mat):
    out = np.array(mat, dtype=np.float64)
    for j in range(3):
        norm = np.linalg.norm(out[:, j])
        if norm > 0:
            out[:, j] /= norm
        else:
            out[:, j] = 0.0
            out[j, j] = 1.0
    return out


def _read_stored(path):
    """Check a NIfTI-1 single file (optionally gzipped) and return its
    stored voxels as a flat array in file order, the grid shape, the
    (scl_slope, scl_inter) pair to apply or None, and the spacing,
    orientation and origin."""
    raw = _read_bytes(path)
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
    offset = max(int(vox_offset), HEADER_SIZE)
    if len(raw) < offset + nvox * dtype.itemsize:
        raise TruncatedFile(
            f"{path}: need {offset + nvox * dtype.itemsize} bytes for voxels, have {len(raw)}"
        )
    stored = np.frombuffer(raw, dtype=dtype, count=nvox, offset=offset)
    scale = None
    if scl_slope != 0.0 and np.isfinite(scl_slope) and (scl_slope != 1.0 or scl_inter != 0.0):
        scale = (scl_slope, scl_inter)

    if sform_code > 0:
        orientation = _normalized_columns(srows[:, :3])
        origin = tuple(srows[:, 3])
    elif qform_code > 0:
        qfac = -1.0 if pixdim[0] < 0 else 1.0
        orientation = _quaternion_to_matrix(quat[0], quat[1], quat[2], qfac)
        origin = tuple(quat[3:6])
    else:
        orientation = np.eye(3)
        origin = (0.0, 0.0, 0.0)

    return stored, tuple(shape), scale, (tuple(spacing), orientation, origin)


def _intensities(stored: np.ndarray, scale) -> np.ndarray:
    """Stored voxels as float64, scaled when the header asks for it."""
    data = stored.astype(np.float64)
    if scale is not None:
        data *= np.float64(scale[0])
        data += np.float64(scale[1])
    return data


def read_nifti(path) -> Volume3D:
    """Parse a NIfTI-1 single file (optionally gzipped) into a Volume3D."""
    stored, shape, scale, (spacing, orientation, origin) = _read_stored(path)
    return Volume3D(
        dims=shape,
        spacing=spacing,
        intensities=_intensities(stored, scale).reshape(shape, order="F"),
        orientation=orientation,
        origin=origin,
    )


def read_mask(path) -> MaskVolume:
    """The ROI of a NIfTI-1 label file: every voxel whose intensity, as
    read_nifti gives it, is nonzero. Voxels are converted MASK_BLOCK at a
    time, so no float64 copy of the whole volume is made."""
    stored, shape, scale, _ = _read_stored(path)
    labels = np.empty(len(stored), dtype=bool)
    for start in range(0, len(stored), MASK_BLOCK):
        block = slice(start, start + MASK_BLOCK)
        np.not_equal(_intensities(stored[block], scale), 0.0, out=labels[block])
    return MaskVolume(dims=shape, labels=labels.reshape(shape, order="F"))


def write_nifti(vol: Volume3D, path, dtype: str = "float32", byteorder: str = "<"):
    """Write a Volume3D as single-file NIfTI-1 (gzipped when path ends '.gz').

    read_nifti(write_nifti(vol)) reproduces dims and spacing exactly and
    intensities to storage precision (exact for dtype='float64').
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
    srows = vol.orientation * np.array([sx, sy, sz])[None, :]
    for row, off in zip(range(3), (280, 296, 312)):
        struct.pack_into(
            byteorder + "4f", header, off,
            srows[row, 0], srows[row, 1], srows[row, 2], vol.origin[row],
        )
    header[344:348] = b"n+1\x00"

    data = vol.intensities
    if dtype == "int16":
        data = np.rint(data)
    body = data.astype(byteorder + np_char).tobytes(order="F")
    payload = bytes(header) + b"\x00\x00\x00\x00" + body

    try:
        if str(path).endswith(".gz"):
            # mtime pinned and no embedded filename: equal volumes always
            # produce identical bytes, whatever path they are written to
            with open(path, "wb") as raw_fh:
                with gzip.GzipFile(filename="", fileobj=raw_fh, mode="wb",
                                   compresslevel=GZIP_LEVEL, mtime=0) as fh:
                    fh.write(payload)
        else:
            with open(path, "wb") as fh:
                fh.write(payload)
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
