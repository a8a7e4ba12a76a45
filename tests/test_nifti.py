import gzip
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacrad.errors import (
    BadMagic,
    CacradError,
    NonFiniteOrientation,
    NonPositiveSpacing,
    TruncatedFile,
    UnsupportedDatatype,
)
import cacrad
from cacrad import nifti
from cacrad.nifti import HEADER_SIZE, Volume3D, read_mask, read_nifti, write_nifti


def sample_volume(seed=0, dims=(7, 5, 3), spacing=(0.49, 0.49, 1.41)):
    rng = np.random.default_rng(seed)
    return Volume3D(dims=dims, spacing=spacing,
                    intensities=rng.normal(40.0, 60.0, size=dims))


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("byteorder", ["<", ">"])
def test_float64_round_trip_is_exact(tmp_path, suffix, byteorder):
    vol = sample_volume()
    path = tmp_path / f"vol{suffix}"
    write_nifti(vol, path, dtype="float64", byteorder=byteorder)
    back = read_nifti(path)
    assert back.dims == vol.dims
    assert back.spacing == vol.spacing  # float32-quantized on both sides
    assert np.array_equal(back.intensities, vol.intensities)


def test_cross_endianness_parse_equality(tmp_path):
    vol = sample_volume(seed=3)
    le = tmp_path / "le.nii"
    be = tmp_path / "be.nii"
    write_nifti(vol, le, dtype="float64", byteorder="<")
    write_nifti(vol, be, dtype="float64", byteorder=">")
    a = read_nifti(le)
    b = read_nifti(be)
    assert a.dims == b.dims and a.spacing == b.spacing
    assert np.array_equal(a.intensities, b.intensities)


def test_int16_round_trip_rounds_to_integers(tmp_path):
    vol = sample_volume(seed=4)
    path = tmp_path / "v.nii"
    write_nifti(vol, path, dtype="int16")
    back = read_nifti(path)
    assert np.array_equal(back.intensities, np.rint(vol.intensities))


def test_float32_round_trip_storage_precision(tmp_path):
    vol = sample_volume(seed=5)
    path = tmp_path / "v.nii.gz"
    write_nifti(vol, path, dtype="float32")
    back = read_nifti(path)
    assert np.array_equal(back.intensities,
                          vol.intensities.astype(np.float32).astype(np.float64))


def test_gzip_write_is_byte_stable(tmp_path):
    vol = sample_volume(seed=6)
    p1 = tmp_path / "a.nii.gz"
    p2 = tmp_path / "b.nii.gz"
    write_nifti(vol, p1)
    write_nifti(vol, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("dtype", ["int16", "float32", "float64"])
@pytest.mark.parametrize("byteorder", ["<", ">"])
def test_gzip_is_the_plain_file_at_the_fast_level(tmp_path, dtype, byteorder):
    vol = sample_volume(seed=10)
    packed, plain = tmp_path / "v.nii.gz", tmp_path / "v.nii"
    write_nifti(vol, packed, dtype=dtype, byteorder=byteorder)
    write_nifti(vol, plain, dtype=dtype, byteorder=byteorder)
    raw = packed.read_bytes()
    # XFL (RFC 1952) 4 means "fastest algorithm"; Python sets it for level 1 only
    assert raw[8] == 4
    assert gzip.decompress(raw) == plain.read_bytes()


def test_scl_slope_zero_means_unscaled(tmp_path):
    vol = sample_volume(seed=7, dims=(4, 4, 2))
    path = tmp_path / "v.nii"
    write_nifti(vol, path, dtype="float64")
    raw = bytearray(path.read_bytes())
    plain = read_nifti(path).intensities
    # slope 2, intercept 10 must be applied
    struct.pack_into("<2f", raw, 112, 2.0, 10.0)
    path.write_bytes(bytes(raw))
    scaled = read_nifti(path).intensities
    assert np.allclose(scaled, plain * 2.0 + 10.0)
    # slope 0 marks "no scaling" per the format
    struct.pack_into("<2f", raw, 112, 0.0, 99.0)
    path.write_bytes(bytes(raw))
    assert np.array_equal(read_nifti(path).intensities, plain)


@pytest.mark.parametrize("qform_code", [0, 1])
def test_qform_only_and_formless_headers_read_like_the_sform_file(tmp_path, qform_code):
    vol = sample_volume(seed=8, dims=(3, 3, 3))
    path = tmp_path / "v.nii"
    write_nifti(vol, path, dtype="float64")
    sform = read_nifti(path)
    raw = bytearray(path.read_bytes())
    # clear sform; declare a qform with a rotation and an offset, or no form
    struct.pack_into("<2h", raw, 252, qform_code, 0)
    struct.pack_into("<6f", raw, 256, 0.5, 0.5, 0.5, 5.0, -2.0, 7.0)
    path.write_bytes(bytes(raw))
    back = read_nifti(path)
    assert back.dims == sform.dims and back.spacing == sform.spacing
    assert np.array_equal(back.intensities, sform.intensities)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.nii"
    path.write_bytes(b"\x00" * 400)
    with pytest.raises(BadMagic):
        read_nifti(path)


def test_wrong_magic_string_rejected(tmp_path):
    vol = sample_volume(dims=(2, 2, 2))
    path = tmp_path / "v.nii"
    write_nifti(vol, path)
    raw = bytearray(path.read_bytes())
    raw[344:348] = b"abc\x00"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        read_nifti(path)


def test_truncated_body_rejected(tmp_path):
    vol = sample_volume(dims=(4, 4, 4))
    path = tmp_path / "v.nii"
    write_nifti(vol, path, dtype="float64")
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 10])
    with pytest.raises(TruncatedFile):
        read_nifti(path)


def test_truncated_gzip_rejected(tmp_path):
    vol = sample_volume(dims=(4, 4, 4))
    path = tmp_path / "v.nii.gz"
    write_nifti(vol, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(TruncatedFile):
        read_nifti(path)


def test_unsupported_datatype_rejected(tmp_path):
    vol = sample_volume(dims=(2, 2, 2))
    path = tmp_path / "v.nii"
    write_nifti(vol, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2h", raw, 70, 2, 8)  # uint8: not in scope
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedDatatype):
        read_nifti(path)


def test_nonpositive_pixdim_rejected(tmp_path):
    vol = sample_volume(dims=(2, 2, 2))
    path = tmp_path / "v.nii"
    write_nifti(vol, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 80, 0.0)  # pixdim[1] = 0
    path.write_bytes(bytes(raw))
    with pytest.raises(NonPositiveSpacing):
        read_nifti(path)


def test_trailing_dims_of_one_accepted(tmp_path):
    vol = sample_volume(dims=(3, 2, 2))
    path = tmp_path / "v.nii"
    write_nifti(vol, path, dtype="float64")
    raw = bytearray(path.read_bytes())
    struct.pack_into("<8h", raw, 40, 4, 3, 2, 2, 1, 1, 1, 1)  # 4-D with nt=1
    path.write_bytes(bytes(raw))
    back = read_nifti(path)
    assert back.dims == (3, 2, 2)


def test_true_4d_rejected(tmp_path):
    vol = sample_volume(dims=(3, 2, 2))
    path = tmp_path / "v.nii"
    write_nifti(vol, path, dtype="float64")
    raw = bytearray(path.read_bytes())
    struct.pack_into("<8h", raw, 40, 4, 3, 2, 2, 5, 1, 1, 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedDatatype):
        read_nifti(path)


def test_fortran_order_on_disk(tmp_path):
    # voxel (x, y, z) lives at x + nx*(y + ny*z): make a recognizable ramp
    dims = (3, 2, 2)
    vals = np.arange(12, dtype=np.float64).reshape(dims, order="F")
    vol = Volume3D(dims=dims, spacing=(1, 1, 1), intensities=vals)
    path = tmp_path / "v.nii"
    write_nifti(vol, path, dtype="float64")
    raw = path.read_bytes()
    body = np.frombuffer(raw, dtype="<f8", offset=352)
    assert np.array_equal(body, np.arange(12.0))
    assert read_nifti(path).intensities[1, 0, 0] == 1.0


def test_read_mask_binarizes(tmp_path):
    vol = Volume3D(dims=(2, 2, 1), spacing=(1, 1, 1),
                   intensities=np.array([[[0.0], [2.0]], [[0.0], [7.0]]]))
    write_nifti(vol, tmp_path / "m.nii", dtype="int16")
    mask = read_mask(tmp_path / "m.nii")
    assert mask.shape == (2, 2, 1) and int(mask.sum()) == 2
    assert bool(mask[0, 1, 0]) and not bool(mask[0, 0, 0])


@pytest.mark.parametrize("dtype", ["int16", "float32", "float64"])
@pytest.mark.parametrize("byteorder", ["<", ">"])
def test_read_mask_is_read_nifti_nonzero(tmp_path, monkeypatch, dtype, byteorder):
    # chunks of 7 voxels end mid-column; the scalings send a stored value
    # to 0, underflow, overflow or turn every voxel nonzero
    monkeypatch.setattr(nifti, "CHUNK", 7 * np.dtype(dtype).itemsize)
    values = np.arange(-3.0, 3.0).repeat(10)[np.random.default_rng(9).permutation(60)]
    vol = Volume3D(dims=(5, 4, 3), spacing=(1, 1, 1), intensities=values)
    path = tmp_path / "m.nii"
    write_nifti(vol, path, dtype=dtype, byteorder=byteorder)
    raw = bytearray(path.read_bytes())
    inf, nan = float("inf"), float("nan")
    for scale in [(0.0, 9.0), (1.0, 0.0), (1.0, 2.0), (-0.5, 1.0), (2.0, 0.0), (1e-45, 0.0),
                  (3e38, 3e38), (1.0, nan), (1.0, inf), (inf, 0.0), (nan, 1.0), (1.0, -0.0)]:
        struct.pack_into(byteorder + "2f", raw, 112, *scale)
        path.write_bytes(bytes(raw))
        want = read_nifti(path).intensities != 0
        got = read_mask(path)
        assert isinstance(got, np.ndarray) and got.dtype == bool and got.shape == (5, 4, 3)
        assert np.array_equal(got, want), scale


@pytest.mark.parametrize("dtype", ["int16", "float32"])
@pytest.mark.parametrize("byteorder", ["<", ">"])
def test_an_unscaled_mask_is_read_nifti_nonzero(tmp_path, monkeypatch, dtype, byteorder):
    # stored voxels are compared with 0 as they are: NaN is nonzero, -0.0 is not
    monkeypatch.setattr(nifti, "CHUNK", 7 * np.dtype(dtype).itemsize)
    values = np.array([0.0, -0.0, float("nan"), 1.0, -1.0, 1e-30, -32768.0, 32767.0] * 3)
    vol = Volume3D(dims=(2, 3, 4), spacing=(1, 1, 1),
                   intensities=np.nan_to_num(values) if dtype == "int16" else values)
    path = tmp_path / "m.nii"
    write_nifti(vol, path, dtype=dtype, byteorder=byteorder)
    got = read_mask(path)
    assert np.array_equal(got, read_nifti(path).intensities != 0)
    assert int(got.sum()) == 3 * (4 if dtype == "int16" else 6)


def test_read_mask_makes_no_float64_copy(tmp_path):
    dims = (128, 128, 64)
    labels = np.zeros(dims)
    labels[40:90, 30:70, 10:30] = 3.0
    path = tmp_path / "m.nii"
    write_nifti(Volume3D(dims=dims, spacing=(1, 1, 1), intensities=labels), path,
                dtype="int16")
    tracemalloc.start()
    try:
        mask = read_mask(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(mask, labels != 0)
    # the labels (1 byte a voxel) and one chunk; a float64 volume alone
    # would be 8 bytes a voxel
    assert peak < 4 * labels.size


def test_read_mask_holds_no_stored_copy(tmp_path):
    # the int16 mask (2 bytes a voxel) was read whole before it was tested
    dims = (256, 256, 64)
    labels = np.zeros(dims)
    labels[40:90, 30:70, 10:30] = 3.0
    path = tmp_path / "m.nii.gz"
    write_nifti(Volume3D(dims=dims, spacing=(1, 1, 1), intensities=labels), path,
                dtype="int16")
    tracemalloc.start()
    try:
        mask = read_mask(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(mask, labels != 0)
    assert peak < mask.nbytes + 2 * nifti.CHUNK, peak


# Runs write_nifti with files limited to 1000 bytes, as a disk that fills
# partway through a write; SIGXFSZ is ignored so the write fails with EFBIG.
FULL_DISK = """
import resource, signal, sys
import numpy as np
from cacrad.errors import IoFailure
from cacrad.nifti import Volume3D, write_nifti
vol = Volume3D(dims=(10, 10, 10), spacing=(1, 1, 1),
               intensities=np.random.default_rng(0).normal(size=1000))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
for path in sys.argv[1:]:
    try:
        write_nifti(vol, path, dtype="float64")
    except IoFailure:
        continue
    sys.exit(f"{path} was written")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_FSIZE semantics")
def test_a_write_that_fails_partway_leaves_the_old_file_or_none(tmp_path):
    old = tmp_path / "old.nii.gz"
    write_nifti(sample_volume(seed=4), old)
    before = old.read_bytes()
    env = dict(os.environ, PYTHONPATH=str(Path(cacrad.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    paths = [old, tmp_path / "new.nii.gz", tmp_path / "new.nii"]
    proc = subprocess.run([sys.executable, "-c", FULL_DISK, *map(str, paths)], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert old.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.nii.gz"]


def test_gzip_output_has_no_name_no_mtime_and_os_byte_ff(tmp_path):
    path = tmp_path / "v.nii.gz"
    write_nifti(sample_volume(), path)
    # magic, deflate, no flags, mtime 0, fastest level, OS unknown
    assert path.read_bytes()[:10] == b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x04\xff"


def test_header_size_constant_sanity():
    assert HEADER_SIZE == 348


# Header fields as (offset, struct code, count): the ones read_nifti parses
_FIELDS = [(40, "h", 8), (70, "h", 2), (76, "f", 8), (108, "f", 1), (112, "f", 2),
           (252, "h", 2), (256, "f", 6), (280, "f", 12), (344, "4s", 1)]


@st.composite
def _header_edit(draw):
    offset, code, count = draw(st.sampled_from(_FIELDS))
    value = draw({"h": st.sampled_from([-2 ** 15, -1, 0, 1, 7, 8, 2 ** 15 - 1])
                       | st.integers(-2 ** 15, 2 ** 15 - 1),
                  "f": st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -1.0,
                                        3.4e38]) | st.floats(width=32),
                  "4s": st.sampled_from([b"ni1\0", b"n+2\0"]) | st.binary(min_size=4, max_size=4)}[code])
    k = draw(st.integers(0, count - 1))
    return offset + k * struct.calcsize(code), code, value


_flips = st.lists(st.tuples(st.integers(0, 2 ** 20), st.integers(1, 255)), max_size=3)
_cut = st.none() | st.integers(0, 2 ** 20)


def _flip_and_cut(raw, flips, cut):
    for pos, mask in flips:
        raw[pos % len(raw)] ^= mask
    return raw if cut is None else raw[:cut % (len(raw) + 1)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Valid files 0.nii to 5.nii: int16, float32, float64, each in < then >."""
    root = tmp_path_factory.mktemp("fuzz")
    for k in range(6):
        write_nifti(sample_volume(seed=11, dims=(5, 4, 3)), root / f"{k}.nii",
                    dtype=("int16", "float32", "float64")[k // 2], byteorder="<>"[k % 2])
    return root


_NONFINITE = [float("nan"), float("inf"), -float("inf")]
# a non-finite value in one quaternion/offset (256..) or srow (280..) entry
_orientation_edit = st.tuples(st.sampled_from([256 + 4 * k for k in range(18)]),
                              st.sampled_from(_NONFINITE))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(which=st.integers(0, 5), edits=st.lists(_header_edit(), max_size=3),
       orientation_edits=st.lists(_orientation_edit, max_size=2),
       form_codes=st.none() | st.tuples(st.integers(-1, 2), st.integers(-1, 2)),
       flips=_flips, cut=_cut, packed=st.booleans(), packed_flips=_flips,
       packed_cut=_cut)
def test_read_nifti_fuzz_raises_only_cacrad_errors(fuzz_dir, which, edits,
                                                   orientation_edits, form_codes, flips,
                                                   cut, packed, packed_flips, packed_cut):
    bo = "<>"[which % 2]
    raw = bytearray((fuzz_dir / f"{which}.nii").read_bytes())
    for offset, code, value in edits:
        struct.pack_into(bo + code, raw, offset, value)
    for offset, value in orientation_edits:
        struct.pack_into(bo + "f", raw, offset, value)
    if form_codes is not None:
        struct.pack_into(bo + "2h", raw, 252, *form_codes)
    raw = _flip_and_cut(raw, flips, cut)
    path = fuzz_dir / "case.nii"
    if packed:
        raw = _flip_and_cut(bytearray(gzip.compress(bytes(raw), mtime=0)),
                            packed_flips, packed_cut)
        path = fuzz_dir / "case.nii.gz"
    path.write_bytes(bytes(raw))
    try:
        vol = read_nifti(path)
    except CacradError as exc:
        with pytest.raises(type(exc)):
            read_mask(path)
        return
    mask = read_mask(path)
    assert mask.shape == vol.dims and np.array_equal(mask, vol.intensities != 0)


@pytest.mark.parametrize("qform_code, sform_code, offset", [
    (0, 1, 280), (0, 1, 292 + 12), (1, 0, 256 + 4), (1, 0, 256 + 16), (1, 1, 256)])
@pytest.mark.parametrize("value", _NONFINITE)
def test_nonfinite_orientation_in_use_is_a_data_error(tmp_path, qform_code, sform_code,
                                                      offset, value):
    path = tmp_path / "v.nii"
    write_nifti(sample_volume(seed=3, dims=(3, 3, 3)), path)
    intensities = read_nifti(path).intensities
    raw = bytearray(path.read_bytes())
    struct.pack_into("<2h", raw, 252, qform_code, sform_code)
    struct.pack_into("<f", raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(NonFiniteOrientation):
        read_nifti(path)
    # the same value in the form that is not declared is never read
    struct.pack_into("<2h", raw, 252, 0 if offset < 280 else 1, 0 if offset >= 280 else 1)
    path.write_bytes(bytes(raw))
    assert np.array_equal(read_nifti(path).intensities, intensities)


def _whole_file_read(path):
    """The reader this module had before it read by header: the whole file
    in one bytes object, every voxel converted to float64."""
    raw = gzip.decompress(path.read_bytes()) if path.suffix == ".gz" else path.read_bytes()
    bo = "<" if struct.unpack_from("<i", raw)[0] == HEADER_SIZE else ">"
    dim = struct.unpack_from(bo + "8h", raw, 40)
    dtype = bo + {4: "i2", 16: "f4", 64: "f8"}[struct.unpack_from(bo + "h", raw, 70)[0]]
    slope, inter = struct.unpack_from(bo + "2f", raw, 112)
    offset = max(int(struct.unpack_from(bo + "f", raw, 108)[0]), HEADER_SIZE)
    data = np.frombuffer(raw, dtype=dtype, count=dim[1] * dim[2] * dim[3], offset=offset)
    data = data.astype(np.float64)
    if slope != 0.0 and np.isfinite(slope) and (slope != 1.0 or inter != 0.0):
        data = data * np.float64(slope) + np.float64(inter)
    return data.reshape(dim[1:4], order="F")


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("dtype", ["int16", "float32", "float64"])
@pytest.mark.parametrize("byteorder", ["<", ">"])
@pytest.mark.parametrize("scale", [None, (0.0, 7.0), (2.5, -1024.0)])
def test_a_read_as_float64_is_the_whole_file_read(tmp_path, monkeypatch, suffix, dtype,
                                                  byteorder, scale):
    values = np.round(np.random.default_rng(12).normal(0.0, 900.0, size=(7, 5, 3)), 2)
    values[values < -700] = 0.0  # about a fifth, so a mask read has both kinds
    vol = Volume3D(dims=(7, 5, 3), spacing=(0.49, 0.49, 1.41), intensities=values)
    plain = tmp_path / "v.nii"
    write_nifti(vol, plain, dtype=dtype, byteorder=byteorder)
    if scale is not None:
        raw = bytearray(plain.read_bytes())
        struct.pack_into(byteorder + "2f", raw, 112, *scale)
        plain.write_bytes(bytes(raw))
    path = tmp_path / f"w{suffix}"
    path.write_bytes(gzip.compress(plain.read_bytes()) if suffix == ".nii.gz" else plain.read_bytes())
    got = read_nifti(path).intensities
    unscaled_int = dtype == "int16" and scale in (None, (0.0, 7.0))
    assert got.dtype == (np.dtype(byteorder + "i2") if unscaled_int else np.float64)
    assert got.astype(np.float64).tobytes() == _whole_file_read(path).tobytes()
    # 32-byte chunks of 16, 8 or 4 voxels: the last of the 105 is short
    monkeypatch.setattr(nifti, "CHUNK", 32)
    assert np.array_equal(read_mask(path), _whole_file_read(path) != 0)


@pytest.mark.parametrize("dtype", ["int16", "float32", "float64"])
def test_writing_a_read_int16_volume_writes_its_float64_voxels(tmp_path, dtype):
    path = tmp_path / "v.nii"
    write_nifti(sample_volume(seed=13), path, dtype="int16")
    read = read_nifti(path)
    as_float = Volume3D(dims=read.dims, spacing=read.spacing,
                        intensities=read.intensities.astype(np.float64))
    for vol, name in ((read, "a.nii"), (as_float, "b.nii")):
        write_nifti(vol, tmp_path / name, dtype=dtype)
    assert (tmp_path / "a.nii").read_bytes() == (tmp_path / "b.nii").read_bytes()


def _traced_peak(call):
    tracemalloc.start()
    try:
        with pytest.raises(CacradError) as caught:
            call()
        return caught.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_trailing_bytes_past_the_bound_are_refused_before_they_are_read(tmp_path, suffix):
    # a 2 x 2 x 2 volume and 8 MiB of zeros: 8 KiB as gzip
    small = tmp_path / "small.nii"
    write_nifti(sample_volume(dims=(2, 2, 2)), small, dtype="int16")
    raw = small.read_bytes()
    path = tmp_path / f"v{suffix}"
    for extra, readable in ((nifti.MAX_TRAILING, True), (8 << 20, False)):
        body = raw + bytes(extra)
        path.write_bytes(gzip.compress(body, 1, mtime=0) if suffix == ".nii.gz" else body)
        if readable:
            assert read_nifti(path).intensities.tobytes() == read_nifti(small).intensities.tobytes()
            continue
        for read in (read_nifti, read_mask):
            exc, peak = _traced_peak(lambda: read(path))
            assert isinstance(exc, UnsupportedDatatype) and "bytes follow" in str(exc)
            assert peak < 16 + nifti.CHUNK, peak


def test_a_header_past_max_voxels_is_refused_before_any_voxel_is_read(tmp_path, monkeypatch):
    path = tmp_path / "v.nii.gz"
    write_nifti(sample_volume(dims=(5, 4, 3)), path, dtype="int16")
    raw = bytearray(gzip.decompress(path.read_bytes()))
    struct.pack_into("<3h", raw, 42, 1024, 1024, 129)  # 2^27 + 2^20 voxels, 8 of them stored
    path.write_bytes(gzip.compress(bytes(raw)))
    for read in (read_nifti, read_mask):
        exc, peak = _traced_peak(lambda: read(path))
        assert isinstance(exc, UnsupportedDatatype) and "more than 134217728" in str(exc)
        assert peak < nifti.CHUNK, peak
    # the bound itself is allowed
    path = tmp_path / "w.nii"
    write_nifti(sample_volume(dims=(5, 4, 3)), path, dtype="int16")
    monkeypatch.setattr(nifti, "MAX_VOXELS", 60)
    assert read_nifti(path).dims == (5, 4, 3)
    monkeypatch.setattr(nifti, "MAX_VOXELS", 59)
    with pytest.raises(UnsupportedDatatype):
        read_mask(path)
