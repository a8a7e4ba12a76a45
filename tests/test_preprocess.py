import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacrad.errors import BadSpacing, DimMismatch, EmptyMask, NonPositiveWidth, TooManyGrayLevels
from cacrad.nifti import MAX_VOXELS, Volume3D
from cacrad.preprocess import (
    _target_dims,
    apply_mask,
    bounding_box,
    discretize_fixed_count,
    discretize_fixed_width,
    resample_mask_nearest,
    resample_trilinear,
)

from conftest import roi_from_values


def small_volume(values, spacing=(1.0, 1.0, 1.0)):
    arr = np.asarray(values, dtype=np.float64)
    return Volume3D(dims=arr.shape, spacing=spacing, intensities=arr)


def test_apply_mask_selects_expected_voxels():
    vals = np.arange(8.0).reshape(2, 2, 2)
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[0, 0, 0] = mask[1, 1, 1] = True
    roi = apply_mask(small_volume(vals), mask)
    assert sorted(roi.values.tolist()) == [0.0, 7.0]
    assert len(roi) == 2


def test_apply_mask_crops_to_the_mask_box():
    rng = np.random.default_rng(9)
    vals = rng.normal(0.0, 300.0, size=(23, 17, 11))
    labels = np.zeros(vals.shape, dtype=bool)
    labels[5:14, 3:9, 4:10] = rng.random((9, 6, 6)) < 0.4
    labels[5, 3, 4] = labels[13, 8, 9] = True
    roi = apply_mask(small_volume(vals), labels)
    for other in (labels.astype(np.int16) * 2, labels.astype(np.float32)):
        same = apply_mask(small_volume(vals), other)
        assert same.values.tobytes() == roi.values.tobytes()
        assert same.mask.dtype == bool and np.array_equal(same.mask, roi.mask)
    assert roi.mask.shape == (9, 6, 6)
    assert roi.corner == (5, 3, 4)
    assert np.array_equal(np.argwhere(roi.mask) + roi.corner, np.argwhere(labels))
    assert roi.values.tobytes() == vals[labels].tobytes()
    disc = discretize_fixed_width(roi, 25.0)
    assert disc.grid.dtype == np.int32 and disc.grid.shape == roi.mask.shape
    assert np.array_equal(disc.grid > 0, roi.mask)
    assert np.array_equal(disc.grid[roi.mask], disc.levels)


def test_bounding_box_is_the_index_range_of_the_mask():
    rng = np.random.default_rng(10)
    for trial in range(300):
        shape = tuple(int(n) for n in rng.integers(1, 9, size=3))
        labels = rng.random(shape) < rng.choice([0.0, 0.02, 0.2, 1.0])
        idx = np.argwhere(labels)
        want = (tuple(slice(int(lo), int(hi) + 1) for lo, hi in zip(idx.min(axis=0), idx.max(axis=0)))
                if len(idx) else (slice(0, 0),) * 3)
        assert bounding_box(labels) == want, trial


def test_apply_mask_of_an_all_false_mask_is_empty():
    roi = apply_mask(small_volume(np.ones((4, 3, 2))),
                     np.zeros((4, 3, 2), bool))
    assert len(roi) == 0 and roi.mask.size == 0
    with pytest.raises(EmptyMask):
        discretize_fixed_width(roi, 25.0)
    with pytest.raises(EmptyMask):
        discretize_fixed_count(roi, 8)


def test_apply_mask_dim_mismatch():
    with pytest.raises(DimMismatch):
        apply_mask(small_volume(np.zeros((2, 2, 2))),
                   np.ones((3, 3, 3), bool))


def test_fixed_width_binning_known_values():
    vals = np.array([[[0.0, 24.9, 25.0, 70.0]]])
    mask = np.ones(vals.shape, dtype=bool)
    roi = roi_from_values(vals, mask)
    disc = discretize_fixed_width(roi, 25.0)
    assert disc.levels.tolist() == [1, 1, 2, 3]
    assert disc.ng == 3


def test_fixed_count_binning_known_values():
    vals = np.array([[[0.0, 1.0, 2.0, 3.0, 4.0]]])
    mask = np.ones(vals.shape, dtype=bool)
    disc = discretize_fixed_count(roi_from_values(vals, mask), 4)
    # bins [0,1),[1,2),[2,3),[3,4]: the max folds into the top bin
    assert disc.levels.tolist() == [1, 2, 3, 4, 4]
    assert disc.ng == 4


def test_discretize_errors():
    vals = np.ones((1, 1, 2))
    roi = roi_from_values(vals, np.ones((1, 1, 2), bool))
    with pytest.raises(NonPositiveWidth):
        discretize_fixed_width(roi, 0.0)
    with pytest.raises(NonPositiveWidth):
        discretize_fixed_count(roi, 0)
    empty = roi_from_values(vals, np.zeros((1, 1, 2), bool))
    with pytest.raises(EmptyMask):
        discretize_fixed_width(empty, 25.0)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1024.0, 3071.0), (-0.5, 1e-300)])
def test_fixed_width_decides_the_int32_bound_as_a_float64_division(lo, hi):
    # widths a few ulps either side of (hi - lo) / (2**31 - 2); the range
    # is divided in Python floats, which round as numpy's float64 scalars
    roi = roi_from_values(np.array([lo, hi]).reshape(2, 1, 1), np.ones((2, 1, 1), bool))
    width = (hi - lo) / (2 ** 31 - 2)
    decisions = set()
    for k in range(-4, 5):
        w = width * (1 + k * 2.0 ** -52)
        refused = not (np.float64(hi) - np.float64(lo)) / np.float64(w) < 2 ** 31 - 2
        decisions.add(refused)
        if refused:
            with pytest.raises(TooManyGrayLevels):
                discretize_fixed_width(roi, float(w))
        else:
            assert discretize_fixed_width(roi, float(w)).ng <= 2 ** 31 - 2
    assert decisions == {False, True}


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    vals=st.lists(st.floats(-1000, 2000, allow_nan=False), min_size=1, max_size=40),
    width=st.floats(0.5, 200, allow_nan=False),
)
def test_fixed_width_levels_property(vals, width):
    arr = np.array(vals, dtype=np.float64).reshape(1, 1, -1)
    roi = roi_from_values(arr, np.ones(arr.shape, bool))
    disc = discretize_fixed_width(roi, width)
    assert disc.levels.min() >= 1
    assert disc.levels.max() == disc.ng
    # level is the textbook fixed-width bin of the offset from the minimum
    lo = arr.min()
    for v, lv in zip(roi.values, disc.levels):
        assert lv == int(np.floor((v - lo) / width)) + 1
    # monotone: larger value never gets a smaller level
    order = np.argsort(roi.values, kind="stable")
    assert np.all(np.diff(disc.levels[order]) >= 0)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    vals=st.lists(st.floats(-500, 500, allow_nan=False), min_size=1, max_size=40),
    n_bins=st.integers(1, 16),
)
def test_fixed_count_levels_property(vals, n_bins):
    arr = np.array(vals, dtype=np.float64).reshape(1, -1, 1)
    roi = roi_from_values(arr, np.ones(arr.shape, bool))
    disc = discretize_fixed_count(roi, n_bins)
    assert disc.levels.min() >= 1
    assert disc.ng <= n_bins
    if arr.min() != arr.max():
        # the top of the range lands exactly in the last bin
        assert disc.levels[np.argmax(roi.values)] == disc.ng


def test_resample_constant_volume_stays_constant():
    vol = Volume3D(dims=(6, 6, 4), spacing=(1.0, 1.0, 2.0),
                   intensities=np.full((6, 6, 4), 42.0))
    out = resample_trilinear(vol, (0.5, 0.5, 0.5))
    assert out.dims == (12, 12, 16)
    assert np.allclose(out.intensities, 42.0)


def test_resample_identity_spacing_preserves_values():
    rng = np.random.default_rng(0)
    vol = Volume3D(dims=(5, 4, 3), spacing=(1.0, 1.0, 1.0),
                   intensities=rng.normal(size=(5, 4, 3)))
    out = resample_trilinear(vol, (1.0, 1.0, 1.0))
    assert out.dims == vol.dims
    assert np.allclose(out.intensities, vol.intensities)


def test_resample_linear_ramp_exact_interior():
    # trilinear interpolation reproduces affine fields exactly away from edges
    nx = 16
    ramp = np.tile(np.arange(nx, dtype=np.float64)[:, None, None], (1, 4, 4))
    vol = Volume3D(dims=(nx, 4, 4), spacing=(1.0, 1.0, 1.0), intensities=ramp)
    out = resample_trilinear(vol, (0.5, 1.0, 1.0))
    centers = (np.arange(out.dims[0]) + 0.5) * 0.5 - 0.5
    interior = (centers > 0) & (centers < nx - 1)
    assert np.allclose(out.intensities[interior, 2, 2], centers[interior])


def test_resample_mask_preserves_large_structure():
    mask = np.zeros((8, 8, 8), dtype=bool)
    mask[2:6, 2:6, 2:6] = True
    out = resample_mask_nearest(mask, (1.0, 1.0, 1.0), (0.5, 0.5, 0.5))
    assert out.shape == (16, 16, 16) and out.dtype == bool
    # volume fraction is conserved up to boundary rounding
    frac_in = mask.mean()
    frac_out = out.mean()
    assert abs(frac_in - frac_out) < 0.05
    with pytest.raises(BadSpacing):
        resample_mask_nearest(mask, (1.0, 1.0, 1.0), (0.0, 1.0, 1.0))


def test_resample_bad_spacing():
    vol = Volume3D(dims=(2, 2, 2), spacing=(1, 1, 1), intensities=np.zeros((2, 2, 2)))
    with pytest.raises(BadSpacing):
        resample_trilinear(vol, (-1.0, 1.0, 1.0))


def dense_resample_trilinear(vol, target):
    """resample_trilinear's body with full-volume meshgrid index grids."""
    new_dims = tuple(max(1, int(round(d * s / t)))
                     for d, s, t in zip(vol.dims, vol.spacing, target))
    frac = [np.clip((np.arange(new_dims[ax]) + 0.5) * target[ax] / vol.spacing[ax] - 0.5,
                    0.0, vol.dims[ax] - 1) for ax in range(3)]
    fx, fy, fz = np.meshgrid(*frac, indexing="ij")
    x0 = np.floor(fx).astype(int)
    y0 = np.floor(fy).astype(int)
    z0 = np.floor(fz).astype(int)
    x1 = np.minimum(x0 + 1, vol.dims[0] - 1)
    y1 = np.minimum(y0 + 1, vol.dims[1] - 1)
    z1 = np.minimum(z0 + 1, vol.dims[2] - 1)
    tx = fx - x0
    ty = fy - y0
    tz = fz - z0
    v = vol.intensities
    return (
        v[x0, y0, z0] * (1 - tx) * (1 - ty) * (1 - tz)
        + v[x1, y0, z0] * tx * (1 - ty) * (1 - tz)
        + v[x0, y1, z0] * (1 - tx) * ty * (1 - tz)
        + v[x0, y0, z1] * (1 - tx) * (1 - ty) * tz
        + v[x1, y1, z0] * tx * ty * (1 - tz)
        + v[x1, y0, z1] * tx * (1 - ty) * tz
        + v[x0, y1, z1] * (1 - tx) * ty * tz
        + v[x1, y1, z1] * tx * ty * tz
    )


def dense_resample_mask(mask, spacing, target):
    """resample_mask_nearest's body with full-volume meshgrid index grids."""
    new_dims = tuple(max(1, int(round(d * s / t)))
                     for d, s, t in zip(mask.shape, spacing, target))
    idx = [np.clip(np.rint((np.arange(new_dims[ax]) + 0.5) * target[ax] / spacing[ax]
                           - 0.5).astype(int), 0, mask.shape[ax] - 1) for ax in range(3)]
    ix, iy, iz = np.meshgrid(*idx, indexing="ij")
    return mask[ix, iy, iz]


@pytest.mark.parametrize("target", [(1.0, 1.0, 1.5), (2.0, 2.5, 3.0), (0.7, 1.3, 2.0)])
def test_resamplers_equal_the_dense_meshgrid_body(target):
    rng = np.random.default_rng(71)
    dims, spacing = (23, 17, 11), (1.0, 1.0, 1.5)
    vol = Volume3D(dims=dims, spacing=spacing,
                   intensities=np.round(rng.normal(0.0, 300.0, size=dims), 1))
    mask = rng.random(dims) < 0.4
    out = resample_trilinear(vol, target)
    assert out.intensities.tobytes() == dense_resample_trilinear(vol, target).tobytes()
    labels = resample_mask_nearest(mask, spacing, target)
    assert labels.tobytes() == dense_resample_mask(mask, spacing, target).tobytes()


def test_resamplers_hold_no_full_volume_index_grids():
    dims = (64, 64, 32)
    vol = Volume3D(dims=dims, spacing=(1.0, 1.0, 1.0), intensities=np.zeros(dims))
    mask = np.zeros(dims, dtype=bool)
    target = (0.8, 0.8, 0.8)
    n_out = np.prod(resample_mask_nearest(mask, vol.spacing, target).shape)

    def peak_per_voxel(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / n_out
        finally:
            tracemalloc.stop()

    # dense index, weight and product grids took 120 and 25 bytes per voxel
    assert peak_per_voxel(lambda: resample_trilinear(vol, target)) < 32
    assert peak_per_voxel(lambda: resample_mask_nearest(mask, vol.spacing, target)) < 4


def test_oversized_resampled_grid_is_refused():
    vol = Volume3D(dims=(44, 44, 28), spacing=(0.49, 0.49, 1.41),
                   intensities=np.zeros((44, 44, 28)))
    mask = np.ones(vol.dims, dtype=bool)
    for target in ((0.01, 0.01, 0.01), (1e-300, 1.0, 1.0)):
        with pytest.raises(BadSpacing, match="voxels"):
            resample_trilinear(vol, target)
        with pytest.raises(BadSpacing, match="voxels"):
            resample_mask_nearest(mask, vol.spacing, target)
    # a 512 x 512 x 300 scan fits at its own spacing
    assert _target_dims((512, 512, 300), (0.4, 0.4, 0.6), (0.4, 0.4, 0.6)) == (512, 512, 300)
    assert np.prod((512, 512, 300)) <= MAX_VOXELS
