import tracemalloc

import numpy as np
import pytest

from cacrad.errors import NonFiniteValue, TooManyGrayLevels
from cacrad.features import ExtractionConfig, extract_all
from cacrad.features.catalog import FAMILIES, FAMILY_COUNTS, FEATURE_NAMES, catalog_text
from cacrad.features.firstorder import first_order
from cacrad.features.shape import shape_features
from cacrad.features.texture import (
    glcm_features,
    gldm_features,
    glrlm_features,
    glszm_features,
    ngtdm_features,
)
from cacrad.nifti import Volume3D
from cacrad.preprocess import discretize_fixed_width, resample_mask_nearest
from cacrad.texmat import (
    compute_glcm,
    compute_gldm,
    compute_glrlm,
    compute_glszm,
    compute_ngtdm,
)

import oracles
from oracles import triangulate_mask
from conftest import disc_from_grid, random_level_grid, roi_from_values


def rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_family(got: dict, want: dict, rtol, label):
    assert set(got) == set(want)
    for name in want:
        assert rel_close(got[name], want[name], rtol), \
            f"{label}.{name}: {got[name]!r} vs oracle {want[name]!r}"


def random_case(seed, max_dims=(6, 6, 4)):
    rng = np.random.default_rng(seed)
    grid = random_level_grid(rng, max_dims=max_dims)
    spacing = tuple(float(s) for s in rng.uniform(0.4, 2.0, size=3))
    mask = grid > 0
    values = rng.normal(0.0, 80.0, size=grid.shape)
    return grid, mask, values, spacing


@pytest.mark.parametrize("trial", range(25))
def test_texture_features_match_literal_oracle(trial):
    grid, _, _, _ = random_case(2000 + trial)
    disc = disc_from_grid(grid)

    got = glcm_features(compute_glcm(disc))
    want = oracles.glcm_oracle(oracles.glcm_counts(grid, disc.ng,
                                                   list(oracles.folded_directions())))
    if want is None:
        # single voxel: documented substitution values
        assert got["Correlation"] == 1.0 and got["MCC"] == 1.0
        assert got["Contrast"] == 0.0
    else:
        check_family(got, want, 1e-9, "glcm")

    check_family(glrlm_features(compute_glrlm(disc)),
                 oracles.glrlm_oracle(oracles.glrlm_counts(
                     grid, disc.ng, list(oracles.folded_directions()))),
                 1e-9, "glrlm")
    check_family(glszm_features(compute_glszm(disc)),
                 oracles.glszm_oracle(oracles.glszm_counts(grid, disc.ng)),
                 1e-9, "glszm")
    check_family(gldm_features(compute_gldm(disc, alpha=0)),
                 oracles.gldm_oracle(oracles.gldm_counts(grid, disc.ng, alpha=0)),
                 1e-9, "gldm")
    n, s, valid = oracles.ngtdm_tables(grid, disc.ng)
    check_family(ngtdm_features(compute_ngtdm(disc)),
                 oracles.ngtdm_oracle(n, s, valid), 1e-9, "ngtdm")


@pytest.mark.parametrize("trial", range(25))
def test_firstorder_matches_literal_oracle(trial):
    grid, mask, values, spacing = random_case(3000 + trial)
    roi = roi_from_values(values, mask, spacing)
    disc = discretize_fixed_width(roi, 25.0)
    got = first_order(roi, disc)
    want = oracles.firstorder_oracle(roi.values, disc.levels, disc.ng, spacing)
    check_family(got, want, 1e-9, "firstorder")


@pytest.mark.parametrize("trial", range(15))
def test_shape_matches_literal_oracle(trial):
    grid, mask, _, spacing = random_case(4000 + trial)
    got = shape_features(mask, spacing)
    tri = triangulate_mask(mask, spacing)
    want = oracles.shape_oracle(mask, spacing, tri)
    check_family(got, want, 1e-6, "shape")


def constant_roi_vector(value=50.0, dims=(3, 3, 2)):
    mask = np.ones(dims, dtype=bool)
    values = np.full(dims, value)
    vol = Volume3D(dims=dims, spacing=(1.0, 1.0, 1.0), intensities=values)
    return extract_all(vol, mask)


def test_constant_roi_is_finite_with_documented_substitutions():
    vec = dict(zip(FEATURE_NAMES, constant_roi_vector()))
    assert all(np.isfinite(v) for v in vec.values())
    assert vec["firstorder_Skewness"] == 0.0
    assert vec["firstorder_Kurtosis"] == 0.0
    assert vec["firstorder_Variance"] == 0.0
    assert vec["firstorder_Entropy"] == 0.0
    assert vec["firstorder_Uniformity"] == 1.0
    assert vec["glcm_Correlation"] == 1.0
    assert vec["glcm_MCC"] == 1.0
    assert vec["glcm_Contrast"] == 0.0
    assert vec["ngtdm_Coarseness"] == 1e6  # s sums to 0 on a flat region
    assert vec["ngtdm_Contrast"] == 0.0


def test_single_voxel_roi_is_finite():
    dims = (3, 3, 3)
    mask = np.zeros(dims, dtype=bool)
    mask[1, 1, 1] = True
    vol = Volume3D(dims=dims, spacing=(0.7, 0.7, 1.2),
                   intensities=np.full(dims, 123.0))
    vec = dict(zip(FEATURE_NAMES, extract_all(vol, mask)))
    assert all(np.isfinite(v) for v in vec.values())
    assert vec["glcm_Correlation"] == 1.0 and vec["glcm_MCC"] == 1.0
    assert vec["shape_Maximum3DDiameter"] == 0.0
    # octahedron around a lone voxel: V = sxsysz/6 (float32-quantized spacing)
    sx, sy, sz = vol.spacing
    assert vec["shape_MeshVolume"] == pytest.approx(sx * sy * sz / 6.0, rel=1e-9)


@pytest.mark.parametrize("line_axis", [0, 1, 2])
def test_degenerate_line_roi_is_finite(line_axis):
    dims = [1, 1, 1]
    dims[line_axis] = 5
    dims = tuple(dims)
    rng = np.random.default_rng(7)
    vol = Volume3D(dims=dims, spacing=(1.0, 1.0, 1.0),
                   intensities=rng.normal(size=dims) * 60)
    vec = extract_all(vol, np.ones(dims, bool))
    assert np.all(np.isfinite(vec))


@pytest.mark.parametrize("cfg", [ExtractionConfig(bin_width=1e-4),
                                 ExtractionConfig(n_bins=10 ** 7),
                                 ExtractionConfig(n_bins=10 ** 12)],
                         ids=["bin_width_1e-4", "n_bins_1e7", "n_bins_1e12"])
def test_too_many_gray_levels_fail_before_anything_of_size_ng(cfg):
    # a 0 HU and a 1000 HU voxel: 10^7 levels, or 10^12, whose 7.3 TiB
    # histogram numpy would refuse with MemoryError
    dims = (2, 1, 1)
    vol = Volume3D(dims=dims, spacing=(1.0, 1.0, 1.0),
                   intensities=np.array([0.0, 1000.0]).reshape(dims))
    mask = np.ones(dims, bool)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyGrayLevels, match="gray levels"):
            extract_all(vol, mask, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_degenerate_plane_roi_is_finite():
    dims = (4, 4, 1)
    rng = np.random.default_rng(8)
    vol = Volume3D(dims=dims, spacing=(1.0, 1.0, 1.0),
                   intensities=rng.normal(size=dims) * 60)
    vec = extract_all(vol, np.ones(dims, bool))
    assert np.all(np.isfinite(vec))


def test_translation_invariance(rng):
    grid, mask, values, spacing = random_case(11)
    vol_dims = tuple(d + 4 for d in grid.shape)

    def embedded(offset):
        vals = np.zeros(vol_dims)
        m = np.zeros(vol_dims, dtype=bool)
        sl = tuple(slice(o, o + d) for o, d in zip(offset, grid.shape))
        vals[sl] = values
        m[sl] = mask
        vol = Volume3D(dims=vol_dims, spacing=spacing, intensities=vals)
        return extract_all(vol, m)

    a = embedded((0, 0, 0))
    b = embedded((3, 2, 1))
    # signed tetra volumes reference the origin, so mesh aggregates may
    # differ in the last ulps under translation; everything else is exact
    mesh_derived = {"shape_MeshVolume", "shape_SurfaceArea",
                    "shape_Sphericity", "shape_SurfaceVolumeRatio"}
    for k, name in enumerate(FEATURE_NAMES):
        if name in mesh_derived:
            assert a[k] == pytest.approx(b[k], rel=1e-12), name
        else:
            assert a[k] == b[k], name


def test_intensity_shift_moves_only_location_features(rng):
    grid, mask, values, spacing = random_case(12)
    vol_dims = grid.shape

    def vec_for(vals):
        vol = Volume3D(dims=vol_dims, spacing=spacing, intensities=vals)
        return dict(zip(FEATURE_NAMES, extract_all(vol, mask)))

    a = vec_for(values)
    b = vec_for(values + 100.0)
    shift_sensitive = {
        "firstorder_10Percentile", "firstorder_90Percentile", "firstorder_Energy",
        "firstorder_Maximum", "firstorder_Mean", "firstorder_Median",
        "firstorder_Minimum", "firstorder_TotalEnergy",
    }
    for name in FEATURE_NAMES:
        if name in shift_sensitive:
            continue
        # min-anchored binning gives identical levels, so texture is unchanged
        assert a[name] == pytest.approx(b[name], rel=1e-9, abs=1e-9), name


def test_catalog_shape_and_order():
    assert len(FEATURE_NAMES) == 107
    assert FAMILY_COUNTS == {"firstorder": 18, "shape": 14, "glcm": 24,
                             "glrlm": 16, "glszm": 16, "gldm": 14, "ngtdm": 5}
    families = [f for f, _ in FAMILIES]
    assert families == ["firstorder", "shape", "glcm", "glrlm", "glszm", "gldm", "ngtdm"]
    for family, entries in FAMILIES:
        names = [n for n, _ in entries]
        assert names == sorted(names), f"{family} not alphabetical"
    # spot checks against the fixed column order
    assert FEATURE_NAMES[0] == "firstorder_10Percentile"
    assert FEATURE_NAMES[18] == "shape_Elongation"
    assert FEATURE_NAMES[-1] == "ngtdm_Strength"


def test_catalog_text_lists_every_feature():
    text = catalog_text()
    for name in FEATURE_NAMES:
        assert name in text


def test_extraction_config_fixed_count_mode(rng):
    grid, mask, values, spacing = random_case(13)
    vol = Volume3D(dims=grid.shape, spacing=spacing, intensities=values)
    a = extract_all(vol, mask, ExtractionConfig(n_bins=8))
    b = extract_all(vol, mask, ExtractionConfig(n_bins=8))
    assert np.array_equal(a, b)
    assert a.dtype == np.float64 and a.shape == (len(FEATURE_NAMES),)


def test_a_mask_of_any_dtype_is_its_nonzero_voxels():
    grid, mask, values, spacing = random_case(14)
    vol = Volume3D(dims=grid.shape, spacing=spacing, intensities=values)
    want = extract_all(vol, mask).tobytes()
    for labels in (mask.astype(np.int16) * 3, mask.astype(np.float64)):
        assert extract_all(vol, labels).tobytes() == want


def test_a_non_finite_value_names_its_column(monkeypatch):
    import cacrad.features

    first_order = cacrad.features.first_order
    monkeypatch.setattr(cacrad.features, "first_order",
                        lambda roi, disc: {**first_order(roi, disc), "Median": np.nan})
    with pytest.raises(NonFiniteValue, match=r"\['firstorder_Median'\]"):
        constant_roi_vector()


def test_empty_mask_raises():
    from cacrad.errors import EmptyMask
    dims = (3, 3, 3)
    vol = Volume3D(dims=dims, spacing=(1, 1, 1), intensities=np.zeros(dims))
    with pytest.raises(EmptyMask):
        extract_all(vol, np.zeros(dims, bool))


def test_extract_all_resamples_volume_and_mask():
    rng = np.random.default_rng(17)
    dims = (10, 10, 8)
    vol = Volume3D(dims=dims, spacing=(1.0, 1.0, 1.0),
                   intensities=rng.normal(0.0, 80.0, size=dims))
    mask = np.zeros(dims, dtype=bool)
    mask[2:8, 2:8, 2:6] = True
    native = extract_all(vol, mask)
    # a resample onto the native 1 mm grid changes no value
    same = extract_all(vol, mask, ExtractionConfig(resample_spacing=(1.0, 1.0, 1.0)))
    assert native.tobytes() == same.tobytes()
    # at 2 mm, shape is measured on the nearest-neighbour mask in 2 mm voxels
    coarse = extract_all(vol, mask, ExtractionConfig(resample_spacing=(2.0, 2.0, 2.0)))
    kept = resample_mask_nearest(mask, vol.spacing, (2.0, 2.0, 2.0))
    assert kept.shape == (5, 5, 4) and kept.sum() == 18
    got = dict(zip(FEATURE_NAMES, coarse))
    assert got["shape_VoxelVolume"] == 8.0 * 18
    assert got["shape_Maximum3DDiameter"] == pytest.approx(2.0 * np.sqrt(4 + 4 + 1))
    assert not np.array_equal(native, coarse)
