"""The moment, MCC and mesh kernels against the slower formulas they replace.

first_order takes the third and fourth central moments as products of
squares, _mcc takes symmetric eigenvalues, and shape_features sums the
mesh per cube case. Each is compared here, at 1e-12 relative, with the
textbook form: fsum moments, the general eigenvalues of
Q = D^-1 P D^-1 P, and the triangle soup.
"""

import math

import numpy as np
import pytest

import oracles
from cacrad.features import texture
from cacrad.features.firstorder import first_order
from cacrad.features.shape import shape_features
from cacrad.preprocess import discretize_fixed_width
from conftest import roi_from_values

RTOL = 1e-12


def close(got, want):
    return abs(got - want) <= RTOL * abs(want)


# --- moments ---------------------------------------------------------------

def moment_rois():
    rng = np.random.default_rng(2401)
    for trial in range(12):
        dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
        mask = rng.random(dims) < 0.7
        mask[0, 0, 0] = True
        values = (rng.normal(40.0, 200.0, dims), rng.gamma(2.0, 60.0, dims) - 100.0,
                  np.round(rng.normal(1000.0, 30.0, dims)))[trial % 3]
        yield f"random {trial}", values, mask
    yield "constant", np.full((3, 3, 2), 130.0), np.ones((3, 3, 2), dtype=bool)


@pytest.mark.parametrize("name, values, mask", list(moment_rois()))
def test_moments_match_the_fsum_oracle(name, values, mask):
    roi = roi_from_values(values, mask, (0.7, 0.45, 2.5))
    disc = discretize_fixed_width(roi, 25.0)
    got = first_order(roi, disc)
    want = oracles.firstorder_oracle(roi.values, disc.levels, disc.ng, roi.spacing)
    for key in ("Variance", "Skewness", "Kurtosis"):
        assert close(got[key], want[key]), (name, key, got[key], want[key])
    if name == "constant":
        assert got["Skewness"] == got["Kurtosis"] == 0.0


# --- MCC -------------------------------------------------------------------

def general_mcc(p):
    """MCC of one normalized symmetric GLCM from the general eigenvalues of
    Q = D^-1 P D^-1 P over its present levels, as _mcc computed it before."""
    px = p.sum(axis=1)
    present = px > 0
    if present.sum() < 2:
        return 1.0
    sub = p[np.ix_(present, present)]
    pxs = sub.sum(axis=1)
    q = (sub / pxs[:, None]) @ (sub / pxs[None, :]).T
    eig = np.sort(np.linalg.eigvals(q).real)
    return float(np.sqrt(max(0.0, eig[-2])))


@pytest.mark.parametrize("seed", range(6))
def test_mcc_matches_the_general_eigenvalue_formula(seed):
    # Q's eigenvalues are MCC squared, so the general formula loses relative
    # accuracy as MCC nears 0; a weighted diagonal keeps MCC well above that
    rng = np.random.default_rng(2410 + seed)
    ng = int(rng.integers(3, 14))
    counts = np.zeros((13, ng, ng), dtype=np.int64)
    for k in range(13):
        levels = np.flatnonzero(rng.random(ng) < 0.6) if k % 3 else np.arange(ng)
        if k == 4 or len(levels) < 2:
            levels = levels[:1] if len(levels) else np.arange(1)  # MCC is 1
        sub = rng.integers(0, 20, size=(len(levels), len(levels)))
        counts[k][np.ix_(levels, levels)] = sub + sub.T + 1 + 25 * np.eye(len(levels), dtype=int)
    sets = {tuple(np.flatnonzero(counts[k].sum(axis=1))) for k in range(13)}
    assert 2 < len(sets) < 13  # some directions share a present-level set
    p = counts / counts.sum(axis=(1, 2))[:, None, None]
    got = texture._mcc(p, p.sum(axis=2))
    assert got[4] == 1.0
    for k in range(13):
        want = general_mcc(p[k])
        assert want > 0.05 and close(got[k], want), (k, got[k], want)


# --- mesh volume and area ----------------------------------------------------

def mesh_masks():
    rng = np.random.default_rng(2420)
    for trial in range(6):
        dims = tuple(int(d) for d in rng.integers(1, 12, size=3))
        mask = rng.random(dims) < 0.2 + 0.12 * trial
        mask[tuple(d // 2 for d in dims)] = True
        yield f"random {trial}", mask
    z = np.arange(24)
    x, y = np.ogrid[:14, :14]
    yield "tube", np.stack([(x - 7 - 3 * np.sin(t / 4)) ** 2 + (y - 7) ** 2 <= 9 for t in z],
                           axis=2)
    yield "one voxel", np.ones((1, 1, 1), dtype=bool)
    border = rng.random((7, 6, 5)) < 0.5
    border[0], border[:, -1], border[:, :, 0] = True, True, True
    yield "border", border


@pytest.mark.parametrize("spacing", [(0.7, 0.45, 2.5), (1.9, 0.3, 0.8)])
def test_mesh_volume_and_area_match_the_triangle_soup(spacing):
    for name, mask in mesh_masks():
        got = shape_features(mask, spacing)
        vol, area = oracles.mesh_volume_area(oracles.triangulate_mask(mask, spacing))
        assert close(got["MeshVolume"], vol), (name, got["MeshVolume"], vol)
        assert close(got["SurfaceArea"], area), (name, got["SurfaceArea"], area)
    # one voxel's surface is the octahedron on its face centres
    got = shape_features(np.ones((1, 1, 1), dtype=bool), spacing)
    sx, sy, sz = spacing
    assert close(got["MeshVolume"], sx * sy * sz / 6.0)
    face = math.sqrt((sx * sy) ** 2 + (sy * sz) ** 2 + (sz * sx) ** 2) / 8.0
    assert close(got["SurfaceArea"], 8.0 * face)

