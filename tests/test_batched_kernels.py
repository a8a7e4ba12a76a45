"""Batched descriptors, bincount matrices, blocked diameter scans, the lean
regression-tree node and its per-fit row-set cache and fold-lockstep
forests against the one-direction, one-slice, scatter-add, uncached,
per-fold and untrimmed code they replaced.

The references below are that code, kept here verbatim in what it
computes, except the tree-split reference, which scores each candidate
split in a loop, the cluster moments, taken as products of the centred
sum c (c * c * c for c ** 3), and the run, zone and dependence
references, which read only the family's occupied columns, each still
weighted by its index + 1. Every comparison is ``==`` on floats: the batched forms
must give the same bits, not close values.
"""

import tracemalloc

import numpy as np
import pytest

from cacrad.features import texture
from cacrad.features.shape import (
    _line_interiors,
    _max_pairwise,
    shape_features,
    surface_voxels,
)
from cacrad.features.texture import (
    glcm_features,
    gldm_features,
    glrlm_features,
    glszm_features,
    ngtdm_features,
)
from cacrad.learn import boosting
from cacrad.learn import tree as tree_module
from cacrad.learn.boosting import GradientBoostedTrees
from cacrad.learn.forest import RandomForest
from cacrad.learn.mlp import _sigmoid
from cacrad.learn.model import document
from cacrad.learn.split import stratified_kfold
from cacrad.learn.tree import (
    RowSetCache,
    Tree,
    _sort_rows,
    _sse_best_split,
    grow_regression_tree,
)
from cacrad.rng import stream
from cacrad.texmat import (
    DIRECTIONS_13,
    Glcm,
    Glrlm,
    compute_glcm,
    compute_gldm,
    compute_glrlm,
    compute_glszm,
    compute_ngtdm,
    flat_steps,
)

from conftest import disc_from_grid, renumber


# --- references: the per-direction, per-slice and add.at code -------------

def ref_entropy(p):
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0


def ref_glcm_one(p, ng):
    i = np.arange(1, ng + 1, dtype=np.float64)
    ii = i[:, None]
    jj = i[None, :]
    px = p.sum(axis=1)
    mu = float((i * px).sum())
    sig2 = float(((i - mu) ** 2 * px).sum())

    ksum = np.arange(2 * ng + 1, dtype=np.float64)
    psum = np.zeros(2 * ng + 1)
    np.add.at(psum, (ii + jj).astype(int).ravel(), p.ravel())
    kdiff = np.arange(ng, dtype=np.float64)
    pdiff = np.zeros(ng)
    np.add.at(pdiff, np.abs(ii - jj).astype(int).ravel(), p.ravel())

    autoc = float((ii * jj * p).sum())
    corr = (autoc - mu * mu) / sig2 if sig2 > 0 else 1.0
    diff_avg = float((kdiff * pdiff).sum())

    hx = ref_entropy(px)
    hxy = ref_entropy(p)
    outer = px[:, None] * px[None, :]
    pos = (p > 0) & (outer > 0)
    hxy1 = float(-(p[pos] * np.log2(outer[pos])).sum())
    hxy2 = ref_entropy(outer)
    imc1 = (hxy - hxy1) / hx if hx > 0 else 0.0
    imc2 = float(np.sqrt(max(0.0, 1.0 - np.exp(-2.0 * (hxy2 - hxy)))))

    present = px > 0
    if present.sum() < 2:
        mcc = 1.0
    else:
        r = 1.0 / np.sqrt(px[present])
        lam = np.linalg.eigvalsh(p[np.ix_(present, present)] * r[:, None] * r[None, :])
        mcc = float(np.sqrt(np.sort(lam ** 2)[-2]))

    c = ii + jj - 2 * mu
    c2 = c * c
    return {
        "Autocorrelation": autoc,
        "ClusterProminence": float((c2 * c2 * p).sum()),
        "ClusterShade": float((c2 * c * p).sum()),
        "ClusterTendency": float((c2 * p).sum()),
        "Contrast": float(((ii - jj) ** 2 * p).sum()),
        "Correlation": corr,
        "DifferenceAverage": diff_avg,
        "DifferenceEntropy": ref_entropy(pdiff),
        "DifferenceVariance": float(((kdiff - diff_avg) ** 2 * pdiff).sum()),
        "Id": float((pdiff / (1.0 + kdiff)).sum()),
        "Idm": float((pdiff / (1.0 + kdiff ** 2)).sum()),
        "Idmn": float((pdiff / (1.0 + kdiff ** 2 / ng ** 2)).sum()),
        "Idn": float((pdiff / (1.0 + kdiff / ng)).sum()),
        "Imc1": imc1,
        "Imc2": imc2,
        "InverseVariance": float((pdiff[1:] / kdiff[1:] ** 2).sum()),
        "JointAverage": mu,
        "JointEnergy": float((p ** 2).sum()),
        "JointEntropy": hxy,
        "MCC": mcc,
        "MaximumProbability": float(p.max()),
        "SumAverage": float((ksum * psum).sum()),
        "SumEntropy": ref_entropy(psum),
        "SumSquares": sig2,
    }


def ref_glcm_features(m):
    ng = m.counts.shape[1]
    per_dir = []
    for k in range(m.counts.shape[0]):
        total = m.counts[k].sum()
        if total == 0:
            continue
        per_dir.append(ref_glcm_one(m.counts[k] / total, ng))
    if not per_dir:
        return dict(texture._GLCM_EMPTY)
    return {key: float(np.mean([d[key] for d in per_dir])) for key in per_dir[0]}


def occupied(counts):
    """Indices of the columns with a count in some matrix of the stack."""
    return np.flatnonzero(counts.reshape(-1, counts.shape[-1]).any(axis=0))


def ref_weighted_family(mat, cols):
    """One matrix's family entries over the columns cols, column k weighted k + 1."""
    mat = mat[:, cols]
    row_weights = np.arange(1, mat.shape[0] + 1, dtype=np.float64)
    col_weights = cols + 1.0
    nz = float(mat.sum())
    i = row_weights[:, None]
    j = col_weights[None, :]
    p = mat / nz
    pi = p.sum(axis=1)
    pj = p.sum(axis=0)
    mu_i = float((row_weights * pi).sum())
    mu_j = float((col_weights * pj).sum())
    return {
        "nz": nz,
        "nw": float((mat * j).sum()),
        "low": float((mat / i ** 2).sum()) / nz,
        "high": float((mat * i ** 2).sum()) / nz,
        "short": float((mat / j ** 2).sum()) / nz,
        "long": float((mat * j ** 2).sum()) / nz,
        "short_low": float((mat / (i ** 2 * j ** 2)).sum()) / nz,
        "short_high": float((mat * i ** 2 / j ** 2).sum()) / nz,
        "long_low": float((mat * j ** 2 / i ** 2).sum()) / nz,
        "long_high": float((mat * (i ** 2) * (j ** 2)).sum()) / nz,
        "gln": float((mat.sum(axis=1) ** 2).sum()) / nz,
        "cln": float((mat.sum(axis=0) ** 2).sum()) / nz,
        "gl_var": float((((row_weights - mu_i) ** 2) * pi).sum()),
        "col_var": float((((col_weights - mu_j) ** 2) * pj).sum()),
        "entropy": ref_entropy(p),
    }


def ref_family_features(mat, names, cols):
    """One matrix's family descriptors under the family's names; the
    ratio entries are what the family functions derive from the shared ones."""
    f = ref_weighted_family(mat, cols)
    f.update(gln_n=f["gln"] / f["nz"], cln_n=f["cln"] / f["nz"], rp=f["nz"] / f["nw"])
    return {name: f[key] for key, name in names.items()}


def ref_glrlm_features(m):
    cols = occupied(m.counts)
    per_dir = [ref_family_features(m.counts[k].astype(np.float64), GLRLM_KEYS, cols)
               for k in range(m.counts.shape[0]) if m.counts[k].sum() > 0]
    return {key: float(np.mean([d[key] for d in per_dir])) for key in per_dir[0]}


GLRLM_KEYS = {
    "gln": "GrayLevelNonUniformity", "gln_n": "GrayLevelNonUniformityNormalized",
    "gl_var": "GrayLevelVariance", "high": "HighGrayLevelRunEmphasis",
    "long": "LongRunEmphasis", "long_high": "LongRunHighGrayLevelEmphasis",
    "long_low": "LongRunLowGrayLevelEmphasis", "low": "LowGrayLevelRunEmphasis",
    "entropy": "RunEntropy", "cln": "RunLengthNonUniformity",
    "cln_n": "RunLengthNonUniformityNormalized", "rp": "RunPercentage",
    "col_var": "RunVariance", "short": "ShortRunEmphasis",
    "short_high": "ShortRunHighGrayLevelEmphasis", "short_low": "ShortRunLowGrayLevelEmphasis",
}
GLSZM_KEYS = {
    "gln": "GrayLevelNonUniformity", "gln_n": "GrayLevelNonUniformityNormalized",
    "gl_var": "GrayLevelVariance", "high": "HighGrayLevelZoneEmphasis",
    "long": "LargeAreaEmphasis", "long_high": "LargeAreaHighGrayLevelEmphasis",
    "long_low": "LargeAreaLowGrayLevelEmphasis", "low": "LowGrayLevelZoneEmphasis",
    "cln": "SizeZoneNonUniformity", "cln_n": "SizeZoneNonUniformityNormalized",
    "short": "SmallAreaEmphasis", "short_high": "SmallAreaHighGrayLevelEmphasis",
    "short_low": "SmallAreaLowGrayLevelEmphasis", "entropy": "ZoneEntropy",
    "rp": "ZonePercentage", "col_var": "ZoneVariance",
}
GLDM_KEYS = {
    "entropy": "DependenceEntropy", "cln": "DependenceNonUniformity",
    "cln_n": "DependenceNonUniformityNormalized", "col_var": "DependenceVariance",
    "gln": "GrayLevelNonUniformity", "gl_var": "GrayLevelVariance",
    "high": "HighGrayLevelEmphasis", "long": "LargeDependenceEmphasis",
    "long_high": "LargeDependenceHighGrayLevelEmphasis",
    "long_low": "LargeDependenceLowGrayLevelEmphasis", "low": "LowGrayLevelEmphasis",
    "short": "SmallDependenceEmphasis", "short_high": "SmallDependenceHighGrayLevelEmphasis",
    "short_low": "SmallDependenceLowGrayLevelEmphasis",
}


def ref_max_pairwise(points, chunk=2048):
    if len(points) < 2:
        return 0.0
    best = 0.0
    for lo in range(0, len(points), chunk):
        d2 = 0.0
        for col in points.T:
            diff = col[lo:lo + chunk, None] - col[None, lo:]
            d2 = d2 + diff * diff
        best = max(best, float(d2.max()))
    return float(np.sqrt(best))


def ref_max_per_slice(levels, points):
    return max(ref_max_pairwise(points[levels == level]) for level in np.unique(levels))


def ref_ngtdm(roi):
    flat, steps = flat_steps(roi.grid)
    nb_sum = np.zeros(len(flat), dtype=np.int64)
    nb_cnt = np.zeros(len(flat), dtype=np.int64)
    for step in steps:
        a, b = flat[:-step], flat[step:]
        nb_sum[step:] += a
        nb_cnt[step:] += a > 0
        nb_sum[:-step] += b
        nb_cnt[:-step] += b > 0
    cnt = nb_cnt[flat > 0]
    tot = nb_sum[flat > 0]
    has_nb = cnt > 0
    levels = roi.levels[has_nb]
    diffs = np.abs(levels - tot[has_nb] / cnt[has_nb])
    n = np.zeros(roi.ng, dtype=np.int64)
    s = np.zeros(roi.ng, dtype=np.float64)
    np.add.at(n, levels - 1, 1)
    np.add.at(s, levels - 1, diffs)
    return n, s, int(has_nb.sum())



def ref_ngtdm_features(t):
    p = t.p
    s = t.s
    nvp = t.valid_count
    present = p > 0
    i = np.arange(1, len(p) + 1, dtype=np.float64)
    ngp = int(present.sum())

    ps = float((p * s).sum())
    coarseness = 1.0 / ps if ps > 0 else texture.COARSENESS_GUARD

    if ngp <= 1 or nvp == 0:
        contrast = 0.0
    else:
        ipres = i[present]
        ppres = p[present]
        pair = float((ppres[:, None] * ppres[None, :]
                      * (ipres[:, None] - ipres[None, :]) ** 2).sum())
        contrast = pair / (ngp * (ngp - 1)) * float(s.sum()) / nvp

    if ngp == 0:
        busyness = 0.0
        complexity = 0.0
        strength = 0.0
    else:
        ipres = i[present]
        ppres = p[present]
        spres = s[present]
        denom = float(np.abs(ipres[:, None] * ppres[:, None]
                             - ipres[None, :] * ppres[None, :]).sum())
        busyness = ps / denom if denom > 0 else 0.0
        pi_ = ppres[:, None]
        pj_ = ppres[None, :]
        si_ = spres[:, None]
        sj_ = spres[None, :]
        dij = np.abs(ipres[:, None] - ipres[None, :])
        complexity = float((dij * (pi_ * si_ + pj_ * sj_) / (pi_ + pj_)).sum()) / nvp
        s_total = float(s.sum())
        strength = (float(((pi_ + pj_) * dij ** 2).sum()) / s_total
                    if s_total > 0 else 0.0)

    return {
        "Busyness": busyness,
        "Coarseness": coarseness,
        "Complexity": complexity,
        "Contrast": contrast,
        "Strength": strength,
    }

# --- grids ----------------------------------------------------------------

def grids():
    """Random ROIs from one level to a few hundred, plus shapes that leave
    directions without counts: a plate, a single row, a diagonal line."""
    rng = np.random.default_rng(808)
    for trial in range(40):
        dims = tuple(int(rng.integers(1, m)) for m in (10, 9, 8))
        ng = int(rng.choice([1, 2, 4, 9, 30, 120, 300]))
        grid = rng.integers(1, ng + 1, size=dims) * (rng.random(dims) < rng.uniform(0.2, 1.0))
        if not grid.any():
            grid.flat[0] = 1
        yield f"random {trial}", renumber(grid)
    yield "one level", np.ones((4, 3, 3), dtype=np.int64)
    yield "one voxel", np.ones((1, 1, 1), dtype=np.int64)
    plate = rng.integers(1, 6, size=(7, 6, 1))
    yield "plate", renumber(plate)
    yield "row", renumber(rng.integers(1, 4, size=(1, 9, 1)))
    line = np.zeros((6, 6, 6), dtype=np.int64)
    line[np.arange(6), np.arange(6), 5 - np.arange(6)] = [1, 2, 2, 3, 1, 1]
    yield "diagonal", line


def assert_same(got: dict, want: dict, label):
    assert got.keys() == want.keys(), label
    for key, value in want.items():
        assert got[key] == value, (label, key, got[key], value)


# --- texture descriptors --------------------------------------------------

@pytest.mark.parametrize("distance", [1, 2])
def test_glcm_features_equal_per_direction_reference(distance):
    for label, grid in grids():
        m = compute_glcm(disc_from_grid(grid), distance=distance)
        assert_same(glcm_features(m), ref_glcm_features(m), label)


def test_glcm_blocks_of_any_size_give_the_same_bits(monkeypatch):
    """Direction blocks of one, two, five and thirteen matrices, which skip
    the directions without counts, all agree."""
    rng = np.random.default_rng(809)
    counts = rng.integers(0, 4, size=(13, 12, 12))
    counts = counts + counts.transpose(0, 2, 1)
    counts[[2, 3, 7, 11]] = 0
    m = Glcm(counts=counts)
    want = ref_glcm_features(m)
    for matrices in (1, 2, 5, 13):
        monkeypatch.setattr(texture, "STACK_BYTES", matrices * 8 * 12 * 12)
        assert_same(glcm_features(m), want, matrices)


def test_mcc_groups_directions_with_different_present_levels():
    rng = np.random.default_rng(810)
    ng = 9
    counts = np.zeros((13, ng, ng), dtype=np.int64)
    for k in range(13):
        levels = np.flatnonzero(rng.random(ng) < 0.6) if k % 3 else np.arange(ng)
        if k == 5:
            levels = levels[:1]  # one present level: MCC is 1
        sub = rng.integers(0, 5, size=(len(levels), len(levels)))
        counts[k][np.ix_(levels, levels)] = sub + sub.T + 1
    m = Glcm(counts=counts)
    present = [tuple(np.flatnonzero(counts[k].sum(axis=1))) for k in range(13)]
    assert 3 <= len(set(present)) < 13  # some shared sets, some not
    p = counts / counts.sum(axis=(1, 2))[:, None, None]
    got = texture._mcc(p, p.sum(axis=2))
    for k in range(13):
        assert got[k] == ref_glcm_one(counts[k] / counts[k].sum(), ng)["MCC"], k
    assert_same(glcm_features(m), ref_glcm_features(m), "mcc")


def test_glrlm_features_equal_per_direction_reference(monkeypatch):
    for label, grid in grids():
        m = compute_glrlm(disc_from_grid(grid))
        want = ref_glrlm_features(m)
        assert_same(glrlm_features(m), want, label)
        monkeypatch.setattr(texture, "STACK_BYTES", 1)  # one direction a block
        assert_same(glrlm_features(m), want, label)
        monkeypatch.undo()


def test_glrlm_zero_count_directions_are_skipped():
    rng = np.random.default_rng(811)
    counts = rng.integers(0, 3, size=(13, 5, 7))
    counts[[0, 4, 12]] = 0
    m = Glrlm(counts=counts)
    assert_same(glrlm_features(m), ref_glrlm_features(m), "zero directions")


def test_zone_and_dependence_families_equal_one_matrix_reference():
    for label, grid in grids():
        disc = disc_from_grid(grid)
        z = compute_glszm(disc).counts.astype(np.float64)
        assert_same(glszm_features(compute_glszm(disc)),
                    ref_family_features(z, GLSZM_KEYS, occupied(z)), label)
        d = compute_gldm(disc).counts.astype(np.float64)
        assert_same(gldm_features(compute_gldm(disc)),
                    ref_family_features(d, GLDM_KEYS, occupied(d)), label)


def test_ngtdm_box_sums_and_bincount_equal_add_at_reference():
    for label, grid in grids():
        disc = disc_from_grid(grid)
        t = compute_ngtdm(disc)
        n, s, valid = ref_ngtdm(disc)
        assert t.n.dtype == n.dtype and np.array_equal(t.n, n), label
        assert t.s.tobytes() == s.tobytes(), label
        assert t.valid_count == valid, label


def test_ngtdm_features_build_present_levels_once_with_the_same_bits():
    for label, grid in grids():
        t = compute_ngtdm(disc_from_grid(grid))
        assert_same(ngtdm_features(t), ref_ngtdm_features(t), label)


def _glcm_peak(fn, m):
    tracemalloc.start()
    try:
        fn(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_glcm_features_peak_memory_at_1500_levels_is_no_higher_than_per_direction():
    """Stacks are bounded: at ng = 1500 one matrix is past STACK_BYTES, so
    directions go one at a time and hold no more than the reference."""
    ng = 1500
    rng = np.random.default_rng(812)
    counts = np.zeros((2, ng, ng), dtype=np.int64)
    levels = rng.choice(ng, size=150, replace=False)  # a small MCC eigenproblem
    for k in range(2):
        a, b = rng.choice(levels, size=(2, 20000))
        np.add.at(counts[k], (a, b), 1)
        counts[k] += counts[k].T
    m = Glcm(counts=counts)
    assert 8 * ng * ng > texture.STACK_BYTES
    assert _glcm_peak(glcm_features, m) <= _glcm_peak(ref_glcm_features, m)


# --- diameters ------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2, 3, 127, 128, 129, 300])
def test_blocked_max_pairwise_equals_reference_across_block_edges(n):
    rng = np.random.default_rng(813 + n)
    pts = rng.integers(0, 40, size=(n, 3)) * np.array([0.7, 0.45, 1.3])
    one_level = np.zeros(n, dtype=np.intp)
    want = ref_max_pairwise(pts)
    # a level of n points is scanned in bands of cells // n rows, or whole
    # once n * n fits
    for rows in (1, 7, 64, 128, 1000):
        assert _max_pairwise(one_level, pts, rows * max(n, 1)) == want, rows
    assert _max_pairwise(one_level, pts[:, :2]) == ref_max_pairwise(pts[:, :2])


def test_slice_batched_diameters_equal_per_slice_reference():
    rng = np.random.default_rng(814)
    for trial in range(30):
        n = int(rng.integers(1, 400))
        # levels from 0 or from past some empty ones, as box corners give
        levels = rng.integers(0, int(rng.integers(1, 30)), size=n) + 40 * (trial % 3)
        pts = rng.integers(0, 50, size=(n, 2)) * np.array([0.7, 2.5])
        want = ref_max_per_slice(levels, pts)
        # the default block, blocks of a few slices, and slices past the
        # budget scanned in bands
        for cells in (1 << 14, 300, 20, 1):
            assert _max_pairwise(levels, pts, cells) == want, (trial, cells)


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 0.45, 2.5)])
def test_shape_diameters_equal_per_slice_reference(spacing):
    rng = np.random.default_rng(815)
    sp = np.asarray(spacing)
    for trial in range(6):
        dims = (14, 12, 10)
        g = np.indices(dims) - np.array(dims)[:, None, None, None] / 2
        mask = ((g ** 2).sum(axis=0) < 16) & (rng.random(dims) < 0.4 + 0.1 * trial)
        surf = surface_voxels(mask)
        inner = _line_interiors(surf)
        got = shape_features(mask, spacing)
        assert got["Maximum3DDiameter"] == ref_max_pairwise(surf[~inner.any(axis=0)] * sp)
        for plane, axis in (("XY", 2), ("XZ", 1), ("YZ", 0)):
            keep = [k for k in range(3) if k != axis]
            ends = surf[~inner[keep].any(axis=0)]
            assert got["Maximum2DDiameter" + plane] == ref_max_per_slice(
                ends[:, axis], ends[:, keep] * sp[keep]), (trial, plane)


# --- tree kernels -----------------------------------------------------------
# Both tree kernels rank splits by head**2 / k + (total - head)**2 / (n - k).
# The reference scores that candidate by candidate, adding the left side's
# sum one sorted row at a time in the order the kernels sum in, so it gives
# the same bits; its regression grower is the grower as it was before its
# calls were trimmed (np.where, sorted-block midpoints, arange rows at the
# root).

def ref_midpoint(lo, hi):
    mid = (lo + hi) / 2.0
    return np.where(mid >= hi, lo, mid)


def ref_best_split(xb, target, columns=None):
    """(column, threshold) of the first strict maximum of the split score
    over columns, in their given order or else ascending, then positions
    between two distinct sorted values; None when there is none.
    Overflowing scores are +inf, and the first wins."""
    n, n_cols = xb.shape
    best, got = -np.inf, None
    for f in (range(n_cols) if columns is None else columns.tolist()):
        order = np.argsort(xb[:, f], kind="stable")
        xs, ts = xb[order, f].tolist(), target[order].tolist()
        total = 0
        for t in ts:
            total += t
        head = 0
        for k in range(1, n):
            head += ts[k - 1]
            if xs[k - 1] == xs[k]:
                continue
            score = head * head / k + (total - head) * (total - head) / (n - k)
            if score > best:
                best, got = score, (f, float(ref_midpoint(xs[k - 1], xs[k])))
    return got


def ref_grow_regression_tree(x, residual, hessian, max_depth, fitted, columns=None):
    tree = Tree()
    stack = [(0, np.arange(len(residual)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        rs = residual[rows]
        got = None
        if (max_depth is None or depth < max_depth) and len(rows) >= 2 \
                and rs.min() != rs.max():
            got = ref_best_split(x[rows], rs, columns)
        if got is None:
            h = float(hessian[rows].sum())
            value = float(rs.sum()) / h if h > 1e-12 else 0.0
            tree.value[node] = value
            fitted[rows] = value
            continue
        f, thr = got
        go_left = x[rows, f] <= thr
        li, ri = tree._split(node, f, thr)
        stack.append((ri, rows[~go_left], depth + 1))
        stack.append((li, rows[go_left], depth + 1))
    return tree


def sse_best_split(xb, target, spare=0, columns=None):
    """(column, threshold) of _sse_best_split on the sort of every row of
    xb, with the per-tree constants of a tree of len(xb) + spare rows, its
    ties broken by columns, ascending unless given."""
    counts = np.arange(len(xb) + spare, dtype=np.float64)[:, None]
    sort = _sort_rows(xb, np.arange(len(xb)))
    if columns is None:
        columns = np.arange(xb.shape[1])
    got = _sse_best_split(target, *sort, counts, columns)
    return None if got is None else (got[0], got[2])


def tree_block(rng, n, n_cols):
    """(n, n_cols) block with ties, constant and duplicated columns, and
    adjacent doubles whose midpoint rounds up."""
    kind = rng.integers(0, 4)
    if kind == 0:
        x = rng.integers(0, int(rng.integers(1, 5)), size=(n, n_cols)).astype(np.float64)
    elif kind == 1:
        x = np.round(rng.normal(size=(n, n_cols)), 1)
    elif kind == 2:
        x = rng.normal(size=(n, n_cols))
    else:
        x = 1.0 + rng.integers(0, 3, size=(n, n_cols)) * 2.0 ** -52
    if n_cols > 1 and rng.random() < 0.5:
        x[:, rng.integers(0, n_cols)] = x[0, 0]                  # constant
        x[:, rng.integers(0, n_cols)] = x[:, rng.integers(0, n_cols)]  # duplicate
    return x


def tree_target(rng, n):
    kind = rng.integers(0, 4)
    if kind == 0:
        return rng.normal(size=n)
    if kind == 1:
        return rng.integers(-2, 3, size=n).astype(np.float64) / 4.0   # ties
    if kind == 2:
        return np.full(n, 0.25)                                       # no gain anywhere
    return rng.normal(size=n) * 1e155                                 # scores overflow


@np.errstate(over="ignore", invalid="ignore")  # the 1e155 targets
def test_sse_best_split_equals_reference():
    rng = np.random.default_rng(41)
    for trial in range(3000):
        n = int(rng.choice([2, 2, 3, int(rng.integers(2, 41))]))
        x = tree_block(rng, n, int(rng.integers(1, 46)))
        t = tree_target(rng, n)
        got = sse_best_split(x, t.copy(), spare=int(rng.integers(0, 3)))
        want = ref_best_split(x, t.copy())
        assert got == want, trial
        if got is not None:
            assert type(got[0]) is int and type(got[1]) is float


@pytest.mark.parametrize("max_depth", [1, 2, 3, None])
@np.errstate(over="ignore", invalid="ignore")  # the 1e155 targets
def test_regression_tree_equals_reference(max_depth):
    rng = np.random.default_rng(43)
    for trial in range(150):
        n = int(rng.integers(1, 41))
        x = tree_block(rng, n, int(rng.integers(1, 12)))
        residual = tree_target(rng, n) if rng.random() < 0.9 else rng.normal(size=n) * 1e-3
        hessian = rng.uniform(0.0, 0.25, size=n)
        fitted, ref_fitted = np.empty(n), np.empty(n)
        got = grow_regression_tree(x, residual, hessian, max_depth, fitted, RowSetCache(),
                                   np.arange(x.shape[1]))
        want = ref_grow_regression_tree(x, residual, hessian, max_depth, ref_fitted)
        assert document(got) == document(want), trial
        assert fitted.tobytes() == ref_fitted.tobytes(), trial


def test_regression_tree_accepts_a_column_view():
    # grow_regression_tree gathers flat indices, so a strided x is copied once
    rng = np.random.default_rng(44)
    wide = np.round(rng.normal(size=(30, 12)), 1)
    residual = rng.normal(size=30)
    hessian = np.full(30, 0.2)
    got = grow_regression_tree(wide[:, ::2], residual, hessian, 3, np.empty(30),
                               RowSetCache(), np.arange(6))
    want = ref_grow_regression_tree(np.ascontiguousarray(wide[:, ::2]), residual,
                                    hessian, 3, np.empty(30))
    assert document(got) == document(want)


@pytest.mark.parametrize("max_depth", [1, 2, 3, None])
def test_boosting_rounds_sharing_one_cache_equal_reference_trees(max_depth):
    # later rounds take their sorts and partitions from the cache, and each
    # breaks ties by its own column order, as a boosting fit draws them;
    # each round's tree and leaf values must still be the reference's
    rng = np.random.default_rng(47)
    for trial in range(25):
        n = int(rng.integers(2, 41))
        x = tree_block(rng, n, int(rng.integers(1, 12)))
        y = (rng.random(n) < 0.5).astype(np.float64)
        f = np.zeros(n)
        cache = RowSetCache()
        orders = stream(0, "gbt-columns")
        fitted, ref_fitted = np.empty(n), np.empty(n)
        for round_ in range(int(rng.integers(1, 31))):
            p = _sigmoid(f)
            residual, hessian = y - p, p * (1.0 - p)
            columns = orders.permutation(x.shape[1])
            got = grow_regression_tree(x, residual, hessian, max_depth, fitted, cache,
                                       columns)
            want = ref_grow_regression_tree(x, residual, hessian, max_depth, ref_fitted,
                                            columns)
            assert document(got) == document(want), (trial, round_)
            assert fitted.tobytes() == ref_fitted.tobytes(), (trial, round_)
            f += 0.5 * fitted


def test_boosting_fit_sorts_its_root_once(monkeypatch):
    rng = np.random.default_rng(48)
    x = np.round(rng.normal(size=(32, 45)), 1)
    y = (x[:, 0] + rng.normal(scale=0.8, size=32) > 0).astype(np.int64)
    sorted_sizes = []
    sort_rows = tree_module._sort_rows

    def counted(x, rows):
        sorted_sizes.append(len(rows))
        return sort_rows(x, rows)

    monkeypatch.setattr(tree_module, "_sort_rows", counted)
    model = GradientBoostedTrees(n_rounds=20, max_depth=2).fit(x, y)
    split = sum(f != -1 for t in model.trees for f in t.feature)  # sorts without a cache
    assert sorted_sizes.count(32) == 1
    assert len(sorted_sizes) < split / 4, (len(sorted_sizes), split)


def test_row_set_cache_stays_within_its_cap(monkeypatch):
    # a deep fit on a wide matrix meets far more row sets than the cap holds
    rng = np.random.default_rng(49)
    x = np.round(rng.normal(size=(1000, 200)), 2)
    y = (x[:, 0] + rng.normal(size=1000) > 0).astype(np.float64)
    caches = []
    monkeypatch.setattr(boosting, "RowSetCache",
                        lambda: caches.append(RowSetCache()) or caches[-1])

    def fit_peak():
        tracemalloc.start()
        try:
            GradientBoostedTrees(n_rounds=4, max_depth=10).fit(x, y)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cap = tree_module._MAX_CACHE_BYTES
    full = fit_peak()
    monkeypatch.setattr(tree_module, "_MAX_CACHE_BYTES", 0)
    working_set = fit_peak()  # the same trees, nothing kept
    assert len(caches[1]) == 0
    assert cap - 2 * x.nbytes < caches[0].nbytes <= cap
    assert full <= cap + working_set


@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("max_depth", [1, 4, None])
def test_fold_lockstep_forests_equal_per_fold_fits(bootstrap, max_depth):
    # RandomForest.fit on each fold's training rows, as a grid search
    # makes it: the trees of one forest grow in lockstep, and an F-ordered
    # matrix (a column selection is one) gives the C-ordered forest
    rng = np.random.default_rng(45)
    x = np.round(rng.normal(size=(37, 11)), 1)
    x[:, 4] = x[:, 1]
    x[:, 9] = 0.5
    y = (x[:, 0] + rng.normal(scale=0.8, size=37) > 0).astype(np.int64)
    folds = stratified_kfold(y, 5, seed=6)
    trains = [np.setdiff1d(np.arange(37), fold) for fold in folds]
    params = {"n_trees": 7, "max_depth": max_depth, "bootstrap": bootstrap}
    for i, rows in enumerate(trains):
        c_ordered = RandomForest(**params).fit(np.ascontiguousarray(x[rows]), y[rows], 1000 + i)
        f_ordered = RandomForest(**params).fit(np.asfortranarray(x[rows]), y[rows], 1000 + i)
        assert len(f_ordered.trees) == 7
        assert document(f_ordered) == document(c_ordered)
