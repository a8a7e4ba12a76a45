"""Brute-force reference implementations used only by tests.

Everything here favors obvious code over speed: explicit loops, textbook
formulas, no helpers shared with the package under test. Matrices are
enumerated voxel by voxel; features are transcribed term by term.
"""

import math
from itertools import product

import numpy as np

from cacrad.features.mc_tables import CORNER_OFFSETS, EDGE_PAIRS, TRI_EDGES

NEIGHBORS_26 = [d for d in product((-1, 0, 1), repeat=3) if d != (0, 0, 0)]


def folded_directions():
    out = []
    for d in product((-1, 0, 1), repeat=3):
        first = next((c for c in d if c != 0), 0)
        if first > 0:
            out.append(d)
    return out


def _in_bounds(p, shape):
    return all(0 <= p[k] < shape[k] for k in range(3))


def glcm_counts(grid, ng, directions, distance=1):
    shape = grid.shape
    counts = np.zeros((len(directions), ng, ng), dtype=np.int64)
    for di, d in enumerate(directions):
        for x in range(shape[0]):
            for y in range(shape[1]):
                for z in range(shape[2]):
                    a = int(grid[x, y, z])
                    if a == 0:
                        continue
                    q = (x + d[0] * distance, y + d[1] * distance, z + d[2] * distance)
                    if not _in_bounds(q, shape):
                        continue
                    b = int(grid[q])
                    if b == 0:
                        continue
                    counts[di, a - 1, b - 1] += 1
                    counts[di, b - 1, a - 1] += 1
    return counts


def glrlm_runs(grid, directions):
    """Per direction, a list of (level, run_length) maximal runs."""
    shape = grid.shape
    out = []
    for d in directions:
        runs = []
        for x in range(shape[0]):
            for y in range(shape[1]):
                for z in range(shape[2]):
                    a = int(grid[x, y, z])
                    if a == 0:
                        continue
                    prev = (x - d[0], y - d[1], z - d[2])
                    if _in_bounds(prev, shape) and int(grid[prev]) == a:
                        continue  # not a run start
                    length = 1
                    cur = (x + d[0], y + d[1], z + d[2])
                    while _in_bounds(cur, shape) and int(grid[cur]) == a:
                        length += 1
                        cur = (cur[0] + d[0], cur[1] + d[1], cur[2] + d[2])
                    runs.append((a, length))
        out.append(runs)
    return out


def glrlm_counts(grid, ng, directions, width=None):
    per_dir = glrlm_runs(grid, directions)
    if width is None:
        width = max((ln for runs in per_dir for _, ln in runs), default=1)
    counts = np.zeros((len(directions), ng, width), dtype=np.int64)
    for di, runs in enumerate(per_dir):
        for level, ln in runs:
            counts[di, level - 1, ln - 1] += 1
    return counts


def glszm_zones(grid):
    """All (level, size) connected zones under 26-connectivity."""
    shape = grid.shape
    seen = np.zeros(shape, dtype=bool)
    zones = []
    for x in range(shape[0]):
        for y in range(shape[1]):
            for z in range(shape[2]):
                if seen[x, y, z] or grid[x, y, z] == 0:
                    continue
                level = int(grid[x, y, z])
                stack = [(x, y, z)]
                seen[x, y, z] = True
                size = 0
                while stack:
                    cur = stack.pop()
                    size += 1
                    for d in NEIGHBORS_26:
                        q = (cur[0] + d[0], cur[1] + d[1], cur[2] + d[2])
                        if _in_bounds(q, shape) and not seen[q] and int(grid[q]) == level:
                            seen[q] = True
                            stack.append(q)
                zones.append((level, size))
    return zones


def glszm_counts(grid, ng, width=None):
    zones = glszm_zones(grid)
    if width is None:
        width = max((s for _, s in zones), default=1)
    counts = np.zeros((ng, width), dtype=np.int64)
    for level, size in zones:
        counts[level - 1, size - 1] += 1
    return counts


def gldm_counts(grid, ng, alpha=0, width=None):
    """counts[i, k]: voxels of level i+1 with k neighbors within alpha."""
    shape = grid.shape
    deps = []
    for x in range(shape[0]):
        for y in range(shape[1]):
            for z in range(shape[2]):
                a = int(grid[x, y, z])
                if a == 0:
                    continue
                k = 0
                for d in NEIGHBORS_26:
                    q = (x + d[0], y + d[1], z + d[2])
                    if _in_bounds(q, shape) and grid[q] != 0 \
                            and abs(int(grid[q]) - a) <= alpha:
                        k += 1
                deps.append((a, k))
    if width is None:
        width = max((k for _, k in deps), default=0) + 1
    counts = np.zeros((ng, width), dtype=np.int64)
    for level, k in deps:
        counts[level - 1, k] += 1
    return counts


def ngtdm_tables(grid, ng):
    """(n, s, valid_count): per-level neighbor-difference sums."""
    shape = grid.shape
    n = np.zeros(ng, dtype=np.int64)
    s = np.zeros(ng, dtype=np.float64)
    for x in range(shape[0]):
        for y in range(shape[1]):
            for z in range(shape[2]):
                a = int(grid[x, y, z])
                if a == 0:
                    continue
                nb = []
                for d in NEIGHBORS_26:
                    q = (x + d[0], y + d[1], z + d[2])
                    if _in_bounds(q, shape) and grid[q] != 0:
                        nb.append(int(grid[q]))
                if not nb:
                    continue
                n[a - 1] += 1
                s[a - 1] += abs(a - sum(nb) / len(nb))
    return n, s, int(n.sum())


# ---------------------------------------------------------------- features

def percentile_linear(values, q):
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return float(xs[0])
    h = (n - 1) * q / 100.0
    lo = int(math.floor(h))
    hi = min(lo + 1, n - 1)
    frac = h - lo
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def firstorder_oracle(values, levels, ng, spacing):
    xs = [float(v) for v in values]
    n = len(xs)
    mean = math.fsum(xs) / n
    m2 = math.fsum((v - mean) ** 2 for v in xs) / n
    m3 = math.fsum((v - mean) ** 3 for v in xs) / n
    m4 = math.fsum((v - mean) ** 4 for v in xs) / n
    p10 = percentile_linear(xs, 10)
    p25 = percentile_linear(xs, 25)
    p75 = percentile_linear(xs, 75)
    p90 = percentile_linear(xs, 90)
    robust = [v for v in xs if p10 <= v <= p90]
    if robust:
        rmean = math.fsum(robust) / len(robust)
        rmad = math.fsum(abs(v - rmean) for v in robust) / len(robust)
    else:
        rmad = 0.0
    energy = math.fsum(v * v for v in xs)
    hist = [0] * ng
    for lv in levels:
        hist[int(lv) - 1] += 1
    probs = [c / n for c in hist if c > 0]
    return {
        "10Percentile": p10,
        "90Percentile": p90,
        "Energy": energy,
        "Entropy": -math.fsum(p * math.log2(p) for p in probs) + 0.0,
        "InterquartileRange": p75 - p25,
        "Kurtosis": m4 / m2 ** 2 if m2 > 0 else 0.0,
        "Maximum": max(xs),
        "Mean": mean,
        "MeanAbsoluteDeviation": math.fsum(abs(v - mean) for v in xs) / n,
        "Median": percentile_linear(xs, 50),
        "Minimum": min(xs),
        "Range": max(xs) - min(xs),
        "RobustMeanAbsoluteDeviation": rmad,
        "Skewness": m3 / m2 ** 1.5 if m2 > 0 else 0.0,
        "StandardDeviation": math.sqrt(m2),
        "TotalEnergy": energy * spacing[0] * spacing[1] * spacing[2],
        "Uniformity": math.fsum(p * p for p in probs),
        "Variance": m2,
    }


def _entropy_terms(probs):
    return -math.fsum(p * math.log2(p) for p in probs if p > 0) + 0.0


def glcm_oracle_one(counts2d):
    ng = counts2d.shape[0]
    total = float(counts2d.sum())
    p = {(i, j): counts2d[i - 1, j - 1] / total
         for i in range(1, ng + 1) for j in range(1, ng + 1)}
    px = {i: math.fsum(p[i, j] for j in range(1, ng + 1)) for i in range(1, ng + 1)}
    py = {j: math.fsum(p[i, j] for i in range(1, ng + 1)) for j in range(1, ng + 1)}
    mu = math.fsum(i * px[i] for i in px)
    sig2 = math.fsum((i - mu) ** 2 * px[i] for i in px)

    psum = {k: 0.0 for k in range(2, 2 * ng + 1)}
    pdiff = {k: 0.0 for k in range(0, ng)}
    for (i, j), v in p.items():
        psum[i + j] += v
        pdiff[abs(i - j)] += v
    diff_avg = math.fsum(k * pdiff[k] for k in pdiff)

    hx = _entropy_terms(px.values())
    hy = _entropy_terms(py.values())
    hxy = _entropy_terms(p.values())
    hxy1 = -math.fsum(v * math.log2(px[i] * py[j])
                      for (i, j), v in p.items() if v > 0 and px[i] * py[j] > 0) + 0.0
    hxy2 = _entropy_terms([px[i] * py[j] for i in px for j in py])

    present = [i for i in px if px[i] > 0]
    if len(present) < 2:
        mcc = 1.0
    else:
        q = np.zeros((len(present), len(present)))
        for a, i in enumerate(present):
            for b, j in enumerate(present):
                q[a, b] = math.fsum(p[i, k] * p[j, k] / (px[i] * py[k])
                                    for k in present)
        eig = sorted(np.linalg.eigvals(q).real)
        mcc = math.sqrt(max(0.0, eig[-2]))

    autoc = math.fsum(i * j * v for (i, j), v in p.items())
    return {
        "Autocorrelation": autoc,
        "ClusterProminence": math.fsum((i + j - 2 * mu) ** 4 * v for (i, j), v in p.items()),
        "ClusterShade": math.fsum((i + j - 2 * mu) ** 3 * v for (i, j), v in p.items()),
        "ClusterTendency": math.fsum((i + j - 2 * mu) ** 2 * v for (i, j), v in p.items()),
        "Contrast": math.fsum((i - j) ** 2 * v for (i, j), v in p.items()),
        "Correlation": (autoc - mu * mu) / sig2 if sig2 > 0 else 1.0,
        "DifferenceAverage": diff_avg,
        "DifferenceEntropy": _entropy_terms(pdiff.values()),
        "DifferenceVariance": math.fsum((k - diff_avg) ** 2 * pdiff[k] for k in pdiff),
        "Id": math.fsum(pdiff[k] / (1 + k) for k in pdiff),
        "Idm": math.fsum(pdiff[k] / (1 + k * k) for k in pdiff),
        "Idmn": math.fsum(pdiff[k] / (1 + k * k / ng ** 2) for k in pdiff),
        "Idn": math.fsum(pdiff[k] / (1 + k / ng) for k in pdiff),
        "Imc1": (hxy - hxy1) / max(hx, hy) if max(hx, hy) > 0 else 0.0,
        "Imc2": math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - hxy)))),
        "InverseVariance": math.fsum(pdiff[k] / (k * k) for k in pdiff if k >= 1),
        "JointAverage": mu,
        "JointEnergy": math.fsum(v * v for v in p.values()),
        "JointEntropy": hxy,
        "MCC": mcc,
        "MaximumProbability": max(p.values()),
        "SumAverage": math.fsum(k * psum[k] for k in psum),
        "SumEntropy": _entropy_terms(psum.values()),
        "SumSquares": sig2,
    }


def average_over_directions(per_dir_dicts):
    keys = per_dir_dicts[0].keys()
    return {k: math.fsum(d[k] for d in per_dir_dicts) / len(per_dir_dicts) for k in keys}


def glcm_oracle(counts3d):
    per_dir = [glcm_oracle_one(counts3d[k]) for k in range(counts3d.shape[0])
               if counts3d[k].sum() > 0]
    return average_over_directions(per_dir) if per_dir else None


def _matrix_cells(mat, row_w, col_w):
    """(weight_i, weight_j, count) triples for nonzero layout iteration."""
    cells = []
    for a in range(mat.shape[0]):
        for b in range(mat.shape[1]):
            cells.append((row_w[a], col_w[b], float(mat[a, b])))
    return cells


def _weighted_oracle(mat, row_w, col_w):
    cells = _matrix_cells(mat, row_w, col_w)
    nz = math.fsum(c for _, _, c in cells)
    nw = math.fsum(c * j for _, j, c in cells)
    pi = {}
    pj = {}
    for i, j, c in cells:
        pi[i] = pi.get(i, 0.0) + c / nz
        pj[j] = pj.get(j, 0.0) + c / nz
    mu_i = math.fsum(i * v for i, v in pi.items())
    mu_j = math.fsum(j * v for j, v in pj.items())
    return {
        "nz": nz,
        "nw": nw,
        "low": math.fsum(c / i ** 2 for i, _, c in cells) / nz,
        "high": math.fsum(c * i ** 2 for i, _, c in cells) / nz,
        "short": math.fsum(c / j ** 2 for _, j, c in cells) / nz,
        "long": math.fsum(c * j ** 2 for _, j, c in cells) / nz,
        "short_low": math.fsum(c / (i ** 2 * j ** 2) for i, j, c in cells) / nz,
        "short_high": math.fsum(c * i ** 2 / j ** 2 for i, j, c in cells) / nz,
        "long_low": math.fsum(c * j ** 2 / i ** 2 for i, j, c in cells) / nz,
        "long_high": math.fsum(c * i ** 2 * j ** 2 for i, j, c in cells) / nz,
        "gln": math.fsum((mat[a, :].sum()) ** 2 for a in range(mat.shape[0])) / nz,
        "cln": math.fsum((mat[:, b].sum()) ** 2 for b in range(mat.shape[1])) / nz,
        "gl_var": math.fsum((i - mu_i) ** 2 * v for i, v in pi.items()),
        "col_var": math.fsum((j - mu_j) ** 2 * v for j, v in pj.items()),
        "entropy": _entropy_terms([c / nz for _, _, c in cells]),
    }


def glrlm_oracle(counts3d):
    per_dir = []
    for k in range(counts3d.shape[0]):
        mat = counts3d[k].astype(np.float64)
        if mat.sum() == 0:
            continue
        f = _weighted_oracle(mat, list(range(1, mat.shape[0] + 1)),
                             list(range(1, mat.shape[1] + 1)))
        per_dir.append({
            "GrayLevelNonUniformity": f["gln"],
            "GrayLevelNonUniformityNormalized": f["gln"] / f["nz"],
            "GrayLevelVariance": f["gl_var"],
            "HighGrayLevelRunEmphasis": f["high"],
            "LongRunEmphasis": f["long"],
            "LongRunHighGrayLevelEmphasis": f["long_high"],
            "LongRunLowGrayLevelEmphasis": f["long_low"],
            "LowGrayLevelRunEmphasis": f["low"],
            "RunEntropy": f["entropy"],
            "RunLengthNonUniformity": f["cln"],
            "RunLengthNonUniformityNormalized": f["cln"] / f["nz"],
            "RunPercentage": f["nz"] / f["nw"],
            "RunVariance": f["col_var"],
            "ShortRunEmphasis": f["short"],
            "ShortRunHighGrayLevelEmphasis": f["short_high"],
            "ShortRunLowGrayLevelEmphasis": f["short_low"],
        })
    return average_over_directions(per_dir)


def glszm_oracle(counts2d):
    mat = counts2d.astype(np.float64)
    f = _weighted_oracle(mat, list(range(1, mat.shape[0] + 1)),
                         list(range(1, mat.shape[1] + 1)))
    return {
        "GrayLevelNonUniformity": f["gln"],
        "GrayLevelNonUniformityNormalized": f["gln"] / f["nz"],
        "GrayLevelVariance": f["gl_var"],
        "HighGrayLevelZoneEmphasis": f["high"],
        "LargeAreaEmphasis": f["long"],
        "LargeAreaHighGrayLevelEmphasis": f["long_high"],
        "LargeAreaLowGrayLevelEmphasis": f["long_low"],
        "LowGrayLevelZoneEmphasis": f["low"],
        "SizeZoneNonUniformity": f["cln"],
        "SizeZoneNonUniformityNormalized": f["cln"] / f["nz"],
        "SmallAreaEmphasis": f["short"],
        "SmallAreaHighGrayLevelEmphasis": f["short_high"],
        "SmallAreaLowGrayLevelEmphasis": f["short_low"],
        "ZoneEntropy": f["entropy"],
        "ZonePercentage": f["nz"] / f["nw"],
        "ZoneVariance": f["col_var"],
    }


def gldm_oracle(counts2d):
    mat = counts2d.astype(np.float64)
    f = _weighted_oracle(mat, list(range(1, mat.shape[0] + 1)),
                         list(range(1, mat.shape[1] + 1)))
    return {
        "DependenceEntropy": f["entropy"],
        "DependenceNonUniformity": f["cln"],
        "DependenceNonUniformityNormalized": f["cln"] / f["nz"],
        "DependenceVariance": f["col_var"],
        "GrayLevelNonUniformity": f["gln"],
        "GrayLevelVariance": f["gl_var"],
        "HighGrayLevelEmphasis": f["high"],
        "LargeDependenceEmphasis": f["long"],
        "LargeDependenceHighGrayLevelEmphasis": f["long_high"],
        "LargeDependenceLowGrayLevelEmphasis": f["long_low"],
        "LowGrayLevelEmphasis": f["low"],
        "SmallDependenceEmphasis": f["short"],
        "SmallDependenceHighGrayLevelEmphasis": f["short_high"],
        "SmallDependenceLowGrayLevelEmphasis": f["short_low"],
    }


def ngtdm_oracle(n, s, valid_count):
    ng = len(n)
    p = [ni / valid_count if valid_count else 0.0 for ni in n]
    present = [k for k in range(ng) if p[k] > 0]
    lv = lambda k: k + 1
    ps = math.fsum(p[k] * s[k] for k in range(ng))
    coarseness = 1.0 / ps if ps > 0 else 1e6

    ngp = len(present)
    if ngp <= 1 or valid_count == 0:
        contrast = 0.0
    else:
        pair = math.fsum(p[a] * p[b] * (lv(a) - lv(b)) ** 2
                         for a in present for b in present)
        contrast = pair / (ngp * (ngp - 1)) * math.fsum(s) / valid_count

    if ngp == 0:
        return {"Busyness": 0.0, "Coarseness": coarseness,
                "Complexity": 0.0, "Contrast": contrast, "Strength": 0.0}
    denom = math.fsum(abs(lv(a) * p[a] - lv(b) * p[b])
                      for a in present for b in present)
    busyness = ps / denom if denom > 0 else 0.0
    complexity = math.fsum(abs(lv(a) - lv(b))
                           * (p[a] * s[a] + p[b] * s[b]) / (p[a] + p[b])
                           for a in present for b in present) / valid_count
    s_total = math.fsum(s)
    strength = (math.fsum((p[a] + p[b]) * (lv(a) - lv(b)) ** 2
                          for a in present for b in present) / s_total
                if s_total > 0 else 0.0)
    return {"Busyness": busyness, "Coarseness": coarseness,
            "Complexity": complexity, "Contrast": contrast, "Strength": strength}


_EDGE_MIDPOINTS = (CORNER_OFFSETS[EDGE_PAIRS[:, 0]] + CORNER_OFFSETS[EDGE_PAIRS[:, 1]]) / 2.0


def triangulate_mask(labels: np.ndarray, spacing, offset=(0, 0, 0)) -> np.ndarray:
    """Triangle soup (n_tri, 3 vertices, xyz mm) of the padded 0.5-isosurface,
    one row per triangle of every surface cube: the mesh that shape features
    sum per cube case without building.

    offset is the grid index of labels[0, 0, 0]; it is added to each cube's
    integer index, so a cropped mask gives the whole mask's soup, bit for bit.
    """
    outside = np.pad(labels, 1) < 0.5
    cx, cy, cz = (d - 1 for d in outside.shape)
    case = np.zeros((cx, cy, cz), dtype=np.uint8)
    for bit, (ox, oy, oz) in enumerate(CORNER_OFFSETS):
        case |= outside[ox:ox + cx, oy:oy + cy, oz:oz + cz].astype(np.uint8) << bit
    active = np.argwhere((case > 0) & (case < 255))
    rows = TRI_EDGES[case[active[:, 0], active[:, 1], active[:, 2]]]
    active += np.asarray(offset, dtype=active.dtype)
    tris = []
    for t in range(0, 15, 3):
        has = rows[:, t] >= 0
        if not has.any():
            break
        base = active[has][:, None, :].astype(np.float64)
        corners = base + _EDGE_MIDPOINTS[rows[has][:, t:t + 3]]
        tris.append(corners)
    if not tris:
        return np.zeros((0, 3, 3))
    soup = np.concatenate(tris, axis=0)
    soup -= 1.0  # undo zero padding offset
    return soup * np.asarray(spacing, dtype=np.float64)


def mesh_volume_area(tri: np.ndarray):
    """Signed-tetrahedron volume and area of a triangle soup."""
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    signed = np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum()
    return abs(float(signed)), float(area)


def shape_oracle(labels, spacing, triangles):
    """Shape features from first principles, reusing only the triangle soup."""
    sx, sy, sz = (float(v) for v in spacing)
    vol_terms = []
    area_terms = []
    for tri in triangles:
        a, b, c = (tuple(float(v) for v in p) for p in tri)
        bxc = (b[1] * c[2] - b[2] * c[1],
               b[2] * c[0] - b[0] * c[2],
               b[0] * c[1] - b[1] * c[0])
        vol_terms.append(a[0] * bxc[0] + a[1] * bxc[1] + a[2] * bxc[2])
        ab = tuple(b[k] - a[k] for k in range(3))
        ac = tuple(c[k] - a[k] for k in range(3))
        cr = (ab[1] * ac[2] - ab[2] * ac[1],
              ab[2] * ac[0] - ab[0] * ac[2],
              ab[0] * ac[1] - ab[1] * ac[0])
        area_terms.append(0.5 * math.sqrt(cr[0] ** 2 + cr[1] ** 2 + cr[2] ** 2))
    volume = abs(math.fsum(vol_terms)) / 6.0
    area = math.fsum(area_terms)

    voxels = [tuple(int(v) for v in p) for p in np.argwhere(labels)]
    nvox = len(voxels)
    centers = [(x * sx, y * sy, z * sz) for x, y, z in voxels]
    mean = tuple(math.fsum(c[k] for c in centers) / nvox for k in range(3))
    cov = np.zeros((3, 3))
    for c in centers:
        d = [c[k] - mean[k] for k in range(3)]
        for a in range(3):
            for b in range(3):
                cov[a, b] += d[a] * d[b]
    cov /= nvox
    lam = sorted(max(0.0, float(v)) for v in np.linalg.eigvalsh(cov))
    least, minor, major = lam

    in_mask = set(voxels)
    surf = []
    for x, y, z in voxels:
        for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            if (x + d[0], y + d[1], z + d[2]) not in in_mask:
                surf.append((x * sx, y * sy, z * sz))
                break

    def max_pair(points):
        best = 0.0
        for a in range(len(points)):
            for b in range(a + 1, len(points)):
                d2 = sum((points[a][k] - points[b][k]) ** 2 for k in range(len(points[a])))
                best = max(best, d2)
        return math.sqrt(best)

    def max2d(drop_axis):
        keep = [k for k in range(3) if k != drop_axis]
        groups = {}
        for p in surf:
            groups.setdefault(p[drop_axis], []).append(tuple(p[k] for k in keep))
        return max((max_pair(g) for g in groups.values()), default=0.0)

    return {
        "Elongation": math.sqrt(minor / major) if major > 0 else 0.0,
        "Flatness": math.sqrt(least / major) if major > 0 else 0.0,
        "LeastAxisLength": 4.0 * math.sqrt(least),
        "MajorAxisLength": 4.0 * math.sqrt(major),
        "Maximum2DDiameterXY": max2d(2),
        "Maximum2DDiameterXZ": max2d(1),
        "Maximum2DDiameterYZ": max2d(0),
        "Maximum3DDiameter": max_pair(surf),
        "MeshVolume": volume,
        "MinorAxisLength": 4.0 * math.sqrt(minor),
        "Sphericity": (36.0 * math.pi * volume ** 2) ** (1.0 / 3.0) / area,
        "SurfaceArea": area,
        "SurfaceVolumeRatio": area / volume,
        "VoxelVolume": nvox * sx * sy * sz,
    }


def pad_counts(a, shape):
    out = np.zeros(shape, dtype=a.dtype)
    out[tuple(slice(0, s) for s in a.shape)] = a
    return out


def same_counts(a, b):
    """Integer equality after padding to a common shape."""
    shape = tuple(max(x, y) for x, y in zip(a.shape, b.shape))
    return np.array_equal(pad_counts(a, shape), pad_counts(b, shape))
