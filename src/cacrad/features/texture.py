"""Descriptor formulas over the five texture matrices.

GLCM and GLRLM descriptors are computed for a stack of directions at
once and arithmetically averaged over directions that contain counts;
every reduction runs over a matrix's own contiguous axes, so each value is
bit for bit the one a single-matrix computation gives. Degenerate 0/0 cases
substitute 0, correlation-like cases substitute 1, and the NGTDM
coarseness guard substitutes 1e6; every return value is finite.
"""

import numpy as np

from ..texmat import Glcm, Gldm, Glrlm, Glszm, Ngtdm
from .catalog import GLCM

COARSENESS_GUARD = 1e6


# Float64 bytes of one stacked (directions, ng, n) temporary: directions
# are taken in blocks this large (one matrix at least), so a descriptor
# pass holds a few such stacks, never (13, ng, ng) ones.
STACK_BYTES = 1 << 20


def _segment_sums(terms: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum of each consecutive run of terms, one numpy sum per run.

    A stack's nonzero entries form runs of different lengths, and numpy's
    pairwise summation groups terms by run length, so each run is summed
    on its own: every sum is the one-matrix sum, bit for bit.
    """
    ends = np.cumsum(lengths)
    return np.array([terms[a:b].sum() for a, b in zip(ends - lengths, ends)])


def _entropies(p: np.ndarray) -> np.ndarray:
    """Entropy of each matrix of the stack p, over its nonzero entries."""
    flat = p.reshape(len(p), -1)
    pos = flat > 0
    nz = flat[pos]
    return -_segment_sums(nz * np.log2(nz), pos.sum(axis=1)) + 0.0  # +0.0 avoids -0.0


def _at_least_zero(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, 0.0)


def _direction_blocks(counts: np.ndarray):
    """The directions of counts (n_dirs, ng, n) that have counts, in order, in
    blocks of at most STACK_BYTES of float64 (one matrix at least): each
    block's direction indices and totals."""
    totals = counts.sum(axis=(1, 2))
    dirs = np.flatnonzero(totals)
    per = max(1, STACK_BYTES // (8 * counts[0].size))
    for lo in range(0, len(dirs), per):
        yield dirs[lo:lo + per], totals[dirs[lo:lo + per]]


def _direction_means(blocks) -> dict:
    """Per-descriptor mean over every direction of the blocks' (name -> (b,)) dicts."""
    names = blocks[0].keys()
    per_dir = np.stack([np.concatenate([b[name] for b in blocks]) for name in names])
    return dict(zip(names, np.mean(per_dir, axis=1).tolist()))


def _mcc(p: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Maximal correlation coefficient of each normalized GLCM of the stack,
    over its present gray levels; one eigvals call per present-level set."""
    present = px > 0
    mcc = np.ones(len(p))
    groups = {}
    for k in np.flatnonzero(present.sum(axis=1) >= 2):
        groups.setdefault(present[k].tobytes(), []).append(k)
    for ks in groups.values():
        keep = np.flatnonzero(present[ks[0]])
        sub = p[np.ix_(ks, keep, keep)]
        pxs = sub.sum(axis=2)
        q = (sub / pxs[:, :, None]) @ (sub / pxs[:, None, :]).transpose(0, 2, 1)
        eig = np.sort(np.linalg.eigvals(q).real, axis=1)
        mcc[ks] = np.sqrt(_at_least_zero(eig[:, -2]))
    return mcc


def _glcm_block(p: np.ndarray) -> dict:
    """GLCM descriptors of a stack p (b, ng, ng) of normalized matrices."""
    b, ng, _ = p.shape
    i = np.arange(1, ng + 1, dtype=np.float64)
    ii = i[:, None]
    jj = i[None, :]
    px = p.sum(axis=2)  # symmetric matrices: both marginals coincide
    mu = (i * px).sum(axis=1)
    sig2 = ((i - mu[:, None]) ** 2 * px).sum(axis=1)

    levels = np.arange(1, ng + 1)
    ksum = np.arange(2 * ng + 1, dtype=np.float64)
    kdiff = np.arange(ng, dtype=np.float64)
    stack = np.arange(b)[:, None, None]
    psum = np.bincount((np.add.outer(levels, levels) + stack * (2 * ng + 1)).ravel(),
                       p.ravel(), b * (2 * ng + 1)).reshape(b, 2 * ng + 1)
    pdiff = np.bincount((np.abs(np.subtract.outer(levels, levels)) + stack * ng).ravel(),
                        p.ravel(), b * ng).reshape(b, ng)

    autoc = (ii * jj * p).sum(axis=(1, 2))
    corr = np.divide(autoc - mu * mu, sig2, out=np.ones(b), where=sig2 > 0)
    diff_avg = (kdiff * pdiff).sum(axis=1)

    hx = _entropies(px)
    hxy = _entropies(p)
    outer = px[:, :, None] * px[:, None, :]
    pos = (p > 0) & (outer > 0)
    hxy1 = -_segment_sums(p[pos] * np.log2(outer[pos]), pos.sum(axis=(1, 2)))
    del pos
    hxy2 = _entropies(outer)
    del outer
    imc1 = np.divide(hxy - hxy1, hx, out=np.zeros(b), where=hx > 0)
    imc2 = np.sqrt(_at_least_zero(1.0 - np.exp(-2.0 * (hxy2 - hxy))))

    c = ii + jj - 2 * mu[:, None, None]
    return {
        "Autocorrelation": autoc,
        "ClusterProminence": (c ** 4 * p).sum(axis=(1, 2)),
        "ClusterShade": (c ** 3 * p).sum(axis=(1, 2)),
        "ClusterTendency": (c ** 2 * p).sum(axis=(1, 2)),
        "Contrast": ((ii - jj) ** 2 * p).sum(axis=(1, 2)),
        "Correlation": corr,
        "DifferenceAverage": diff_avg,
        "DifferenceEntropy": _entropies(pdiff),
        "DifferenceVariance": ((kdiff - diff_avg[:, None]) ** 2 * pdiff).sum(axis=1),
        "Id": (pdiff / (1.0 + kdiff)).sum(axis=1),
        "Idm": (pdiff / (1.0 + kdiff ** 2)).sum(axis=1),
        "Idmn": (pdiff / (1.0 + kdiff ** 2 / ng ** 2)).sum(axis=1),
        "Idn": (pdiff / (1.0 + kdiff / ng)).sum(axis=1),
        "Imc1": imc1,
        "Imc2": imc2,
        "InverseVariance": (pdiff[:, 1:] / kdiff[1:] ** 2).sum(axis=1),
        "JointAverage": mu,
        "JointEnergy": (p ** 2).sum(axis=(1, 2)),
        "JointEntropy": hxy,
        "MCC": _mcc(p, px),
        "MaximumProbability": p.max(axis=(1, 2)),
        "SumAverage": (ksum * psum).sum(axis=1),
        "SumEntropy": _entropies(psum),
        "SumSquares": sig2,
    }


_GLCM_EMPTY = {name: 1.0 if name in ("Correlation", "MCC") else 0.0 for name, _ in GLCM}


def glcm_features(m: Glcm) -> dict:
    blocks = [_glcm_block(m.counts[dirs] / totals[:, None, None])
              for dirs, totals in _direction_blocks(m.counts)]
    if not blocks:
        # no voxel pair in any direction (e.g. single-voxel region)
        return dict(_GLCM_EMPTY)
    return _direction_means(blocks)


def _weighted_family(mat: np.ndarray):
    """Shared algebra for run/zone/dependence families over a stack
    mat (b, rows, cols) of count matrices, rows and columns weighted 1, 2, ...

    Returns, per matrix, the sums and distribution moments every family
    reuses; ``nz`` is total entries, ``nw`` total weighted mass (voxel count).
    """
    _, rows, cols = mat.shape
    row_weights = np.arange(1, rows + 1, dtype=np.float64)
    col_weights = np.arange(1, cols + 1, dtype=np.float64)
    nz = mat.sum(axis=(1, 2))
    i = row_weights[:, None]
    j = col_weights[None, :]
    p = mat / nz[:, None, None]
    pi = p.sum(axis=2)
    pj = p.sum(axis=1)
    mu_i = (row_weights * pi).sum(axis=1)
    mu_j = (col_weights * pj).sum(axis=1)

    def total(x):
        return x.sum(axis=(1, 2))

    return {
        "nz": nz,
        "nw": total(mat * j),
        "low": total(mat / i ** 2) / nz,
        "high": total(mat * i ** 2) / nz,
        "short": total(mat / j ** 2) / nz,
        "long": total(mat * j ** 2) / nz,
        "short_low": total(mat / (i ** 2 * j ** 2)) / nz,
        "short_high": total(mat * i ** 2 / j ** 2) / nz,
        "long_low": total(mat * j ** 2 / i ** 2) / nz,
        "long_high": total(mat * (i ** 2) * (j ** 2)) / nz,
        "gln": (mat.sum(axis=2) ** 2).sum(axis=1) / nz,
        "cln": (mat.sum(axis=1) ** 2).sum(axis=1) / nz,
        "gl_var": (((row_weights - mu_i[:, None]) ** 2) * pi).sum(axis=1),
        "col_var": (((col_weights - mu_j[:, None]) ** 2) * pj).sum(axis=1),
        "entropy": _entropies(p),
    }


def _glrlm_block(mat: np.ndarray) -> dict:
    f = _weighted_family(mat)
    return {
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
    }


def glrlm_features(m: Glrlm) -> dict:
    return _direction_means([_glrlm_block(m.counts[dirs].astype(np.float64))
                             for dirs, _ in _direction_blocks(m.counts)])


def _one(m) -> dict:
    """_weighted_family of one count matrix, as floats."""
    f = _weighted_family(m.counts[None].astype(np.float64))
    return {key: float(v[0]) for key, v in f.items()}


def glszm_features(m: Glszm) -> dict:
    f = _one(m)
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


def gldm_features(m: Gldm) -> dict:
    f = _one(m)  # column k counts k dependent neighbors: weight k + 1
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


def ngtdm_features(t: Ngtdm) -> dict:
    p = t.p
    s = t.s
    nvp = t.valid_count
    present = p > 0
    i = np.arange(1, len(p) + 1, dtype=np.float64)
    ngp = int(present.sum())

    ps = float((p * s).sum())
    coarseness = 1.0 / ps if ps > 0 else COARSENESS_GUARD

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
