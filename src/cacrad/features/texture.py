"""Descriptor formulas over the five texture matrices.

Descriptors are computed for a stack of directions at once (GLSZM and
GLDM are a stack of one) and arithmetically averaged over directions that
contain counts; every reduction runs over a matrix's own contiguous axes,
so each value is bit for bit the one a single-matrix computation gives
over the family's occupied columns: the run, zone and dependence
families drop the columns empty in every direction first.
Degenerate 0/0 cases substitute 0, correlation-like cases substitute 1,
and the NGTDM coarseness guard substitutes 1e6; every return value is
finite.
"""

import numpy as np

from ..texmat import Glcm, Gldm, Glrlm, Glszm, Ngtdm
from .catalog import GLCM, GLDM, GLRLM, GLSZM

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
    per_dir = np.concatenate([np.stack(list(b.values())) for b in blocks], axis=1)
    return dict(zip(blocks[0], np.mean(per_dir, axis=1).tolist()))


def _mcc(p: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Maximal correlation coefficient of each normalized GLCM of the stack,
    over its present gray levels; one eigvalsh call per present-level set.
    Q = D^-1 P D^-1 P is similar to M^2, M = D^-1/2 P D^-1/2 symmetric."""
    present = px > 0
    mcc = np.ones(len(p))
    groups = {}
    for k in np.flatnonzero(present.sum(axis=1) >= 2):
        groups.setdefault(present[k].tobytes(), []).append(k)
    for ks in groups.values():
        keep = np.flatnonzero(present[ks[0]])
        r = 1.0 / np.sqrt(px[np.ix_(ks, keep)])
        lam = np.linalg.eigvalsh(p[np.ix_(ks, keep, keep)] * r[:, :, None] * r[:, None, :])
        mcc[ks] = np.sqrt(np.sort(lam ** 2, axis=1)[:, -2])
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

    # products, not c ** 3 and c ** 4 (libm pow), built in place; freed so
    # that the descriptors below hold no extra (b, ng, ng) stack
    c = ii + jj - 2 * mu[:, None, None]
    c2 = c * c
    tendency = (c2 * p).sum(axis=(1, 2))
    c *= c2
    shade = (c * p).sum(axis=(1, 2))
    c2 *= c2
    prominence = (c2 * p).sum(axis=(1, 2))
    del c, c2
    return {
        "Autocorrelation": autoc,
        "ClusterProminence": prominence,
        "ClusterShade": shade,
        "ClusterTendency": tendency,
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


def _weighted_family(mat: np.ndarray, col_weights: np.ndarray) -> dict:
    """Shared algebra for run/zone/dependence families over a stack
    mat (b, rows, cols) of count matrices, rows weighted 1, 2, ... and
    columns by col_weights.

    Returns, per matrix, every entry a family reads. With ``nz`` the total
    entries and ``nw`` the total weighted mass (voxel count), the ratios
    ``gln_norm``, ``cln_norm`` and ``percentage`` are gln/nz, cln/nz and
    nz/nw, each taken per matrix.
    """
    row_weights = np.arange(1, mat.shape[1] + 1, dtype=np.float64)
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

    gln = (mat.sum(axis=2) ** 2).sum(axis=1) / nz
    cln = (mat.sum(axis=1) ** 2).sum(axis=1) / nz
    return {
        "low": total(mat / i ** 2) / nz,
        "high": total(mat * i ** 2) / nz,
        "short": total(mat / j ** 2) / nz,
        "long": total(mat * j ** 2) / nz,
        "short_low": total(mat / (i ** 2 * j ** 2)) / nz,
        "short_high": total(mat * i ** 2 / j ** 2) / nz,
        "long_low": total(mat * j ** 2 / i ** 2) / nz,
        "long_high": total(mat * (i ** 2) * (j ** 2)) / nz,
        "gln": gln,
        "gln_norm": gln / nz,
        "cln": cln,
        "cln_norm": cln / nz,
        "percentage": nz / total(mat * j),
        "gl_var": (((row_weights - mu_i[:, None]) ** 2) * pi).sum(axis=1),
        "col_var": (((col_weights - mu_j[:, None]) ** 2) * pj).sum(axis=1),
        "entropy": _entropies(p),
    }


# Each family's catalog names, in catalog order, with the _weighted_family
# entry each one reads.
_WEIGHTED_NAMES = {
    family: tuple((name, key) for (name, _), key in zip(entries, keys, strict=True))
    for family, entries, keys in (
        ("glrlm", GLRLM, ("gln", "gln_norm", "gl_var", "high", "long", "long_high",
                          "long_low", "low", "entropy", "cln", "cln_norm", "percentage",
                          "col_var", "short", "short_high", "short_low")),
        ("glszm", GLSZM, ("gln", "gln_norm", "gl_var", "high", "long", "long_high",
                          "long_low", "low", "cln", "cln_norm", "short", "short_high",
                          "short_low", "entropy", "percentage", "col_var")),
        ("gldm", GLDM, ("entropy", "cln", "cln_norm", "col_var", "gln", "gl_var", "high",
                        "long", "long_high", "long_low", "low", "short", "short_high",
                        "short_low")),
    )
}


def _weighted_features(counts: np.ndarray, family: str) -> dict:
    """The family's descriptors of a stack counts (n_dirs, ng, n): each
    _weighted_family entry averaged over the directions that have counts.
    Column k weighs k + 1; only the columns with a count in some direction
    are read, since the others add only zero terms."""
    cols = np.flatnonzero(counts.any(axis=(0, 1)))
    counts = counts[:, :, cols]
    weights = (cols + 1).astype(np.float64)
    means = _direction_means([_weighted_family(counts[dirs].astype(np.float64), weights)
                              for dirs, _ in _direction_blocks(counts)])
    return {name: means[key] for name, key in _WEIGHTED_NAMES[family]}


def glrlm_features(m: Glrlm) -> dict:
    return _weighted_features(m.counts, "glrlm")


def glszm_features(m: Glszm) -> dict:
    return _weighted_features(m.counts[None], "glszm")


def gldm_features(m: Gldm) -> dict:
    # column k counts k dependent neighbors: weight k + 1
    return _weighted_features(m.counts[None], "gldm")


def ngtdm_features(t: Ngtdm) -> dict:
    p = t.p
    s = t.s
    nvp = t.valid_count
    present = p > 0
    ngp = int(present.sum())
    # pairwise terms over the present levels: i down the rows, j across
    ipres = np.arange(1, len(p) + 1, dtype=np.float64)[present]
    ppres = p[present]
    spres = s[present]
    pi_, pj_ = ppres[:, None], ppres[None, :]
    si_, sj_ = spres[:, None], spres[None, :]
    dij = np.abs(ipres[:, None] - ipres[None, :])
    s_total = float(s.sum())

    ps = float((p * s).sum())
    coarseness = 1.0 / ps if ps > 0 else COARSENESS_GUARD

    if ngp <= 1 or nvp == 0:
        contrast = 0.0
    else:
        pair = float((pi_ * pj_ * dij ** 2).sum())
        contrast = pair / (ngp * (ngp - 1)) * s_total / nvp

    if ngp == 0:
        busyness = 0.0
        complexity = 0.0
        strength = 0.0
    else:
        denom = float(np.abs(ipres[:, None] * pi_ - ipres[None, :] * pj_).sum())
        busyness = ps / denom if denom > 0 else 0.0
        complexity = float((dij * (pi_ * si_ + pj_ * sj_) / (pi_ + pj_)).sum()) / nvp
        strength = float(((pi_ + pj_) * dij ** 2).sum()) / s_total if s_total > 0 else 0.0

    return {
        "Busyness": busyness,
        "Coarseness": coarseness,
        "Complexity": complexity,
        "Contrast": contrast,
        "Strength": strength,
    }
