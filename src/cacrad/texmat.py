"""Gray-level texture matrices as whole-array passes over the dense ROI grid.

All five families share one neighborhood definition: the 26-neighborhood,
collapsed to 13 unique directions (sign folded). ``forward_pairs`` yields
each direction's grid overlap once for GLCM, GLSZM, GLDM and NGTDM; GLRLM
reads the grid's lines along each direction laid end to end. Matrices
hold raw integer counts; normalization is the feature layer's job so
these stay exactly comparable against brute-force oracles.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import TooManyGrayLevels
from .preprocess import DiscretizedRoi

# Largest int64 count matrix a texture family allocates: 256 MiB. For the
# (13, ng, ng) GLCM that is ng up to 1606; the GLRLM (13, ng, longest run)
# and the GLSZM (ng, largest zone) also grow with the ROI.
MAX_MATRIX_BYTES = 1 << 28


def unique_directions():
    """The 13 offsets of the 26-neighborhood with first nonzero component positive."""
    return tuple(d for d in product((-1, 0, 1), repeat=3) if d > (0, 0, 0))


DIRECTIONS_13 = unique_directions()


@dataclass(frozen=True)
class Glcm:
    counts: np.ndarray  # (n_dirs, ng, ng), symmetric per direction
    directions: tuple
    distance: int


@dataclass(frozen=True)
class Glrlm:
    counts: np.ndarray  # (n_dirs, ng, max_run_length)
    directions: tuple


@dataclass(frozen=True)
class Glszm:
    counts: np.ndarray  # (ng, max_zone_size)


@dataclass(frozen=True)
class Gldm:
    counts: np.ndarray  # (ng, max_dependence + 1); column k = k dependent neighbors
    alpha: int


@dataclass(frozen=True)
class Ngtdm:
    n: np.ndarray  # per level: voxels with >= 1 in-ROI neighbor
    s: np.ndarray  # per level: summed |level - mean neighbor level|
    valid_count: int

    @property
    def p(self) -> np.ndarray:
        if self.valid_count == 0:
            return np.zeros_like(self.s)
        return self.n / self.valid_count


def forward_pairs(shape, distance: int = 1):
    """Yield (src, dst) for each direction d_k of DIRECTIONS_13, in order.

    src and dst are slice tuples into a grid of the given shape such that
    ``grid[dst]`` holds the neighbours at offset ``distance * d_k`` of
    ``grid[src]``; both are empty when the offset does not fit. Every
    unordered neighbour pair appears exactly once.
    """
    for d in DIRECTIONS_13:
        src, dst = [], []
        for n, c in zip(shape, d):
            fwd, back = max(c * distance, 0), max(-c * distance, 0)
            src.append(slice(back, max(n - fwd, 0)))
            dst.append(slice(fwd, max(n - back, 0)))
        yield tuple(src), tuple(dst)


def _count_matrix(shape, name):
    """Zeroed int64 counts of the given shape, whose axis -2 runs over the
    gray levels; TooManyGrayLevels, before allocating, past MAX_MATRIX_BYTES."""
    nbytes = 8 * math.prod(shape)
    if nbytes > MAX_MATRIX_BYTES:
        raise TooManyGrayLevels(
            f"{shape[-2]} gray levels need a {nbytes / 2 ** 30:.1f} GiB {name} of shape {shape}, "
            f"above {MAX_MATRIX_BYTES >> 20} MiB; widen bin_width or set n_bins")
    return np.zeros(shape, dtype=np.int64)


def compute_glcm(roi: DiscretizedRoi, distance: int = 1) -> Glcm:
    """Symmetric co-occurrence counts at the given offset distance, per direction."""
    ng = roi.ng
    counts = _count_matrix((len(DIRECTIONS_13), ng, ng), "GLCM")
    grid, _ = roi.dense_grid()
    for k, (src, dst) in enumerate(forward_pairs(grid.shape, distance)):
        a, b = grid[src], grid[dst]
        valid = (a > 0) & (b > 0)
        np.add.at(counts[k], (a[valid] - 1, b[valid] - 1), 1)
        counts[k] += counts[k].T  # numpy buffers the overlap; no second (13, ng, ng) array
    return Glcm(counts=counts, directions=DIRECTIONS_13, distance=distance)


def _lines_along(grid, d):
    """The grid's lines along d laid end to end, each followed by a 0: a
    shear puts line (u, v) in row (u, v), indexed by the position t on the
    shortest of d's nonzero axes. Runs along -d are the runs along d, so d
    is negated where needed for t to step +1 on that axis; the layout then
    holds at most about 4 (na + 1) / na times the grid's cells, where a
    first-axis layout grows with the cube of that axis."""
    a = min((j for j in range(3) if d[j]), key=lambda j: grid.shape[j])
    if d[a] < 0:
        d = tuple(-x for x in d)
    (nb, db), (nc, dc) = [(grid.shape[j], d[j]) for j in range(3) if j != a]
    na = grid.shape[a]
    rows = np.zeros((nb + (na - 1) * abs(db), nc + (na - 1) * abs(dc), na + 1), grid.dtype)
    b0, c0 = (na - 1) * (db == 1), (na - 1) * (dc == 1)
    for t, plane in enumerate(np.moveaxis(grid, a, 0)):
        rows[b0 - db * t:b0 - db * t + nb, c0 - dc * t:c0 - dc * t + nc, t] = plane
    return rows.ravel()


def compute_glrlm(roi: DiscretizedRoi) -> Glrlm:
    """Maximal same-level collinear runs per direction; gaps break runs.

    With the lines along d laid end to end, a run starts at an ROI voxel
    whose predecessor differs and ends at one whose successor differs.
    Starts and ends are then both in (line, position) order, so the k-th
    start and the k-th end bound the same run.
    """
    grid, _ = roi.dense_grid()
    runs_per_dir = []
    for d in DIRECTIONS_13:
        v = _lines_along(grid, d)
        change = np.ones(len(v) + 1, dtype=bool)
        np.not_equal(v[1:], v[:-1], out=change[1:-1])
        inside = v > 0
        starts = np.flatnonzero(change[:-1] & inside)
        ends = np.flatnonzero(change[1:] & inside)
        runs_per_dir.append((v[starts], ends - starts + 1))
    max_len = max(int(lengths.max()) for _, lengths in runs_per_dir)
    counts = _count_matrix((len(DIRECTIONS_13), roi.ng, max_len), "GLRLM")
    for k, (levels, lengths) in enumerate(runs_per_dir):
        np.add.at(counts[k], (levels - 1, lengths - 1), 1)
    return Glrlm(counts=counts, directions=DIRECTIONS_13)


def compute_glszm(roi: DiscretizedRoi) -> Glszm:
    """Zones: 26-connected components of equal gray level.

    Components are labelled by hooking and pointer jumping (Shiloach and
    Vishkin, 1982) over the equal-level neighbour pairs: each round hooks
    every root onto the smallest root it shares a pair with, then jumps
    pointers until each voxel points at its root. Every component that
    still has a pair to another merges each round, so the number of
    rounds is logarithmic in the ROI size.
    """
    grid, _ = roi.dense_grid()
    inside = grid > 0
    ids = np.cumsum(inside).reshape(grid.shape) - 1  # 0..n-1 on ROI voxels
    u, v = [], []
    for src, dst in forward_pairs(grid.shape):
        same = (grid[src] == grid[dst]) & inside[src]
        u.append(ids[src][same])
        v.append(ids[dst][same])
    u, v = np.concatenate(u), np.concatenate(v)
    parent = np.arange(len(roi))
    while len(u):
        # u and v are roots here: hook the larger onto the smaller
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        up = parent[parent]
        while not np.array_equal(up, parent):
            parent, up = up, up[up]
        u, v = parent[u], parent[v]
        apart = u != v
        u, v = u[apart], v[apart]
    roots, sizes = np.unique(parent, return_counts=True)
    counts = _count_matrix((roi.ng, int(sizes.max())), "GLSZM")
    np.add.at(counts, (grid[inside][roots] - 1, sizes - 1), 1)
    return Glszm(counts=counts)


def compute_gldm(roi: DiscretizedRoi, alpha: int = 0) -> Gldm:
    """Dependence counts over in-ROI 26-neighbors with |level diff| <= alpha."""
    grid, _ = roi.dense_grid()
    dep = np.zeros(grid.shape, dtype=np.int64)
    for src, dst in forward_pairs(grid.shape):
        a, b = grid[src], grid[dst]
        ok = (a > 0) & (b > 0) & (np.abs(a - b) <= alpha)
        dep[dst] += ok
        dep[src] += ok
    deps = dep[grid > 0]
    counts = np.zeros((roi.ng, int(deps.max()) + 1), dtype=np.int64)
    np.add.at(counts, (grid[grid > 0] - 1, deps), 1)
    return Gldm(counts=counts, alpha=alpha)


def compute_ngtdm(roi: DiscretizedRoi) -> Ngtdm:
    """Per-level neighborhood tone differences over in-ROI 26-neighbors.

    Voxels with no in-ROI neighbor are excluded from both n_i and s_i.
    """
    grid, off = roi.dense_grid()
    nb_sum = np.zeros(grid.shape, dtype=np.int64)  # grid is 0 outside the ROI
    nb_cnt = np.zeros(grid.shape, dtype=np.int64)
    for src, dst in forward_pairs(grid.shape):
        a, b = grid[src], grid[dst]
        nb_sum[dst] += a
        nb_cnt[dst] += a > 0
        nb_sum[src] += b
        nb_cnt[src] += b > 0
    rel = roi.indices - off
    cnt = nb_cnt[rel[:, 0], rel[:, 1], rel[:, 2]]
    tot = nb_sum[rel[:, 0], rel[:, 1], rel[:, 2]]
    has_nb = cnt > 0
    levels = roi.levels[has_nb]
    diffs = np.abs(levels - tot[has_nb] / cnt[has_nb])
    n = np.zeros(roi.ng, dtype=np.int64)
    s = np.zeros(roi.ng, dtype=np.float64)
    np.add.at(n, levels - 1, 1)
    np.add.at(s, levels - 1, diffs)
    return Ngtdm(n=n, s=s, valid_count=int(has_nb.sum()))
