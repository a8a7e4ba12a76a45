"""Gray-level texture matrices as whole-array passes over the ROI's box grid.

All five families share one neighborhood definition: the 26-neighborhood,
collapsed to 13 unique directions (sign folded). ``flat_steps`` flattens
the grid inside a zero border, where each direction is one flat step:
GLCM, GLSZM and GLDM compare the flat grid with itself shifted by that
step, and GLRLM reads the lines along it as the columns of the flat grid
cut into rows of that step. NGTDM sums each voxel's 26 neighbours as one
3x3x3 box sum. Counts go through ``np.bincount`` over a flat index into
the matrix. GLCM and GLRLM count one direction's pairs or runs at a
time, so they hold one direction's lists, never all 13. Matrices hold
raw integer counts; normalization is the feature layer's job so these
stay exactly comparable against brute-force oracles.
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


# The 13 offsets of the 26-neighborhood with first nonzero component positive.
DIRECTIONS_13 = tuple(d for d in product((-1, 0, 1), repeat=3) if d > (0, 0, 0))


@dataclass(frozen=True)
class Glcm:
    counts: np.ndarray  # (13, ng, ng), symmetric per direction, in DIRECTIONS_13 order


@dataclass(frozen=True)
class Glrlm:
    counts: np.ndarray  # (13, ng, max_run_length), in DIRECTIONS_13 order


@dataclass(frozen=True)
class Glszm:
    counts: np.ndarray  # (ng, max_zone_size)


@dataclass(frozen=True)
class Gldm:
    counts: np.ndarray  # (ng, max_dependence + 1); column k = k dependent neighbors


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


def flat_steps(grid, distance: int = 1):
    """The grid inside a zero border distance cells wide, flattened in C
    order, and for each direction d of DIRECTIONS_13, in order, its flat
    step: the positive offset of distance * d in the flattened grid.

    Where ``flat[i]`` is a grid cell, ``flat[i + step]`` is its neighbour
    at distance * d, a border 0 where that neighbour is off the grid; every
    other ``flat[i]`` is a border 0. So ``flat[:-step]`` and ``flat[step:]``
    pair each two grid cells at that offset exactly once. No axis is padded
    past its extent, and a direction whose offset leaves the grid along
    some axis it moves on has no pair: its step is the flat grid's length.
    """
    reach = np.minimum(distance, np.shape(grid))
    padded = np.pad(grid, [(r, r) for r in reach])
    strides = np.array(padded.strides) // padded.itemsize
    return padded.ravel(), [distance * int(strides @ d) if (reach >= distance * np.abs(d)).all()
                            else padded.size for d in DIRECTIONS_13]


def _bounded(shape, name):
    """The shape of an int64 count matrix whose axis -2 runs over the gray
    levels; TooManyGrayLevels, before anything is allocated, when the
    matrix would pass MAX_MATRIX_BYTES."""
    nbytes = 8 * math.prod(shape)
    if nbytes > MAX_MATRIX_BYTES:
        raise TooManyGrayLevels(
            f"{shape[-2]} gray levels need a {nbytes / 2 ** 30:.1f} GiB {name} of shape {shape}, "
            f"above {MAX_MATRIX_BYTES >> 20} MiB; widen bin_width or set n_bins")
    return shape


def _counts(index, shape):
    """int64 counts of the given shape: how often each flat index into it occurs."""
    return np.bincount(index, minlength=math.prod(shape)).reshape(shape)


def compute_glcm(roi: DiscretizedRoi, distance: int = 1) -> Glcm:
    """Symmetric co-occurrence counts at the given offset distance, per direction."""
    ng = roi.ng
    counts = np.empty(_bounded((len(DIRECTIONS_13), ng, ng), "GLCM"), dtype=np.int64)
    flat, steps = flat_steps(roi.grid, distance)
    for k, step in enumerate(steps):
        a, b = flat[:-step], flat[step:]
        valid = (a > 0) & (b > 0)
        counts[k] = _counts((a[valid] - 1) * ng + b[valid] - 1, (ng, ng))
        counts[k] += counts[k].T  # numpy buffers the overlap
    return Glcm(counts=counts)


def _runs_along(flat, step):
    """Level and length of each maximal same-level run along the direction
    of a flat step of flat_steps, in the flat grid zero-tailed to a multiple
    of step. Cut into rows of step cells, its columns are the grid's lines
    along that direction, kept apart by the zero border when laid end to
    end; the runs are the stretches of equal nonzero level between changes."""
    v = flat.reshape(-1, step).T.ravel()
    change = np.ones(len(v) + 1, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=change[1:-1])
    cuts = np.flatnonzero(change)  # v is constant on each [cuts[k], cuts[k + 1])
    levels = v[cuts[:-1]]
    del v, change  # the layout is the largest array; free it before the lengths
    run = levels > 0
    return levels[run], np.diff(cuts)[run]


def compute_glrlm(roi: DiscretizedRoi) -> Glrlm:
    """Maximal same-level collinear runs per direction; gaps break runs.

    Each direction's runs are tallied as they are found, into its distinct
    (length, level) keys and their counts. The matrix is as wide as the
    longest run of all, so it is refused as soon as the longest run so far
    makes it too large, and allocated only after the last direction. A
    direction's dense tally is at most 1/13 of the matrix already admitted.
    """
    ng = roi.ng
    tallies, max_len = [], 1
    flat, steps = flat_steps(roi.grid)
    tails = [-len(flat) % step for step in steps]
    tailed = np.pad(flat, (0, max(tails)))  # one zero tail; each direction reads a view
    for step, tail in zip(steps, tails):
        levels, lengths = _runs_along(tailed[:len(flat) + tail], step)
        longest = int(lengths.max())
        max_len = max(max_len, longest)
        _bounded((len(DIRECTIONS_13), ng, max_len), "GLRLM")
        n = np.bincount((lengths - 1) * ng + levels - 1)
        key = np.flatnonzero(n)
        tallies.append((key, n[key]))
    keys, n = (np.concatenate(side) for side in zip(*tallies))
    length, level = np.divmod(keys, ng)
    direction = np.repeat(np.arange(len(DIRECTIONS_13)), [len(key) for key, _ in tallies])
    counts = np.zeros((len(DIRECTIONS_13), ng, max_len), dtype=np.int64)
    counts[direction, level, length] = n
    return Glrlm(counts=counts)


def compute_glszm(roi: DiscretizedRoi) -> Glszm:
    """Zones: 26-connected components of equal gray level.

    Components are labelled by hooking and pointer jumping (Shiloach and
    Vishkin, 1982) over the equal-level neighbour pairs: each round hooks
    every root onto the smallest root it shares a pair with, then jumps
    pointers until each voxel points at its root. Every component that
    still has a pair to another merges each round, so the number of
    rounds is logarithmic in the ROI size.
    """
    flat, steps = flat_steps(roi.grid)
    inside = flat > 0
    ids = np.cumsum(inside) - 1  # 0..n-1 on ROI voxels, in C order
    u, v = [], []
    for step in steps:
        at = np.flatnonzero((flat[:-step] == flat[step:]) & inside[:-step])
        u.append(ids[at])
        at += step
        v.append(ids[at])
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
    sizes = np.bincount(parent)
    roots = np.flatnonzero(sizes)
    sizes = sizes[roots]
    shape = _bounded((roi.ng, int(sizes.max())), "GLSZM")
    counts = _counts((roi.levels[roots] - 1) * shape[1] + sizes - 1, shape)
    return Glszm(counts=counts)


def compute_gldm(roi: DiscretizedRoi, alpha: int = 0) -> Gldm:
    """Dependence counts over in-ROI 26-neighbors with |level diff| <= alpha."""
    flat, steps = flat_steps(roi.grid)
    inside = flat > 0
    dep = np.zeros(len(flat), dtype=np.int8)  # at most 26 neighbours
    for step in steps:
        ok = inside[:-step] & inside[step:] & (np.abs(flat[:-step] - flat[step:]) <= alpha)
        dep[step:] += ok
        dep[:-step] += ok
    deps = dep[inside]  # C order, as roi.levels
    width = int(deps.max()) + 1
    counts = _counts((roi.levels - 1) * width + deps, (roi.ng, width))
    return Gldm(counts=counts)


def _neighbour_sums(a):
    """Sum of a over each cell's 26-neighbourhood, zero beyond the grid:
    a 3x3x3 box sum, one axis at a time, less the cell; exact in int64."""
    s = np.pad(a.astype(np.int64), 1)
    s = s[:-2] + s[1:-1] + s[2:]
    s = s[:, :-2] + s[:, 1:-1] + s[:, 2:]
    s = s[:, :, :-2] + s[:, :, 1:-1] + s[:, :, 2:]
    return s - a


def compute_ngtdm(roi: DiscretizedRoi) -> Ngtdm:
    """Per-level neighborhood tone differences over in-ROI 26-neighbors.

    Voxels with no in-ROI neighbor are excluded from both n_i and s_i.
    """
    grid = roi.grid
    inside = grid > 0
    cnt = _neighbour_sums(inside)[inside]
    tot = _neighbour_sums(grid)[inside]  # grid is 0 outside the ROI
    has_nb = cnt > 0
    levels = roi.levels[has_nb]
    diffs = np.abs(levels - tot[has_nb] / cnt[has_nb])
    n = _counts(levels - 1, (roi.ng,))
    s = np.bincount(levels - 1, diffs, roi.ng)  # adds in voxel order, as np.add.at does
    return Ngtdm(n=n, s=s, valid_count=int(has_nb.sum()))
