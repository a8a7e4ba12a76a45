import tracemalloc

import numpy as np
import pytest

from cacrad.errors import TooManyGrayLevels
from cacrad.texmat import (
    DIRECTIONS_13,
    MAX_MATRIX_BYTES,
    compute_glcm,
    compute_gldm,
    compute_glrlm,
    compute_glszm,
    compute_ngtdm,
    flat_steps,
)

import oracles
from conftest import ball_grid, disc_from_grid, random_level_grid, renumber


def test_direction_set_matches_independent_enumeration():
    assert list(DIRECTIONS_13) == oracles.folded_directions()
    assert len(DIRECTIONS_13) == 13
    # sign-folding: the 13 directions plus their negations cover all 26 offsets
    full = set(DIRECTIONS_13) | {tuple(-c for c in d) for d in DIRECTIONS_13}
    assert full == set(oracles.NEIGHBORS_26)


def test_directions_first_nonzero_positive():
    for d in DIRECTIONS_13:
        first = next(c for c in d if c != 0)
        assert first > 0


def checkerboard_disc():
    # 2x2x1 alternating levels: every in-plane neighbor pair crosses levels
    grid = np.array([[[1], [2]], [[2], [1]]], dtype=np.int64)
    return grid, disc_from_grid(grid)


def test_glcm_checkerboard_hand_counts():
    grid, disc = checkerboard_disc()
    m = compute_glcm(disc)
    total = m.counts.sum()
    assert total == 12  # 4 axis pairs + 2 diagonal pairs, doubled by symmetry
    for k, d in enumerate(DIRECTIONS_13):
        mat = m.counts[k]
        assert np.array_equal(mat, mat.T)
    # axis-aligned in-plane directions see only (1,2) pairs
    kx = DIRECTIONS_13.index((1, 0, 0))
    assert m.counts[kx, 0, 0] == 0 and m.counts[kx, 1, 1] == 0
    assert m.counts[kx, 0, 1] == 2 and m.counts[kx, 1, 0] == 2
    # in-plane diagonal sees the equal-level pair
    kd = DIRECTIONS_13.index((1, 1, 0))
    assert m.counts[kd, 0, 0] + m.counts[kd, 1, 1] == 2


def test_glrlm_checkerboard_hand_counts():
    grid, disc = checkerboard_disc()
    m = compute_glrlm(disc)
    # no two equal neighbors along any axis direction: all runs have length 1
    for k, d in enumerate(DIRECTIONS_13):
        mat = m.counts[k]
        if d in ((1, 1, 0), (1, -1, 0)):
            continue  # diagonals pair equal levels into runs of 2
        assert mat[:, 0].sum() == 4
        assert mat[:, 1:].sum() == 0
    kd = DIRECTIONS_13.index((1, 1, 0))
    assert m.counts[kd][:, 1].sum() >= 1


def test_glszm_checkerboard_hand_counts():
    grid, disc = checkerboard_disc()
    m = compute_glszm(disc)
    # 26-connectivity joins the two diagonal same-level voxels: 2 zones of size 2
    assert m.counts.sum() == 2
    assert m.counts[:, 1].sum() == 2


def test_gldm_checkerboard_hand_counts():
    grid, disc = checkerboard_disc()
    m = compute_gldm(disc, alpha=0)
    # each voxel has exactly 1 equal-level neighbor (the diagonal one)
    assert m.counts.sum() == 4
    assert m.counts[:, 1].sum() == 4


def test_ngtdm_checkerboard_hand_counts():
    grid, disc = checkerboard_disc()
    t = compute_ngtdm(disc)
    assert t.valid_count == 4
    assert np.array_equal(t.n, [2, 2])
    # level-1 voxel neighbors: two 2s and one 1 -> mean 5/3, diff 2/3; twice
    assert t.s == pytest.approx([4.0 / 3.0, 4.0 / 3.0])


@pytest.mark.parametrize("trial", range(40))
def test_matrices_match_exhaustive_oracle(trial):
    rng = np.random.default_rng(1000 + trial)
    grid = random_level_grid(rng)
    disc = disc_from_grid(grid)
    ng = disc.ng

    m = compute_glcm(disc)
    assert oracles.same_counts(
        m.counts, oracles.glcm_counts(grid, ng, list(DIRECTIONS_13)))

    r = compute_glrlm(disc)
    assert oracles.same_counts(
        r.counts, oracles.glrlm_counts(grid, ng, list(DIRECTIONS_13)))

    z = compute_glszm(disc)
    assert oracles.same_counts(z.counts, oracles.glszm_counts(grid, ng))

    d = compute_gldm(disc, alpha=0)
    assert oracles.same_counts(d.counts, oracles.gldm_counts(grid, ng, alpha=0))

    t = compute_ngtdm(disc)
    n_o, s_o, valid_o = oracles.ngtdm_tables(grid, ng)
    assert np.array_equal(t.n, n_o)
    assert t.valid_count == valid_o
    assert np.allclose(t.s, s_o, rtol=0, atol=1e-12)


def test_gldm_alpha_widens_dependence(rng):
    grid = random_level_grid(rng, max_dims=(5, 5, 3), ng_max=4)
    disc = disc_from_grid(grid)
    strict = compute_gldm(disc, alpha=0)
    loose = compute_gldm(disc, alpha=10)  # alpha >= ng: every neighbor counts
    assert oracles.same_counts(loose.counts,
                               oracles.gldm_counts(grid, disc.ng, alpha=10))
    # mean dependence can only grow when the tolerance widens
    def mean_dep(m):
        cols = np.arange(m.counts.shape[1])
        return (m.counts.sum(axis=0) * cols).sum() / m.counts.sum()
    assert mean_dep(loose) >= mean_dep(strict)


def test_single_voxel_matrices():
    grid = np.zeros((3, 3, 3), dtype=np.int64)
    grid[1, 1, 1] = 1
    disc = disc_from_grid(grid)
    assert compute_glcm(disc).counts.sum() == 0
    r = compute_glrlm(disc)
    assert r.counts.sum() == 13  # one length-1 run per direction
    z = compute_glszm(disc)
    assert z.counts.sum() == 1 and z.counts[0, 0] == 1
    d = compute_gldm(disc, alpha=0)
    assert d.counts[0, 0] == 1  # zero dependent neighbors
    t = compute_ngtdm(disc)
    assert t.valid_count == 0 and t.n.sum() == 0


def test_glcm_distance_two(rng):
    grid = random_level_grid(rng, max_dims=(6, 6, 4))
    disc = disc_from_grid(grid)
    m = compute_glcm(disc, distance=2)
    assert oracles.same_counts(
        m.counts, oracles.glcm_counts(grid, disc.ng, list(DIRECTIONS_13), distance=2))


def box_filling_grid(rng, shape, ng=4):
    """Random levels with a few holes on a grid the ROI's box fills: a
    voxel in two opposite corners touches all six faces, so a neighbour
    offset that wraps past a row end, rather than meeting the zero border,
    pairs two ROI voxels that are not neighbours."""
    grid = rng.integers(1, ng + 1, size=shape) * (rng.random(shape) < 0.85)
    grid[0, 0, 0] = grid[-1, -1, -1] = 1
    return renumber(grid)


@pytest.mark.parametrize("shape", [(5, 6, 7), (7, 3, 4), (4, 9, 5)])
@pytest.mark.parametrize("distance", [2, 3])
def test_glcm_at_longer_distances_on_box_filling_rois_matches_oracle(shape, distance):
    grid = box_filling_grid(np.random.default_rng(sum(shape) + distance), shape)
    disc = disc_from_grid(grid)
    assert disc.grid.shape == shape
    m = compute_glcm(disc, distance=distance)
    assert np.array_equal(
        m.counts, oracles.glcm_counts(grid, disc.ng, list(DIRECTIONS_13), distance=distance))


@pytest.mark.parametrize("shape", [(5, 6, 7), (7, 3, 4), (4, 9, 5)])
@pytest.mark.parametrize("alpha", [1, 2])
def test_gldm_with_tolerance_on_box_filling_rois_matches_oracle(shape, alpha):
    grid = box_filling_grid(np.random.default_rng(sum(shape) + 10 * alpha), shape, ng=6)
    disc = disc_from_grid(grid)
    assert disc.grid.shape == shape
    d = compute_gldm(disc, alpha=alpha)
    assert np.array_equal(d.counts, oracles.gldm_counts(grid, disc.ng, alpha=alpha))


# --- vectorized kernels against the voxel-by-voxel oracles ----------------

def snake_grid(n=12, layers=3):
    """One level-1 zone winding through every other row and plane, with
    separate level-2 zones between its rows: a path of 233 voxels (at the
    defaults) whose C-order ids zigzag, so labelling needs several hooking
    rounds and pointer jumps."""
    grid = np.zeros((n, n, 2 * layers - 1), dtype=np.int64)
    path = []
    for z in range(0, grid.shape[2], 2):
        rows = range(0, n, 2) if z % 4 == 0 else range(n - 1 - (n - 1) % 2, -1, -2)
        for k, y in enumerate(rows):
            xs = range(n) if (k + z // 2) % 2 == 0 else range(n - 1, -1, -1)
            path.extend((x, y, z) for x in xs)
    for (x0, y0, z0), (x1, y1, z1) in zip(path, path[1:]):
        grid[x0, y0, z0] = 1
        # a turn two rows or planes away needs one connector voxel between
        if abs(y1 - y0) == 2 or abs(z1 - z0) == 2:
            grid[x0, (y0 + y1) // 2, (z0 + z1) // 2] = 1
    grid[path[-1]] = 1
    grid[:, 1::2, ::2][grid[:, 1::2, ::2] == 0] = 2
    return grid


def parity_grid(shape=(7, 6, 5)):
    """Eight levels by coordinate parity: every 26-neighbour differs, so
    every zone is one voxel and every run has length one."""
    g = np.indices(shape)
    return (g[0] % 2 + 2 * (g[1] % 2) + 4 * (g[2] % 2) + 1).astype(np.int64)


def diagonal_lines_grid(d, length=7):
    """A level-1 line along d and, one voxel beside it, a level-2 line
    with a gap in the middle, on an otherwise empty grid."""
    grid = np.zeros((length + 1,) * 3, dtype=np.int64)
    start = np.array([length - 1 if c < 0 else 0 for c in d])
    side = np.zeros(3, dtype=np.int64)
    side[d.index(0) if 0 in d else 1] = 1
    for t in range(length):
        p = start + t * np.array(d)
        grid[tuple(p)] = 1
        if t != length // 2:
            grid[tuple(p + side)] = 2
    return grid


def smooth_random_grid(rng, shape, ng, fill):
    """Blocky levels (2x2x2 cells of one level) with holes: big zones,
    long runs, many ties."""
    coarse = rng.integers(1, ng + 1, size=tuple((s + 1) // 2 for s in shape))
    grid = np.repeat(np.repeat(np.repeat(coarse, 2, 0), 2, 1), 2, 2)[
        :shape[0], :shape[1], :shape[2]]
    grid = grid * (rng.random(shape) < fill)
    return renumber(grid)


def assert_zones_and_runs_match_oracle(grid):
    disc = disc_from_grid(grid)
    z = compute_glszm(disc)
    assert np.array_equal(z.counts, oracles.glszm_counts(grid, disc.ng))
    r = compute_glrlm(disc)
    assert np.array_equal(r.counts,
                          oracles.glrlm_counts(grid, disc.ng, list(DIRECTIONS_13)))
    return z, r


def test_snake_is_one_long_zone():
    grid = snake_grid()
    z, _ = assert_zones_and_runs_match_oracle(grid)
    snake = int((grid == 1).sum())
    assert snake > 100
    assert z.counts[0, snake - 1] == 1 and z.counts[0].sum() == 1


def test_parity_grid_has_only_single_voxel_zones_and_runs():
    grid = parity_grid()
    z, r = assert_zones_and_runs_match_oracle(grid)
    assert z.counts.shape == (8, 1) and z.counts.sum() == grid.size
    assert r.counts.shape[2] == 1


def test_solid_box_is_one_zone_of_full_runs():
    grid = np.ones((5, 4, 3), dtype=np.int64)
    z, r = assert_zones_and_runs_match_oracle(grid)
    assert z.counts.shape == (1, 60) and z.counts[0, 59] == 1
    kx = DIRECTIONS_13.index((1, 0, 0))
    assert r.counts[kx, 0, 4] == 12 and r.counts[kx].sum() == 12


def test_one_voxel_roi_matches_oracle():
    grid = np.zeros((1, 1, 1), dtype=np.int64)
    grid[0, 0, 0] = 1
    z, r = assert_zones_and_runs_match_oracle(grid)
    assert z.counts.shape == (1, 1) and r.counts.shape == (13, 1, 1)


@pytest.mark.parametrize("d", DIRECTIONS_13)
def test_diagonal_lines_match_oracle(d):
    z, r = assert_zones_and_runs_match_oracle(diagonal_lines_grid(d))
    k = DIRECTIONS_13.index(d)
    # the full line is one zone and one run of 7, the broken one two of 3
    assert r.counts[k, 0, 6] == 1 and r.counts[k, 1, 2] == 2
    assert z.counts[0, 6] == 1 and z.counts[1, 2] == 2


@pytest.mark.parametrize("trial", range(4))
def test_large_random_rois_match_oracle(trial):
    rng = np.random.default_rng(77 + trial)
    shape = (20, 18, 14)
    if trial % 2:
        grid = smooth_random_grid(rng, shape, ng=3, fill=0.9)
    else:
        grid = renumber(rng.integers(0, 3, size=shape))
    assert 2000 < (grid > 0).sum() <= 5040
    assert_zones_and_runs_match_oracle(grid)


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 1, 2), (4, 3, 2), (2, 5, 1)])
@pytest.mark.parametrize("distance", [1, 2, 3])
def test_flat_steps_cover_each_neighbour_pair_once(shape, distance):
    ids = np.arange(1, np.prod(shape) + 1).reshape(shape)  # 0 marks only the border
    flat, steps = flat_steps(ids, distance)
    assert np.array_equal(flat[flat > 0], ids.ravel())  # the grid's cells, in C order
    assert len(steps) == len(DIRECTIONS_13) and min(steps) > 0
    got = []
    for k, step in enumerate(steps):
        a, b = flat[:-step], flat[step:]
        both = (a > 0) & (b > 0)
        got += [(k, int(x), int(y)) for x, y in zip(a[both], b[both])]
    want = []
    for k, d in enumerate(DIRECTIONS_13):
        for p in np.ndindex(*shape):
            q = tuple(p[j] + distance * d[j] for j in range(3))
            if all(0 <= q[j] < shape[j] for j in range(3)):
                want.append((k, int(ids[p]), int(ids[q])))
    assert sorted(got) == sorted(want)


def test_glcm_refuses_too_many_gray_levels_before_allocating():
    grid = np.zeros((2, 1, 1), dtype=np.int64)
    grid[0, 0, 0], grid[1, 0, 0] = 1, 2000
    disc = disc_from_grid(grid)
    assert 13 * 2000 * 2000 * 8 > MAX_MATRIX_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(TooManyGrayLevels):
            compute_glcm(disc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("compute", [compute_glszm, compute_glrlm])
def test_zone_and_run_matrices_refuse_past_the_bound_before_allocating(compute):
    # one 2000-voxel zone and run at level 1 and one voxel at level 20000:
    # a 0.3 GiB GLSZM and a 4.2 GiB GLRLM from a 2001-voxel ROI. Along
    # (2001, 1, 1) the long run lies in the ninth direction, so GLRLM has
    # tallied eight directions' one-voxel runs at 20000 levels when it stops.
    assert 20000 * 2000 * 8 > MAX_MATRIX_BYTES
    for dims in [(1, 1, 2001), (2001, 1, 1)]:
        grid = np.ones(dims, dtype=np.int64)
        grid.reshape(-1)[-1] = 20000
        disc = disc_from_grid(grid)
        tracemalloc.start()
        try:
            with pytest.raises(TooManyGrayLevels, match="20000 gray levels"):
                compute(disc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, dims


def _glrlm_peak(grid):
    disc = disc_from_grid(grid)
    tracemalloc.start()
    try:
        r = compute_glrlm(disc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return r, peak


def test_glrlm_layout_does_not_grow_with_a_long_first_axis():
    # each direction's lines are one copy of the flat grid, whichever axis
    # is long: a (100, 3, 3) box costs about what the same box laid out as
    # (3, 3, 100) costs
    rng = np.random.default_rng(5)
    grid = renumber(rng.integers(0, 3, size=(100, 3, 3)))
    r, peak = _glrlm_peak(grid)
    assert np.array_equal(r.counts, oracles.glrlm_counts(grid, int(grid.max()),
                                                         list(DIRECTIONS_13)))
    _, peak_t = _glrlm_peak(np.ascontiguousarray(grid.transpose(1, 2, 0)))
    assert peak <= 2 * peak_t


# --- peak memory: one direction's lists at a time -------------------------

# Traced bytes a compute_* call may peak at, per cell of the ROI's box.
# GLCM and GLRLM count one direction at a time and, like GLDM and NGTDM,
# peak at 34 or less on the balls below; concatenating all 13 directions'
# pair or run lists first took about 105 (GLCM), 65 and 215 (GLRLM).
# GLSZM still joins the equal-level pairs of all 13 directions at once,
# about 190 on smooth levels, so it has a bound of its own.
BYTES_PER_BOX_CELL = 48
GLSZM_BYTES_PER_BOX_CELL = 256

ORACLES = {
    compute_glcm: lambda grid, ng: oracles.glcm_counts(grid, ng, list(DIRECTIONS_13)),
    compute_glrlm: lambda grid, ng: oracles.glrlm_counts(grid, ng, list(DIRECTIONS_13)),
    compute_glszm: oracles.glszm_counts,
    compute_gldm: oracles.gldm_counts,
    compute_ngtdm: oracles.ngtdm_tables,
}


@pytest.mark.parametrize("texture", ["white", "smooth"])
@pytest.mark.parametrize("compute", list(ORACLES), ids=lambda f: f.__name__)
def test_peak_memory_follows_the_box_and_counts_match_oracle(compute, texture):
    disc = disc_from_grid(ball_grid(32, texture))
    assert disc.grid.size == 30 ** 3 and len(disc) > 14000
    tracemalloc.start()
    try:
        got = compute(disc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = GLSZM_BYTES_PER_BOX_CELL if compute is compute_glszm else BYTES_PER_BOX_CELL
    assert peak < bound * disc.grid.size, f"{peak / disc.grid.size:.1f} B per cell"
    want = ORACLES[compute](disc.grid, disc.ng)
    if compute is compute_ngtdm:
        assert np.array_equal(got.n, want[0]) and got.valid_count == want[2]
        assert np.allclose(got.s, want[1], rtol=0, atol=1e-9)
    else:
        assert got.counts.dtype == np.int64 and np.array_equal(got.counts, want)
