import os

import numpy as np
import pytest

from cacrad.preprocess import DiscretizedRoi, MaskedRoi, bounding_box

ACCEPTANCE_RESULTS = []


def record_acceptance(index: int, label: str, passed: bool):
    ACCEPTANCE_RESULTS.append((index, label, bool(passed)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for index, label, ok in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {index}: {label}")


def random_level_grid(rng, max_dims=(6, 6, 4), ng_max=5):
    """Random small label grid with at least one nonzero voxel.

    Zero marks out-of-ROI; levels are renumbered so max(level) == ng,
    matching the discretizer's output convention.
    """
    dims = tuple(int(rng.integers(1, m + 1)) for m in max_dims)
    ng = int(rng.integers(1, ng_max + 1))
    grid = rng.integers(0, ng + 1, size=dims).astype(np.int64)
    if not (grid > 0).any():
        grid[tuple(rng.integers(0, d) for d in dims)] = ng
    return renumber(grid)


def renumber(grid):
    """Levels of a grid with some nonzero voxel renumbered to a dense
    1..ng' alphabet, so DiscretizedRoi accepts it."""
    grid = grid.copy()
    levels = np.unique(grid[grid > 0])
    remap = np.zeros(levels.max() + 1, dtype=np.int64)
    remap[levels] = np.arange(1, len(levels) + 1)
    grid[grid > 0] = remap[grid[grid > 0]]
    return grid


def disc_from_grid(grid):
    """The DiscretizedRoi of a level grid, 0 outside the ROI, as the
    discretizers build it: int32 levels cropped to the ROI's box."""
    box = bounding_box(grid > 0)
    return DiscretizedRoi(levels=grid[grid > 0], grid=grid[box].astype(np.int32),
                          ng=int(grid.max()))


def ball_grid(n, texture):
    """Levels of the ball of radius n/2 - 1 in an n^3 grid, 0 outside it:
    32 white-noise levels (one-voxel zones, short runs), or 8 bands of a
    smooth field (large zones, long runs, nearly every neighbour pair of
    equal level)."""
    c, r = (n - 1) / 2, n / 2 - 1
    x, y, z = np.ogrid[:n, :n, :n]
    inside = (x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2 <= r * r
    if texture == "white":
        raw = np.random.default_rng(n).integers(1, 33, size=inside.shape)
    else:
        raw = 1 + np.minimum(((np.sin(x / 5) + np.sin(y / 7) + np.sin(z / 9) + 3) * 4 / 3)
                             .astype(np.int64), 7)
    return renumber(raw * inside)


def roi_from_values(grid_values, mask, spacing=(1.0, 1.0, 1.0)):
    box = bounding_box(mask)
    return MaskedRoi(
        mask=mask[box],
        corner=tuple(s.start for s in box),
        values=np.asarray(grid_values, dtype=np.float64)[mask],
        spacing=tuple(spacing),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)


@pytest.fixture
def cpus(monkeypatch):
    """Pretend the process may use n CPUs."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cpus
