"""What the descriptor and diameter scans skip cannot change their bits.

The run, zone and dependence descriptors read only the columns that hold
a count in some direction, so empty columns appended to a matrix leave
every value as it was. The 3D diameter scan drops the points that cannot
end a farthest pair before the pairwise scan, so its maximum equals the
full scan's bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cacrad.features import shape
from cacrad.features.shape import _max_pairwise, _max_pairwise_pruned
from cacrad.features.texture import gldm_features, glrlm_features, glszm_features
from cacrad.texmat import Gldm, Glrlm, Glszm

# --- empty columns ----------------------------------------------------------


def _sparse_counts(rng, shape, fill):
    """Counts with about `fill` of the cells nonzero, some of them large."""
    counts = rng.integers(1, 40, size=shape) * (rng.random(shape) < fill)
    counts[..., 0] += 1  # every matrix has a count
    return counts


def _widened(counts, extra):
    return np.pad(counts, [(0, 0)] * (counts.ndim - 1) + [(0, extra)])


def _family_counts(family):
    rng = np.random.default_rng(3101)
    if family == "glszm":
        return glszm_features, Glszm, _sparse_counts(rng, (11, 37), 0.3)
    if family == "gldm":
        return gldm_features, Gldm, _sparse_counts(rng, (11, 27), 0.5)
    runs = _sparse_counts(rng, (13, 11, 19), 0.4)
    runs[[3, 8]] = 0  # directions without counts are skipped, as before
    return glrlm_features, Glrlm, runs


@pytest.mark.parametrize("extra", [1, 7, 200])
@pytest.mark.parametrize("family", ["glszm", "gldm", "glrlm"])
def test_appended_empty_columns_leave_every_descriptor_bit_identical(family, extra):
    features, cls, counts = _family_counts(family)
    want = features(cls(counts=counts))
    got = features(cls(counts=_widened(counts, extra)))
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name] == value, (name, got[name], value)


def test_inner_empty_columns_keep_their_weights():
    """Dropping an empty column inside the matrix keeps the weight of
    every column after it: zone sizes 1 and 4 stay 1 and 4."""
    counts = np.array([[3, 0, 0, 2], [1, 0, 0, 0]])
    got = glszm_features(Glszm(counts=counts))
    assert got["LargeAreaEmphasis"] == (3 * 1 + 2 * 16 + 1 * 1) / 6
    assert got["ZonePercentage"] == 6 / (3 * 1 + 2 * 4 + 1 * 1)


# --- the pruned 3D diameter ---------------------------------------------------


def _sphere_shell(n=300, radius=9.0):
    """n points spread over a sphere: all at one distance from the centroid."""
    k = np.arange(n) + 0.5
    polar = np.arccos(1.0 - 2.0 * k / n)
    azimuth = np.pi * (1.0 + 5 ** 0.5) * k
    return radius * np.stack([np.sin(polar) * np.cos(azimuth),
                              np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1)


def _cube_corners_and_inside():
    """Four diagonals tie at the maximum, with a grid of points inside."""
    corners = np.array(np.meshgrid([0, 6], [0, 6], [0, 6])).reshape(3, -1).T
    inside = np.array(np.meshgrid(*[np.arange(1, 6)] * 3)).reshape(3, -1).T
    return np.concatenate([inside, corners]).astype(np.float64)


def _two_clusters():
    rng = np.random.default_rng(3102)
    blob = rng.integers(-3, 4, size=(60, 3)).astype(np.float64)
    return np.concatenate([blob, blob[:40] + [400.0, -250.0, 90.0]])


def _offset_blob():
    """Integer surface-like points 1e4 voxels from the origin at CT spacing."""
    g = np.indices((9, 7, 5)).reshape(3, -1).T
    shell = g[((g - [4, 3, 2]) ** 2).sum(axis=1) >= 6]
    return (shell + 1e4) * np.array([0.7, 0.45, 2.5])


points = st.lists(st.tuples(*[st.integers(-25, 25)] * 3), min_size=1, max_size=150)
spacings = st.tuples(*[st.sampled_from([0.45, 0.7, 1.0, 2.5, 1.0 / 3.0])] * 3)
offsets = st.sampled_from([0.0, 0.5, 1e4])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(idx=points, spacing=spacings, offset=offsets)
@example(idx=_sphere_shell(), spacing=(1.0, 1.0, 1.0), offset=0.0)
@example(idx=_cube_corners_and_inside(), spacing=(1.0, 1.0, 1.0), offset=0.0)
@example(idx=_cube_corners_and_inside(), spacing=(0.7, 0.45, 2.5), offset=0.0)
@example(idx=[(4, -2, 7)], spacing=(0.7, 0.45, 2.5), offset=0.0)
@example(idx=[(4, -2, 7), (-3, 5, 1)], spacing=(0.7, 0.45, 2.5), offset=0.0)
@example(idx=[(3 * t, -2 * t, t) for t in range(-6, 20)], spacing=(0.7, 0.45, 2.5), offset=0.0)
@example(idx=_two_clusters(), spacing=(0.7, 0.45, 2.5), offset=0.0)
@example(idx=_offset_blob(), spacing=(1.0, 1.0, 1.0), offset=0.0)
def test_pruned_3d_diameter_equals_the_full_scan_bit_for_bit(idx, spacing, offset):
    pts = (np.asarray(idx, dtype=np.float64) + offset) * np.asarray(spacing)
    assert _max_pairwise_pruned(pts) == _max_pairwise(pts)


def _scanned_points(monkeypatch, pts):
    """How many points the pruned diameter hands to the pairwise scan."""
    seen = []

    def record(points, *args):
        seen.append(len(points))
        return _max_pairwise(points, *args)

    monkeypatch.setattr(shape, "_max_pairwise", record)
    _max_pairwise_pruned(pts)
    return seen[0]


def test_prune_keeps_a_sphere_shell_and_drops_most_of_a_filled_cube(monkeypatch):
    shell = _sphere_shell()
    assert _scanned_points(monkeypatch, shell) == len(shell)
    cube = _cube_corners_and_inside()
    assert _scanned_points(monkeypatch, cube) < len(cube) // 2
