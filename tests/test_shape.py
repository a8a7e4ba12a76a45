import math

import numpy as np
import pytest

from cacrad.features.shape import (
    _line_interiors,
    _max_pairwise,
    shape_features,
    surface_voxels,
)
from cacrad.preprocess import bounding_box
from oracles import mesh_volume_area, triangulate_mask


def test_single_voxel_octahedron():
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[1, 1, 1] = True
    tri = triangulate_mask(mask, (1.0, 1.0, 1.0))
    vol, area = mesh_volume_area(tri)
    # midpoint-vertex surface of one cube of mask: a regular octahedron
    assert vol == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert area == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert len(tri) == 8


def test_mesh_is_closed_watertight():
    # closed surface <=> every edge is shared by exactly two triangles
    rng = np.random.default_rng(5)
    mask = rng.random((5, 5, 4)) > 0.5
    if not mask.any():
        mask[2, 2, 2] = True
    tri = triangulate_mask(mask, (1.0, 1.0, 1.0))
    edges = {}
    for t in np.round(tri * 2).astype(np.int64):  # half-integer grid -> ints
        pts = [tuple(p) for p in t]
        if len(set(pts)) < 3:
            continue  # degenerate sliver contributes no area
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((pts[a], pts[b])))
            edges[key] = edges.get(key, 0) + 1
    assert edges and all(v == 2 for v in edges.values())


def test_cube_volume_and_diameters():
    n = 10
    dims = (n + 2, n + 2, n + 2)
    mask = np.zeros(dims, dtype=bool)
    mask[1:n + 1, 1:n + 1, 1:n + 1] = True
    f = shape_features(mask, (1.0, 1.0, 1.0))
    assert f["VoxelVolume"] == pytest.approx(n ** 3)
    # midpoint surface hugs the voxel block to within half a voxel
    assert f["MeshVolume"] == pytest.approx(n ** 3, rel=0.05)
    assert f["SurfaceArea"] == pytest.approx(6 * n * n, rel=0.10)
    # corner-to-corner center distances
    assert f["Maximum3DDiameter"] == pytest.approx(math.sqrt(3) * (n - 1), rel=1e-12)
    assert f["Maximum2DDiameterXY"] == pytest.approx(math.sqrt(2) * (n - 1), rel=1e-12)


def test_two_voxel_diameter():
    mask = np.zeros((5, 1, 1), dtype=bool)
    mask[0, 0, 0] = True
    mask[3, 0, 0] = True
    f = shape_features(mask, (1.0, 1.0, 1.0))
    assert f["Maximum3DDiameter"] == pytest.approx(3.0, rel=1e-12)
    assert f["Maximum2DDiameterXY"] == pytest.approx(3.0, rel=1e-12)
    assert f["Maximum2DDiameterYZ"] == 0.0


def test_ball_mesh_volume_converges():
    r = 8.5
    n = 20
    c = (n - 1) / 2.0
    g = np.mgrid[0:n, 0:n, 0:n].astype(np.float64)
    mask = ((g[0] - c) ** 2 + (g[1] - c) ** 2 + (g[2] - c) ** 2) <= r * r
    tri = triangulate_mask(mask, (1.0, 1.0, 1.0))
    vol, area = mesh_volume_area(tri)
    # the mesh hugs the voxelized solid tightly; the voxelization itself
    # carries a few percent of error against the continuous ball
    assert vol == pytest.approx(float(mask.sum()), rel=0.02)
    true_vol = 4.0 / 3.0 * math.pi * r ** 3
    assert vol == pytest.approx(true_vol, rel=0.05)
    # midpoint (non-smoothed) isosurfaces overestimate smooth areas by a
    # resolution-independent factor, so sphericity plateaus near 0.92
    f = shape_features(mask, (1.0, 1.0, 1.0))
    assert 0.90 < f["Sphericity"] < 1.0
    assert area > 4.0 * math.pi * r ** 2  # always from above


def test_anisotropic_spacing_scales_mesh():
    mask = np.zeros((6, 6, 6), dtype=bool)
    mask[1:5, 1:5, 1:5] = True
    f1 = shape_features(mask, (1.0, 1.0, 1.0))
    f2 = shape_features(mask, (2.0, 1.0, 1.0))
    assert f2["MeshVolume"] == pytest.approx(2.0 * f1["MeshVolume"], rel=1e-9)
    assert f2["VoxelVolume"] == pytest.approx(2.0 * f1["VoxelVolume"], rel=1e-9)


def test_surface_voxels_of_solid_cube():
    mask = np.zeros((6, 6, 6), dtype=bool)
    mask[1:5, 1:5, 1:5] = True
    surf = surface_voxels(mask)
    assert len(surf) == 4 ** 3 - 2 ** 3  # all but the 2x2x2 interior


def test_axis_lengths_of_elongated_block():
    mask = np.zeros((20, 4, 4), dtype=bool)
    mask[1:19, 1:3, 1:3] = True
    f = shape_features(mask, (1.0, 1.0, 1.0))
    assert f["MajorAxisLength"] > f["MinorAxisLength"] >= f["LeastAxisLength"]
    assert 0.0 < f["Elongation"] < 0.5
    # uniform block along x: eigenvalue = population variance of 0..17
    var = np.arange(18).var()
    assert f["MajorAxisLength"] == pytest.approx(4 * math.sqrt(var), rel=1e-9)


# --- pruned diameter search against the full pairwise scan ---------------

DIAMETERS = ("Maximum3DDiameter", "Maximum2DDiameterXY",
             "Maximum2DDiameterXZ", "Maximum2DDiameterYZ")


def full_scan(points, chunk=2048):
    """The unpruned pairwise scan, as shape features computed it before."""
    if len(points) < 2:
        return 0.0
    best = 0.0
    for lo in range(0, len(points), chunk):
        block = points[lo:lo + chunk]
        d2 = ((block[:, None, :] - points[None, lo:, :]) ** 2).sum(axis=2)
        best = max(best, float(d2.max()))
    return float(np.sqrt(best))


def unpruned_diameters(mask, spacing):
    """Every surface voxel against every other, in 3D and per slice."""
    surf = surface_voxels(mask).astype(np.float64) * np.asarray(spacing)
    out = {"Maximum3DDiameter": full_scan(surf)}
    for plane, axis in (("XY", 2), ("XZ", 1), ("YZ", 0)):
        keep = [k for k in range(3) if k != axis]
        out["Maximum2DDiameter" + plane] = max(
            full_scan(surf[surf[:, axis] == level][:, keep])
            for level in np.unique(surf[:, axis]))
    return out


def snake_mask(n=12, layers=3):
    """A one-voxel-wide path winding through every other row and plane."""
    mask = np.zeros((n, n, 2 * layers - 1), dtype=bool)
    mask[:, ::2, ::2] = True
    for z in range(0, mask.shape[2], 2):
        for y in range(1, n - 1, 2):
            mask[(n - 1) * ((y // 2 + z // 2) % 2), y, z] = True
    for z in range(1, mask.shape[2], 2):
        mask[0, 0, z] = True
    return mask


def diagonal_line_mask(d, length=9):
    mask = np.zeros((length,) * 3, dtype=bool)
    start = np.array([length - 1 if c < 0 else 0 for c in d])
    for t in range(length):
        mask[tuple(start + t * np.array(d))] = True
    return mask


def adversarial_masks():
    rng = np.random.default_rng(31)
    yield "snake", snake_mask()
    yield "parity", (np.indices((7, 6, 5)).sum(axis=0) % 2).astype(bool)
    yield "box", np.ones((6, 5, 4), dtype=bool)
    one = np.zeros((3, 3, 3), dtype=bool)
    one[1, 1, 1] = True
    yield "one voxel", one
    for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (1, 0, 1),
              (1, 0, -1), (0, 1, 1), (0, 1, -1), (1, 1, 1), (1, 1, -1),
              (1, -1, 1), (1, -1, -1)):
        yield f"line {d}", diagonal_line_mask(d)
    for trial in range(4):
        shape = (22, 20, 14)
        g = np.indices(shape) - np.array(shape)[:, None, None, None] / 2
        blob = (g ** 2 / (np.array(shape)[:, None, None, None] / 2.2) ** 2).sum(axis=0) < 1
        yield f"random {trial}", blob & (rng.random(shape) < 0.3 + 0.2 * trial)


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 0.45, 2.5)])
def test_pruned_diameters_equal_full_scan(spacing):
    for name, mask in adversarial_masks():
        got = shape_features(mask, spacing)
        want = unpruned_diameters(mask, spacing)
        for key in DIAMETERS:
            assert got[key] == want[key], (name, key)


def test_line_ends_of_box_surface_are_its_corners():
    mask = np.zeros((7, 6, 5), dtype=bool)
    mask[1:6, 1:5, 1:4] = True
    surf = surface_voxels(mask)
    inner = _line_interiors(surf)
    ends = surf[~inner.any(axis=0)]
    assert sorted(map(tuple, ends)) == sorted(
        (x, y, z) for x in (1, 5) for y in (1, 4) for z in (1, 3))
    # pruned within each plane, every z slice keeps its four corners
    in_xy = surf[~inner[[0, 1]].any(axis=0)]
    assert len(in_xy) == 2 * 4 + 1 * 4


def test_max_pairwise_matches_full_scan_across_chunks():
    rng = np.random.default_rng(8)
    pts = rng.integers(0, 40, size=(300, 3)) * np.array([0.7, 0.45, 1.3])
    for chunk in (7, 64, 2048):
        assert _max_pairwise(pts, chunk) == full_scan(pts, chunk)
    assert _max_pairwise(pts[:1]) == 0.0


@pytest.mark.parametrize("extent", [(6, 5, 4), (6, 1, 4), (1, 5, 4), (6, 5, 1)])
@pytest.mark.parametrize("axes", [(0, 1, 2), (0, 1), (0, 2), (1, 2)])
def test_line_ends_keeps_exactly_the_points_not_between_two_others(axes, extent):
    rng = np.random.default_rng(len(axes) * 10 + axes[-1])
    pts = np.argwhere(rng.random(extent) < 0.5)
    between = set()
    for p in map(tuple, pts):
        for axis in axes:
            on_line = [q[axis] for q in map(tuple, pts)
                       if all(q[j] == p[j] for j in range(3) if j != axis)]
            if min(on_line) < p[axis] < max(on_line):
                between.add(p)
    kept = set(map(tuple, pts[~_line_interiors(pts)[list(axes)].any(axis=0)]))
    assert kept == set(map(tuple, pts)) - between


def border_masks():
    rng = np.random.default_rng(47)
    shape = (9, 8, 6)
    yield "full", np.ones(shape, dtype=bool)
    for name, corner in (("low corner", (0, 0, 0)), ("high corner", (-1, -1, -1))):
        one = np.zeros(shape, dtype=bool)
        one[corner] = True
        yield name, one
    for axis in range(3):
        for end in (0, -1):
            face = np.zeros(shape, dtype=bool)
            face[(slice(None),) * axis + (end,)] = True
            yield f"face {axis} {end}", face
    high = np.zeros(shape, dtype=bool)
    high[4:, 3:, 2:] = rng.random((5, 5, 4)) < 0.6
    yield "high box", high
    for trial in range(3):
        yield f"random {trial}", rng.random(shape) < 0.2 + 0.3 * trial
    for name, mask in adversarial_masks():
        yield "padded " + name, np.pad(mask, ((3, 0), (0, 2), (1, 1)))


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.7, 0.45, 2.5)])
def test_bounding_box_crop_equals_uncropped_path(spacing):
    for name, mask in border_masks():
        box = bounding_box(mask)
        cropped = shape_features(mask[box], spacing, tuple(s.start for s in box))
        whole = shape_features(mask, spacing)
        assert cropped.keys() == whole.keys()
        for key, value in whole.items():
            assert cropped[key] == value, (name, key)


def test_cropped_triangle_soup_is_bit_identical():
    rng = np.random.default_rng(48)
    mask = np.zeros((10, 9, 7), dtype=bool)
    mask[3:9, :5, 2:] = rng.random((6, 5, 5)) < 0.5
    box = bounding_box(mask)
    corner = np.array([s.start for s in box])
    assert [(s.start, s.stop) for s in box] == [
        (int(np.argwhere(mask)[:, k].min()), int(np.argwhere(mask)[:, k].max()) + 1)
        for k in range(3)]
    spacing = (0.7, 0.45, 2.5)
    whole = triangulate_mask(mask, spacing)
    assert whole.tobytes() == triangulate_mask(mask[box], spacing, corner).tobytes()
    assert np.array_equal(surface_voxels(mask), surface_voxels(mask[box]) + corner)
