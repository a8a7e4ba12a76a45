"""Mask-only morphology: surface mesh, diameters, covariance axes.

The surface is the 0.5-isosurface of the binary mask padded by one voxel
of zeros, polygonised with the classic 256-case tables. With binary corner
values every cut edge is crossed exactly halfway, so vertices are edge
midpoints and no interpolation is needed. Its volume and area are summed
per cube case, so no triangle list is built.
"""

import numpy as np

from ..errors import EmptyMask
from .mc_tables import CORNER_OFFSETS, EDGE_PAIRS, TRI_EDGES

_EDGE_MIDPOINTS = (CORNER_OFFSETS[EDGE_PAIRS[:, 0]] + CORNER_OFFSETS[EDGE_PAIRS[:, 1]]) / 2.0

# Each cube case's triangles (256, 5, 3 vertices, xyz) in voxel units from
# the cube's low corner, all-zero past the case's last; per case, with
# vertices u, v, w, the summed v x w + w x u + u x v and u . (v x w), and
# each triangle's (v - u) x (w - u): every entry a multiple of 1/8.
_TRIANGLES = np.where((TRI_EDGES[:, :15] >= 0)[:, :, None],
                      _EDGE_MIDPOINTS[TRI_EDGES[:, :15]], 0.0).reshape(256, 5, 3, 3)
_U, _V, _W = np.moveaxis(_TRIANGLES, 2, 0)
_CASE_NORMAL = (np.cross(_V, _W) + np.cross(_W, _U) + np.cross(_U, _V)).sum(axis=1)
_CASE_CONST = (_U * np.cross(_V, _W)).sum(axis=(1, 2))
_TRIANGLE_CROSS = np.cross(_V - _U, _W - _U)


def _mesh_volume_area(labels: np.ndarray, sp: np.ndarray):
    """Volume and area of the padded 0.5-isosurface from each cube case's
    count and summed integer cube index p: a triangle's volume term
    (p+u) . ((p+v) x (p+w)) is p . (v x w + w x u + u x v) + u . (v x w).
    In voxel units every term is a multiple of 1/8, so the volume is exact
    and a bounding box gives the whole mask's bits; spacing S scales
    volumes by det S and a cross product c to det S * S^-1 c."""
    outside = np.pad(labels, 1) < 0.5
    cx, cy, cz = (d - 1 for d in outside.shape)
    case = np.zeros((cx, cy, cz), dtype=np.uint8)
    for bit, (ox, oy, oz) in enumerate(CORNER_OFFSETS):
        case |= outside[ox:ox + cx, oy:oy + cy, oz:oz + cz].astype(np.uint8) << bit
    active = np.nonzero((case > 0) & (case < 255))
    cases = case[active]
    count = np.bincount(cases, minlength=256)
    psum = np.stack([np.bincount(cases, idx, 256) for idx in active], axis=1)
    signed = float((psum * _CASE_NORMAL).sum() + count @ _CASE_CONST)
    det = float(sp.prod())
    areas = np.sqrt(((_TRIANGLE_CROSS * (det / sp)) ** 2).sum(axis=2)).sum(axis=1)
    return abs(signed) * det / 6.0, 0.5 * float(count @ areas)


def surface_voxels(labels: np.ndarray) -> np.ndarray:
    """Indices of mask voxels with at least one missing face neighbor."""
    p = np.pad(labels, 1)
    interior = (p[:-2, 1:-1, 1:-1] & p[2:, 1:-1, 1:-1] & p[1:-1, :-2, 1:-1]
                & p[1:-1, 2:, 1:-1] & p[1:-1, 1:-1, :-2] & p[1:-1, 1:-1, 2:])
    return np.argwhere(labels & ~interior)


def _line_interiors(idx: np.ndarray) -> np.ndarray:
    """(3, n) flags: whether each integer point of idx (n, 3) lies strictly
    between two others on its line along axis 0, 1 and 2.

    Seen from any other point, one end of such a point's line lies farther
    along the one coordinate they differ in, so the point is never an end
    of the farthest pair; rounding is monotone, so the computed maximum
    over the points on no line's inside is unchanged, bit for bit.
    """
    span = idx.max(axis=0) + 1
    inner = np.zeros((3, len(idx)), dtype=bool)
    for axis in range(3):
        u, v = (j for j in range(3) if j != axis)
        line = idx[:, u] * span[v] + idx[:, v]
        order = np.argsort(line * span[axis] + idx[:, axis], kind="stable")
        same = np.diff(line[order]) == 0
        inner[axis, order[1:-1][same[:-1] & same[1:]]] = True
    return inner


def _max_pairwise(levels, points: np.ndarray, cells: int = 1 << 14) -> float:
    """Largest distance between two rows of points whose levels, nonnegative
    integers, are equal; 0.0 when no level has two points. One integer
    for levels puts every point on that level.

    Levels of two points or more are taken smallest first, in blocks of
    about `cells` pairs padded to the block's largest level with copies of
    each level's first point, which add no distance. A level past the
    budget on its own, or the one level of an integer, is a block alone.
    Squares are summed in axis order and sqrt keeps order, so the bits are
    the full scan's.
    """
    if np.ndim(levels) == 0:
        return float(np.sqrt(_block_max(np.ascontiguousarray(points.T), len(points), cells)))
    order = np.argsort(levels, kind="stable")
    sizes = np.bincount(levels)
    paired = np.flatnonzero(sizes > 1)
    by_size = paired[sizes[paired].argsort(kind="stable")]
    starts, sizes = (sizes.cumsum() - sizes)[by_size], sizes[by_size]
    best, lo = 0.0, 0
    while lo < len(sizes):
        hi = lo + 1
        while hi < len(sizes) and (hi + 1 - lo) * sizes[hi] ** 2 <= cells:
            hi += 1
        width = int(sizes[hi - 1])
        t = np.arange(width)
        at = order[starts[lo:hi, None] + np.where(t < sizes[lo:hi, None], t, 0)]
        best = max(best, _block_max([col[at] for col in points.T], width, cells))
        lo = hi
    return float(np.sqrt(best))


def _block_max(block, width: int, cells: int) -> float:
    """Largest squared distance between two of the width points along the
    last axis of block, one coordinate array per spatial axis; leading axes
    hold separate point sets. Scanned in bands of rows against the points
    from the band's first row on, so every pair is seen and no temporary
    holds much more than `cells` entries."""
    best = 0.0
    rows = max(1, cells // width)
    for top in range(0, width - 1, rows):
        d2 = None
        for col in block:
            diff = col[..., top:top + rows, None] - col[..., None, top:]
            np.multiply(diff, diff, out=diff)
            d2 = diff if d2 is None else np.add(d2, diff, out=d2)
        best = max(best, float(d2.max()))
    return best


def _max_pairwise_pruned(points: np.ndarray) -> float:
    """_max_pairwise over only the points that can end a farthest pair,
    all on one level.

    With r a point's distance to the centroid and R the largest r, no pair
    with p is longer than r_p + R; L, the longest pair of the point
    farthest from the centroid, is at most the maximum. So a point with
    r_p + R < L can be dropped, here with a 1e-9 relative margin for
    rounding, and the maximum stays the same, bit for bit.
    """
    centered = points - points.mean(axis=0)
    r = np.sqrt((centered * centered).sum(axis=1))
    far = np.argmax(r)
    d = points - points[far]
    reach = float(np.sqrt((d * d).sum(axis=1).max()))
    kept = points[r + r[far] >= reach * (1.0 - 1e-9)]
    return _max_pairwise(0, kept)


def shape_features(labels: np.ndarray, spacing, corner=(0, 0, 0)) -> dict:
    """Shape of a mask; corner is the grid index of labels[0, 0, 0].

    The passes below pad by a voxel of zeros themselves, so the mask's
    bounding box gives the whole mask's values, bit for bit, once integer
    indices get the corner back.
    """
    if not labels.any():
        raise EmptyMask("shape features need at least one mask voxel")
    sp = np.asarray(spacing, dtype=np.float64)
    nvox = int(labels.sum())

    vol, area = _mesh_volume_area(labels, sp)

    surf = surface_voxels(labels) + corner
    inner = _line_interiors(surf)
    max3d = _max_pairwise_pruned(surf[~inner.any(axis=0)] * sp)
    max2d = {}
    for plane, axis in (("XY", 2), ("XZ", 1), ("YZ", 0)):
        keep = [k for k in range(3) if k != axis]
        ends = surf[~inner[keep].any(axis=0)]
        max2d[plane] = _max_pairwise(ends[:, axis], ends[:, keep] * sp[keep])

    centers = (np.argwhere(labels) + corner).astype(np.float64) * sp
    centered = centers - centers.mean(axis=0)
    cov = centered.T @ centered / nvox
    lam = np.linalg.eigvalsh(cov)
    lam = np.clip(lam, 0.0, None)
    least, minor, major = lam
    if major > 0:
        elongation = float(np.sqrt(minor / major))
        flatness = float(np.sqrt(least / major))
    else:
        elongation = 0.0
        flatness = 0.0

    return {
        "Elongation": elongation,
        "Flatness": flatness,
        "LeastAxisLength": 4.0 * float(np.sqrt(least)),
        "MajorAxisLength": 4.0 * float(np.sqrt(major)),
        "Maximum2DDiameterXY": max2d["XY"],
        "Maximum2DDiameterXZ": max2d["XZ"],
        "Maximum2DDiameterYZ": max2d["YZ"],
        "Maximum3DDiameter": max3d,
        "MeshVolume": vol,
        "MinorAxisLength": 4.0 * float(np.sqrt(minor)),
        "Sphericity": float((36.0 * np.pi * vol ** 2) ** (1.0 / 3.0) / area),
        "SurfaceArea": area,
        "SurfaceVolumeRatio": area / vol,
        "VoxelVolume": nvox * float(sp.prod()),
    }
