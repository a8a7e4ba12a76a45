"""ROI extraction, gray-level discretization, and intensity normalization.

Every feature family works on one box: the smallest one holding the mask,
found once by bounding_box. The texture families all consume a
DiscretizedRoi: an integer gray level in 1..Ng per ROI voxel, and the same
levels on the box grid. Levels derive from ROI voxels only, never from the
surrounding volume.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSpacing,
    DimMismatch,
    EmptyMask,
    NonFiniteValue,
    NonPositiveWidth,
    TooManyGrayLevels,
)
from .nifti import MAX_VOXELS, Volume3D


@dataclass(frozen=True)
class MaskedRoi:
    """Raw-intensity ROI, cropped to the mask's bounding box."""

    mask: np.ndarray  # bool, the mask on its bounding box
    corner: tuple  # grid index of mask[0, 0, 0]
    values: np.ndarray  # (N,) float64, HU of the mask voxels in C order
    spacing: tuple

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class DiscretizedRoi:
    """ROI gray levels in 1..ng, per voxel in C order and on the box grid."""

    levels: np.ndarray
    grid: np.ndarray  # int32 levels on the bounding box, 0 outside the ROI
    ng: int

    def __post_init__(self):
        if len(self.levels) == 0:
            raise EmptyMask("discretized ROI has no voxels")
        lv = np.asarray(self.levels)
        if lv.min() < 1 or lv.max() != self.ng:
            raise ValueError(f"levels must span 1..{self.ng}, got {lv.min()}..{lv.max()}")

    def __len__(self):
        return len(self.levels)


def bounding_box(labels: np.ndarray) -> tuple:
    """Slices of the smallest box holding every true voxel of labels, from
    its three axis projections; empty slices when there is none.

    Each projection runs on the mask already cropped along the axes before
    it, which holds every true voxel: the first, over contiguous memory,
    leaves only a slab for the two strided ones.
    """
    box = []
    for axis in range(3):
        hit = np.flatnonzero(labels[tuple(box)].any(axis=tuple(j for j in range(3) if j != axis)))
        if len(hit) == 0:
            return (slice(0, 0),) * 3
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def apply_mask(vol: Volume3D, mask: np.ndarray) -> MaskedRoi:
    """Crop the mask's nonzero voxels to their bounding box and take the
    intensities there, as float64; only these voxels are converted.

    An all-zero mask yields an empty MaskedRoi; exclusion policy is the
    caller's decision.
    """
    mask = np.asarray(mask, dtype=bool)  # an int mask would index, not select
    if vol.dims != mask.shape:
        raise DimMismatch(f"volume {vol.dims} vs mask {mask.shape}")
    box = bounding_box(mask)
    labels = mask[box]
    return MaskedRoi(mask=labels, corner=tuple(s.start for s in box),
                     values=vol.intensities[box][labels].astype(np.float64, copy=False),
                     spacing=vol.spacing)


def _discretized(roi: MaskedRoi, levels: np.ndarray) -> DiscretizedRoi:
    grid = np.zeros(roi.mask.shape, dtype=np.int32)
    grid[roi.mask] = levels
    return DiscretizedRoi(levels=levels, grid=grid, ng=int(levels.max()))


def _value_range(roi: MaskedRoi):
    """The least and greatest intensity of a nonempty ROI; NonFiniteValue
    when their difference is not finite (a NaN or infinite intensity, or a
    range past float64), since no bin would hold every voxel. They are
    Python floats, whose arithmetic overflows to inf without a warning."""
    if len(roi) == 0:
        raise EmptyMask("cannot discretize an empty ROI")
    lo, hi = float(roi.values.min()), float(roi.values.max())
    if not math.isfinite(hi - lo):
        raise NonFiniteValue(f"ROI intensities from {lo} to {hi} have no finite range")
    return lo, hi


def discretize_fixed_width(roi: MaskedRoi, bin_width: float) -> DiscretizedRoi:
    """Min-anchored fixed-width binning: level = floor((x - min)/w) + 1."""
    if bin_width <= 0:
        raise NonPositiveWidth(f"bin_width must be > 0, got {bin_width}")
    lo, hi = _value_range(roi)
    if not (hi - lo) / float(bin_width) < 2 ** 31 - 2:  # past int32, the level grid would wrap
        raise TooManyGrayLevels(
            f"bins of width {bin_width} split the ROI's {lo:g} to {hi:g} into more gray "
            "levels than a texture matrix may hold; widen bin_width or set n_bins")
    levels = np.floor((roi.values - lo) / bin_width).astype(np.int64) + 1
    return _discretized(roi, levels)


def discretize_fixed_count(roi: MaskedRoi, n_bins: int) -> DiscretizedRoi:
    """Equal-width bins spanning [min, max]; the max maps into bin n_bins."""
    if n_bins < 1:
        raise NonPositiveWidth(f"n_bins must be >= 1, got {n_bins}")
    lo, hi = _value_range(roi)
    if hi == lo:
        levels = np.ones(len(roi), dtype=np.int64)
    else:
        w = (hi - lo) / n_bins
        levels = np.floor((roi.values - lo) / w).astype(np.int64) + 1
        levels = np.minimum(levels, n_bins)
    return _discretized(roi, levels)


def _target_dims(dims, spacing, target):
    if any(t <= 0 for t in target):
        raise BadSpacing(f"target spacing must be positive, got {target}")
    sizes = [d * s / t for d, s, t in zip(dims, spacing, target)]
    # each axis is bounded before rounding: round() fails on inf and nan
    if not all(size <= MAX_VOXELS for size in sizes) or math.prod(
            max(1, int(round(size))) for size in sizes) > MAX_VOXELS:
        raise BadSpacing(
            f"resampling {tuple(dims)} voxels of spacing {tuple(spacing)} to spacing "
            f"{target} gives more than {MAX_VOXELS} voxels")
    return tuple(max(1, int(round(size))) for size in sizes)


def resample_trilinear(vol: Volume3D, target_spacing) -> Volume3D:
    """Resample intensities onto a grid with the given spacing (trilinear)."""
    target = tuple(float(t) for t in target_spacing)
    new_dims = _target_dims(vol.dims, vol.spacing, target)

    frac = []
    for ax in range(3):
        centers = (np.arange(new_dims[ax]) + 0.5) * target[ax]
        pos = centers / vol.spacing[ax] - 0.5
        frac.append(np.clip(pos, 0.0, vol.dims[ax] - 1))

    # sparse (n, 1, 1), (1, n, 1), (1, 1, n) grids: every product below
    # broadcasts to the same elements, so no full-volume index grids
    fx, fy, fz = np.meshgrid(*frac, indexing="ij", sparse=True)
    x0 = np.floor(fx).astype(int)
    y0 = np.floor(fy).astype(int)
    z0 = np.floor(fz).astype(int)
    x1 = np.minimum(x0 + 1, vol.dims[0] - 1)
    y1 = np.minimum(y0 + 1, vol.dims[1] - 1)
    z1 = np.minimum(z0 + 1, vol.dims[2] - 1)
    tx = fx - x0
    ty = fy - y0
    tz = fz - z0

    v = vol.intensities
    out = (
        v[x0, y0, z0] * (1 - tx) * (1 - ty) * (1 - tz)
        + v[x1, y0, z0] * tx * (1 - ty) * (1 - tz)
        + v[x0, y1, z0] * (1 - tx) * ty * (1 - tz)
        + v[x0, y0, z1] * (1 - tx) * (1 - ty) * tz
        + v[x1, y1, z0] * tx * ty * (1 - tz)
        + v[x1, y0, z1] * tx * (1 - ty) * tz
        + v[x0, y1, z1] * (1 - tx) * ty * tz
        + v[x1, y1, z1] * tx * ty * tz
    )
    return Volume3D(dims=new_dims, spacing=target, intensities=out)


def resample_mask_nearest(mask: np.ndarray, spacing, target_spacing) -> np.ndarray:
    """Nearest-neighbor companion to resample_trilinear for bool masks."""
    target = tuple(float(t) for t in target_spacing)
    new_dims = _target_dims(mask.shape, spacing, target)
    idx = []
    for ax in range(3):
        centers = (np.arange(new_dims[ax]) + 0.5) * target[ax]
        pos = np.rint(centers / spacing[ax] - 0.5).astype(int)
        idx.append(np.clip(pos, 0, mask.shape[ax] - 1))
    ix, iy, iz = np.meshgrid(*idx, indexing="ij", sparse=True)
    return mask[ix, iy, iz]
