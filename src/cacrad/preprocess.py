"""ROI extraction, gray-level discretization, and intensity normalization.

The texture families all consume a DiscretizedRoi: ROI voxel indices plus
an integer gray level per voxel in 1..Ng. Levels derive from ROI voxels
only, never from the surrounding volume.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadSpacing,
    DimMismatch,
    EmptyRoi,
    NonPositiveWidth,
)
from .nifti import MaskVolume, Volume3D


@dataclass(frozen=True)
class MaskedRoi:
    """Raw-intensity ROI: voxel indices and their HU values."""

    indices: np.ndarray  # (N, 3) int
    values: np.ndarray  # (N,) float64
    spacing: tuple
    volume_dims: tuple

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class DiscretizedRoi:
    """ROI voxels with integer gray levels in 1..ng."""

    indices: np.ndarray
    levels: np.ndarray
    ng: int
    spacing: tuple
    bounds: tuple  # ((x0,x1),(y0,y1),(z0,z1)) inclusive
    volume_dims: tuple = None

    def __post_init__(self):
        if len(self.levels) == 0:
            raise EmptyRoi("discretized ROI has no voxels")
        lv = np.asarray(self.levels)
        if lv.min() < 1 or lv.max() != self.ng:
            raise ValueError(f"levels must span 1..{self.ng}, got {lv.min()}..{lv.max()}")

    def __len__(self):
        return len(self.levels)

    def dense_grid(self):
        """Levels on the dense bounding-box grid, 0 outside the ROI.

        Returns (grid, offset) where voxel ``indices[k]`` sits at
        ``grid[tuple(indices[k] - offset)]``. Built once per ROI.
        """
        return self._dense_grid

    @cached_property
    def _dense_grid(self):
        (x0, x1), (y0, y1), (z0, z1) = self.bounds
        grid = np.zeros((x1 - x0 + 1, y1 - y0 + 1, z1 - z0 + 1), dtype=np.int32)
        off = np.array([x0, y0, z0])
        rel = self.indices - off
        grid[rel[:, 0], rel[:, 1], rel[:, 2]] = self.levels
        return grid, off


def apply_mask(vol: Volume3D, mask: MaskVolume) -> MaskedRoi:
    """Extract the voxels where the mask is true, with raw intensities.

    An all-false mask yields an empty MaskedRoi; exclusion policy is the
    caller's decision.
    """
    if vol.dims != mask.dims:
        raise DimMismatch(f"volume {vol.dims} vs mask {mask.dims}")
    idx = np.argwhere(mask.labels)
    values = vol.intensities[mask.labels]
    return MaskedRoi(indices=idx, values=values, spacing=vol.spacing, volume_dims=vol.dims)


def _discretized(roi: MaskedRoi, levels: np.ndarray) -> DiscretizedRoi:
    lo, hi = roi.indices.min(axis=0), roi.indices.max(axis=0)
    return DiscretizedRoi(indices=roi.indices, levels=levels, ng=int(levels.max()),
                          spacing=roi.spacing, volume_dims=roi.volume_dims,
                          bounds=tuple((int(lo[k]), int(hi[k])) for k in range(3)))


def discretize_fixed_width(roi: MaskedRoi, bin_width: float) -> DiscretizedRoi:
    """Min-anchored fixed-width binning: level = floor((x - min)/w) + 1."""
    if bin_width <= 0:
        raise NonPositiveWidth(f"bin_width must be > 0, got {bin_width}")
    if len(roi) == 0:
        raise EmptyRoi("cannot discretize an empty ROI")
    lo = roi.values.min()
    levels = np.floor((roi.values - lo) / bin_width).astype(np.int64) + 1
    return _discretized(roi, levels)


def discretize_fixed_count(roi: MaskedRoi, n_bins: int) -> DiscretizedRoi:
    """Equal-width bins spanning [min, max]; the max maps into bin n_bins."""
    if n_bins < 1:
        raise NonPositiveWidth(f"n_bins must be >= 1, got {n_bins}")
    if len(roi) == 0:
        raise EmptyRoi("cannot discretize an empty ROI")
    lo = roi.values.min()
    hi = roi.values.max()
    if hi == lo:
        levels = np.ones(len(roi), dtype=np.int64)
    else:
        w = (hi - lo) / n_bins
        levels = np.floor((roi.values - lo) / w).astype(np.int64) + 1
        levels = np.minimum(levels, n_bins)
    return _discretized(roi, levels)


def _target_dims(dims, spacing, target):
    out = []
    for d, s, t in zip(dims, spacing, target):
        out.append(max(1, int(round(d * s / t))))
    return tuple(out)


def resample_trilinear(vol: Volume3D, target_spacing) -> Volume3D:
    """Resample intensities onto a grid with the given spacing (trilinear)."""
    target = tuple(float(t) for t in target_spacing)
    if any(t <= 0 for t in target):
        raise BadSpacing(f"target spacing must be positive, got {target}")
    new_dims = _target_dims(vol.dims, vol.spacing, target)

    frac = []
    for ax in range(3):
        centers = (np.arange(new_dims[ax]) + 0.5) * target[ax]
        pos = centers / vol.spacing[ax] - 0.5
        frac.append(np.clip(pos, 0.0, vol.dims[ax] - 1))

    fx, fy, fz = np.meshgrid(*frac, indexing="ij")
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
    return Volume3D(
        dims=new_dims,
        spacing=target,
        intensities=out,
        orientation=vol.orientation,
        origin=vol.origin,
    )


def resample_mask_nearest(mask: MaskVolume, spacing, target_spacing) -> MaskVolume:
    """Nearest-neighbor companion to resample_trilinear for boolean masks."""
    target = tuple(float(t) for t in target_spacing)
    if any(t <= 0 for t in target):
        raise BadSpacing(f"target spacing must be positive, got {target}")
    new_dims = _target_dims(mask.dims, spacing, target)
    idx = []
    for ax in range(3):
        centers = (np.arange(new_dims[ax]) + 0.5) * target[ax]
        pos = np.rint(centers / spacing[ax] - 0.5).astype(int)
        idx.append(np.clip(pos, 0, mask.dims[ax] - 1))
    ix, iy, iz = np.meshgrid(*idx, indexing="ij")
    return MaskVolume(dims=new_dims, labels=mask.labels[ix, iy, iz])
