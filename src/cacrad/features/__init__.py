"""Feature extraction: one volume + mask in, 107 ordered float64 values out."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import DimMismatch, EmptyMask, NonFiniteValue
from ..nifti import Volume3D
from ..preprocess import (
    apply_mask,
    discretize_fixed_count,
    discretize_fixed_width,
    resample_mask_nearest,
    resample_trilinear,
)
from ..texmat import (
    compute_glcm,
    compute_gldm,
    compute_glrlm,
    compute_glszm,
    compute_ngtdm,
)
from .catalog import FAMILIES, FAMILY_COUNTS, FEATURE_NAMES, catalog_text
from .firstorder import first_order
from .shape import shape_features
from .texture import (
    glcm_features,
    gldm_features,
    glrlm_features,
    glszm_features,
    ngtdm_features,
)

__all__ = [
    "FEATURE_NAMES", "FAMILIES", "FAMILY_COUNTS", "catalog_text",
    "ExtractionConfig", "extract_all",
    "first_order", "shape_features",
    "glcm_features", "glrlm_features", "glszm_features",
    "gldm_features", "ngtdm_features",
]


@dataclass(frozen=True)
class ExtractionConfig:
    bin_width: float = 25.0
    n_bins: Optional[int] = None  # fixed-count discretization when set
    resample_spacing: Optional[tuple] = None  # None = extract on native grid
    glcm_distance: int = 1
    gldm_alpha: int = 0


def extract_all(vol: Volume3D, mask, cfg: ExtractionConfig = ExtractionConfig()) -> np.ndarray:
    """The 107 values of the ROI where mask, on vol's grid, is nonzero; raises
    EmptyMask as the exclusion signal and NonFiniteValue naming bad columns."""
    mask = np.asarray(mask, dtype=bool)
    if vol.dims != mask.shape:  # before resampling can round both grids alike
        raise DimMismatch(f"volume {vol.dims} vs mask {mask.shape}")
    if cfg.resample_spacing is not None:
        native = vol.spacing
        vol = resample_trilinear(vol, cfg.resample_spacing)
        mask = resample_mask_nearest(mask, native, cfg.resample_spacing)
    if not mask.any():
        raise EmptyMask("mask selects no voxels")

    roi = apply_mask(vol, mask)
    if cfg.n_bins is not None:
        disc = discretize_fixed_count(roi, cfg.n_bins)
    else:
        disc = discretize_fixed_width(roi, cfg.bin_width)

    fams = {
        "firstorder": first_order(roi, disc),
        "shape": shape_features(roi.mask, vol.spacing, roi.corner),
        "glcm": glcm_features(compute_glcm(disc, distance=cfg.glcm_distance)),
        "glrlm": glrlm_features(compute_glrlm(disc)),
        "glszm": glszm_features(compute_glszm(disc)),
        "gldm": gldm_features(compute_gldm(disc, alpha=cfg.gldm_alpha)),
        "ngtdm": ngtdm_features(compute_ngtdm(disc)),
    }
    values = np.empty(len(FEATURE_NAMES), dtype=np.float64)
    pos = 0
    for family, entries in FAMILIES:
        got = fams[family]
        for name, _ in entries:
            values[pos] = got[name]
            pos += 1
    bad = [FEATURE_NAMES[k] for k in np.flatnonzero(~np.isfinite(values))]
    if bad:
        raise NonFiniteValue(f"non-finite feature values: {bad}")
    return values
