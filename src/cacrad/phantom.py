"""Synthetic CT-like cohort generator.

Each subject is a small chest-window volume holding one winding tubular
region of soft tissue (~40 HU) against a darker surround. Positive
subjects get 1..5 bright ellipsoidal deposits (>= 130 HU above the
tissue level) strictly inside the region, so the mask itself carries no
label information. Output is byte-stable for a fixed seed.
"""

import csv
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadRange
from .learn.grid import MAX_COUNT
from .nifti import Volume3D, write_nifti
from .parallel import map_ordered
from .rng import MAX_SEED, stream
from .table import writable_path, write_atomic

DEFAULT_SPACING = (0.49, 0.49, 1.41)  # mm
DEFAULT_DIMS = (44, 44, 28)
TISSUE_HU = 40.0        # region baseline
TISSUE_NOISE = 15.0     # clipped at 3 sigma, keeps Zero region < +130 margin
SURROUND_HU = -80.0
SURROUND_NOISE = 10.0
LESION_HU_RANGE = (300.0, 700.0)  # far above TISSUE_HU + 130
LESION_MARGIN = 130.0


@dataclass(frozen=True)
class PhantomSubject:
    subject_id: str
    volume: Volume3D
    mask: np.ndarray   # bool, on the volume's grid
    contrast: str      # "contrast" | "noncontrast"
    cac_score: float


def _tube_mask(dims, rng) -> np.ndarray:
    nx, ny, nz = dims
    zs = np.arange(nz)
    amp_x = rng.uniform(2.0, 5.0)
    amp_y = rng.uniform(2.0, 5.0)
    phase_x = rng.uniform(0.0, 2.0 * math.pi)
    phase_y = rng.uniform(0.0, 2.0 * math.pi)
    turns = rng.uniform(0.5, 1.5)
    cx = nx / 2.0 + amp_x * np.sin(2.0 * math.pi * turns * zs / nz + phase_x)
    cy = ny / 2.0 + amp_y * np.cos(2.0 * math.pi * turns * zs / nz + phase_y)
    radius = rng.uniform(2.4, 3.4)
    xs = np.arange(nx)[:, None, None]
    ys = np.arange(ny)[None, :, None]
    d2 = (xs - cx[None, None, :]) ** 2 + (ys - cy[None, None, :]) ** 2
    return d2 <= radius ** 2


def _add_lesions(intens: np.ndarray, region: np.ndarray, rng) -> float:
    """Paint 1..5 bright ellipsoids inside the region; returns a volume score."""
    nx, ny, nz = intens.shape
    candidates = np.argwhere(region)
    n_lesions = int(rng.integers(1, 6))
    painted = np.zeros_like(region)
    for _ in range(n_lesions):
        cx, cy, cz = candidates[int(rng.integers(0, len(candidates)))]
        rxy = rng.uniform(1.0, 2.2)
        rz = rng.uniform(0.6, 1.3)
        hu = rng.uniform(*LESION_HU_RANGE)
        x0, x1 = max(0, int(cx - 3)), min(nx, int(cx + 4))
        y0, y1 = max(0, int(cy - 3)), min(ny, int(cy + 4))
        z0, z1 = max(0, int(cz - 3)), min(nz, int(cz + 4))
        xs, ys, zs = np.mgrid[x0:x1, y0:y1, z0:z1]
        inside = (((xs - cx) / rxy) ** 2 + ((ys - cy) / rxy) ** 2
                  + ((zs - cz) / rz) ** 2) <= 1.0
        sub = region[x0:x1, y0:y1, z0:z1] & inside
        intens[x0:x1, y0:y1, z0:z1][sub] = hu
        painted[x0:x1, y0:y1, z0:z1] |= sub
    return float(painted.sum())


def make_subject(index: int, label_nonzero: bool, contrast: str, seed: int,
                 dims=DEFAULT_DIMS, spacing=DEFAULT_SPACING) -> PhantomSubject:
    rng = stream(seed, "subject", index)
    region = _tube_mask(dims, rng)

    intens = SURROUND_HU + SURROUND_NOISE * rng.standard_normal(dims)
    tissue = TISSUE_HU + np.clip(TISSUE_NOISE * rng.standard_normal(dims),
                                 -3.0 * TISSUE_NOISE, 3.0 * TISSUE_NOISE)
    intens[region] = tissue[region]

    score = 0.0
    if label_nonzero:
        voxels = _add_lesions(intens, region, rng)
        score = round(voxels * spacing[0] * spacing[1] * spacing[2], 2)

    vol = Volume3D(dims=dims, spacing=spacing,
                   intensities=np.round(intens).astype(np.float64))
    return PhantomSubject(
        subject_id=f"phantom_{index:03d}",
        volume=vol,
        mask=region,
        contrast=contrast,
        cac_score=score,
    )


def _class_assignments(n: int, class_balance: float, seed: int):
    """Exact label and contrast flags: round(balance*n) positives, and a
    half/half contrast tag stratified within each class."""
    n_pos = int(round(class_balance * n))
    labels = [True] * n_pos + [False] * (n - n_pos)
    contrast = [""] * n
    rng = stream(seed, "contrast-tags")
    for is_pos in (True, False):
        members = [i for i, la in enumerate(labels) if la == is_pos]
        order = rng.permutation(len(members))
        half = len(members) // 2
        for rank, k in enumerate(order):
            contrast[members[k]] = "contrast" if rank < half else "noncontrast"
    return labels, contrast


def generate_cohort(out_dir, n_subjects: int, class_balance: float = 0.5,
                    seed: int = 0, dims=DEFAULT_DIMS,
                    spacing=DEFAULT_SPACING) -> Path:
    """Write volumes, masks, and manifest.csv; returns the manifest path.

    ``map_ordered`` spreads the subjects over the CPUs. The manifest is
    written last, so a failed run leaves none.
    """
    if not 2 <= n_subjects <= MAX_COUNT:
        raise BadRange(f"need 2 to {MAX_COUNT} subjects, got {n_subjects}")
    if not (0.0 <= class_balance <= 1.0):
        raise BadRange(f"class balance must be in [0, 1], got {class_balance}")
    if not 0 <= seed <= MAX_SEED:
        raise BadRange(f"seed must be from 0 to {MAX_SEED}, got {seed}")
    out = Path(out_dir)
    manifest_path = writable_path(out / "manifest.csv")
    files = [(f"volumes/phantom_{i:03d}_vol.nii.gz", f"masks/phantom_{i:03d}_mask.nii.gz")
             for i in range(n_subjects)]
    for rel in itertools.chain.from_iterable(files):
        writable_path(out / rel)

    labels, contrast = _class_assignments(n_subjects, class_balance, seed)

    def write_one(i):
        subj = make_subject(i, labels[i], contrast[i], seed, dims, spacing)
        vol_rel, mask_rel = files[i]
        write_nifti(subj.volume, out / vol_rel, dtype="int16")
        mask_vol = Volume3D(dims=dims, spacing=spacing,
                            intensities=subj.mask.astype(np.float64))
        write_nifti(mask_vol, out / mask_rel, dtype="int16")
        return (subj.subject_id, vol_rel, mask_rel, subj.contrast,
                repr(float(subj.cac_score)))

    text = io.StringIO()
    w = csv.writer(text)
    w.writerow(["subject_id", "volume", "mask", "contrast", "cac_score"])
    w.writerows(map_ordered(write_one, range(n_subjects)))
    write_atomic(manifest_path, text.getvalue())
    return manifest_path
