"""Input generators for the benchmark's workloads.

Every input is a pure function of (workload, seed): the same seed gives
byte-identical files. Only the random details change with the seed; the
amount of work (subject count, ROI sizes, table shape) is fixed per
workload, so runs with different seeds measure the same job.

Run as a script, it builds one workload's inputs in a fresh interpreter;
the benchmark times that as set-up:

    python3 perfbench/inputs.py --workload extract-large-roi --seed 0 --out DIR
"""

import argparse
import csv
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# -- cohort-experiment ----------------------------------------------------

COHORT_SUBJECTS = 100
COHORT_BALANCE = 0.5
# The default grids (random_forest n_trees 100/300, gbt n_rounds 100/200)
# cost about 100 s per chain, more than one run may take. The overrides
# keep every grid axis and the nested n_rounds values and divide the tree
# counts by ten, so per-tree costs and the grid's shape are unchanged.
COHORT_GRID = """\
grid.random_forest.n_trees = 10, 30
grid.random_forest.max_depth = 4, 8, none
grid.gbt.n_rounds = 10, 20
grid.gbt.learning_rate = 0.1, 0.3
grid.gbt.max_depth = 2, 3
"""

# -- extract-large-roi ----------------------------------------------------

LARGE_DIMS = (60, 60, 52)
LARGE_SPACING = (0.7, 0.7, 1.0)
# Target ROI voxel counts, one subject each; subject k gets shape k // 2 % 2
# (0 blob, 1 tube) and texture k % 2 (0 white noise, 1 smoothed noise), so
# every size band holds both textures and both shapes appear.
LARGE_ROI_VOXELS = (12000, 16000, 20000, 24000, 28000, 32000)

# -- embeddings-wide ------------------------------------------------------

EMB_SUBJECTS = 200
EMB_DIMS = 256
EMB_SIGNAL_DIMS = 8        # columns shifted by the label
EMB_DUP_GROUPS = 16        # groups of near-duplicate columns
EMB_DUP_SIZE = 4
# Default random_forest costs about 13 s per seed on this table; the
# override divides tree counts by ten so svm and mlp stay visible.
EMB_CONFIG = """\
filter_embeddings = true
grid.random_forest.n_trees = 10, 30
grid.random_forest.max_depth = 4, 8, none
"""


def _rng(seed, *path):
    from cacrad.rng import stream
    return stream(seed, "perfbench", *path)


def _smooth(a, passes):
    """Separable 3-tap box blur repeated `passes` times (wraps at edges)."""
    import numpy as np
    for _ in range(passes):
        for axis in range(3):
            a = (np.roll(a, 1, axis) + a + np.roll(a, -1, axis)) / 3.0
    return a


def _blob(dims, n_voxels, rng):
    """Compact blob: a ball whose radius is modulated by two low harmonics."""
    import numpy as np
    r0 = (3.0 * n_voxels / (4.0 * math.pi)) ** (1.0 / 3.0)
    c = np.array(dims, dtype=np.float64) / 2.0
    x, y, z = np.indices(dims, dtype=np.float64)
    dx, dy, dz = x - c[0], y - c[1], z - c[2]
    r = np.sqrt(dx * dx + dy * dy + dz * dz) + 1e-9
    a, b = rng.uniform(0.05, 0.12, size=2)
    p, q = rng.uniform(0.0, 2.0 * math.pi, size=2)
    theta = np.arccos(dz / r)
    phi = np.arctan2(dy, dx)
    bump = 1.0 + a * np.sin(2.0 * phi + p) * np.sin(theta) + b * np.cos(3.0 * theta + q)
    return r <= r0 * bump


def _tube(dims, n_voxels, rng):
    """Thick winding tube running along z."""
    import numpy as np
    nx, ny, nz = dims
    length = nz - 4
    radius = math.sqrt(n_voxels / (math.pi * length))
    zs = np.arange(nz)
    amp = rng.uniform(0.25, 0.4) * (min(nx, ny) / 2.0 - radius - 1.0)
    turns = rng.uniform(0.8, 1.4)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    cx = nx / 2.0 + amp * np.sin(2.0 * math.pi * turns * zs / nz + phase)
    cy = ny / 2.0 + amp * np.cos(2.0 * math.pi * turns * zs / nz + phase)
    xs = np.arange(nx)[:, None, None]
    ys = np.arange(ny)[None, :, None]
    inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2
    inside[:, :, :2] = False
    inside[:, :, nz - 2:] = False
    return inside


def _deposits(intens, region, rng):
    """Paint 2..4 bright ellipsoids (300..900 HU) inside the region."""
    import numpy as np
    cand = np.argwhere(region)
    x, y, z = np.indices(region.shape)
    for _ in range(int(rng.integers(2, 5))):
        cx, cy, cz = cand[int(rng.integers(0, len(cand)))]
        rx, ry, rz = rng.uniform(1.5, 3.5, size=3)
        blob = ((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2 + ((z - cz) / rz) ** 2 <= 1.0
        intens[blob & region] = rng.uniform(300.0, 900.0)


def make_large_cohort(out, seed):
    """Write the extract-large-roi cohort and its manifest."""
    import numpy as np
    from cacrad import nifti  # looked up per call so traced runs see writes

    out = Path(out)
    (out / "volumes").mkdir(parents=True, exist_ok=True)
    rows = []
    for k, n_voxels in enumerate(LARGE_ROI_VOXELS):
        rng = _rng(seed, "large", k)
        region = (_blob if k // 2 % 2 == 0 else _tube)(LARGE_DIMS, n_voxels, rng)
        if k % 2 == 0:
            tissue = 40.0 + 150.0 * rng.standard_normal(LARGE_DIMS)
        else:
            field = _smooth(rng.standard_normal(LARGE_DIMS), passes=4)
            tissue = 40.0 + 60.0 * field / field.std()
        intens = -80.0 + 10.0 * rng.standard_normal(LARGE_DIMS)
        intens[region] = tissue[region]
        _deposits(intens, region, rng)
        sid = f"large_{k:02d}"
        vol = nifti.Volume3D(dims=LARGE_DIMS, spacing=LARGE_SPACING,
                             intensities=np.round(intens))
        mask = nifti.Volume3D(dims=LARGE_DIMS, spacing=LARGE_SPACING,
                              intensities=region.astype(np.float64))
        nifti.write_nifti(vol, out / "volumes" / f"{sid}_vol.nii.gz", dtype="int16")
        nifti.write_nifti(mask, out / "volumes" / f"{sid}_mask.nii.gz", dtype="int16")
        rows.append((sid, f"volumes/{sid}_vol.nii.gz", f"volumes/{sid}_mask.nii.gz",
                     "noncontrast", "0.0" if k % 3 else "12.5"))
    _write_manifest(out / "manifest.csv", rows)


def make_embeddings(out, seed):
    """Write a manifest (volumes never opened) and a 200 x 256 embedding CSV."""
    import numpy as np
    from cacrad.embeddings import write_embeddings

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, "embeddings")
    labels = np.array([1] * (EMB_SUBJECTS // 2) + [0] * (EMB_SUBJECTS - EMB_SUBJECTS // 2))
    rng.shuffle(labels)
    # contrast tags alternate within each class, so both pools are balanced
    contrast = np.empty(EMB_SUBJECTS, dtype=object)
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        contrast[members] = ["contrast" if i % 2 else "noncontrast"
                             for i in range(len(members))]

    emb = rng.standard_normal((EMB_SUBJECTS, EMB_DIMS))
    emb[:, :EMB_SIGNAL_DIMS] += 0.9 * labels[:, None]
    col = EMB_SIGNAL_DIMS
    for _ in range(EMB_DUP_GROUPS):
        base = emb[:, col]
        for j in range(1, EMB_DUP_SIZE):
            emb[:, col + j] = base + 0.1 * rng.standard_normal(EMB_SUBJECTS)
        col += EMB_DUP_SIZE

    ids = [f"emb_{i:03d}" for i in range(EMB_SUBJECTS)]
    rows = [(sid, f"volumes/{sid}_vol.nii.gz", f"volumes/{sid}_mask.nii.gz",
             contrast[i], "25.0" if labels[i] else "0.0")
            for i, sid in enumerate(ids)]
    _write_manifest(out / "manifest.csv", rows)
    write_embeddings(out / "embeddings.csv", ids, emb)
    (out / "train.cfg").write_text(EMB_CONFIG)


def make_phantom_cohort(out, seed):
    """The criterion-6 cohort, made the way a user makes it: cacrad phantom."""
    from cacrad.cli import main

    out = Path(out)
    rc = main(["phantom", "--n", str(COHORT_SUBJECTS), "--balance", str(COHORT_BALANCE),
               "--seed", str(seed), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"cacrad phantom exited with {rc}")
    (out / "grid.cfg").write_text(COHORT_GRID)


def _write_manifest(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["subject_id", "volume", "mask", "contrast", "cac_score"])
        w.writerows(rows)


MAKERS = {
    "cohort-experiment": make_phantom_cohort,
    "extract-large-roi": make_large_cohort,
    "embeddings-wide": make_embeddings,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description="build one workload's inputs")
    ap.add_argument("--workload", required=True, choices=sorted(MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import contextlib
    import io
    with contextlib.redirect_stdout(io.StringIO()):
        MAKERS[args.workload](args.out, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
