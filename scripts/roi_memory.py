"""Peak traced memory and time of each texture matrix and feature kernel on a synthetic ball ROI.

    python3 scripts/roi_memory.py --n 100 --parent HEAD

The ROI is the ball of radius N/2 - 1 in an N^3 grid (492k voxels for
N = 100), cropped to its box, from ``ball_grid`` in tests/conftest.py,
the generator tests/test_texmat.py bounds memory on. Its gray levels are
either white noise, 32 levels drawn independently per voxel (short runs,
one-voxel zones, every GLCM cell filled), or smooth, 8 bands of a slowly
varying field (long runs, large zones, nearly every neighbour pair of
equal level). For each texture, each of the five texmat.compute_*
functions and the feature kernels first_order (on the levels as
values), shape_features, glcm_features (on the ROI's GLCM) and
glszm_features (on the ROI's GLSZM), the script prints the tracemalloc
peak of one call, in MiB and in bytes per cell of the ROI's box (the
unit tests/test_texmat.py bounds it in), and the best wall time of
--repeat untraced calls. It measures the working tree's src/ in place
and, with --parent, also that revision's, exported by scripts/bench.py's
export; each side runs in its own interpreter through bench's run_in,
which raises with the stderr tail of a side that fails.
"""

import argparse
import json
import math
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from bench import ROOT, export, run_in

FAMILIES = ("glcm", "glrlm", "glszm", "gldm", "ngtdm")
KERNELS = FAMILIES + ("first_order", "shape_features", "glcm_features", "glszm_features")
TEXTURES = ("white", "smooth")


def measure(n: int, repeat: int) -> dict:
    """{texture: {kernel: (peak MiB, best seconds)}} for the cacrad on sys.path."""
    from cacrad import texmat
    from cacrad.features import first_order, glcm_features, glszm_features, shape_features
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import ball_grid, disc_from_grid, roi_from_values

    out = {"n": n}
    for texture in TEXTURES:
        grid = ball_grid(n, texture)
        roi = disc_from_grid(grid)
        masked = roi_from_values(grid, grid > 0)
        calls = {family: (getattr(texmat, f"compute_{family}"), roi) for family in FAMILIES}
        calls["first_order"] = (first_order, masked, roi)
        calls["shape_features"] = (shape_features, masked.mask, masked.spacing, masked.corner)
        calls["glcm_features"] = (glcm_features, texmat.compute_glcm(roi))
        calls["glszm_features"] = (glszm_features, texmat.compute_glszm(roi))
        row = {"voxels": len(roi), "box_cells": roi.grid.size, "ng": roi.ng}
        for kernel, (compute, *args) in calls.items():
            tracemalloc.start()
            compute(*args)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            best = math.inf
            for _ in range(repeat):
                t0 = time.perf_counter()
                compute(*args)
                best = min(best, time.perf_counter() - t0)
            row[kernel] = (peak / 2 ** 20, best)
        out[texture] = row
    return out


def run_side(copy: Path, n: int, repeat: int) -> dict:
    """measure() of the src/ of copy, run by this script in copy."""
    return json.loads(run_in(copy, [sys.executable, __file__, "--n", str(n),
                                    "--repeat", str(repeat), "--src", str(copy / "src")]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=100, help="edge of the grid holding the ball")
    ap.add_argument("--repeat", type=int, default=3, help="untraced calls timed per family")
    ap.add_argument("--parent", default=None, help="a git revision to measure as well")
    ap.add_argument("--src", default=None, help=argparse.SUPPRESS)  # one side, as JSON
    args = ap.parse_args(argv)

    if args.src is not None:
        sys.path.insert(0, args.src)
        print(json.dumps(measure(args.n, args.repeat)))
        return 0

    sides = {}
    with tempfile.TemporaryDirectory(prefix="cacrad-roi-memory-") as tmp:
        if args.parent is not None:
            export(args.parent, Path(tmp) / "parent")
            sides[f"parent {args.parent}"] = run_side(Path(tmp) / "parent", args.n, args.repeat)
        sides["working tree"] = run_side(ROOT, args.n, args.repeat)

    for texture in TEXTURES:
        first = next(iter(sides.values()))[texture]
        print(f"{args.n}^3 grid, {texture} levels: {first['voxels']} voxels, "
              f"{first['box_cells']} box cells, ng {first['ng']}")
        for kernel in KERNELS:
            cells = []
            for name, side in sides.items():
                mib, seconds = side[texture][kernel]
                per_cell = mib * 2 ** 20 / side[texture]["box_cells"]
                cells.append(f"{name}: {mib:7.1f} MiB {per_cell:6.1f} B/cell {1e3 * seconds:8.1f} ms")
            print(f"  {kernel:14s} " + " | ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
