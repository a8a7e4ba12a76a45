"""Full synthetic experiment: cohort -> features -> models -> statistics.

Generates a phantom cohort, extracts the feature table, trains and
evaluates on non-contrast scans over several seeds, repeats with
shuffled training labels as a null control, and runs paired t-tests
between the two arms. Everything lands under --workdir.
"""

import argparse
import sys
from pathlib import Path

from cacrad.cli import main as cacrad_main


def run(argv) -> int:
    rc = cacrad_main(argv)
    if rc != 0:
        print(f"step failed with exit code {rc}: {' '.join(argv)}", file=sys.stderr)
    return rc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="phantom_experiment")
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--balance", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-seeds", type=int, default=10)
    ap.add_argument("--models", default="random_forest,gbt")
    args = ap.parse_args()

    work = Path(args.workdir)
    cohort = work / "cohort"
    manifest = cohort / "manifest.csv"

    if run(["phantom", "--n", str(args.n), "--balance", str(args.balance),
            "--seed", str(args.seed), "--out", str(cohort)]):
        return 1
    if run(["extract", "--manifest", str(manifest), "--out", str(work)]):
        return 1

    base = (
        f"manifest = {manifest}\n"
        f"features_csv = {work / 'features.csv'}\n"
        f"train_composition = noncontrast\n"
        f"models = {args.models}\n"
        f"seed = {args.seed}\n"
        f"n_seeds = {args.n_seeds}\n"
    )
    real_cfg = work / "real.cfg"
    null_cfg = work / "null.cfg"
    real_cfg.write_text(base + f"out = {work / 'real'}\n")
    null_cfg.write_text(base + f"out = {work / 'null'}\nlabel_shuffle = true\n")

    if run(["train-eval", "--config", str(real_cfg)]):
        return 1
    if run(["train-eval", "--config", str(null_cfg)]):
        return 1
    if run(["stats", str(work / "real" / "run_report.json"),
            str(work / "null" / "run_report.json"), "--out", str(work)]):
        return 1
    print(f"artifacts under {work}/: features.csv, real/, null/, stats.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
