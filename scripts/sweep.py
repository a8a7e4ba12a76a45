"""Criterion 6 over many phantom cohorts, parent against change: one JSON
of each model's mean balanced accuracy and real-against-null p per seed.

    python3 scripts/sweep.py --seeds 1..50,127,227,1816510650 --out SWEEP.json

--seeds is parsed, and both sides are exported and run, by
scripts/bench.py's parse_seeds, sides and run_in: the parent is --parent
(default HEAD), the change the working tree. For each seed and side, one
fresh interpreter in that side's copy builds the cohort-experiment
inputs with the copy's perfbench/inputs.py and issues the argv of the
copy's perfbench/workloads.py cohort_stages: extract, the real and the
label-shuffled train-eval arms, and stats. The sweep records each
model's mean real-arm balanced accuracy and the real-against-null p for
accuracy and F1 from stats.json. Its summary gives, per side and model,
the seeds whose mean falls below criterion 6's 0.95 and those with a p
that is not below 0.05, and, per model, the seeds on which the sides
differ at all. Cohorts run one at a time, a few seconds each.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

from bench import ROOT, WORKTREE, git, parse_seeds, run_in, sides

FLOOR = 0.95   # criterion 6's mean balanced accuracy
ALPHA = 0.05   # criterion 6's p against the null arm

# Run in a side's copy: argv[1] is the seed, argv[2] a new directory.
CHAIN = """\
import contextlib, io, sys
from pathlib import Path
sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd() / "perfbench")]
import inputs, workloads
from cacrad.cli import main
seed, work = int(sys.argv[1]), Path(sys.argv[2])
inputs.main(["--workload", "cohort-experiment", "--seed", str(seed),
             "--out", str(work / "inputs")])
for stage, argv in workloads.cohort_stages(work / "inputs", work / "run", seed):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        sys.exit(f"{stage}: cacrad {argv[0]} exited with {rc}")
"""


def cohort_record(report: dict, stats: dict) -> dict:
    """Per model of one cohort: the mean balanced accuracy over the runs of
    the real arm's report (None if a run has none), and the p of stats.json
    for accuracy and for F1."""
    out = {}
    for model in report["models"]:
        bal = [run["models"][model]["metrics"]["balanced_accuracy"]
               for run in report["runs"]]
        result = stats["results"][model]
        out[model] = {"balanced_accuracy": None if None in bal else sum(bal) / len(bal),
                      "p_accuracy": result["accuracy"]["p"], "p_f1": result["f1"]["p"]}
    return out


def summarize(by_side: dict) -> dict:
    """by_side maps a side's name to {seed: cohort_record}, the same seeds
    on every side. Per side and model: the seeds below FLOOR, their count,
    and the seeds whose p for accuracy or F1 is missing or not below
    ALPHA; per model, the seeds whose records differ between the sides."""
    def below(rec):
        return rec["balanced_accuracy"] is None or rec["balanced_accuracy"] < FLOOR

    def not_significant(rec):
        return any(p is None or p >= ALPHA for p in (rec["p_accuracy"], rec["p_f1"]))

    first = next(iter(by_side.values()))
    models = sorted({model for rec in first.values() for model in rec})
    out = {}
    for side, records in by_side.items():
        out[side] = {}
        for model in models:
            low = [seed for seed, rec in records.items() if below(rec[model])]
            out[side][model] = {
                f"below_{FLOOR}": low, f"n_below_{FLOOR}": len(low),
                f"p_not_below_{ALPHA}": [seed for seed, rec in records.items()
                                         if not_significant(rec[model])]}
    out["differing_seeds"] = {
        model: [seed for seed in first
                if any(records[seed][model] != first[seed][model]
                       for records in by_side.values())]
        for model in models}
    return out


def run_cohort(copy: Path, seed: int) -> dict:
    """The cohort_record of one seed's chain in a copy."""
    work = copy / f"cohort-{seed}"
    run_in(copy, [sys.executable, "-c", CHAIN, str(seed), str(work)])
    run = work / "run"
    record = cohort_record(json.loads((run / "real" / "run_report.json").read_text()),
                           json.loads((run / "stats" / "stats.json").read_text()))
    shutil.rmtree(work)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="cohort seeds, such as 1..50,127")
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--out", required=True, help="the JSON to write, under the repository")
    args = ap.parse_args(argv)

    records = {"parent": {}, "change": {}}
    with sides(args.parent, WORKTREE) as copies:
        for seed in args.seeds:
            for side, copy in copies.items():
                record = records[side][seed] = run_cohort(copy, seed)
                print(f"seed {seed} {side}: " + ", ".join(
                    f"{model} {rec['balanced_accuracy']}"
                    for model, rec in sorted(record.items())), file=sys.stderr)

    summary = summarize(records)
    doc = {
        "parent_commit": git("rev-parse", args.parent).decode().strip(),
        "change": WORKTREE,
        "command": "python3 scripts/sweep.py " + " ".join(sys.argv[1:] if argv is None
                                                         else argv),
        "method": "per seed and side: perfbench/inputs.py cohort-experiment inputs, then "
                  "the argv of perfbench/workloads.py cohort_stages, in exported copies "
                  "of the parent commit and of the change",
        "seeds": args.seeds,
        "sides": records,
        "summary": summary,
    }
    out = ROOT / args.out
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for side in records:
        for model, s in summary[side].items():
            print(f"{side} {model}: {s[f'n_below_{FLOOR}']} seeds below {FLOOR} "
                  f"{s[f'below_{FLOOR}']}, p not below {ALPHA} on "
                  f"{s[f'p_not_below_{ALPHA}']}")
    for model, seeds in summary["differing_seeds"].items():
        print(f"{model} differs between the sides on {len(seeds)} seeds")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
