"""Benchmark a change against its parent commit and write BENCH_<number>.json.

    python3 scripts/bench.py --number 9 --title "what the change does" \
        --seeds cohort-experiment=9001..9010 --seeds embeddings-wide=9011..9016 \
        --claim cohort-experiment:total_s --traced-seed 9099

Seeds are single seeds and A..B ranges, comma-separated (parse_seeds). A
malformed seed list, a workload given twice, or a --claim on a workload
without seeds or on a metric that is not an end_to_end name in
BENCHMARK.json exits 2 before anything is exported. `sides` exports both
sides into one new directory under the system temporary directory
(TMPDIR moves it): the parent as `git archive` of --parent (default
HEAD), the change as --change (default: the working tree's tracked and
untracked files that .gitignore does not exclude). For every workload
and seed, perfbench/run.py runs once in each copy for the run_seconds
that BENCHMARK.json sets, and the copy that runs first alternates from
pair to pair. `run_in` runs a command in a copy without compiled .pyc
files, so every fresh-interpreter set-up compiles the package on both
sides. With --traced-seed, each copy also makes one `--trace 1` run per
workload pinned to CPU 0 with taskset, which gives per-layer metrics
that cover every subject. The result file, with the per-pair values,
medians, quartiles and the environment record, is written at the
repository root; notes on what the runs show are added by hand. Use
seeds that were not used while writing the change. scripts/sweep.py and
scripts/roi_memory.py export and run their sides with this module too.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKTREE = "WORKTREE"


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    """Write the files of rev (or of the working tree) under dest."""
    dest.mkdir(parents=True)
    if rev != WORKTREE:
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
            tar.extractall(dest, filter="data")
        return
    for name in git("ls-files", "-co", "--exclude-standard", "-z").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted in the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


@contextlib.contextmanager
def sides(parent: str, change: str):
    """{"parent": copy, "change": copy}, both exported into one new
    temporary directory that is removed on exit."""
    with tempfile.TemporaryDirectory(prefix="cacrad-sides-", ignore_cleanup_errors=True) as work:
        copies = {"parent": Path(work) / "parent", "change": Path(work) / "change"}
        export(parent, copies["parent"])
        export(change, copies["change"])
        yield copies


def run_in(copy: Path, cmd: list) -> str:
    """The stdout of cmd run in copy without writing .pyc files;
    RuntimeError with the tail of its stderr if it exits non-zero."""
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {copy} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc.stdout


def parse_seeds(text: str) -> list:
    """The seeds of "1..50,127": ranges and single seeds, in the order
    given, each once. ValueError on anything else."""
    seeds = []
    for part in text.split(","):
        lo, dots, hi = part.strip().partition("..")
        first = int(lo)
        last = int(hi) if dots else first
        if not 0 <= first <= last:
            raise ValueError(f"seed range {part!r} is not A..B with 0 <= A <= B")
        seeds.extend(range(first, last + 1))
    return list(dict.fromkeys(seeds))


def run(copy: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in a copy; returns the record of what it reported."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd = ["taskset", "-c", "0", *cmd]
    lines = run_in(copy, cmd).splitlines()
    result = json.loads(lines[-1])
    detail = json.loads((copy / ".perfbench_work" / "results"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        return {"correct": result["correct"], "metrics": values}
    return {**values, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "repeats": len(detail["repeats"]["untraced"]),
            "stages_wall_s": detail["stages"],
            "wall": next((line for line in lines if line.startswith("wall seconds")), None),
            "environment": detail["environment"]}


def quartiles(values) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "iqr": q3 - q1}


def summarize(pairs, metrics) -> dict:
    """Per metric (all lower-is-better): both sides' quartiles, the pairs the
    change won and lost, and whether the median gap exceeds the parent IQR."""
    out = {}
    for name in metrics:
        p = [pair["parent"][name] for pair in pairs]
        c = [pair["change"][name] for pair in pairs]
        parent, change = quartiles(p), quartiles(c)
        out[name] = {
            "n_pairs": len(pairs), "parent": parent, "change": change,
            "change_better_pairs": sum(b < a for a, b in zip(p, c)),
            "change_worse_pairs": sum(b > a for a, b in zip(p, c)),
            "median_change_pct": 100.0 * (change["median"] / parent["median"] - 1.0),
            "median_gap_exceeds_parent_iqr":
                abs(change["median"] - parent["median"]) > parent["iqr"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--number", required=True, help="the number in BENCH_<number>.json")
    ap.add_argument("--title", default="", help="one line: what the change does")
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--change", default=WORKTREE, help=f"a git revision or {WORKTREE}")
    ap.add_argument("--seeds", action="append", required=True, metavar="WORKLOAD=A..B",
                    help="seeds of one workload, such as cohort-experiment=9001..9010")
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    ap.add_argument("--traced-seed", type=int, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    plan = {}
    for item in args.seeds:
        workload, _, seeds = item.partition("=")
        if workload not in {w["name"] for w in spec["workloads"]}:
            ap.error(f"unknown workload {workload!r}")
        if workload in plan:
            ap.error(f"--seeds given twice for {workload}")
        try:
            plan[workload] = parse_seeds(seeds)
        except ValueError as exc:
            ap.error(f"--seeds {item}: {exc}")
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in plan:
            ap.error(f"--claim {args.claim}: no --seeds for {workload!r}")
        if metric not in metrics:
            ap.error(f"--claim {args.claim}: {metric!r} is not one of {', '.join(metrics)}")
        claim = {"workload": workload, "metric": metric}

    with sides(args.parent, args.change) as copies:
        env = None
        workloads, traced = {}, {}
        for workload, seeds in plan.items():
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    record = run(copies[side], workload, seed, seconds, 0)
                    env = record.pop("environment")
                    pair[side] = record
                    print(f"{workload} seed {seed} {side}: total_s {record['total_s']:.4f} "
                          f"setup_s {record['setup_s']:.4f} "
                          f"peak_rss_mib {record['peak_rss_mib']:.2f}", file=sys.stderr)
                pairs.append(pair)
            workloads[workload] = {"seeds": seeds, "pairs": pairs,
                                   "summary": summarize(pairs, metrics)}
            if args.traced_seed is not None:
                traced[workload] = {
                    "seed": args.traced_seed,
                    "command": f"taskset -c 0 python3 perfbench/run.py --workload {workload} "
                               f"--seed {args.traced_seed} --seconds {seconds:g} --trace 1",
                    "note": "pinned to one CPU so the spans cover every subject; "
                            "parent first, then change",
                    **{side: run(copies[side], workload, args.traced_seed, seconds, 1)
                       for side in ("parent", "change")}}

    doc = {
        "title": args.title,
        "parent_commit": git("rev-parse", args.parent).decode().strip(),
        "change": args.change if args.change == WORKTREE
        else git("rev-parse", args.change).decode().strip(),
        "method": "python3 perfbench/run.py --workload W --seed S --seconds "
                  f"{seconds:g} --trace 0, run by scripts/bench.py on exported copies "
                  "of the parent commit and of the change; parent and change alternate "
                  "which runs first from pair to pair. total_s and setup_s are "
                  "reference-speed seconds as perfbench reports them; quartiles are "
                  "inclusive-method quantiles of the pairs' values. Both copies run "
                  "without compiled .pyc files (PYTHONDONTWRITEBYTECODE=1).",
        "environment": env,
        "workloads": workloads,
    }
    if claim:
        doc["claim"] = claim
    if traced:
        doc["traced"] = traced
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for workload, block in workloads.items():
        for name, s in block["summary"].items():
            print(f"{workload} {name}: median {s['parent']['median']:.4g} -> "
                  f"{s['change']['median']:.4g} ({s['median_change_pct']:+.1f} %), "
                  f"change better in {s['change_better_pairs']}/{s['n_pairs']} pairs, "
                  f"parent IQR {s['parent']['iqr']:.3g}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
