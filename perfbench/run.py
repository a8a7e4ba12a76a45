"""cacrad benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cohort-experiment --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's src/ directory, so nothing needs
installing. BENCHMARK.json at the checkout root declares the workloads
and metrics, and perfbench/README.md explains them.

--trace 0 sets the inputs up three to nine times in fresh interpreters
(the median is setup_s), then repeats the workload untraced for --seconds
and reports the end-to-end metrics, in seconds at the reference speed
that calibrate.py defines. --trace 1 sets up once with tracing
on, then alternates untraced and traced repeats (at least one and two)
and reports the per-layer metrics. Every repeat's outputs are checked.
The last line of standard output is the result object; a human-readable
summary and the environment record come before it.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
SETUP_TIMEOUT_S = 120


def pin_blas_threads():
    """Cap BLAS and OpenMP pools at the CPUs this process may use.

    Must run before numpy is imported; set-up interpreters inherit it.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(min(max(want, 1), nproc))
    return nproc


def environment(nproc):
    import numpy as np
    sha = None  # an exported checkout has no .git and no sha
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "processes": 1,
        "page_cache": "not dropped: inputs are read warm, right after set-up writes them",
    }


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def set_up_fresh(workload, seed, base, tally, workloads, calibrate):
    """Build the inputs in new interpreters, at least SETUP_MIN times and
    more, up to SETUP_MAX, while SETUP_BUDGET_S is not spent.

    Returns (median seconds at reference speed, median wall seconds, input
    directory). The copies must be byte-identical; the first is kept. The
    calibration job is timed before the first set-up and after each one.
    """
    seconds, scaled, digests = [], [], []
    before = calibrate.sample()
    while len(seconds) < SETUP_MIN or (sum(seconds) < SETUP_BUDGET_S
                                       and len(seconds) < SETUP_MAX):
        i = len(seconds)
        out = base / f"inputs{i}"
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)])
        # a blocking wait returns the moment the child exits; wait(timeout)
        # would poll and round the time up to its 50 ms sleeps
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        seconds.append(time.perf_counter() - start)
        after = calibrate.sample()
        scaled.append(calibrate.to_reference(seconds[-1], before, after))
        before = after
        tally.op(rc == 0, f"set-up {i} exited with {rc}")
        digests.append(workloads.digest_tree(out) if out.exists() else {})
        if i:
            shutil.rmtree(out, ignore_errors=True)
    tally.op(all(d == digests[0] for d in digests),
             "set-ups from one seed wrote different inputs")
    return statistics.median(scaled), statistics.median(seconds), base / "inputs0"


def set_up_traced(workload, seed, base, inputs_mod, spans):
    tracer = spans.Tracer()
    spans.instrument(tracer)
    out = base / "inputs0"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.span("setup", "cli", inputs_mod.MAKERS[workload], out, seed)
    finally:
        tracer.restore()
    return tracer, out


def measure(workload, seed, seconds, trace, inputs, run, tally, workloads, spans,
            calibrate):
    """Repeat the workload; returns (untraced repeats, traced repeats, spans).

    An untraced repeat is ({stage: wall seconds}, {stage: seconds at
    reference speed}); only untraced mode times the calibration job, and
    traced mode's untraced repeats carry None in its place.
    Untraced mode repeats until the next repeat would overrun `seconds`.
    Traced mode runs untraced, traced, traced, then alternates while time
    is left, so two traced repeats can be compared and the difference of
    the medians is the tracing overhead.
    """
    plain, traced, first_digest, last_tracer = [], [], None, None
    plan = ["plain"] if not trace else ["plain", "traced", "traced"]
    start = time.perf_counter()
    while True:
        kind = plan.pop(0) if plan else ("traced" if trace and len(traced) <= len(plain)
                                         else "plain")
        if kind == "traced":
            tracer = spans.Tracer()
            spans.instrument(tracer)
            try:
                times, _, digest = workloads.run_repeat(workload, inputs, run, seed,
                                                        tally)
            finally:
                tracer.restore()
            traced.append((times, spans.repeat_metrics(tracer)))
            last_tracer = tracer
        else:
            times, scaled, digest = workloads.run_repeat(
                workload, inputs, run, seed, tally, None if trace else calibrate)
            plain.append((times, scaled))
        if first_digest is None:
            first_digest = digest
        else:
            tally.op(digest == first_digest,
                     f"repeat {len(plain) + len(traced)} wrote different outputs")
        elapsed = time.perf_counter() - start
        done = len(plain) + len(traced)
        if not plan and elapsed + elapsed / done > seconds:
            return plain, traced, last_tracer


def median_stages(repeats):
    names = dict.fromkeys(k for r in repeats for k in r)  # in call order
    return {k: statistics.median(r.get(k, 0.0) for r in repeats) for k in names}


def median_total(repeats):
    return statistics.median(sum(r.values()) for r in repeats)


def main(argv=None):
    ap = argparse.ArgumentParser(description="cacrad benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cacrad" / "__init__.py").is_file():
        print(f"perfbench: no cacrad sources under {ROOT / 'src'}; run it inside "
              "a checkout of the repository", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import calibrate
    import inputs as inputs_mod
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    import cacrad.cli  # noqa: F401  (imports are set-up, not measured)

    tally = workloads.Tally()
    base = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        if args.trace:
            setup_tracer, inputs = set_up_traced(args.workload, args.seed, base,
                                                 inputs_mod, spans)
            setup_s = setup_wall_s = None
        else:
            setup_s, setup_wall_s, inputs = set_up_fresh(
                args.workload, args.seed, base, tally, workloads, calibrate)
        plain, traced, last_tracer = measure(
            args.workload, args.seed, args.seconds, args.trace, inputs, base / "run",
            tally, workloads, spans, calibrate)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment(nproc)

    wall = [times for times, _ in plain]
    stages = median_stages(wall)
    units = dict(end_to_end)
    if not args.trace:
        values = {"total_s": median_total([scaled for _, scaled in plain]),
                  "setup_s": setup_s, "peak_rss_mib": peak_rss_mib}
        env["calibration"] = calibrate.record()
        print(f"wall seconds (not scaled to reference speed): total "
              f"{median_total(wall):.4f} s, set-up {setup_wall_s:.4f} s")
    else:
        values = {f"stage.{k}": stages.get(k, 0.0) for k in workloads.STAGES}
        values["trace.overhead_s"] = median_total([t for t, _ in traced]) - median_total(wall)
        values["nifti.write_s"] = setup_tracer.inclusive.get("nifti.write", 0.0)
        per_repeat = [m for _, m in traced]
        for name in per_repeat[0][0]:
            values[name] = statistics.median(times[name] for times, _ in per_repeat)
        counts = per_repeat[0][1]
        tally.op(all(c == counts for _, c in per_repeat),
                 "per-layer counts differ between traced repeats")
        values.update(counts)
        units = dict(per_layer)
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        last_tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced repeat(s)")
    print("stages (median over untraced repeats): " + ", ".join(
        f"{k} {v:.4f} s" for k, v in stages.items()))
    rate = tally.failed / max(tally.attempted, 1)
    print(f"error_rate {rate:.4f} ({tally.failed} failed of {tally.attempted} operations)")
    for reason in tally.failures:
        print(f"  failed: {reason}")
    outcomes = list(dict.fromkeys(tally.outcomes))  # the same on every repeat
    for what, met in outcomes:
        print(f"  outcome {'met' if met else 'MISSED'}: {what}")
    print("environment " + json.dumps(env, sort_keys=True))

    # every declared metric must have been computed; a layer or stage that
    # did no work on this workload was recorded as 0 above
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    result = {"correct": tally.failed == 0, "attempted": max(tally.attempted, 1),
              "failed": tally.failed, "metrics": metrics}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({**result, "environment": env, "stages": stages,
                   "outcomes": [{"what": w, "met": m} for w, m in outcomes],
                   "repeats": {"untraced": [{"wall_s": t, "reference_s": r} for t, r in plain],
                               "traced": [t for t, _ in traced]}},
                  fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
