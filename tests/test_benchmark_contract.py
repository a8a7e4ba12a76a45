"""The benchmark times the program by wrapping its functions by name
(perfbench/spans.py). A name it wraps that the program renamed or deleted
fails here, not in a benchmark run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_wraps_resolve_and_restore():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        patches = list(tracer._patches)
        assert patches
        assert all(getattr(owner, attr) is not original for owner, attr, original in patches)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in patches)
