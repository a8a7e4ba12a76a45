"""Span recorder that times cacrad's layers from outside the program.

The benchmark replaces the module attributes the pipeline looks up at
call time (for example ``cacrad.pipeline.read_nifti`` or
``cacrad.learn.tree.Tree.predict``) with wrappers that record one span
per call: name, layer, start, end and the index of the enclosing span.
Spans stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children. The run is single-threaded and nothing waits on anything
else, so children never overlap and self time is busy time.
"""

import functools
import json
import math
import os
import time
from collections import defaultdict

# Layers of the program, named after its modules; "cli" is the argument
# parsing and printing around each command the benchmark issues.
LAYERS = ("cli", "pipeline", "phantom", "nifti", "preprocess", "texmat",
          "features", "table", "embeddings", "selection", "learn", "eval")

MODEL_KINDS = ("random_forest", "gbt", "linear_svm", "mlp")


class Tracer:
    def __init__(self):
        self.spans = []        # (name, layer, start, end, parent index)
        self._open = []        # [span index, summed child duration, name]
        self.inclusive = defaultdict(float)
        self.self_by_layer = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._patches = []

    # -- recording -----------------------------------------------------

    def current(self):
        """Name of the innermost open span, or None."""
        return self._open[-1][2] if self._open else None

    def span(self, name, layer, fn, *args, **kwargs):
        """Call fn inside a span and return its result."""
        parent = self._open[-1][0] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0, name]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            dur = end - start
            self.spans[index] = (name, layer, start, end, parent)
            self.inclusive[name] += dur
            self.self_by_layer[layer] += dur - frame[1]
            if self._open:
                self._open[-1][1] += dur

    def wrap(self, owner, attr, name, layer, on_result=None):
        """Replace owner.attr by a traced version until restore().

        name is a string or a callable name(tracer, args) giving the span
        name of one call; on_result(tracer, args, result) records counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(tracer, args) if callable(name) else name
            result = tracer.span(span_name, layer, original, *args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON line; times are seconds from the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "layer": layer, "start": start - t0,
                                     "end": end - t0}) + "\n")


# -- the program's layers -------------------------------------------------

def _count(key, measure):
    def record(tracer, args, result):
        tracer.counts[key] += measure(args, result)
    return record


def _fit_name(kind):
    def name(tracer, args):
        inside = tracer.current() or ""
        return f"learn.fit_in_grid.{kind}" if inside.startswith("learn.grid.") \
            else f"learn.final_fit.{kind}"
    return name


def _on_fit(tracer, args, result):
    if tracer.current() and tracer.current().startswith("learn.grid."):
        tracer.counts["learn.grid.fits"] += 1
        if hasattr(result, "n_rounds"):
            tracer.counts["learn.gbt.rounds_fit"] += result.n_rounds


def _on_discretize(tracer, args, result):
    tracer.counts["preprocess.roi_voxels"] += len(result.levels)
    tracer.maxima["preprocess.ng_max"] = max(tracer.maxima["preprocess.ng_max"],
                                             int(result.ng))


def _on_glcm(tracer, args, result):
    tracer.maxima["texmat.glcm_bytes"] = max(tracer.maxima["texmat.glcm_bytes"],
                                             int(result.counts.nbytes))


def _on_read(tracer, args, result):
    tracer.counts["nifti.read_calls"] += 1
    tracer.counts["nifti.bytes_read"] += os.path.getsize(args[0])


def _grid_name(tracer, args):
    # grid_search_cv runs inside train_with_grid, whose span names the kind
    return "learn.grid." + tracer.current().rsplit(".", 1)[1]


def instrument(tracer):
    """Wrap the public functions of every layer the pipeline calls."""
    import cacrad.cli
    import cacrad.features
    import cacrad.features.shape
    import cacrad.learn.boosting
    import cacrad.learn.forest
    import cacrad.learn.grid
    import cacrad.learn.mlp
    import cacrad.learn.model
    import cacrad.learn.svm
    import cacrad.learn.tree
    import cacrad.nifti
    import cacrad.phantom
    import cacrad.pipeline

    w = tracer.wrap
    cli, pipe, feats = cacrad.cli, cacrad.pipeline, cacrad.features

    w(cli, "main", lambda t, args: "cli." + args[0][0], "cli")
    w(cli, "generate_cohort", "phantom.generate_cohort", "phantom")
    w(cli, "run_extract", "pipeline.run_extract", "pipeline")
    w(cli, "run_train_eval", "pipeline.run_train_eval", "pipeline")
    w(cli, "run_stats", "pipeline.run_stats", "pipeline")

    w(pipe, "read_nifti", "nifti.read", "nifti", _on_read)
    for owner in (cacrad.phantom, cacrad.nifti):
        w(owner, "write_nifti", "nifti.write", "nifti")

    w(pipe, "extract_all", "features.extract_all", "features")
    w(feats, "apply_mask", "preprocess.apply_mask", "preprocess")
    w(feats, "discretize_fixed_width", "preprocess.discretize", "preprocess",
      _on_discretize)
    w(feats, "discretize_fixed_count", "preprocess.discretize", "preprocess",
      _on_discretize)
    w(feats, "compute_glcm", "texmat.glcm", "texmat", _on_glcm)
    w(feats, "compute_glrlm", "texmat.glrlm", "texmat", _count(
        "texmat.glrlm_runs", lambda a, r: int(r.counts.sum())))
    w(feats, "compute_glszm", "texmat.glszm", "texmat", _count(
        "texmat.glszm_zones", lambda a, r: int(r.counts.sum())))
    w(feats, "compute_gldm", "texmat.gldm", "texmat")
    w(feats, "compute_ngtdm", "texmat.ngtdm", "texmat")
    w(feats, "first_order", "features.firstorder", "features")
    w(feats, "shape_features", "features.shape", "features")
    w(cacrad.features.shape, "surface_voxels", "features.surface_voxels",
      "features", _count("features.shape_surface_voxels", lambda a, r: len(r)))
    for fam in ("glcm", "glrlm", "glszm", "gldm", "ngtdm"):
        w(feats, f"{fam}_features", "features.texture_formulas", "features")

    w(pipe, "write_features_csv", "table.write_features", "table")
    w(pipe, "read_features_csv", "table.read_features", "table")
    w(pipe, "attach_cohort", "table.attach_cohort", "table")
    w(pipe, "load_embeddings", "embeddings.load", "embeddings")
    w(pipe, "correlation_filter", "selection.correlation_filter", "selection",
      _count("selection.kept_columns", lambda a, r: len(r)))

    w(pipe, "stratified_split", "learn.split", "learn")
    w(pipe, "train_with_grid", lambda t, args: "learn.train." + args[0], "learn")
    w(cacrad.learn.model, "grid_search_cv", _grid_name, "learn")
    for owner, kind in ((cacrad.learn.forest.RandomForest, "random_forest"),
                        (cacrad.learn.boosting.GradientBoostedTrees, "gbt"),
                        (cacrad.learn.svm.LinearSvm, "linear_svm"),
                        (cacrad.learn.mlp.Mlp, "mlp")):
        w(owner, "fit", _fit_name(kind), "learn", _on_fit)
    nodes = _count("learn.tree.nodes", lambda a, r: len(r.feature))
    w(cacrad.learn.forest, "grow_classification_tree",
      "learn.tree.grow_classification", "learn", nodes)
    w(cacrad.learn.boosting, "grow_regression_tree",
      "learn.tree.grow_regression", "learn", nodes)
    w(cacrad.learn.tree.Tree, "predict", "learn.tree.predict", "learn",
      _count("learn.tree.predict_rows", lambda a, r: len(r)))

    for owner in (pipe, cacrad.learn.grid):
        w(owner, "metrics", "eval.metrics", "eval")
        w(owner, "confusion_from_predictions", "eval.confusion", "eval")
    w(pipe, "paired_t_test", "eval.paired_t_test", "eval")


# -- per-layer metrics of one traced repeat -------------------------------

# metric -> span names whose inclusive seconds it sums
TIMES = {
    "nifti.read_s": ("nifti.read",),
    "preprocess.discretize_s": ("preprocess.apply_mask", "preprocess.discretize"),
    **{f"texmat.{fam}_s": (f"texmat.{fam}",)
       for fam in ("glcm", "glrlm", "glszm", "gldm", "ngtdm")},
    "features.shape_s": ("features.shape",),
    "features.firstorder_s": ("features.firstorder",),
    "features.texture_formulas_s": ("features.texture_formulas",),
    "table.write_features_s": ("table.write_features",),
    "table.read_features_s": ("table.read_features",),
    "embeddings.load_s": ("embeddings.load",),
    "selection.correlation_filter_s": ("selection.correlation_filter",),
    **{f"learn.grid.{kind}_s": (f"learn.grid.{kind}",) for kind in MODEL_KINDS},
    **{f"learn.final_fit.{kind}_s": (f"learn.final_fit.{kind}",) for kind in MODEL_KINDS},
    "learn.tree.grow_classification_s": ("learn.tree.grow_classification",),
    "learn.tree.grow_regression_s": ("learn.tree.grow_regression",),
    "learn.tree.predict_s": ("learn.tree.predict",),
    "learn.svm.fit_s": ("learn.fit_in_grid.linear_svm", "learn.final_fit.linear_svm"),
    "learn.mlp.fit_s": ("learn.fit_in_grid.mlp", "learn.final_fit.mlp"),
    "eval.paired_t_test_s": ("eval.paired_t_test",),
}

# counts summed over the repeat, and sizes maximised over it
COUNTS = ("nifti.read_calls", "nifti.bytes_read", "preprocess.roi_voxels",
          "texmat.glszm_zones", "texmat.glrlm_runs", "features.shape_surface_voxels",
          "selection.kept_columns", "learn.tree.nodes", "learn.tree.predict_rows",
          "learn.grid.fits", "learn.gbt.rounds_fit")
MAXIMA = ("preprocess.ng_max", "texmat.glcm_bytes")

# the p90 of per-scan latency is reported only with this many scans beyond it
TAIL_SAMPLES = 10


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def repeat_metrics(tracer):
    """(times, counts) of one traced repeat; a layer that did no work reads 0."""
    times = {name: sum(tracer.inclusive.get(s, 0.0) for s in spans)
             for name, spans in TIMES.items()}
    times.update({f"self.{layer}_s": tracer.self_by_layer.get(layer, 0.0)
                  for layer in LAYERS})
    scans = [end - start for name, _, start, end, _ in tracer.spans
             if name == "features.extract_all"]
    times["features.extract_all_p50_s"] = percentile(scans, 50) if scans else 0.0
    beyond = len(scans) - math.ceil(0.9 * len(scans))
    times["features.extract_all_p90_s"] = (percentile(scans, 90)
                                           if beyond >= TAIL_SAMPLES else 0.0)
    counts = {name: tracer.counts.get(name, 0) for name in COUNTS}
    counts.update({name: tracer.maxima.get(name, 0) for name in MAXIMA})
    counts["features.extract_all_samples"] = len(scans)
    counts["trace.spans"] = len(tracer.spans)
    return times, counts
