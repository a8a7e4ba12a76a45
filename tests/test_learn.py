import json
import weakref

import numpy as np
import pytest

from cacrad.errors import ConfigError, NonFiniteValue, SchemaMismatch, SingleClass
from cacrad.learn.forest import RandomForest
from cacrad.learn.grid import DEFAULT_GRIDS, HyperGrid, grid_search_cv
from cacrad.learn.mlp import Mlp, _sigmoid, loss_and_grad
from cacrad.learn.model import (
    MODEL_KINDS,
    build_model,
    document,
    train_with_grid,
)
from cacrad.learn.svm import LinearSvm
from cacrad.learn.tree import (
    RowSetCache,
    Tree,
    _gini_best_splits,
    _pad,
    grow_classification_forest,
    grow_classification_tree,
    grow_regression_tree,
)
from cacrad.rng import stream

from test_batched_kernels import ref_best_split, sse_best_split, tree_block

SMALL_GRIDS = {
    "random_forest": HyperGrid.of(n_trees=(20,), max_depth=(4,)),
    "gbt": HyperGrid.of(n_rounds=(30,), learning_rate=(0.3,), max_depth=(2,)),
    "linear_svm": HyperGrid.of(lam=(1e-3,), epochs=(20,)),
    "mlp": HyperGrid.of(hidden_size=(8,), learning_rate=(0.3,), epochs=(200,)),
}


def blobs(n_per=20, d=4, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(n_per, d))
    x1 = rng.normal(size=(n_per, d)) + gap
    x = np.vstack([x0, x1])
    y = np.array([0] * n_per + [1] * n_per, dtype=np.int64)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_separable_blobs_all_kinds(kind):
    x, y = blobs(seed=3)
    names = tuple(f"f{k}" for k in range(x.shape[1]))
    model, best, scores = train_with_grid(kind, x, y, names, seed=9,
                                          grid=SMALL_GRIDS[kind], k=3)
    pred, score = model.predict(x)
    assert np.array_equal(pred, y), kind
    assert np.all((score >= 0.0) & (score <= 1.0))
    assert len(scores) == len(list(SMALL_GRIDS[kind].points()))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fit_is_deterministic(kind):
    x, y = blobs(seed=5)
    names = tuple(f"f{k}" for k in range(x.shape[1]))
    m1, _, _ = train_with_grid(kind, x, y, names, seed=4, grid=SMALL_GRIDS[kind], k=3)
    m2, _, _ = train_with_grid(kind, x, y, names, seed=4, grid=SMALL_GRIDS[kind], k=3)
    assert m1.fingerprint == m2.fingerprint
    assert m1.to_json() == m2.to_json()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fingerprint_hashes_every_public_attribute(kind):
    x, y = blobs(seed=8)
    names = tuple(f"f{k}" for k in range(x.shape[1]))
    model, _, _ = train_with_grid(kind, x, y, names, seed=1,
                                  grid=SMALL_GRIDS[kind], k=3)
    before = model.fingerprint
    # fit-time state that predictions do not read stays out
    model.inner._scratch = np.arange(3.0)
    assert model.fingerprint == before
    # a new public attribute enters the document, its float exact
    model.inner.extra = [0.1, 2.0]
    assert json.loads(model.to_json())["parameters"]["extra"] == ["0.1", "2.0"]
    assert model.fingerprint != before


def test_document_writes_floats_exactly_and_keeps_ints():
    tree = Tree(feature=[1, -1, -1], threshold=[0.1 + 0.2, 0.0, 0.0], left=[1, -1, -1],
                right=[2, -1, -1], value=[0.5, 1 / 3, float("nan")])
    assert document(tree) == {
        "feature": [1, -1, -1], "threshold": ["0.30000000000000004", "0.0", "0.0"],
        "left": [1, -1, -1], "right": [2, -1, -1],
        "value": ["0.5", "0.3333333333333333", "nan"]}
    svm = LinearSvm(1e-2, 2).fit(*blobs(seed=1), seed=0)
    doc = document(svm)
    # the standardizer's lists by their to_dict keys; no fit-time state
    assert sorted(doc) == ["epochs", "lam", "mean", "platt_a", "platt_b", "sd", "w"]
    assert doc["epochs"] == 2 and doc["lam"] == "0.01"
    assert doc["w"] == [repr(v) for v in svm.w.tolist()]
    assert doc["mean"] == svm.standardizer.to_dict()["mean"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predict_refuses_non_finite_input(bad):
    x, y = blobs(seed=2)
    names = tuple(f"f{k}" for k in range(x.shape[1]))
    model, _, _ = train_with_grid("gbt", x, y, names, seed=0,
                                  grid=SMALL_GRIDS["gbt"], k=3)
    x[3, 1] = bad
    with pytest.raises(NonFiniteValue):
        model.predict(x)


def test_predict_schema_checks():
    x, y = blobs(seed=2)
    names = tuple(f"f{k}" for k in range(x.shape[1]))
    model, _, _ = train_with_grid("linear_svm", x, y, names, seed=0,
                                  grid=SMALL_GRIDS["linear_svm"], k=3)
    with pytest.raises(SchemaMismatch):
        model.predict(x, feature_names=("wrong",) * x.shape[1])
    with pytest.raises(SchemaMismatch):
        model.predict(x[:, :2])


def test_build_model_unknown_kind():
    with pytest.raises(ConfigError):
        build_model("xgboost", {})


@pytest.mark.parametrize("kind", ("gbt", "linear_svm", "mlp"))
def test_single_class_refused(kind):
    x = np.random.default_rng(0).normal(size=(10, 3))
    y = np.ones(10, dtype=np.int64)
    params = dict(next(SMALL_GRIDS[kind].points()))
    with pytest.raises(SingleClass):
        build_model(kind, params).fit(x, y, seed=0)


def test_positive_params_are_floats():
    assert type(build_model("linear_svm", {"lam": 1}).lam) is float
    assert type(build_model("gbt", {"learning_rate": 1}).learning_rate) is float
    assert build_model("random_forest", {"bootstrap": False}).bootstrap is False


def test_forest_degrades_to_constant_on_single_class():
    # a forest has no log-odds or margin to blow up; it just votes one way
    x = np.random.default_rng(0).normal(size=(10, 3))
    y = np.ones(10, dtype=np.int64)
    m = build_model("random_forest", {"n_trees": 5}).fit(x, y, seed=0)
    assert np.all(m.predict_score(x) == 1.0)


def test_default_grids_cover_all_kinds():
    for kind in MODEL_KINDS:
        assert kind in DEFAULT_GRIDS
        assert len(list(DEFAULT_GRIDS[kind].points())) >= 2
    assert sorted(DEFAULT_GRIDS) == sorted(MODEL_KINDS)
    # canonical enumeration order: first parameter varies slowest
    pts = list(HyperGrid.of(a=(1, 2), b=(10, 20)).points())
    assert pts == [{"a": 1, "b": 10}, {"a": 1, "b": 20},
                   {"a": 2, "b": 10}, {"a": 2, "b": 20}]
    with pytest.raises(ConfigError):
        HyperGrid.of(a=())


def test_grid_tie_goes_to_first_canonical_point():
    class Fixed:
        def predict_score(self, x):
            return np.full(len(x), 0.6)

    calls = []

    def fit_fn(params, x, y, seed):
        calls.append(dict(params))
        return Fixed()

    y = np.array([0, 1] * 8, dtype=np.int64)
    x = np.random.default_rng(0).normal(size=(16, 2))
    grid = HyperGrid.of(alpha=(1, 2, 3))
    best, scores = grid_search_cv(fit_fn, x, y, grid, k=2, seed=0)
    assert best == {"alpha": 1}
    assert len(set(scores)) == 1


def brute_gini_cost(x, y, f, thr):
    left = x[:, f] <= thr
    cost = 0.0
    for side in (left, ~left):
        m = int(side.sum())
        if m == 0:
            return np.inf
        p = float(y[side].mean())
        cost += m * 2.0 * p * (1.0 - p)
    return cost


def brute_sse_cost(x, t, f, thr):
    left = x[:, f] <= thr
    cost = 0.0
    for side in (left, ~left):
        if not side.any():
            return np.inf
        v = t[side]
        cost += float(((v - v.mean()) ** 2).sum())
    return cost


def all_candidate_splits(x):
    for f in range(x.shape[1]):
        xs = np.unique(x[:, f])
        for lo, hi in zip(xs[:-1], xs[1:]):
            yield f, (lo + hi) / 2.0


def test_gini_split_is_cost_optimal():
    rng = np.random.default_rng(21)
    for trial in range(60):
        n = int(rng.integers(4, 24))
        p = int(rng.integers(1, 5))
        x = rng.integers(0, 6, size=(n, p)).astype(np.float64)
        y = rng.integers(0, 2, size=n).astype(np.int64)
        got = ref_best_split(x, y)
        cands = list(all_candidate_splits(x))
        if not cands:
            assert got is None
            continue
        best = min(brute_gini_cost(x, y, f, t) for f, t in cands)
        assert got is not None
        f, thr = got
        assert brute_gini_cost(x, y, f, thr) <= best + 1e-9, trial


def test_sse_split_is_cost_optimal():
    rng = np.random.default_rng(22)
    for trial in range(60):
        n = int(rng.integers(4, 24))
        p = int(rng.integers(1, 5))
        x = rng.integers(0, 6, size=(n, p)).astype(np.float64)
        t = rng.normal(size=n)
        got = sse_best_split(x, t)
        cands = list(all_candidate_splits(x))
        if not cands:
            assert got is None
            continue
        best = min(brute_sse_cost(x, t, f, thr) for f, thr in cands)
        assert got is not None
        f, thr = got
        assert brute_sse_cost(x, t, f, thr) <= best + 1e-9, trial


def test_duplicate_column_tie_picks_first_feature():
    rng = np.random.default_rng(4)
    col = rng.normal(size=12)
    x = np.stack([col, col], axis=1)
    y = (col > 0).astype(np.int64)
    f, _ = ref_best_split(x, y)
    assert f == 0
    f2, _ = sse_best_split(x, y.astype(np.float64))
    assert f2 == 0


def test_split_none_on_constant_block():
    x = np.ones((6, 3))
    y = np.array([0, 1, 0, 1, 0, 1])
    assert ref_best_split(x, y) is None
    assert sse_best_split(x, y.astype(np.float64)) is None


def test_adjacent_doubles_split_with_finite_leaves():
    # their midpoint rounds to b, so a midpoint threshold would send every
    # row left and repeat the split forever with max_depth None
    a, b = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
    assert (a + b) / 2.0 == b
    x = np.array([[a], [b], [a], [b]])
    y = np.array([0, 1, 0, 1])
    gini = grow_classification_tree(x, y, None, None, stream(0, "tree", 0))
    fitted = np.empty(len(y))
    sse = grow_regression_tree(x, y - 0.5, np.full(len(y), 0.25), None, fitted,
                               RowSetCache())
    for tree in (gini, sse):
        assert tree.threshold[0] == a
        assert len(tree.value) == 3 and np.all(np.isfinite(tree.value))
    assert gini.predict(x).tolist() == [0.0, 1.0, 0.0, 1.0]
    assert fitted.tolist() == sse.predict(x).tolist()


def test_split_between_values_whose_sum_overflows():
    # lo + hi overflows to -inf near -1.8e308: a midpoint of -inf would send
    # every row right and leave an empty left child
    rng = np.random.default_rng(32)
    x = -rng.uniform(1.0e308, 1.79e308, size=(40, 3))
    x[:, 1] = np.round(x[:, 1], -306)  # ties
    y = (rng.random(40) < 0.5).astype(np.int64)
    forest = RandomForest(n_trees=5, max_depth=3).fit(x, y, seed=0)
    fitted = np.empty(len(y))
    sse = grow_regression_tree(x, y - 0.5, np.full(len(y), 0.25), 3, fitted, RowSetCache())
    for tree in (*forest.trees, sse):
        inner = [thr for f, thr in zip(tree.feature, tree.threshold) if f != -1]
        assert inner and np.all(np.isfinite(inner))
        assert not np.isnan(tree.value).any()
    assert fitted.tolist() == sse.predict(x).tolist()


def test_unbounded_fit_on_values_whose_sum_overflows_ends():
    x = np.array([[-1.7e308], [-1e308], [-1.7e308], [-1e308]])
    y = np.array([0, 1, 0, 1])
    gini = grow_classification_tree(x, y, None, None, stream(0, "tree", 0))
    sse = grow_regression_tree(x, y - 0.5, np.full(len(y), 0.25), None, np.empty(len(y)),
                               RowSetCache())
    for tree in (gini, sse):
        assert tree.threshold[0] == -1.7e308 and len(tree.value) == 3
    assert gini.predict(x).tolist() == [0.0, 1.0, 0.0, 1.0]


def test_batched_gini_matches_per_node_reference():
    rng = np.random.default_rng(31)
    x = rng.integers(0, 4, size=(50, 9)).astype(np.float64)
    x[:, 3] = 1.5                                   # constant column
    x[:, 7] = x[:, 1]                               # duplicated column
    x[40:] = x[0]                                   # ten identical rows
    y = rng.integers(0, 2, size=50).astype(np.int64)
    xp = np.vstack([x, np.full((1, 9), np.inf)])
    yp = np.append(y, 0)
    for trial in range(40):
        n_cand = int(rng.integers(1, 10))
        row_lists, cands = [], []
        for _ in range(int(rng.integers(1, 12))):
            size = int(rng.choice([2, 2, 3, int(rng.integers(2, 60))]))
            pool = np.arange(40, 50) if rng.random() < 0.15 else np.arange(50)
            row_lists.append(rng.choice(pool, size=size))  # repeats, like a bootstrap
            cands.append(np.sort(rng.permutation(9)[:n_cand]))
        rows, real = _pad(row_lists, [len(r) for r in row_lists], len(x))
        f, thr, found = _gini_best_splits(xp, yp, rows, real, np.array(cands))
        for j, (node_rows, cand) in enumerate(zip(row_lists, cands)):
            ref = ref_best_split(x[np.ix_(node_rows, cand)], y[node_rows])
            if ref is None:
                assert not found[j], trial
            else:
                assert found[j], trial
                assert (int(f[j]), float(thr[j])) == (int(cand[ref[0]]), ref[1]), trial


def test_lockstep_forest_equals_trees_grown_alone():
    x, y = golden_matrix(True)
    samples = [stream(5, "boot", t).integers(0, len(y), size=len(y)) for t in range(6)]
    together = grow_classification_forest(x, y, samples, None, 3,
                                          [stream(5, "tree", t) for t in range(6)])
    for t, rows in enumerate(samples):
        alone = grow_classification_tree(x[rows], y[rows], None, 3, stream(5, "tree", t))
        assert document(together[t]) == document(alone)


def test_regression_tree_reports_training_leaf_values():
    x, y = golden_matrix(False)
    residual = y - np.linspace(0.2, 0.8, len(y))
    fitted = np.empty(len(y))
    tree = grow_regression_tree(x, residual, np.full(len(y), 0.21), 3, fitted,
                                RowSetCache())
    assert fitted.tobytes() == tree.predict(x).tobytes()


def test_gbt_prefix_is_the_shorter_fit():
    x, y = golden_matrix(False)
    long = build_model("gbt", {"n_rounds": 9, "max_depth": 2}).fit(x, y, seed=0)
    short = build_model("gbt", {"n_rounds": 4, "max_depth": 2}).fit(x, y, seed=1)
    assert document(long.prefix(4)) == document(short)
    with pytest.raises(ValueError):
        short.prefix(5)


def test_forest_prefix_is_the_smaller_fit():
    # ties, constant and duplicated columns; every (n, d) below (N, D)
    rng = np.random.default_rng(52)
    for trial in range(40):
        n_rows = int(rng.integers(2, 41))
        x = tree_block(rng, n_rows, int(rng.integers(1, 12)))
        y = (rng.random(n_rows) < rng.uniform(0.2, 0.8)).astype(np.int64)
        bootstrap = bool(rng.random() < 0.5)
        big_trees = int(rng.integers(1, 9))
        big_depth = [None, 8, int(rng.integers(1, 6))][trial % 3]
        seed = int(rng.integers(0, 1000))
        big = RandomForest(big_trees, big_depth, bootstrap).fit(x, y, seed)
        depths = [d for d in (1, 2, 3, 4, 5, None)
                  if big_depth is None or d is not None and d <= big_depth]
        for n_trees in sorted({1, int(rng.integers(1, big_trees + 1)), big_trees}):
            for depth in depths:
                small = RandomForest(n_trees, depth, bootstrap).fit(x, y, seed)
                assert document(big.prefix(n_trees, depth)) == document(small), \
                    (trial, n_trees, depth)
    with pytest.raises(ValueError):
        big.prefix(big_trees + 1, big_depth)
    short = RandomForest(3, 2).fit(x, y, seed)
    for n_trees, depth in ((3, 3), (3, None), (4, 2)):
        with pytest.raises(ValueError):
            short.prefix(n_trees, depth)


def test_forest_grid_fits_each_fold_once_per_nested_group():
    x, y = golden_matrix(False)
    k = 5
    calls, group_seeds = [], []

    def fit_at_point(params, xt, yt, seed):
        # every point fitted on its own, with the fold seeds of the group's
        # first point, which the first k calls receive
        if len(calls) < k:
            group_seeds.append(seed)
        fold = len(calls) % k
        calls.append(params)
        return RandomForest(**params).fit(xt, yt, group_seeds[fold])

    def fit_nested(params, xt, yt, seed):
        calls.append(params)
        return RandomForest(**params).fit(xt, yt, seed)

    # the default forest grid's shape (2 x 3 points, 5 folds), fewer trees
    grid = HyperGrid.of(n_trees=(3, 6), max_depth=(2, None, 4))
    best, scores = grid_search_cv(fit_at_point, x, y, grid, k=k, seed=3)
    assert len(calls) == 6 * k
    calls.clear()
    best_nested, scores_nested = grid_search_cv(fit_nested, x, y, grid, k=k, seed=3,
                                                nested=("n_trees", "max_depth"))
    assert calls == [{"n_trees": 6, "max_depth": None}] * k
    assert scores_nested == scores and best_nested == best
    # a grid that does not list every nested name fits each point
    calls.clear()
    grid_search_cv(fit_nested, x, y, HyperGrid.of(n_trees=(3, 6)), k=k, seed=3,
                   nested=("n_trees", "max_depth"))
    assert calls == [{"n_trees": 3}] * k + [{"n_trees": 6}] * k


# Fingerprints and CV scores recorded with every tree grown on its own and
# every grid point fitted on its own; lockstep forests and nested gbt grid
# fits must reproduce them bit for bit. The forest goldens were recorded
# again when forests began to grow level by level and to share one fit
# per fold across their grid: each tree draws its nodes' candidate columns
# in level order, not depth-first order, and every forest grid point
# scores a prefix of the fit at its group's first point's seeds. The gbt
# goldens were recorded again when splits began to be ranked by
# head**2 / k + (total - head)**2 / (n - k) in place of the summed squared
# error: near-tied splits round differently, so some trees split elsewhere.
GOLDEN_GRIDS = {
    "random_forest": HyperGrid.of(n_trees=(4, 7), max_depth=(2, None)),
    "gbt": HyperGrid.of(n_rounds=(3, 8, 5), learning_rate=(0.1, 0.3), max_depth=(2, 3)),
}

GOLDEN = {
    ("random_forest", False): (
        "423ad5db0dc7cd33141dd8ca1a59809fc75dda8bf590699e70df326d16fe8a57",
        [0.7, 0.7250000000000001, 0.7250000000000001, 0.7250000000000001]),
    ("random_forest", True): (
        "e43c7760b76d650ca9df675833794b293954493b60aa525fdb0955b07fad649f",
        [0.575, 0.55, 0.45, 0.575]),
    ("gbt", False): (
        "d99582585482b4d724da7be7c58b7ef770ef6789440f4a0b31d74f2e41b3cf60",
        [0.675, 0.725, 0.675, 0.7000000000000001, 0.675, 0.675,
         0.7250000000000001, 0.7000000000000001, 0.65, 0.7000000000000001,
         0.7000000000000001, 0.675]),
    ("gbt", True): (
        "a54cf06d13f6972f715a9db0ad589bc2859539f868e720a31177cfb59bbaf97e",
        [0.55, 0.525, 0.575, 0.475, 0.55, 0.475, 0.5, 0.44999999999999996,
         0.5, 0.525, 0.5, 0.45]),
}


def golden_matrix(shuffle):
    """40 x 9 with tied values, a duplicated and a constant column."""
    rng = np.random.default_rng(2025)
    x = np.round(rng.normal(size=(40, 9)), 1)
    x[:, 6] = x[:, 2]
    x[:, 8] = 0.5
    y = (x[:, 0] + x[:, 2] + rng.normal(scale=0.7, size=40) > 0).astype(np.int64)
    if shuffle:
        y = y[rng.permutation(40)]
    return x, y


def assert_golden(kind, shuffle, grid, golden):
    x, y = golden_matrix(shuffle)
    names = tuple(f"f{k}" for k in range(x.shape[1]))
    model, _, scores = train_with_grid(kind, x, y, names, seed=11, grid=grid, k=4)
    fingerprint, golden_scores = golden
    assert model.fingerprint == fingerprint
    assert scores == golden_scores


@pytest.mark.parametrize("kind,shuffle", sorted(GOLDEN))
def test_tree_models_match_golden_fingerprints(kind, shuffle):
    assert_golden(kind, shuffle, GOLDEN_GRIDS[kind], GOLDEN[(kind, shuffle)])


# Recorded while Mlp.fit packed its parameters into one vector every epoch
# and LinearSvm.fit indexed numpy arrays every step; the fast loops must
# reproduce them bit for bit. The linear_svm goldens were recorded again
# when svm grid points began to share one fit per (lam, fold): every
# epochs point scores a prefix of the fit at its group's first point's
# seeds. On shuffled labels that moves the best point, and so the fingerprint.
GOLDEN_ITERATIVE_GRIDS = {
    "linear_svm": HyperGrid.of(lam=(1e-3, 1e-1), epochs=(3, 10)),
    "mlp": HyperGrid.of(hidden_size=(3, 8), learning_rate=(0.1, 0.5), epochs=(40,)),
}

GOLDEN_ITERATIVE = {
    ("linear_svm", False): (
        "9eada1e0119cf9f5b317bc7f0782721ae281eb87b0bde1ba4835f90578b2b560",
        [0.7000000000000001, 0.675, 0.8, 0.75]),
    ("linear_svm", True): (
        "8775adcfdd128676ce0afada6a31b4a579c678a1dda07428a1c680e5b64b7f15",
        [0.42500000000000004, 0.4, 0.35000000000000003, 0.425]),
    ("mlp", False): (
        "04a3ac2701c1837ff841c2e315f85622952f0ab9fb568657b61e8968754518c0",
        [0.65, 0.7500000000000001, 0.85, 0.75]),
    ("mlp", True): (
        "e9044a72369472508410692789703deb3d30954d623f3c100fec19738d6afc99",
        [0.37500000000000006, 0.47500000000000003, 0.47500000000000003, 0.5]),
}


@pytest.mark.parametrize("kind,shuffle", sorted(GOLDEN_ITERATIVE))
def test_iterative_models_match_golden_fingerprints(kind, shuffle):
    assert_golden(kind, shuffle, GOLDEN_ITERATIVE_GRIDS[kind],
                  GOLDEN_ITERATIVE[(kind, shuffle)])


def standardized(x):
    sd = x.std(axis=0)
    return (x - x.mean(axis=0)) / np.where(sd > 0.0, sd, 1.0)


@pytest.mark.parametrize("shuffle,hidden,rate,seed", [
    (False, 5, 0.3, 4), (True, 1, 0.5, 8), (False, 12, 0.05, 0)])
def test_mlp_fit_is_gradient_descent_on_loss_and_grad(shuffle, hidden, rate, seed):
    x, y = golden_matrix(shuffle)
    model = Mlp(hidden_size=hidden, learning_rate=rate, epochs=30).fit(x, y, seed)
    z = standardized(x)
    theta = Mlp.init_params(x.shape[1], hidden, stream(seed, "mlp"))
    for _ in range(30):
        _, grad = loss_and_grad(theta, z, y.astype(np.float64), hidden)
        theta = theta - rate * grad
    assert model.theta.tobytes() == theta.tobytes()


@pytest.mark.parametrize("shuffle,lam,epochs,seed", [
    (False, 1e-2, 4, 9), (True, 1e-4, 3, 1), (False, 1.0, 6, 5)])
def test_svm_fit_is_the_per_step_pegasos_loop(shuffle, lam, epochs, seed):
    x, y = golden_matrix(shuffle)
    model = LinearSvm(lam=lam, epochs=epochs).fit(x, y, seed)
    z = np.hstack([standardized(x), np.ones((len(x), 1))])
    ypm = np.where(y == 1, 1.0, -1.0)
    w = np.zeros(z.shape[1])
    rng = stream(seed, "svm")
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(y)):
            t += 1
            eta = 1.0 / (lam * t)
            margin = ypm[i] * float(z[i] @ w)
            w *= (1.0 - eta * lam)
            if margin < 1.0:
                w += eta * ypm[i] * z[i]
    assert model.w.tobytes() == w.tobytes()


def test_gbt_grid_fits_each_fold_once_per_nested_group():
    x, y = golden_matrix(False)
    fits = []

    def fit_fn(params, xt, yt, seed):
        fits.append(params["n_rounds"])
        return build_model("gbt", params).fit(xt, yt, seed)

    # the default gbt grid's shape (2 x 2 x 2 points, 5 folds), fewer rounds
    grid = HyperGrid.of(n_rounds=(4, 8), learning_rate=(0.1, 0.3), max_depth=(2, 3))
    best, scores = grid_search_cv(fit_fn, x, y, grid, k=5, seed=3)
    assert len(fits) == 40 and sum(fits) == 240
    fits.clear()
    best_nested, scores_nested = grid_search_cv(fit_fn, x, y, grid, k=5, seed=3,
                                                nested=("n_rounds",))
    assert len(fits) == 20 and sum(fits) == 160
    assert scores_nested == scores and best_nested == best


def test_svm_prefix_is_the_shorter_fit():
    # ties, constant and duplicated columns, shuffled labels
    rng = np.random.default_rng(17)
    for trial in range(24):
        n_rows = int(rng.integers(4, 41))
        x = tree_block(rng, n_rows, int(rng.integers(1, 12)))
        y = rng.permutation(np.arange(n_rows) % 2)
        lam = (1e-4, 1e-2, 1.0, 30.0)[trial % 4]
        epochs = int(rng.integers(1, 7))
        seed = int(rng.integers(0, 1000))
        long = LinearSvm(lam, epochs).fit(x, y, seed)
        for e in range(1, epochs + 1):
            short = LinearSvm(lam, e).fit(x, y, seed)
            assert document(long.prefix(e)) == document(short), (trial, e)
        with pytest.raises(ValueError):
            long.prefix(epochs + 1)
    with pytest.raises(ValueError):  # an unfitted model kept no epochs
        LinearSvm(1e-2, 3).prefix(1)


def test_svm_grid_fits_each_fold_once_per_nested_group():
    x, y = golden_matrix(False)
    k = 5
    calls, group_seeds = [], {}

    def fit_at_point(params, xt, yt, seed):
        # every point fitted on its own, with the fold seeds of its group's
        # first point, the one with fewer epochs
        point, fold = divmod(len(calls), k)
        if point % 2 == 0:
            group_seeds[fold] = seed
        calls.append(params)
        return LinearSvm(**params).fit(xt, yt, group_seeds[fold])

    def fit_nested(params, xt, yt, seed):
        calls.append(params)
        return LinearSvm(**params).fit(xt, yt, seed)

    # the default svm grid's shape (4 x 2 points, 5 folds), fewer epochs
    lams = (1e-4, 1e-3, 1e-2, 1e-1)
    grid = HyperGrid.of(lam=lams, epochs=(2, 5))
    best, scores = grid_search_cv(fit_at_point, x, y, grid, k=k, seed=3)
    assert len(calls) == 8 * k
    calls.clear()
    best_nested, scores_nested = grid_search_cv(fit_nested, x, y, grid, k=k, seed=3,
                                                nested=("epochs",))
    assert calls == [{"lam": lam, "epochs": 5} for lam in lams for _ in range(k)]
    assert scores_nested == scores and best_nested == best


def test_grid_drops_a_group_fits_after_its_last_point():
    x, y = golden_matrix(True)
    k = 4
    for kind, grid, nested, groups in (
            ("linear_svm", HyperGrid.of(lam=(1e-3, 1e-2, 1e-1), epochs=(2, 4)), ("epochs",), 3),
            # the nested name first, as in the default gbt grid: groups interleave
            ("gbt", HyperGrid.of(n_rounds=(3, 6), learning_rate=(0.1, 0.3),
                                 max_depth=(2, 3)), ("n_rounds",), 4)):
        refs = []

        def fit_fn(params, xt, yt, seed):
            # only the fits of the group being scored are alive
            assert sum(ref() is not None for ref in refs) == len(refs) % k, kind
            model = build_model(kind, params).fit(xt, yt, seed)
            refs.append(weakref.ref(model))
            return model

        grid_search_cv(fit_fn, x, y, grid, k=k, seed=8, nested=nested)
        assert len(refs) == groups * k


def unfused_grad(theta, x, y, hidden):
    """The mlp gradient with w1 and b1 as separate arrays: x @ w1 + b1, and
    b1's gradient summed over rows."""
    n_in = x.shape[1]
    w1 = theta[:n_in * hidden].reshape(n_in, hidden)
    b1 = theta[n_in * hidden:(n_in + 1) * hidden]
    w2 = theta[(n_in + 1) * hidden:(n_in + 2) * hidden].reshape(hidden, 1)
    b2 = theta[(n_in + 2) * hidden:]
    a = x @ w1 + b1
    h = np.maximum(a, 0.0)
    z = (h @ w2).ravel() + b2[0]
    p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    dz = (p - y) / len(y)
    gw2 = h.T @ dz[:, None]
    gb2 = np.array([dz.sum()])
    dh = dz[:, None] * w2.ravel()[None, :]
    da = dh * (a > 0.0)
    gw1 = x.T @ da
    gb1 = da.sum(axis=0)
    return np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])


@pytest.mark.parametrize("hidden", (1, 8, 16))
def test_mlp_fused_first_layer_matches_the_unfused_gradient(hidden):
    rng = np.random.default_rng(hidden)
    wide = rng.normal(size=(160, 208))
    wide_y = (wide[:, 0] + rng.normal(size=160) > 0).astype(np.float64)
    golden_x, golden_y = golden_matrix(False)
    for x, y in ((standardized(golden_x), golden_y.astype(np.float64)),
                 (standardized(wide), wide_y)):
        theta = Mlp.init_params(x.shape[1], hidden, rng)
        theta[x.shape[1] * hidden:] = rng.normal(size=2 * hidden + 1)  # nonzero biases
        _, grad = loss_and_grad(theta, x, y, hidden)
        np.testing.assert_allclose(grad, unfused_grad(theta, x, y, hidden),
                                   rtol=1e-12, atol=1e-15)


def fd_gradient(theta, x, y, hidden, eps=1e-6):
    g = np.zeros_like(theta)
    for k in range(theta.size):
        tp = theta.copy(); tp[k] += eps
        tm = theta.copy(); tm[k] -= eps
        lp, _ = loss_and_grad(tp, x, y, hidden)
        lm, _ = loss_and_grad(tm, x, y, hidden)
        g[k] = (lp - lm) / (2 * eps)
    return g


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    for _ in range(3):
        n, d, hidden = 12, 4, 5
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        theta = Mlp.init_params(d, hidden, rng)
        _, grad = loss_and_grad(theta, x, y, hidden)
        fd = fd_gradient(theta, x, y, hidden)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(grad - fd) / denom) < 1e-4


def test_svm_platt_scores_are_probabilistic():
    x, y = blobs(seed=6, gap=4.0)
    m = LinearSvm(lam=1e-3, epochs=30).fit(x, y, seed=0)
    s = m.predict_score(x)
    assert np.all((s > 0.0) & (s < 1.0))
    # calibrated scores track the margin direction
    margins = m.decision_function(x)
    order = np.argsort(margins)
    assert np.all(np.diff(s[order]) >= 0)
    assert s[y == 1].mean() > 0.5 > s[y == 0].mean()


def old_svm_link(z):
    """The link the SVM wrote inline before it shared the MLP's."""
    return 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))


def test_svm_link_is_the_mlp_sigmoid_of_minus_z_bit_for_bit():
    edges = [0.0, -0.0, 1e308, -1e308, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-310,
             -2.2e-310, 1e-300, -1e-300]
    for v in (500.0, -500.0):
        edges += [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]
    rng = np.random.default_rng(3)
    z = np.concatenate([edges, rng.normal(size=2000) * 10.0 ** rng.integers(-8, 4, 2000)])
    assert _sigmoid(-z).tobytes() == old_svm_link(z).tobytes()
    x, y = blobs(seed=6, gap=4.0)
    m = LinearSvm(lam=1e-3, epochs=5).fit(x, y, seed=0)
    assert m.predict_score(x).tobytes() == old_svm_link(
        m.platt_a * m.decision_function(x) + m.platt_b).tobytes()
    with np.errstate(over="ignore"):  # 1e308 times a margin is inf, as it should be
        for a, b in ((1e308, 0.0), (-1e308, 0.0), (5e-324, -0.0), (0.0, 500.0),
                     (0.0, -500.0)):
            m.platt_a, m.platt_b = a, b
            assert m.predict_score(x).tobytes() == old_svm_link(
                a * m.decision_function(x) + b).tobytes(), (a, b)


def test_forest_scores_are_vote_fractions():
    x, y = blobs(seed=7)
    model = build_model("random_forest", {"n_trees": 16, "max_depth": 3}).fit(x, y, 0)
    s = model.predict_score(x)
    assert np.all((s >= 0.0) & (s <= 1.0))
