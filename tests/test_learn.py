import numpy as np
import pytest

from cacrad.errors import ConfigError, SchemaMismatch, SingleClass
from cacrad.learn.grid import DEFAULT_GRIDS, HyperGrid, grid_search_cv
from cacrad.learn.mlp import Mlp, loss_and_grad, pack_params, unpack_params
from cacrad.learn.model import (
    MODEL_KINDS,
    TrainedModel,
    build_model,
    train_with_grid,
)
from cacrad.learn.svm import LinearSvm
from cacrad.learn.tree import (
    _gini_best_split,
    _gini_best_splits,
    _pad,
    _sse_best_split,
    grow_classification_forest,
    grow_classification_tree,
    grow_regression_tree,
)
from cacrad.rng import stream

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
    assert len(scores) == SMALL_GRIDS[kind].n_points()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fit_is_deterministic(kind):
    x, y = blobs(seed=5)
    names = tuple(f"f{k}" for k in range(x.shape[1]))
    m1, _, _ = train_with_grid(kind, x, y, names, seed=4, grid=SMALL_GRIDS[kind], k=3)
    m2, _, _ = train_with_grid(kind, x, y, names, seed=4, grid=SMALL_GRIDS[kind], k=3)
    assert m1.fingerprint == m2.fingerprint
    assert m1.to_json() == m2.to_json()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_json_round_trip_preserves_predictions(kind):
    x, y = blobs(seed=8)
    names = tuple(f"f{k}" for k in range(x.shape[1]))
    model, _, _ = train_with_grid(kind, x, y, names, seed=1,
                                  grid=SMALL_GRIDS[kind], k=3)
    clone = TrainedModel.from_json(model.to_json())
    assert clone.fingerprint == model.fingerprint
    _, s1 = model.predict(x)
    _, s2 = clone.predict(x)
    assert s1.tobytes() == s2.tobytes()


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


def test_forest_degrades_to_constant_on_single_class():
    # a forest has no log-odds or margin to blow up; it just votes one way
    x = np.random.default_rng(0).normal(size=(10, 3))
    y = np.ones(10, dtype=np.int64)
    m = build_model("random_forest", {"n_trees": 5}).fit(x, y, seed=0)
    assert np.all(m.predict_score(x) == 1.0)


def test_default_grids_cover_all_kinds():
    for kind in MODEL_KINDS:
        assert kind in DEFAULT_GRIDS
        assert DEFAULT_GRIDS[kind].n_points() >= 2
    assert "gbt_alt" in DEFAULT_GRIDS
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
        got = _gini_best_split(x, y)
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
        got = _sse_best_split(x, t)
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
    f, _ = _gini_best_split(x, y)
    assert f == 0
    f2, _ = _sse_best_split(x, y.astype(np.float64))
    assert f2 == 0


def test_split_none_on_constant_block():
    x = np.ones((6, 3))
    y = np.array([0, 1, 0, 1, 0, 1])
    assert _gini_best_split(x, y) is None
    assert _sse_best_split(x, y.astype(np.float64)) is None


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
            ref = _gini_best_split(x[np.ix_(node_rows, cand)], y[node_rows])
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
        assert together[t].to_dict() == alone.to_dict()


def test_regression_tree_reports_training_leaf_values():
    x, y = golden_matrix(False)
    residual = y - np.linspace(0.2, 0.8, len(y))
    fitted = np.empty(len(y))
    tree = grow_regression_tree(x, residual, np.full(len(y), 0.21), 3, fitted)
    assert fitted.tobytes() == tree.predict(x).tobytes()


def test_gbt_prefix_is_the_shorter_fit():
    x, y = golden_matrix(False)
    long = build_model("gbt", {"n_rounds": 9, "max_depth": 2}).fit(x, y, seed=0)
    short = build_model("gbt", {"n_rounds": 4, "max_depth": 2}).fit(x, y, seed=1)
    assert long.prefix(4).to_dict() == short.to_dict()
    with pytest.raises(ValueError):
        short.prefix(5)


# Fingerprints and CV scores recorded with every tree grown on its own and
# every grid point fitted on its own; lockstep forests and nested gbt grid
# fits must reproduce them bit for bit.
GOLDEN_GRIDS = {
    "random_forest": HyperGrid.of(n_trees=(4, 7), max_depth=(2, None)),
    "gbt": HyperGrid.of(n_rounds=(3, 8, 5), learning_rate=(0.1, 0.3), max_depth=(2, 3)),
}

GOLDEN = {
    ("random_forest", False): (
        "d4f799665fdc53684a58739fd74680e76fe52638f32a919e343581d730cc065d",
        [0.7, 0.675, 0.65, 0.7749999999999999]),
    ("random_forest", True): (
        "1e789a17b18dfa48129373c910ba4de81c056a77c57e79a9629f5ff8ddae92dc",
        [0.575, 0.55, 0.5750000000000001, 0.425]),
    ("gbt", False): (
        "d99582585482b4d724da7be7c58b7ef770ef6789440f4a0b31d74f2e41b3cf60",
        [0.675, 0.725, 0.675, 0.7000000000000001, 0.675, 0.675,
         0.7250000000000001, 0.7000000000000001, 0.625, 0.7000000000000001,
         0.7000000000000001, 0.675]),
    ("gbt", True): (
        "93bfec1acde495150dd034d4d8439f8000190a26eae13ebb56fb64239585152f",
        [0.55, 0.525, 0.5499999999999999, 0.5, 0.55, 0.45, 0.47500000000000003,
         0.475, 0.475, 0.5, 0.5, 0.45]),
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


@pytest.mark.parametrize("kind,shuffle", sorted(GOLDEN))
def test_tree_models_match_golden_fingerprints(kind, shuffle):
    x, y = golden_matrix(shuffle)
    names = tuple(f"f{k}" for k in range(x.shape[1]))
    model, _, scores = train_with_grid(kind, x, y, names, seed=11,
                                       grid=GOLDEN_GRIDS[kind], k=4)
    fingerprint, golden_scores = GOLDEN[(kind, shuffle)]
    assert model.fingerprint == fingerprint
    assert scores == golden_scores


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
                                                nested="n_rounds")
    assert len(fits) == 20 and sum(fits) == 160
    assert scores_nested == scores and best_nested == best


def test_mlp_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=(5, 3))
    b1 = rng.normal(size=3)
    w2 = rng.normal(size=(3, 1))
    b2 = rng.normal(size=1)
    theta = pack_params(w1, b1, w2, b2)
    uw1, ub1, uw2, ub2 = unpack_params(theta, 5, 3)
    assert np.array_equal(uw1, w1) and np.array_equal(ub1, b1)
    assert np.array_equal(uw2, w2) and np.array_equal(ub2, b2)


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


def test_forest_scores_are_vote_fractions():
    x, y = blobs(seed=7)
    model = build_model("random_forest", {"n_trees": 16, "max_depth": 3}).fit(x, y, 0)
    s = model.predict_score(x)
    assert np.all((s >= 0.0) & (s <= 1.0))
