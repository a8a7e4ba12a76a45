import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacrad.errors import BadRange, TooFewRows
from cacrad.manifest import CacLabel, ContrastGroup
from cacrad.selection import Standardizer, correlation_filter
from cacrad.table import FeatureTable


def table_from_matrix(mat, names=None):
    mat = np.asarray(mat, dtype=np.float64)
    n = mat.shape[0]
    if names is None:
        names = tuple(f"f{k}" for k in range(mat.shape[1]))
    return FeatureTable(
        tuple(f"s{i}" for i in range(n)),
        tuple(names),
        mat,
        tuple([CacLabel.ZERO] * n),
        tuple([ContrastGroup.CONTRAST] * n),
    )


def test_keeps_first_drops_duplicates():
    rng = np.random.default_rng(11)
    a = rng.normal(size=30)
    b = rng.normal(size=30)
    mat = np.stack([a, 2.0 * a + 1.0, b, -b, a + 0.5 * b], axis=1)
    t = table_from_matrix(mat)
    kept = correlation_filter(t, threshold=0.90)
    # f1 duplicates f0 (|r| = 1), f3 duplicates f2; f4 correlates with both
    # but below 0.90 for this draw
    assert kept[:2] == ["f0", "f2"]
    assert "f1" not in kept and "f3" not in kept


def test_zero_variance_dropped():
    mat = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    kept = correlation_filter(table_from_matrix(mat), threshold=0.99)
    assert kept == ["f0"]
    all_const = np.full((4, 3), 2.5)
    assert correlation_filter(table_from_matrix(all_const)) == []


def test_constant_column_with_rounding_sd_is_dropped():
    # six equal 0.1 values: numpy's mean is not exactly 0.1, so the
    # population sd is about 1.4e-17 and every z-score is +-1
    mat = np.array([[0.1, 1.0, 4.0], [0.1, 2.0, 1.0], [0.1, 3.0, 5.0],
                    [0.1, 4.0, 2.0], [0.1, 5.0, 6.0], [0.1, 6.0, 3.0]])
    assert mat[:, 0].std() > 0.0
    assert correlation_filter(table_from_matrix(mat), threshold=0.99) == ["f1", "f2"]


def test_threshold_edges():
    rng = np.random.default_rng(3)
    t = table_from_matrix(rng.normal(size=(10, 4)))
    with pytest.raises(BadRange):
        correlation_filter(t, threshold=0.0)
    with pytest.raises(BadRange):
        correlation_filter(t, threshold=1.0001)
    # threshold 1.0 keeps everything except exact duplicates
    kept = correlation_filter(t, threshold=1.0)
    assert kept == ["f0", "f1", "f2", "f3"]


def test_too_few_rows():
    with pytest.raises(TooFewRows):
        correlation_filter(table_from_matrix(np.ones((1, 2))))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 20),
    p=st.integers(2, 8),
    threshold=st.floats(0.3, 1.0, exclude_min=True),
)
def test_kept_set_pairwise_below_threshold(seed, n, p, threshold):
    rng = np.random.default_rng(seed)
    t = table_from_matrix(rng.normal(size=(n, p)))
    kept = correlation_filter(t, threshold=threshold)
    if len(kept) < 2:
        return
    sub = t.select_columns(kept).matrix
    z = (sub - sub.mean(axis=0)) / sub.std(axis=0)
    corr = z.T @ z / n
    off = corr[~np.eye(len(kept), dtype=bool)]
    assert np.all(np.abs(off) < threshold + 1e-12)


def reference_filter(x, names, threshold):
    """The filter as it z-scored before it shared the Standardizer: live
    columns only (not all one value), each by its own mean and population sd."""
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    live = np.flatnonzero(x.max(axis=0) > x.min(axis=0))
    z = (x[:, live] - mean[live]) / sd[live]
    corr = np.clip(z.T @ z / len(x), -1.0, 1.0)
    kept = []
    for k in range(live.size):
        if all(abs(corr[k, j]) < threshold for j in kept):
            kept.append(k)
    return [names[live[k]] for k in kept], corr


def test_filter_matches_per_column_z_scores():
    rng = np.random.default_rng(17)
    for trial in range(60):
        n, p = int(rng.integers(4, 60)), int(rng.integers(2, 80))
        x = rng.normal(loc=rng.normal(scale=50.0, size=p), size=(n, p))
        x[:, rng.integers(p)] = rng.normal()              # one constant column
        if p > 3:
            x[:, 1] = 0.999 * x[:, 0] + 1e-3 * x[:, 2]    # a near-duplicate
        t = table_from_matrix(x)
        threshold = float(rng.uniform(0.3, 1.0))
        want, corr = reference_filter(x, t.feature_names, threshold)
        assert correlation_filter(t, threshold) == want, trial
        z = Standardizer.fit(x).apply(x)[:, x.max(axis=0) > x.min(axis=0)]
        assert np.clip(z.T @ z / n, -1.0, 1.0).tobytes() == corr.tobytes(), trial


def test_filter_matches_the_keep_first_loop_at_thresholds_equal_to_a_correlation():
    """Thresholds taken from the computed |r| themselves, so some pairs sit
    exactly on the threshold (and are not below it); copies and negated
    copies put |r| at 1.0 for threshold 1."""
    rng = np.random.default_rng(23)
    for trial in range(40):
        n, p = int(rng.integers(4, 40)), int(rng.integers(2, 60))
        x = rng.normal(size=(n, p))
        x[:, rng.integers(p, size=p // 4)] = x[:, rng.integers(p, size=p // 4)]
        x[:, 0] = -x[:, -1]
        t = table_from_matrix(x)
        _, corr = reference_filter(x, t.feature_names, 1.0)
        at = np.abs(corr[np.triu_indices(len(corr), 1)])
        for threshold in [1.0, *rng.choice(at, size=min(5, at.size), replace=False)]:
            want, _ = reference_filter(x, t.feature_names, threshold)
            assert correlation_filter(t, threshold) == want, (trial, threshold)


def test_standardizer_round_trip_and_apply():
    rng = np.random.default_rng(5)
    mat = rng.normal(loc=10.0, scale=4.0, size=(12, 3))
    mat[:, 2] = 7.0  # constant column: sd substituted with 1
    std = Standardizer.fit(mat)
    assert std.sds[2] == 1.0
    assert std.means.tobytes() == mat.mean(axis=0).tobytes()
    assert std.sds[:2].tobytes() == mat[:, :2].std(axis=0).tobytes()

    out = std.apply(mat)
    assert abs(out[:, 0].mean()) < 1e-12
    assert abs(out[:, 0].std() - 1.0) < 1e-12
    assert np.all(out[:, 2] == 0.0)

    # the model documents' "mean"/"sd" lists, exact through repr
    doc = std.to_dict()
    assert sorted(doc) == ["mean", "sd"]
    assert doc["mean"] == [repr(float(v)) for v in std.means]
    assert np.array(doc["mean"], dtype=np.float64).tobytes() == std.means.tobytes()
    assert np.array(doc["sd"], dtype=np.float64).tobytes() == std.sds.tobytes()


def test_fit_ignores_rows_not_given():
    # fitted artifacts depend only on the rows passed in: refitting on a
    # subset then applying to held-out rows must not equal a full-table fit
    rng = np.random.default_rng(9)
    mat = rng.normal(size=(20, 2))
    std_train = Standardizer.fit(mat[:10])
    std_full = Standardizer.fit(mat)
    assert not np.allclose(std_train.means, std_full.means)
    # and the train-fitted transform applied to test rows uses train stats
    z = std_train.apply(mat[10:])
    manual = (mat[10:] - std_train.means) / std_train.sds
    assert z.tobytes() == manual.tobytes()


def test_standardizer_maps_a_constant_column_with_rounding_sd_to_zero():
    # six equal 0.1 values have a computed sd of about 1.4e-17, which used
    # to give every row a z-score of +1
    x = np.hstack([np.full((6, 1), 0.1), np.arange(6.0)[:, None]])
    assert x[:, 0].std() > 0.0
    st = Standardizer.fit(x)
    z = st.apply(x)
    assert z[:, 0].tolist() == [0.0] * 6
    assert st.sds[0] == 1.0 and st.means[0] == 0.1
    assert z[:, 1].tobytes() == ((x[:, 1] - x[:, 1].mean()) / x[:, 1].std()).tobytes()
    assert st.apply([[0.6, 2.5]])[0, 0] == 0.6 - 0.1
