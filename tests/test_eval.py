import numpy as np
import pytest
from scipy import special, stats

from cacrad.errors import EmptyCounts, LengthMismatch, TooFewPairs
from cacrad.eval import (
    ConfusionCounts,
    betainc_regularized,
    confusion_from_predictions,
    metric_cell,
    metrics,
    paired_t_test,
    t_sf_two_sided,
)


def test_reference_confusion_panel():
    rep = metrics(ConfusionCounts(tp=19, fn=1, fp=5, tn=13))
    row = rep.as_row()
    expected = {
        "accuracy": 0.84,
        "sensitivity": 0.95,
        "specificity": 0.72,
        "ppv": 0.79,
        "f1": 0.86,
        "npv": 0.93,
    }
    for key, want in expected.items():
        assert abs(row[key] - want) <= 0.005, (key, row[key])
    assert row["balanced_accuracy"] == (rep.sensitivity + rep.specificity) / 2


def test_metric_none_flags():
    # no positives in truth: sensitivity undefined, so balanced undefined too
    rep = metrics(ConfusionCounts(tp=0, fn=0, fp=2, tn=8))
    assert rep.sensitivity is None
    assert rep.balanced_accuracy is None
    assert rep.specificity == 0.8
    # nothing predicted positive: ppv undefined, f1 undefined
    rep2 = metrics(ConfusionCounts(tp=0, fn=5, fp=0, tn=5))
    assert rep2.ppv is None and rep2.f1 is None
    assert rep2.npv == 0.5
    # tp=0 with positives present and predictions made: ppv+sens == 0
    rep3 = metrics(ConfusionCounts(tp=0, fn=3, fp=4, tn=3))
    assert rep3.ppv == 0.0 and rep3.sensitivity == 0.0
    assert rep3.f1 is None


def test_formatted_row_uses_dash():
    rep = metrics(ConfusionCounts(tp=0, fn=0, fp=2, tn=8))
    row = {k: metric_cell(v) for k, v in rep.as_row().items()}
    assert row["sensitivity"] == "-"
    assert row["balanced_accuracy"] == "-"
    assert row["accuracy"] == repr(0.8)


def test_counts_validation():
    with pytest.raises(EmptyCounts):
        metrics(ConfusionCounts(tp=0, fn=0, fp=0, tn=0))
    with pytest.raises(EmptyCounts):
        ConfusionCounts(tp=-1, fn=0, fp=0, tn=1)
    with pytest.raises(EmptyCounts):
        ConfusionCounts(tp=1.5, fn=0, fp=0, tn=1)


def test_confusion_from_predictions():
    y = np.array([1, 1, 1, 0, 0, 0])
    p = np.array([1, 0, 1, 0, 1, 0])
    c = confusion_from_predictions(y, p)
    assert (c.tp, c.fn, c.fp, c.tn) == (2, 1, 1, 2)
    with pytest.raises(LengthMismatch):
        confusion_from_predictions(np.array([1, 0]), np.array([1]))


def test_betainc_matches_scipy():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(300):
        a = rng.uniform(0.5, 30.0)
        b = rng.uniform(0.5, 30.0)
        x = rng.uniform(0.0, 1.0)
        ours = betainc_regularized(a, b, x)
        ref = float(special.betainc(a, b, x))
        if ref != 0:
            worst = max(worst, abs(ours - ref) / abs(ref))
        else:
            worst = max(worst, abs(ours - ref))
    assert worst < 1e-12, worst
    assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
    assert betainc_regularized(2.0, 3.0, 1.0) == 1.0


def test_t_tail_matches_scipy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = rng.uniform(-8.0, 8.0)
        df = int(rng.integers(1, 60))
        ours = t_sf_two_sided(t, df)
        ref = 2.0 * float(stats.t.sf(abs(t), df))
        assert abs(ours - ref) <= 1e-12 * max(1.0, ref), (t, df, ours, ref)
    with pytest.raises(TooFewPairs):
        t_sf_two_sided(1.0, 0)


def test_paired_example():
    d = np.array([0.1, 0.05, 0.15, 0.1, 0.1])
    res = paired_t_test(d, np.zeros(5))
    assert res.df == 4
    assert abs(res.t - 6.3246) <= 1e-3
    assert abs(res.p - 0.0032) <= 2e-4
    # offsetting both sides by the same baseline changes nothing
    base = np.array([0.7, 0.8, 0.75, 0.9, 0.65])
    res2 = paired_t_test(base + d, base)
    assert res2.t == pytest.approx(res.t, rel=1e-12)


def test_paired_symmetric_exact():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([4.0, 3.0, 2.0, 1.0])
    res = paired_t_test(a, b)
    assert res.t == 0.0
    assert res.p == 1.0
    assert not res.zero_variance


def test_paired_matches_scipy_random():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        a = rng.normal(size=n)
        b = a + rng.normal(scale=0.5, size=n)
        ours = paired_t_test(a, b)
        ref = stats.ttest_rel(a, b)
        assert ours.t == pytest.approx(float(ref.statistic), rel=1e-10, abs=1e-12)
        assert ours.p == pytest.approx(float(ref.pvalue), rel=1e-9, abs=1e-14)


def test_differences_equal_but_for_rounding_have_zero_variance():
    # 0.7 - 0.3 rounds one ulp below 0.9 - 0.5 and 0.8 - 0.4; a t of 7e15
    # would be that ulp's
    a, b = [0.9, 0.7, 0.8], [0.5, 0.3, 0.4]
    assert len(set(np.subtract(a, b))) == 2
    res = paired_t_test(a, b)
    assert res.zero_variance and res.t is None and res.p is None and res.df == 2
    # a spread of 1e-12, hundreds of times the rounding, is tested
    res = paired_t_test([0.9, 0.7, 0.8 + 1e-12], b)
    assert not res.zero_variance and res.p > 0.0


def test_paired_degenerate():
    res = paired_t_test([1.0, 2.0, 3.0], [0.5, 1.5, 2.5])
    assert res.zero_variance and res.t is None and res.p is None
    with pytest.raises(TooFewPairs):
        paired_t_test([1.0], [2.0])
    with pytest.raises(LengthMismatch):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])
