import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacrad.errors import SingleClass, TooFewPerClass, TooFewRows
from cacrad.learn.split import stratified_kfold, stratified_split
from cacrad.manifest import CacLabel, ContrastGroup
from cacrad.table import FeatureTable


def cohort_table(n_zero, n_nonzero, n_noncontrast=None, seed=0):
    """Rows alternate contrast group unless n_noncontrast pins the count."""
    n = n_zero + n_nonzero
    rng = np.random.default_rng(seed)
    labels = [CacLabel.ZERO] * n_zero + [CacLabel.NONZERO] * n_nonzero
    if n_noncontrast is None:
        groups = [ContrastGroup.NONCONTRAST if i % 2 else ContrastGroup.CONTRAST
                  for i in range(n)]
    else:
        groups = ([ContrastGroup.NONCONTRAST] * n_noncontrast
                  + [ContrastGroup.CONTRAST] * (n - n_noncontrast))
        rng.shuffle(groups)
    return FeatureTable(
        tuple(f"s{i:03d}" for i in range(n)),
        ("f0", "f1"),
        rng.normal(size=(n, 2)),
        tuple(labels),
        tuple(groups),
    )


def test_split_disjoint_and_covering():
    t = cohort_table(12, 18)
    train, test = stratified_split(t, 0.2, seed=1)
    assert sorted(train + test) == list(range(30))
    assert not set(train) & set(test)
    assert test == sorted(test)


def test_split_stratification_counts():
    t = cohort_table(10, 30)
    _, test = stratified_split(t, 0.25, seed=5)
    labels = t.label_array()
    n_zero = sum(1 for r in test if labels[r] == 0)
    n_nonzero = sum(1 for r in test if labels[r] == 1)
    # round(0.25 * 10) and round(0.25 * 30)
    assert n_zero == 3
    assert n_nonzero == 8


def test_split_deterministic_and_seed_sensitive():
    t = cohort_table(15, 15)
    a = stratified_split(t, 0.3, seed=7)
    b = stratified_split(t, 0.3, seed=7)
    assert a == b
    c = stratified_split(t, 0.3, seed=8)
    assert c != a


def test_split_test_group_pool_only():
    t = cohort_table(10, 10, n_noncontrast=12)
    _, test = stratified_split(t, 0.4, seed=3,
                               test_group=ContrastGroup.NONCONTRAST)
    for r in test:
        assert t.groups[r] is ContrastGroup.NONCONTRAST


def test_split_test_rows_stable_across_composition():
    # the test draw must depend only on (seed, pool membership), so swapping
    # training rows around the pool cannot change which subjects are tested
    t_full = cohort_table(10, 10, n_noncontrast=12, seed=2)
    nc_rows = t_full.rows_in_group(ContrastGroup.NONCONTRAST)
    t_nc = t_full.take_rows(nc_rows)

    _, test_full = stratified_split(t_full, 0.4, seed=11,
                                    test_group=ContrastGroup.NONCONTRAST)
    _, test_nc = stratified_split(t_nc, 0.4, seed=11,
                                  test_group=ContrastGroup.NONCONTRAST)
    ids_full = {t_full.subject_ids[r] for r in test_full}
    ids_nc = {t_nc.subject_ids[r] for r in test_nc}
    assert ids_full == ids_nc


def test_split_single_class():
    t = cohort_table(8, 0)
    with pytest.raises(SingleClass):
        stratified_split(t, 0.2, seed=0)


def test_split_zero_fraction():
    # no test row is drawn: a split that would score no subject is refused
    t = cohort_table(6, 6)
    with pytest.raises(TooFewRows, match=r"no test rows.*6 Zero and 6 NonZero.*= 0\.0"):
        stratified_split(t, 0.0, seed=0)


@pytest.mark.parametrize("table,fraction,group,message", [
    (cohort_table(0, 0), 0.2, None, "training pool is empty"),
    # every subject contrast-tagged: the non-contrast test pool is empty
    (cohort_table(6, 6, n_noncontrast=0), 0.2, ContrastGroup.NONCONTRAST,
     r"no test rows.*0 Zero and 0 NonZero"),
    # 5 % of 9 per class rounds to no test row, 95 % of 5 to every row
    (cohort_table(9, 9), 0.05, None, r"no test rows.*9 Zero and 9 NonZero.*= 0\.05"),
    (cohort_table(5, 5), 0.95, None, "no training rows"),
], ids=["empty-table", "empty-test-pool", "no-test-row", "no-training-row"])
def test_split_with_an_empty_side_is_refused(table, fraction, group, message):
    with pytest.raises(TooFewRows, match=message):
        stratified_split(table, fraction, seed=0, test_group=group)


def test_kfold_partition_properties():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, size=37)
    while len(np.unique(y)) < 2 or min(np.bincount(y)) < 5:
        y = rng.integers(0, 2, size=37)
    folds = stratified_kfold(y, 5, seed=4)
    assert len(folds) == 5
    flat = sorted(r for f in folds for r in f)
    assert flat == list(range(37))
    # per-fold class counts within one of even
    for cls in (0, 1):
        total = int((y == cls).sum())
        for f in folds:
            c = sum(1 for r in f if y[r] == cls)
            assert abs(c - total / 5) < 1.0


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    seed=st.integers(0, 9999),
    n0=st.integers(3, 25),
    n1=st.integers(3, 25),
    k=st.integers(2, 3),
)
def test_kfold_property(seed, n0, n1, k):
    y = np.array([0] * n0 + [1] * n1)
    rng = np.random.default_rng(seed)
    rng.shuffle(y)
    folds = stratified_kfold(y, k, seed)
    flat = sorted(r for f in folds for r in f)
    assert flat == list(range(n0 + n1))
    sizes = {len(f) for f in folds}
    assert max(sizes) - min(sizes) <= 2  # one per class
    # determinism
    assert folds == stratified_kfold(y, k, seed)


def test_kfold_too_few_per_class():
    y = np.array([0, 0, 1, 1, 1, 1, 1])
    with pytest.raises(TooFewPerClass):
        stratified_kfold(y, 3, seed=0)


def test_kfold_checks_class_sizes_before_allocating_folds():
    # the check used to come after one list per fold was allocated
    y = np.array([0, 1] * 10)
    tracemalloc.start()
    try:
        with pytest.raises(TooFewPerClass):
            stratified_kfold(y, 1_000_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
