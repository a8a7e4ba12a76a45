import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cacrad.rng import derive_seed, stream


def test_stream_deterministic():
    a = stream(42, "split", "test", 0).random(8)
    b = stream(42, "split", "test", 0).random(8)
    assert a.tobytes() == b.tobytes()


def test_paths_are_independent():
    base = stream(42, "a").random(8)
    assert stream(42, "b").random(8).tobytes() != base.tobytes()
    assert stream(43, "a").random(8).tobytes() != base.tobytes()
    # int and str parts address different streams
    assert stream(42, 0).random(8).tobytes() != stream(42, "0").random(8).tobytes()


def test_derive_seed_stable_and_distinct():
    s = derive_seed(7, "model", "gbt")
    assert s == derive_seed(7, "model", "gbt")
    assert s != derive_seed(7, "model", "mlp")
    assert 0 <= s < 2 ** 64


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 63), part=st.text(max_size=12))
def test_any_path_yields_working_generator(seed, part):
    g = stream(seed, part)
    x = g.random(4)
    assert np.all((x >= 0) & (x < 1))
