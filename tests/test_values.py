import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from allhops.values import (
    INF,
    INT64_INF,
    MAX_FINITE,
    SaturationError,
    add,
    from_int64,
    to_int64,
)


def test_infinity_absorbs():
    assert add(INF, 5) == INF
    assert add(-3, INF) == INF
    assert add(INF, INF) == INF


@given(st.integers(-(2**40), 2**40), st.integers(-(2**40), 2**40))
def test_finite_add_is_exact(a, b):
    assert add(a, b) == a + b


def test_add_saturation_diagnostic():
    with pytest.raises(SaturationError):
        add(2 * MAX_FINITE, 2 * MAX_FINITE)


def test_min_with_infinity():
    assert min(INF, 7) == 7
    assert min(INF, INF) == INF


def test_int64_roundtrip():
    arr = np.array([0.0, -5.0, 2.0**40, INF])
    packed = to_int64(arr)
    assert packed[-1] == INT64_INF
    assert np.array_equal(from_int64(packed), arr)
