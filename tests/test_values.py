import numpy as np

from allhops.values import INF, INT64_INF, from_int64, to_int64


def test_min_with_infinity():
    assert min(INF, 7) == 7
    assert min(INF, INF) == INF


def test_int64_roundtrip():
    arr = np.array([0.0, -5.0, 2.0**40, INF])
    packed = to_int64(arr)
    assert packed[-1] == INT64_INF
    assert np.array_equal(from_int64(packed), arr)
