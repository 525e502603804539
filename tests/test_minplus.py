import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allhops import (
    INF,
    MatrixSeq,
    StrategyError,
    apah_brute,
    gen_random_graph,
    matseq_convolution,
    minplus_product,
    square_matrix,
    tropical_identity,
)
from allhops import _native, minplus
from allhops.matrices import matrix_seq
from allhops.minplus import conv_window, extend_hops

from _brute import brute_matseq_conv, brute_minplus

ENTRY = st.one_of(st.integers(-8, 8), st.just(INF))
# The `conv_window` backend the tests of a module run on: here the default,
# which is the compiled loop wherever it builds; `test_minplus_numpy.py`
# collects every test of this module again on the numpy reference.
BACKEND = "c"


@pytest.fixture(autouse=True)
def backend(request, monkeypatch):
    monkeypatch.setattr(_native, "_BACKEND", request.module.BACKEND)


def _mat(vals):
    return square_matrix(np.array(vals, dtype=float))


@st.composite
def dist_matrices(draw, rows, cols):
    data = draw(
        st.lists(
            st.lists(ENTRY, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
    )
    from allhops.matrices import DistMatrix

    return DistMatrix(tuple(range(rows)), tuple(range(cols)), np.array(data, dtype=float))


# ---------------------------------------------------------------------------
# product


def test_product_identity():
    b = _mat([[5, 6], [7, 8]])
    assert minplus_product(tropical_identity(2), b) == b


def test_product_example():
    a = _mat([[1, 2], [3, 4]])
    b = _mat([[5, 6], [7, 8]])
    assert minplus_product(a, b).data.tolist() == [[6, 7], [8, 9]]


def test_product_with_infinities():
    a = _mat([[INF, 1], [2, INF]])
    assert minplus_product(a, a).data.tolist() == [[3, INF], [INF, 3]]


def test_product_dimension_mismatch():
    a = _mat([[0]])
    b = _mat([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        minplus_product(a, b)
    with pytest.raises(ValueError):
        minplus.mp_array(a.data, b.data)


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize("R,K,C", [(3, 4, 2), (3, 0, 2), (1, 4, 3), (3, 4, 1), (5, 3, 7)])
@settings(max_examples=40)
@given(data=st.data())
def test_product_matches_brute(R, K, C, chunk, data):
    a = data.draw(dist_matrices(R, K))
    b = data.draw(dist_matrices(K, C))
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(minplus, "_CHUNK_CELLS", chunk)
        got = minplus_product(a, b)
    want = brute_minplus(a.data.tolist(), b.data.tolist()) if K else [[INF] * C] * R
    assert got.data.tolist() == want


@settings(max_examples=25)
@given(st.data())
def test_product_associative(data):
    a = data.draw(dist_matrices(3, 3))
    b = data.draw(dist_matrices(3, 3))
    c = data.draw(dist_matrices(3, 3))
    assert minplus_product(minplus_product(a, b), c) == minplus_product(
        a, minplus_product(b, c)
    )


# ---------------------------------------------------------------------------
# hop extension


def test_extend_hops_matches_loop():
    rng = np.random.default_rng(7)
    K, H, n = 3, 6, 5
    table = rng.integers(-6, 7, size=(K + 1, 4, n)).astype(float)
    table[rng.random(table.shape) < 0.3] = INF
    rows, mid_rows, mid_cols = np.array([0, 2, 3]), np.array([1, 3]), np.array([0, 4])
    out = np.full((H + 1, len(rows), n), INF)
    out[: K + 1] = table[:, rows]
    want = out.copy()
    for h in range(K + 1, H + 1):
        want[h] = want[h - 1]
        for g in range(h - K, K + 1):
            for xr, xc in zip(mid_rows, mid_cols):
                for i, r in enumerate(rows):
                    want[h, i] = np.minimum(want[h, i], table[h - g, r, xc] + table[g, xr])
    extend_hops(out, table, rows, mid_rows, mid_cols)
    assert np.array_equal(out, want)


def test_extend_hops_splitting_everywhere_is_bellman_ford():
    n, K = 9, 3
    g = gen_random_graph(n, 24, 4, 3, require_no_neg_cycle=True)
    table = apah_brute(g, K, with_exact=False).le
    out = np.full((2 * K + 1, n, n), INF)
    out[: K + 1] = table
    every = np.arange(n)
    extend_hops(out, table, every, every, every)
    assert np.array_equal(out, apah_brute(g, 2 * K, with_exact=False).le)


# ---------------------------------------------------------------------------
# matrix-sequence convolution


def test_matseq_identity_element():
    b = matrix_seq(2, [_mat([[1, INF], [4, 0]]), _mat([[2, 2], [INF, 1]])])
    ident = matrix_seq(0, [tropical_identity(2)])
    assert matseq_convolution(ident, b) == b


def test_matseq_bellman_ford_step(f1):
    table = apah_brute(f1, 2)
    d = MatrixSeq(0, (0, 1, 2), (0, 1, 2), table.le[:2])
    out = matseq_convolution(d, d)
    assert out.offset == 0 and len(out) == 3
    assert out[2].data[0, 2] == 2


def test_matseq_matches_brute():
    rng = np.random.default_rng(0)
    for _ in range(15):
        la, lb, n = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 4)
        def draw(length):
            v = rng.integers(-5, 6, size=(length, n, n)).astype(float)
            v[rng.random((length, n, n)) < 0.3] = INF
            return MatrixSeq(int(rng.integers(0, 3)), tuple(range(n)), tuple(range(n)), v)
        a, b = draw(int(la)), draw(int(lb))
        got = matseq_convolution(a, b)
        want = brute_matseq_conv(
            [m.data.tolist() for m in a.mats], [m.data.tolist() for m in b.mats]
        )
        assert got.offset == a.offset + b.offset
        assert got.data.tolist() == want


def test_matseq_polynomial_equals_naive_seeded():
    rng = np.random.default_rng(9)
    for _ in range(6):
        vals = rng.integers(-3, 4, size=(4, 4, 4)).astype(float)
        vals[rng.random((4, 4, 4)) < 0.25] = INF
        a = MatrixSeq(0, tuple(range(4)), tuple(range(4)), vals)
        vals2 = rng.integers(-3, 4, size=(4, 4, 4)).astype(float)
        vals2[rng.random((4, 4, 4)) < 0.25] = INF
        b = MatrixSeq(0, tuple(range(4)), tuple(range(4)), vals2)
        assert matseq_convolution(a, b, "polynomial", 3) == matseq_convolution(a, b)


def _brute_window(a3, b3, lo, hi):
    """Hops lo..hi of the brute convolution, +inf where no (x, y) pair lands."""
    la, R, K = a3.shape
    lb, _, C = b3.shape
    full = np.full((la + lb - 1, R, C), INF)
    if K and R:
        full[:] = brute_matseq_conv(a3.tolist(), b3.tolist())
    want = np.full((hi - lo + 1, R, C), INF)
    for z in range(max(lo, 0), min(hi, la + lb - 2) + 1):
        want[z - lo] = full[z]
    return want


def _stack(rng, length, rows, cols):
    v = rng.integers(-6, 7, size=(length, rows, cols)).astype(float)
    v[rng.random(v.shape) < 0.3] = INF
    return v


def _monotone_stack(rng, length, rows, cols):
    """A stack that never increases in hops, like a d_{<=h} table, with
    runs of equal slices: the compiled loop skips splits on these."""
    v = np.minimum.accumulate(_stack(rng, length, rows, cols), axis=0)
    return v[np.sort(rng.integers(0, length, size=length))]


@pytest.mark.parametrize("la,lb,R,K,C", [
    (3, 3, 2, 3, 2), (4, 2, 3, 2, 2), (1, 5, 2, 3, 3), (5, 1, 2, 2, 1),
    (3, 4, 1, 3, 2), (3, 2, 2, 3, 1), (2, 3, 1, 2, 1), (3, 3, 2, 0, 2),
    (1, 1, 1, 1, 1), (2, 3, 1, 0, 1), (3, 2, 4, 5, 6),
])
@pytest.mark.parametrize("chunk", [None, 1])
def test_conv_window_matches_brute_every_window(monkeypatch, la, lb, R, K, C, chunk):
    """Every window, including ones reaching past both ends of the output
    and ones where some left hop x has no matching y; chunk=1 takes the
    product one row at a time."""
    if chunk:
        monkeypatch.setattr(minplus, "_CHUNK_CELLS", chunk)
    rng = np.random.default_rng(la * 100 + lb * 10 + K)
    a3, b3 = _stack(rng, la, R, K), _stack(rng, lb, K, C)
    top = la + lb - 1
    for lo in range(-1, top + 1):
        for hi in range(lo, top + 1):
            got = conv_window(a3, b3, lo, hi)
            assert np.array_equal(got, _brute_window(a3, b3, lo, hi)), (lo, hi)


@pytest.mark.parametrize("la,lb,R,K,C", [
    (3, 3, 2, 3, 2), (4, 2, 3, 2, 2), (1, 5, 2, 3, 3), (5, 1, 2, 2, 1),
    (6, 4, 2, 3, 3), (4, 7, 3, 2, 2), (8, 8, 2, 4, 5), (2, 2, 1, 1, 1),
])
@pytest.mark.parametrize("right", ["monotone", "random"])
def test_conv_window_monotone_stacks_every_window(la, lb, R, K, C, right):
    """A left stack that never increases in hops, with repeated slices,
    against a right one that does not increase either (where the
    compiled loop skips splits) or that does (where it must not)."""
    rng = np.random.default_rng(la * 100 + lb * 10 + K)
    for _ in range(3):
        a3 = _monotone_stack(rng, la, R, K)
        b3 = (_monotone_stack if right == "monotone" else _stack)(rng, lb, K, C)
        top = la + lb - 1
        for lo in range(-1, top + 1):
            for hi in range(lo, top + 1):
                got = conv_window(a3, b3, lo, hi)
                assert np.array_equal(got, _brute_window(a3, b3, lo, hi)), (lo, hi)


def test_conv_window_equal_left_hops_with_a_rising_right():
    """a[1] == a[0], but b rises: the split (1, 0) of hop 1 gives 0, while
    the split (0, 1) that would stand in for it gives 5."""
    a3 = np.array([[[0.0]], [[0.0]]])
    b3 = np.array([[[0.0]], [[5.0]]])
    assert conv_window(a3, b3, 1, 1).tolist() == [[[0.0]]]


def test_conv_window_non_contiguous_inputs():
    """Transposed and strided views, like the single-source combine's
    `ex[1:][:, :, verts].transpose(0, 2, 1)`, give the values of their
    contiguous copies."""
    rng = np.random.default_rng(11)
    ex = _stack(rng, 5, 7, 7)
    verts = np.array([1, 4, 6])
    a3 = ex[1:][:, :, verts].transpose(0, 2, 1)  # (4, 3, 7)
    b3 = _stack(rng, 6, 14, 5)[::2, ::2]  # (3, 7, 5)
    assert not (a3.flags.c_contiguous or b3.flags.c_contiguous)
    for lo, hi in ((0, 5), (-1, 7), (2, 3)):
        got = conv_window(a3, b3, lo, hi)
        assert np.array_equal(got, _brute_window(a3, b3, lo, hi)), (lo, hi)
        assert np.array_equal(got, conv_window(a3.copy(), b3.copy(), lo, hi)), (lo, hi)


def test_conv_window_inf_rows_and_negative_entries():
    """Rows of A and columns of B that are entirely +inf stay +inf in the
    output; negative entries sum exactly."""
    rng = np.random.default_rng(12)
    a3 = -rng.integers(0, 9, size=(3, 4, 5)).astype(float)
    b3 = rng.integers(-9, 9, size=(3, 5, 6)).astype(float)
    a3[:, 1] = INF
    a3[1, 3] = INF
    b3[:, :, 2] = INF
    b3[2] = INF
    got = conv_window(a3, b3, 0, 4)
    assert np.array_equal(got, _brute_window(a3, b3, 0, 4))
    assert np.isinf(got[:, 1]).all() and np.isinf(got[:, :, 2]).all()
    assert (got[np.isfinite(got)] < 0).any()


def test_conv_window_empty_window():
    rng = np.random.default_rng(13)
    a3, b3 = _stack(rng, 3, 2, 4), _stack(rng, 2, 4, 3)
    for lo, hi in ((3, 2), (0, -1), (10, 0)):
        out = conv_window(a3, b3, lo, hi)
        assert out.shape == (0, 2, 3)


def test_matseq_window_polynomial_equals_naive():
    rng = np.random.default_rng(4)
    a = MatrixSeq(1, range(3), range(2), _stack(rng, 3, 3, 2))
    b = MatrixSeq(2, range(2), range(4), _stack(rng, 4, 2, 4))
    for lo in range(1, 11):
        for hi in range(lo, 11):
            naive = matseq_convolution(a, b, window=(lo, hi))
            assert naive == matseq_convolution(a, b, "polynomial", window=(lo, hi))
            assert naive.offset == lo
            assert np.array_equal(naive.data, _brute_window(a.data, b.data, lo - 3, hi - 3))
    with pytest.raises(ValueError):
        matseq_convolution(a, b, window=(5, 4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conv_window_property(data):
    la, lb = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    R, K, C = (data.draw(st.integers(0, 3)) for _ in range(3))
    lo = data.draw(st.integers(-2, la + lb))
    hi = data.draw(st.integers(lo, la + lb + 1))
    monotone = data.draw(st.booleans())

    def stack(length, rows, cols):
        cells = data.draw(st.lists(ENTRY, min_size=length * rows * cols,
                                   max_size=length * rows * cols))
        v = np.array(cells, dtype=float).reshape(length, rows, cols)
        return np.minimum.accumulate(v, axis=0) if monotone else v

    a3, b3 = stack(la, R, K), stack(lb, K, C)
    assert np.array_equal(conv_window(a3, b3, lo, hi), _brute_window(a3, b3, lo, hi))


def test_matseq_polynomial_bound_violation():
    a = matrix_seq(0, [_mat([[9]])])
    with pytest.raises(StrategyError):
        matseq_convolution(a, a, "polynomial", entry_bound=3)


def test_matseq_unknown_strategy():
    a = matrix_seq(0, [_mat([[1]])])
    with pytest.raises(StrategyError):
        matseq_convolution(a, a, "fast")


# ---------------------------------------------------------------------------
# the hop-table self-convolution identity


def test_hop_table_self_convolution_identity():
    from allhops import gen_random_graph

    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, 9))
        g = gen_random_graph(n, min(3 * n, n * (n - 1)), 5, seed, require_no_neg_cycle=True)
        table = apah_brute(g, 2 * k, with_exact=False)
        d = MatrixSeq(0, tuple(range(n)), tuple(range(n)), table.le[: k + 1])
        conv = matseq_convolution(d, d)
        assert np.array_equal(conv.data, table.le[: 2 * k + 1])
