import numpy as np
import pytest

from allhops import graph_from_edges, parse_graph

F1_TEXT = "3 3\n0 1 1\n1 2 1\n0 2 10\n"
F2_TEXT = "2 2\n0 1 -2\n1 0 3\n"
F3_TEXT = "2 2\n0 1 -2\n1 0 1\n"


@pytest.fixture(autouse=True, scope="session")
def _kernel_cache(tmp_path_factory):
    """Build the compiled library into the test run's temp dir, not
    the user's cache, here and in the processes the tests start."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture
def f1():
    return parse_graph(F1_TEXT)


@pytest.fixture
def f2():
    return parse_graph(F2_TEXT)


@pytest.fixture
def f3():
    return parse_graph(F3_TEXT)


@pytest.fixture
def f4():
    return graph_from_edges(4, [(0, 1, 1), (1, 3, 1), (0, 2, 5), (2, 3, -4)])


@pytest.fixture
def multigraph():
    """m ~ n^2/2 with parallel edges, self-loops and negative weights.
    Weights are b + phi(v) - phi(u) with b >= 0, so no cycle is negative;
    self-loops weigh b >= 0, since a negative one would be a negative cycle."""
    rng = np.random.default_rng(17)
    n = 20
    phi = rng.integers(0, 8, size=n)
    us, vs = rng.integers(0, n, size=(2, n * n // 2))
    pairs = list(zip(us.tolist(), vs.tolist())) + [(u, u) for u in range(0, n, 3)]
    pairs += pairs[:20]
    edges = [(u, v, int(rng.integers(0, 4) + phi[v] - phi[u])) for u, v in pairs]
    return graph_from_edges(n, edges, declared_M=max(abs(w) for _, _, w in edges))
