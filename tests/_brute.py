"""Independent pure-Python reference oracles for the test suite.

Deliberately naive (dict/list based, no numpy, no shared code with the
package) so they can serve as the second route in every dual-route check.
"""

from itertools import permutations

INF = float("inf")


def brute_minplus(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[INF] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            best = INF
            for k in range(inner):
                best = min(best, a[i][k] + b[k][j])
            out[i][j] = best
    return out


def brute_matseq_conv(a_mats, b_mats):
    length = len(a_mats) + len(b_mats) - 1
    rows, cols = len(a_mats[0]), len(b_mats[0][0])
    out = [[[INF] * cols for _ in range(rows)] for _ in range(length)]
    for x, am in enumerate(a_mats):
        for y, bm in enumerate(b_mats):
            prod = brute_minplus(am, bm)
            for i in range(rows):
                for j in range(cols):
                    out[x + y][i][j] = min(out[x + y][i][j], prod[i][j])
    return out


def brute_bellman_ford(n, edges, s, L):
    """(ex, le) where ex[h][v] = best weight of an exactly-h-edge walk."""
    ex = [[INF] * n for _ in range(L + 1)]
    ex[0][s] = 0
    for h in range(1, L + 1):
        for u, v, w in edges:
            if ex[h - 1][u] + w < ex[h][v]:
                ex[h][v] = ex[h - 1][u] + w
    le = [row[:] for row in ex]
    for h in range(1, L + 1):
        for v in range(n):
            le[h][v] = min(le[h - 1][v], ex[h][v])
    return ex, le


def brute_has_negative_cycle(n, edges):
    """Enumerate every simple cycle; intended for n <= 7."""
    best = {}
    for u, v, w in edges:
        if (u, v) not in best or w < best[(u, v)]:
            best[(u, v)] = w
    for length in range(1, n + 1):
        for cyc in permutations(range(n), length):
            total = 0
            ok = True
            for i in range(length):
                e = (cyc[i], cyc[(i + 1) % length])
                if e not in best:
                    ok = False
                    break
                total += best[e]
            if ok and total < 0:
                return True
    return False
