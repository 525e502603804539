"""Byte-level pins of the reduction gadgets.

Each case hashes `render_graph` of the gadget's graph followed by
`render_names`, so a change to vertex numbering, edge order, weights or
names shows up here even when every decoded value stays right.
"""

import hashlib

import numpy as np
import pytest

from allhops import (
    build_tree_gadget,
    build_triangle_gadget,
    reduce_convolution_to_hops,
    reduce_mpp_to_exact_hops,
    render_graph,
)
from allhops.reductions import render_names


def _digest(gadget) -> str:
    text = render_graph(gadget.graph) + render_names(gadget)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _mpp(n: int, x: int):
    rng = np.random.default_rng(1000 * n + x)
    A = rng.integers(1, x + 1, size=(n, n // x))
    B = rng.integers(1, x + 1, size=(n // x, n))
    return reduce_mpp_to_exact_hops(A, B, x)


def _conv(n: int):
    rng = np.random.default_rng(n)
    return reduce_convolution_to_hops(
        rng.integers(-5, 10, size=(n, n)), rng.integers(-5, 10, size=(n, n))
    )


_TRIANGLES = {
    "one": (1, [(0, 0)], [(0, 0)], [(0, 0)]),
    "three": (3, [(0, 1), (2, 2), (1, 0)], [(1, 2), (0, 0)], [(2, 0), (2, 1), (0, 2)]),
}

# sha256 of render_graph + render_names per case
GOLDEN = {
    "conv-1": "15dd3dbef797ec439025e5700c803d3719f3c90403c2a3b3708c0a0f468f655f",
    "conv-2": "ab352084e9bba0cf171d7f20929892c157e3282022f98e90c41711bda03fc66a",
    "conv-3": "a0df1a6d43ba24c1de4a99dabf78ec8c417b38f7ca05e8b9ec7ee959518121ad",
    "conv-4": "4237698bdf16502452f2a84282caac30b3054dcc097066b42571370aba986ed8",
    "conv-5": "9e0fd9b3518be819ea027f2838236d2bf99436f438a73e0066517dd4ad9e2309",
    "mpp-16-4": "8df95fe492b7ef7186d98da73a8895e65d19551a2b6e8306bcd9f98fe5061ae4",
    "mpp-2-2": "64121ad36d61c998a0db50423c25e19cd6426c2f93d3e97d67c0d1813b973b65",
    "mpp-4-2": "4144b712efafd8224da6dba0210b0487571ab892248a7d4d6c07a5a73c1b438e",
    "mpp-4-4": "7743696fd0cf897e11050dcb4e703c9563172f90b20a8f8637cce872741e5140",
    "mpp-8-2": "dc6d9b28bcde31a70cdcfca1889c48fe2c599741f980ba06fa563b216941e2aa",
    "mpp-8-8": "af781b2de9098fda7a850c39489d5af86a7cfeebb848e6e41713930443c4edf2",
    "tree-1-fwd": "d9df41e41754ae0aa11e578474ff6d3d6b5c2086ab9991fd5bb70fd8751c69bb",
    "tree-1-rev": "0e919fc5530fb1cf917cff9abed7d2e068e62a118bb9598d6739c0122ca34d2a",
    "tree-2-fwd": "69ee33311cdc75d8848c19f06765e265b34959ef1cb5b94d702a701f255713cd",
    "tree-2-rev": "9d951fa09f5e05afbd16c742c04b764bf68599fc37eb24834313308e3c74c0d0",
    "tree-3-fwd": "27ba4189fdae21e671b1b250a30a76f6befaa8fc625231838c461a9d4afd4eb7",
    "tree-3-rev": "65044623c19adde7e1230d55e97a93a87552b3b2a41e4d576321236496d4a0b8",
    "tree-4-fwd": "72f40f8e17c3bec053cd4af5657e507b74d49989417c8acc8e1eadfe6c30965d",
    "tree-4-rev": "6be368197619ed1ba6bba1cec2535d2d7165ef50d638933038a9e87c4a80e8eb",
    "tree-5-fwd": "a221133e294bc468d8d53166a88607a58982b01d35d92dfbca1aac46b7732578",
    "tree-5-rev": "a7f78606418cc958245aa9ef2e64ddd0e6296bd3509046425225ab247c45a288",
    "triangle-one": "b3b950d0e4d5e75823323710c3efdc2f7ca53886f2d53466d4af0097369e52ff",
    "triangle-three": "d750a937051e32c7e096fe3f9676c3ca1de43f0503585acacc8196d37aef2abe",
}


def _cases():
    for depth in range(1, 6):
        for rev in (False, True):
            yield f"tree-{depth}-{'rev' if rev else 'fwd'}", (
                lambda d=depth, r=rev: build_tree_gadget(d, reversed_edges=r)
            )
    for n, x in ((2, 2), (4, 2), (4, 4), (8, 2), (8, 8), (16, 4)):
        yield f"mpp-{n}-{x}", (lambda n=n, x=x: _mpp(n, x))
    for n in range(1, 6):
        yield f"conv-{n}", (lambda n=n: _conv(n))
    for name, args in _TRIANGLES.items():
        yield f"triangle-{name}", (lambda a=args: build_triangle_gadget(*a))


_CASES = dict(_cases())


@pytest.mark.parametrize("case", sorted(_CASES))
def test_gadget_bytes_are_pinned(case):
    assert _digest(_CASES[case]()) == GOLDEN[case]
