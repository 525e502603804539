"""Byte-mutation fuzz of the input boundaries: the edge-list parser, the
oracle snapshot loader and the CLI on every file it reads.  Each either
succeeds or fails with its documented error and exit code, never with
another exception."""

import contextlib
import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _snapshots import fixture, stored_tables
from allhops import (
    Graph,
    ParseError,
    build_oracle_bf,
    build_oracle_mpp,
    gen_random_graph,
    load_oracle,
    parse_graph,
    render_graph,
    save_oracle,
)
from allhops.cli import main
from allhops.sampling import SamplePlan

FUZZ = settings(max_examples=200, deadline=None)

GRAPH = render_graph(gen_random_graph(6, 12, 4, 1, require_no_neg_cycle=True)).encode()
QUERIES = b"# u v h\n0 1 1\n2 5 3\n\n4 4 2\n5 0 5\n"
GADGETS = {
    "triangle": b"2 2 2\nij 0 1\njk 1 0\nki 0 0\n",
    "mpp": b"4 2\n1 2\n2 1\n1 1\n2 2\n1 2 1 2\n2 1 2 1\n",
    "conv": b"2\n# A\n1 2\n3 4\n5 6\n7 8\n",
}
_G = parse_graph(GRAPH)
_ORACLES = {"mpp": build_oracle_mpp(_G, SamplePlan(seed=2)), "bf": build_oracle_bf(_G)}
# AHDO2 snapshots of both kinds, and one AHDO1 fixture (n = 24, C = 1).
SNAPSHOTS = {name: save_oracle(o) for name, o in _ORACLES.items()}
SNAPSHOTS["mpp-ahdo1"] = fixture("golden-mpp")


def _tail(blob: bytes) -> tuple[int, int]:
    """(end, cells) of the last table that `blob` stores: the byte offset
    just past its cells, and their count.  Marker levels may follow it."""
    *_, at, (hops, rows, cols) = stored_tables(blob)[-1]
    return at + 8 * hops * rows * cols, hops * rows * cols


TAIL_CELLS = {name: _tail(blob) for name, blob in SNAPSHOTS.items()}

# Bytes that the formats give meaning to, next to any byte at all.
_BYTE = st.one_of(st.sampled_from(b"0123456789 -\n#M"), st.integers(0, 255))


def _apply(base: bytes, edits) -> bytes:
    data = bytearray(base)
    for op, pos, byte in edits:
        pos = min(pos, len(data))
        if op == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if op == "set":
                data[pos] = byte
            else:
                del data[pos]
    return bytes(data)


def mutated(base: bytes):
    """`base` with one to eight bytes set, inserted or deleted."""
    edit = st.tuples(st.sampled_from(("set", "insert", "delete")),
                     st.integers(0, len(base)), _BYTE)
    return st.lists(edit, min_size=1, max_size=8).map(lambda edits: _apply(base, edits))


def _run(argv) -> tuple[int, str]:
    """main(argv) with stdout dropped; its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_documented(code: int, err: str) -> None:
    """Exit 0 with nothing on stderr, or exit 1 or 2 with one stderr line."""
    if code == 0:
        assert err == ""
    else:
        assert code in (1, 2) and err.startswith("allhops: ") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(data=mutated(GRAPH))
def test_parse_graph_returns_a_graph_or_raises_parse_error(data):
    try:
        assert isinstance(parse_graph(data), Graph)
    except ParseError:
        pass


@FUZZ
@given(data=st.one_of(st.binary(max_size=200), *(mutated(blob) for blob in SNAPSHOTS.values())))
def test_load_oracle_raises_only_parse_error(data):
    try:
        load_oracle(data)
    except ParseError:
        pass


@FUZZ
@given(st.data())
def test_load_oracle_refuses_cells_past_2_53(data):
    """A snapshot with one to four cells past +-2^53 (and not the +inf
    marker INT64_MAX) is a ParseError; with bytes mutated on top of that,
    the loader still raises nothing else."""
    name = data.draw(st.sampled_from(sorted(SNAPSHOTS)))
    blob = bytearray(SNAPSHOTS[name])
    past = st.one_of(st.integers(2**53 + 1, 2**63 - 2), st.integers(-(2**63), -(2**53) - 1))
    end, cells = TAIL_CELLS[name]
    for _ in range(data.draw(st.integers(1, 4))):
        at = end - 8 * data.draw(st.integers(1, cells))
        struct.pack_into("<q", blob, at, data.draw(past))
    with pytest.raises(ParseError, match="cell"):
        load_oracle(bytes(blob))
    try:
        load_oracle(data.draw(mutated(bytes(blob))))
    except ParseError:
        pass


@FUZZ
@given(data=mutated(GRAPH))
def test_cli_on_mutated_graph_exits_documented(fuzz_dir, data):
    """Undecodable bytes are exit 1.  Only graphs of at most 64 vertices
    are solved: a mutated header could ask for tables that would really be
    allocated."""
    try:
        if parse_graph(data).n > 64:
            return
    except ParseError:
        pass
    path = fuzz_dir / "graph.txt"
    path.write_bytes(data)
    code, err = _run(["all-pairs", "--graph", str(path)])
    _assert_documented(code, err)
    if not data.isascii():
        assert code == 1


@FUZZ
@given(data=mutated(QUERIES))
def test_cli_on_mutated_queries_exits_documented(fuzz_dir, data):
    snap = fuzz_dir / "oracle.ahdo"
    if not snap.exists():
        snap.write_bytes(SNAPSHOTS["mpp"])
    path = fuzz_dir / "queries.txt"
    path.write_bytes(data)
    _assert_documented(*_run(["oracle", "query", "--oracle", str(snap), "--queries", str(path)]))


@FUZZ
@given(st.data())
def test_cli_on_mutated_gadget_input_exits_documented(fuzz_dir, data):
    """Built without --verify: a mutated triangle header names part sizes
    that no line of the file bounds."""
    name = data.draw(st.sampled_from(sorted(GADGETS)))
    path = fuzz_dir / "gadget.txt"
    path.write_bytes(data.draw(mutated(GADGETS[name])))
    code, err = _run(["gadget", name, "--input", str(path), "--out", str(fuzz_dir / "gadget.el")])
    _assert_documented(code, err)
