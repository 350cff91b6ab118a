"""The streamed artifact writer spells every byte as the per-cell reference does.

``summary.json`` was once ``json.dumps(_jsonable(payload), sort_keys=True,
indent=2)`` and each CSV a row-by-row join of ``_cell`` spellings.  Those
reference versions are kept below; the writer must reproduce them for any
payload and any column set, at any chunk size.  The writer spells an
array's distinct numbers once, so arrays are drawn of several widths and
often from a small pool of values (signed zeros, NaN, the infinities, the
smallest subnormal), where its table of spellings really repeats.
"""

import io
import json
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from delaytree import harness

# ---------------------------------------------------------------------------
# reference spellings
# ---------------------------------------------------------------------------


def _ref_json_key(key) -> str:
    if isinstance(key, tuple):
        return "|".join(str(k) for k in key)
    return str(key)


def _ref_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_ref_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {
            _ref_json_key(k): _ref_jsonable(v)
            for k, v in sorted(obj.items(), key=lambda kv: _ref_json_key(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [_ref_jsonable(v) for v in obj]
    return obj


def _ref_summary(payload) -> str:
    return json.dumps(_ref_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _ref_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _ref_csv(rows, header: str) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_ref_cell(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
INTS = st.integers(-(2**63), 2**63 - 1)
# 1-D and 2-D shapes, 2-D ones with zero columns among them
SIDES = st.one_of(
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7),
    st.tuples(st.integers(0, 4), st.just(0)),
)
ARRAY_DTYPES = (np.int32, np.int64, np.uint64, np.float32, np.float64)
FLOAT_POOL = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.1, 2.0, 1.0, 3.0)
INT_POOL = (0, 1, 2, 3, 7, 1000)


def _arrays(dtype, shape):
    """Arrays of ``dtype``: entries from its whole range, or from a small pool cast to it."""
    pool = FLOAT_POOL if np.dtype(dtype).kind == "f" else INT_POOL
    elements = st.one_of(
        st.just(hnp.from_dtype(np.dtype(dtype))),
        st.just(st.sampled_from(np.array(pool, dtype=dtype).tolist())),
    )
    return elements.flatmap(lambda e: hnp.arrays(dtype, shape, elements=e))


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    INTS,
    FLOATS,
    st.text(max_size=6),
    INTS.map(np.int64),
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
)
ARRAYS = st.sampled_from(ARRAY_DTYPES).flatmap(lambda dtype: _arrays(dtype, SIDES))
NUMBER_LISTS = st.lists(st.one_of(INTS, FLOATS), max_size=12)
KEYS = st.one_of(
    st.text(max_size=4),
    st.tuples(st.text(alphabet="()|a", max_size=4), st.text(alphabet="()|a", max_size=4)),
)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, ARRAYS, NUMBER_LISTS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(KEYS, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=100, deadline=None)
@given(payload=st.dictionaries(KEYS, PAYLOADS, max_size=6), chunk=st.integers(1, 5))
@example(payload={"z": np.array([0.0, -0.0, 0.0], dtype=np.float32)}, chunk=1)
@example(payload={"z": np.zeros((3, 0), dtype=np.uint64), "y": np.zeros((0, 2))}, chunk=2)
def test_summary_text_matches_json_dumps(payload, chunk):
    with mock.patch.object(harness, "_CHUNK", chunk):
        got = "".join(harness._json_pieces(payload)) + "\n"
    assert got == _ref_summary(payload)


def test_summary_text_spells_specials_as_json_does():
    payload = {
        "a|1": "shadowed by the later tuple key",
        ("a", 1): np.array([[1.5, np.nan], [np.inf, -np.inf]]),
        "flags": [True, False, None],
        "empty": {"list": [], "dict": {}, "array": np.zeros(0)},
        "np": [np.int64(3), np.float64(0.1), "é\n"],
    }
    with mock.patch.object(harness, "_CHUNK", 1):
        got = "".join(harness._json_pieces(payload)) + "\n"
    assert got == _ref_summary(payload)
    assert "NaN" in got and "-Infinity" in got and '"\\u00e9\\n"' in got


# ---------------------------------------------------------------------------
# CSV columns
# ---------------------------------------------------------------------------


def _column(kind, length: int):
    if kind in ARRAY_DTYPES:
        return _arrays(kind, st.just((length,)))
    if kind == "float list":
        return st.lists(FLOATS, min_size=length, max_size=length)
    if kind == "int list":
        return st.lists(INTS, min_size=length, max_size=length)
    return st.lists(st.text(max_size=5), min_size=length, max_size=length)


KINDS = (*ARRAY_DTYPES, "float list", "int list", "str list")


@st.composite
def tables(draw):
    length = draw(st.integers(0, 20))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    columns = [range(length)] + [draw(_column(kind, length)) for kind in kinds]
    return columns


@settings(max_examples=100, deadline=None)
@given(columns=tables(), chunk=st.integers(1, 6))
def test_csv_matches_row_by_row_cells(columns, chunk):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with mock.patch.object(harness, "_CHUNK", chunk):
            harness._write_csv(path, header, *columns)
        with open(path, "rb") as fh:
            got = fh.read()
    assert got == _ref_csv(zip(*columns), header).encode("utf-8")


# ---------------------------------------------------------------------------
# streaming
# ---------------------------------------------------------------------------

NUMBER = re.compile(r"-?(?:Infinity|NaN|\d+(?:\.\d+)?(?:e[+-]?\d+)?)")


class _Writes(io.StringIO):
    """A text file that keeps every ``write`` call's text."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


@st.composite
def _matrices(draw):
    """(chunk, 2-D int or float array) with rows shorter than, as long as, or longer than a chunk."""
    chunk = draw(st.integers(1, 6))
    width = chunk + draw(st.sampled_from((-1, 0, 1)))
    shape = (draw(st.integers(0, 9)), width)
    return chunk, draw(st.sampled_from((np.int64, np.float64)).flatmap(lambda dtype: _arrays(dtype, st.just(shape))))


@settings(max_examples=100, deadline=None)
@given(_matrices())
@example((3, np.arange(12, dtype=np.int64).reshape(4, 3)))
@example((3, np.arange(8.0).reshape(2, 4)))
def test_matrix_rows_are_written_a_chunk_at_a_time(case):
    chunk, matrix = case
    with mock.patch.object(harness, "_CHUNK", chunk):
        pieces = list(harness._json_pieces({"m": matrix}))
    assert "".join(pieces) + "\n" == _ref_summary({"m": matrix})
    assert max(len(NUMBER.findall(piece)) for piece in pieces) <= chunk


@pytest.mark.parametrize("k", [1, 3, 8])
def test_no_piece_or_write_holds_more_than_a_chunk(k):
    long = np.resize(np.array([0.5, -0.0, np.nan, 7.0, np.inf]), 50)
    wide = np.arange(3 * (2 * k + 1), dtype=np.uint64).reshape(3, -1)  # rows wider than a chunk
    payload = {"long": long, "wide": wide, "ints": np.arange(40, dtype=np.int32) % 6, "list": [0.25, 3] * 20}
    with mock.patch.object(harness, "_CHUNK", k):
        pieces = list(harness._json_pieces(payload))
        out = _Writes()
        with mock.patch.object(harness, "_open", lambda path: out):
            harness._write_csv("t.csv", "i,x,y", range(50), long, np.arange(50) % 4)
    assert "".join(pieces) + "\n" == _ref_summary(payload)
    assert max(len(NUMBER.findall(piece)) for piece in pieces) == k
    header, *rows = out.calls
    assert header == "i,x,y\n"
    assert "".join(rows) == _ref_csv(zip(range(50), long, np.arange(50) % 4), "i,x,y")[len(header) :]
    assert max(text.count("\n") for text in rows) == k


# ---------------------------------------------------------------------------
# the table of spellings
# ---------------------------------------------------------------------------


def _degree_table():
    """2**17 counts, most of them 0, with at most 100 distinct values: few against the entries, so searched."""
    rng = np.random.default_rng(3)
    counts = np.zeros(1 << 17, dtype=np.int64)
    counts[rng.integers(0, len(counts), 2000)] = rng.integers(1, 100, 2000)
    counts[:99] = np.arange(99)  # every value met at least once
    return counts


def _spread_floats():
    """2**12 floats, nearly all distinct, with the specials: many against the entries, so sorted."""
    rng = np.random.default_rng(4)
    values = rng.standard_normal(1 << 12) * 10.0 ** rng.integers(-300, 300, 1 << 12)
    specials = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324]
    values[rng.choice(len(values), 64, replace=False)] = np.resize(specials, 64)
    return values.reshape(64, 64)


@pytest.mark.parametrize(
    "arr, searched",
    [
        (_degree_table(), True),
        (_spread_floats(), False),
        (np.zeros(0, dtype=np.int64), True),
        (np.zeros((3, 0)), True),
        (np.zeros((0, 2), dtype=np.uint64), True),
    ],
    ids=["degree-table", "spread-floats", "empty-1d", "empty-2d", "empty-rows"],
)
def test_spellings_spell_each_entry_as_repr_does(arr, searched):
    table, index = harness._spellings(arr, harness._JSON_NAMES)
    assert (len(table) * harness._SEARCHED <= arr.size) == searched  # the path this case takes
    assert index.shape == arr.shape
    assert index.dtype == np.min_scalar_type(len(table)) and index.dtype.kind == "u"
    want = [harness._JSON_NAMES.get(s, s) for s in map(repr, arr.reshape(-1).tolist())]
    assert table[index.reshape(-1)].tolist() == want
    bits = arr.view(f"i{arr.itemsize}") if arr.dtype.kind == "f" else arr
    assert len(table) == len(np.unique(bits))  # each distinct number, told apart by its bits, spelled once
