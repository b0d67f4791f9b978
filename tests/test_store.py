import contextlib
import errno
import itertools
import json
import os
import re
import struct
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from comret import store
from comret.errors import ComretError
from comret.store import (
    MAGIC,
    IndexDirectory,
    PackedMatrix,
    build_index,
    load_index,
    parse_embedding_jsonl,
    parse_query_jsonl,
    save_index,
)
from comret.training import load_triplets

from conftest import make_index, random_index


class TestParseEmbeddingJsonl:
    def test_single_line(self):
        records = parse_embedding_jsonl(['{"id":"p1","embedding":[1.0,0.0]}\n'])
        assert len(records) == 1
        assert records[0][0] == "p1"
        np.testing.assert_array_equal(records[0][1], np.array([1.0, 0.0], dtype=np.float32))

    def test_dim_mismatch_reports_line(self):
        lines = ['{"id":"p1","embedding":[1.0,0.0]}\n', '{"id":"p2","embedding":[1.0]}\n']
        with pytest.raises(ComretError, match="^line 2: expected dim 2, got 1$"):
            parse_embedding_jsonl(lines)

    def test_non_numeric_entry_is_malformed(self):
        with pytest.raises(ComretError, match='^line 1: "embedding" contains a non-numeric entry$'):
            parse_embedding_jsonl(['{"id":"p1","embedding":[1.0,"x"]}\n'])

    def test_invalid_json_is_malformed(self):
        with pytest.raises(ComretError, match=r"^line 1: invalid JSON \(Expecting ',' delimiter\)$"):
            parse_embedding_jsonl(['{"id":"p1"\n'])

    def test_non_finite_rejected(self):
        with pytest.raises(ComretError, match="^non-finite value in line 1$"):
            parse_embedding_jsonl(['{"id":"p1","embedding":[1.0,1e400]}\n'])

    def test_file_order_preserved(self):
        lines = [f'{{"id":"p{i}","embedding":[{i}.0]}}\n' for i in range(5)]
        records = parse_embedding_jsonl(lines)
        assert [r[0] for r in records] == [f"p{i}" for i in range(5)]

    def test_integers_and_floats_accepted(self):
        ((_, vec),) = parse_embedding_jsonl(['{"id":"p1","embedding":[1, 2.5]}\n'])
        assert vec.dtype == np.float32
        assert vec.tobytes() == np.array([1.0, 2.5], dtype=np.float32).tobytes()

    @pytest.mark.parametrize("entries", ["[1.0, true]", "[false]", "[1.0, null]", '["1.0"]', "[[1.0]]", "[{}]"])
    def test_non_number_entry_names_its_line(self, entries):
        lines = ['{"id":"p1","embedding":[1.0, 2.0]}\n', f'{{"id":"p2","embedding":{entries}}}\n']
        with pytest.raises(ComretError, match='^line 2: "embedding" contains a non-numeric entry$'):
            parse_embedding_jsonl(lines)

    def test_integer_beyond_float_range_is_non_finite(self):
        with pytest.raises(ComretError, match="^non-finite value in line 1$"):
            parse_embedding_jsonl(['{"id":"p1","embedding":[1' + "0" * 400 + "]}\n"])


def isinstance_row_check(emb):
    """The per-element predicate the row check replaced: the oracle."""
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in emb)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def passes_row_check(parse, obj) -> bool:
    """Whether one line holding ``obj`` gets past the row check: it is
    parsed, or rejected only for a non-finite value (NaN, an infinity or
    an overflow)."""
    try:
        parse([json.dumps(obj) + "\n"])
    except ComretError as exc:
        if str(exc).startswith("non-finite value in line 1"):
            return True
        assert re.fullmatch(r"line 1: .* contains a non-numeric entry", str(exc))
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(json_values, min_size=1, max_size=6))
def test_row_check_accepts_what_isinstance_accepted(entries):
    """Through json.dumps and json.loads, so the entries have the exact
    types a JSONL line yields; the same for a page, a query channel and a
    triplet field."""
    emb = json.loads(json.dumps(entries))
    want = isinstance_row_check(emb)
    assert passes_row_check(parse_embedding_jsonl, {"id": "p1", "embedding": entries}) == want
    assert passes_row_check(parse_query_jsonl, {"query_id": "q1", "embeddings": {"text-query": entries}}) == want
    assert passes_row_check(load_triplets, {"q": [1.0], "i": entries, "t": [1.0]}) == want


def read_both_ways(read) -> list:
    """``read()``, then ``read()`` with json.loads reading every line (the
    referee) and the flat page path declining each: each its result or its
    ComretError's message."""
    results = []
    referee = mock.patch.multiple(store, _loads=json.loads, _flat_record=lambda line, line_no: None)
    for patch in (contextlib.nullcontext(), referee):
        with patch:
            try:
                results.append(read())
            except ComretError as exc:
                results.append(f"ComretError: {exc}")
    return results


def same_json(got, want) -> bool:
    """Equal types, float bits and key order; an integer beyond 64 bits
    may come back as the float it rounds to."""
    if type(want) is int and type(got) is float and not -(2**63) <= want < 2**64:
        want = float(want)
    if type(got) is not type(want):
        return False
    if type(want) is float:
        return struct.pack("<d", got) == struct.pack("<d", want)
    if type(want) in (list, tuple):
        return len(got) == len(want) and all(map(same_json, got, want))
    if type(want) is dict:
        return list(got) == list(want) and all(same_json(got[k], want[k]) for k in want)
    return got == want


@st.composite
def long_decimals(draw) -> str:
    """A 17- to 40-digit decimal literal, most with an exponent that takes
    it near or past float64's range."""
    digits = draw(st.text("0123456789", min_size=16, max_size=39))
    first = draw(st.sampled_from("123456789"))
    point = draw(st.integers(1, len(digits) + 1))
    mantissa = (first + digits)[:point] + ("." + (first + digits)[point:] if point <= len(digits) else "")
    exponent = draw(st.none() | st.integers(-340, 330))
    sign = draw(st.sampled_from(["", "-"]))
    return sign + mantissa + ("" if exponent is None else draw(st.sampled_from("eE")) + str(exponent))


#: Literals that json.dumps never writes, or that sit on a rounding edge.
#: 2**70 + 2**46 + 1 is rounded twice on its way to float32.
number_literals = long_decimals() | st.sampled_from(
    ["1E+2", "-0", "2.4703282292062327e-324", "1.7976931348623159e308", "1180591691086155481089"]
)
numbers = (
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(json.dumps)
    | st.integers(-(2**80), 2**80).map(str)
    | number_literals
)
# Every code point: json.dumps escapes a lone surrogate, or writes it raw.
any_text = st.text(st.characters(exclude_categories=()), max_size=6)
any_json = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | st.floats(allow_subnormal=True) | any_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(any_text, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(
    objects=st.lists(st.dictionaries(any_text, any_json, max_size=4) | any_json, min_size=1, max_size=4),
    ascii_only=st.booleans(),
    row=st.lists(numbers, min_size=1, max_size=6),
)
def test_json_objects_reads_what_json_loads_reads(objects, ascii_only, row):
    """orjson reads these lines where it can; every value, float bit, key
    order and error message equals json.loads's."""
    lines = [json.dumps(obj, ensure_ascii=ascii_only) + "\n" for obj in objects]
    lines.append(f'{{"row": [{", ".join(row)}], "n": {row[0]}}}\n')
    for line in lines:
        got, want = read_both_ways(lambda: list(store.json_objects([line])))
        assert same_json(got, want), line


def same_arrays(got, want) -> bool:
    """Equal errors, or arrays of equal dtype and bytes at every position."""
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return len(got) == len(want) and all(
        (g.dtype, g.tobytes()) == (w.dtype, w.tobytes()) for g, w in zip(got, want)
    )


@settings(max_examples=300, deadline=None)
@given(row=st.lists(numbers, min_size=1, max_size=6))
def test_readers_give_json_loads_bits(row):
    """Page, query and triplet readers give the arrays, bit for bit, that
    they give with json.loads reading every line, or the same error."""
    values = ", ".join(row)
    readers = [
        (parse_embedding_jsonl, f'{{"id": "p1", "embedding": [{values}]}}\n', lambda out: [r[1] for r in out]),
        (
            parse_query_jsonl,
            f'{{"query_id": "q1", "embeddings": {{"image-query": [{values}], "text-query": [{values}]}}}}\n',
            lambda out: [out[0].channel("image-query"), out[0].channel("text-query")],
        ),
        (load_triplets, f'{{"q": [{values}], "i": [1.0], "t": [{values}]}}\n', lambda out: [out.query, out.text]),
    ]
    for read, line, arrays in readers:
        got, want = read_both_ways(lambda: arrays(read([line])))
        assert same_arrays(got, want), line


def asarray_finite_vector(values, dtype, line_no, field, where):
    """The body ``store.finite_vector`` replaced (a type set, then
    ``np.asarray``): the oracle for its bits and messages."""
    if not isinstance(values, list) or not values:
        raise ComretError(f"line {line_no}: missing or empty {field} array")
    if not set(map(type, values)) <= {int, float}:
        raise ComretError(f"line {line_no}: {field} contains a non-numeric entry")
    try:
        with np.errstate(over="ignore"):
            vec = np.asarray(values, dtype=dtype)
    except OverflowError:
        raise ComretError(f"non-finite value in {where}")
    if not np.isfinite(vec).all():
        raise ComretError(f"non-finite value in {where}")
    vec.flags.writeable = False
    return vec


def vector_or_message(check, values, dtype):
    try:
        vec = check(values, dtype, 1, '"embedding"', "line 1")
    except ComretError as exc:
        return f"ComretError: {exc}"
    return vec.dtype, vec.tobytes(), vec.flags.writeable


#: Integers on float32 and float64 rounding edges and past float64's range,
#: finite floats past float32's, and subnormals of both.
edge_numbers = st.sampled_from(
    [str(2**70 + 2**46 + 1), str(2**80), str(-(2**80)), str(2**60 + 1), "1e39", "-1e39", "1" + "0" * 400,
     "5e-324", "1.401298464324817e-45", "7e-46", "1.1754942e-38"]
)


@settings(max_examples=300, deadline=None)
@given(row=st.lists(numbers | edge_numbers | st.sampled_from(["true", "null", '"1"', "[1]"]), max_size=6))
def test_finite_vector_gives_the_asarray_bits(row):
    """float32 and float64 vectors of the same dtype and bytes as the old
    body's, or the same message; ints come as json.loads gives them."""
    values = json.loads(f"[{', '.join(row)}]")
    for dtype in (np.float32, np.float64):
        got = vector_or_message(store.finite_vector, values, dtype)
        assert got == vector_or_message(asarray_finite_vector, values, dtype), (row, dtype)


#: An array nested past json.loads's recursion limit; orjson reads it.
DEEP = "[" * 2000 + "]" * 2000

#: Ids that put a bracket, or a t or f, in the span between a line's first
#: "[" and its last "]", where the flat path looks for a bool.
EDGE_IDS = ["t", "f", "p[", "p]", "p{", "[t", "t]", "f][", "{f}"]


@st.composite
def page_line(draw, dim: int) -> str:
    """One line of a page file: a flat page, or one the flat path must
    decline (a container, repeated key, bad entry, blank or non-object line)."""
    entry = st.floats(-1e30, 1e30, allow_subnormal=True).map(json.dumps) | edge_numbers
    entries = draw(st.lists(entry, min_size=dim, max_size=dim))
    page = draw(
        st.text(st.characters(exclude_characters='\t\r\n"\\'), min_size=1, max_size=4) | st.sampled_from(EDGE_IDS)
    )
    members = [("id", json.dumps(page)), ("embedding", None)]
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    fault = draw(st.sampled_from([
        None, "scalar-key", "list-key", "object-key", "deep-key", "deep-entry", "bracket-id", "bad-entry",
        "non-finite", "empty", "non-object", "blank", "embedding-twice", "deep-id-twice", "quoted-id", "no-id",
    ]))
    if fault == "scalar-key":
        members += [(draw(st.sampled_from(["meta", "page", "n"])), json.dumps(draw(scalars)))]
    elif fault in ("list-key", "object-key", "deep-key"):
        members += [("meta", {"list-key": "[1, 2]", "object-key": '{"page": 2}', "deep-key": DEEP}[fault])]
    elif fault in ("deep-entry", "bad-entry", "non-finite"):
        bad = {"deep-entry": [DEEP], "bad-entry": ["true", "null", '"1.0"', "[1.0]"],
               "non-finite": ["NaN", "Infinity", "-Infinity", "1e39", "7" * 400]}[fault]
        entries[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(bad))
    elif fault == "bracket-id":
        members[0] = ("id", json.dumps(page + "[" * 65))
    elif fault == "empty":
        entries = []
    elif fault == "non-object":
        return draw(st.sampled_from(["[1.0]\n", "1\n", '"p"\n', "null\n"]))
    elif fault == "blank":
        return draw(st.sampled_from(["\n", "  \n", ""]))
    elif fault == "embedding-twice":
        members.insert(0, ("embedding", draw(st.sampled_from([DEEP, "[1.0]", "true"]))))
    elif fault == "deep-id-twice":
        members.insert(0, ("id", DEEP))
    elif fault == "quoted-id":
        members[0] = ("id", json.dumps(page + '"'))
    elif fault == "no-id":
        members.pop(0)
    members = draw(st.permutations(members))
    embedding = "[" + ", ".join(entries) + "]"
    return "{" + ", ".join(f'"{key}": {embedding if value is None else value}' for key, value in members) + "}\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), dim=st.integers(1, 4), count=st.integers(1, 5))
def test_flat_page_lines_read_as_json_loads_reads(data, dim, count):
    """Page files mixing lines the flat path takes with lines it must leave
    to json.loads give the referee's records, bit for bit, or its message."""
    lines = [data.draw(page_line(dim)) for _ in range(count)]

    def records():
        return [(rid, vec.dtype, vec.tobytes()) for rid, vec in parse_embedding_jsonl(lines)]

    got, want = read_both_ways(records)
    assert got == want, lines


#: Embeddings on the edge of the flat path's bool check: bools at the first,
#: a middle and the last position; ints on float32 and float64 rounding
#: edges or past 64 bits; and the entries struct refuses.
BOUNDARY_ROWS = [
    "[true, 1.0, 2.0]", "[1.0, true, 2.0]", "[1.0, 2.0, true]",
    "[false, 1.0, 2.0]", "[1.0, false, 2.0]", "[1.0, 2.0, false]", "[true]", "[false]",
    "[1, 2, 3]", "[9223372036854775808, -9223372036854775808, 18446744073709551617]",
    "[1180591691086155481089, -0, 1E+2]", "[1.5, 2, 5e-324]", "[-0, 1.0, 2.4703282292062327e-324]",
    "[1.0, null, 2.0]", '[1.0, "1.0", 2.0]', "[1.0, [1.0], 2.0]",
]


def boundary_line(row: str, page: str, layout: str) -> str:
    member = {"id": f'"id": {json.dumps(page)}', "embedding": f'"embedding": {row}'}
    if layout == "id-first":
        return f'{{{member["id"]}, {member["embedding"]}}}\n'
    if layout == "embedding-first":
        return f'{{{member["embedding"]}, {member["id"]}}}\n'
    # "page" holds no t or f, so its "]" stretches the span without adding one.
    return f'{{{member["id"]}, {member["embedding"]}, "page": "x]"}}\n'


@pytest.mark.parametrize("layout", ["id-first", "embedding-first", "string-after"])
@pytest.mark.parametrize("row", BOUNDARY_ROWS)
def test_flat_path_bool_boundary(row, layout):
    """A bool anywhere in the embedding is refused as json.loads's reader
    refuses it, and every number gives the referee's bits, whatever the id
    holds and wherever the embedding sits."""
    for page in ["p1", *EDGE_IDS]:
        line = boundary_line(row, page, layout)
        got, want = read_both_ways(lambda: [(rid, v.tobytes()) for rid, v in parse_embedding_jsonl([line])])
        assert got == want, line


@pytest.mark.parametrize(
    "line, scanned",
    [
        ('{"id": "p1", "embedding": [1.0, 2, -0.5e-3]}\n', False),
        ('{"embedding": [1, 2, 3], "id": "p1"}\n', False),
        ('{"id": "p[", "embedding": [1.0, 2.0]}\n', False),  # no t or f in the span
        ('{"id": "p1", "embedding": [1.0, 2.0], "page": "x]"}\n', False),
        ('{"id": "[t", "embedding": [1.0, 2.0]}\n', True),
        ('{"embedding": [1.0, 2.0], "id": "f]"}\n', True),
        ('{"id": "p1", "embedding": [1.0, 2.0], "meta": "x]"}\n', True),
        ('{"id": "p1", "embedding": [1.0, true]}\n', True),
    ],
)
def test_type_scan_runs_only_with_t_or_f_in_the_span(line, scanned):
    calls = []
    scan = store.finite_vector
    with mock.patch.object(store, "finite_vector", lambda *args: calls.append(args) or scan(*args)):
        try:
            parse_embedding_jsonl([line])
        except ComretError:
            pass
    assert bool(calls) == scanned


def id_fault(bad: str) -> str:
    return "an unpaired surrogate" if "\ud800" in bad else "a tab or a line break"


class TestIdsAreTsvSafe:
    @pytest.mark.parametrize("bad", ["p\t1", "p\n1", "p\r1", "p\ud8001"])
    def test_page_id_rejected(self, bad):
        line = json.dumps({"id": bad, "embedding": [1.0]}) + "\n"
        with pytest.raises(ComretError, match=f'^line 1: "id" contains {id_fault(bad)}$'):
            parse_embedding_jsonl([line])

    @pytest.mark.parametrize("bad", ["q\t1", "q\n1", "q\r1", "q\ud8001"])
    def test_query_id_rejected(self, bad):
        line = json.dumps({"query_id": bad, "embeddings": {"image-query": [1.0]}}) + "\n"
        with pytest.raises(ComretError, match=f'^line 1: "query_id" contains {id_fault(bad)}$'):
            parse_query_jsonl([line])


class TestBuildIndex:
    def test_aligned_by_image_order(self):
        idx = make_index([[1, 0], [0, 1]], [[0, 1], [1, 0]])
        assert idx.page_count == 2 and idx.dim == 2
        assert idx.images.ids == idx.texts.ids == ("p1", "p2")

    def test_text_rows_reordered_to_image_ids(self):
        images = [("a", np.array([1, 0], np.float32)), ("b", np.array([0, 1], np.float32))]
        texts = [("b", np.array([2, 2], np.float32)), ("a", np.array([3, 3], np.float32))]
        idx = build_index(images, texts)
        np.testing.assert_array_equal(idx.texts.data[0], np.array([3, 3], np.float32))

    def test_normalize_scales_to_unit_norm(self):
        idx = make_index([[3.0, 4.0]], [[1.0, 0.0]], normalize=True)
        np.testing.assert_allclose(idx.images.data[0], [0.6, 0.8], rtol=1e-6)

    def test_id_set_mismatch(self):
        images = [("p1", np.ones(2, np.float32)), ("p7", np.ones(2, np.float32))]
        texts = [("p1", np.ones(2, np.float32))]
        with pytest.raises(ComretError, match="^ids present on one side only: p7$"):
            build_index(images, texts)

    def test_id_set_mismatch_names_five_ids(self):
        images = [(f"p{i}", np.ones(2, np.float32)) for i in range(9)]
        with pytest.raises(ComretError, match=r"^ids present on one side only: p2, p3, p4, p5, p6 \(\+2 more\)$"):
            build_index(images, images[:2])

    def test_zero_vector_on_normalize(self):
        with pytest.raises(ComretError, match="^images id 'p1': cannot L2-normalize zero vector$"):
            make_index([[0.0, 0.0]], [[1.0, 0.0]], normalize=True)

    def test_duplicate_id_rejected(self):
        images = [("p1", np.ones(2, np.float32)), ("p1", np.zeros(2, np.float32))]
        texts = [("p1", np.ones(2, np.float32)), ("p1", np.zeros(2, np.float32))]
        with pytest.raises(ComretError, match="^images: duplicate id 'p1'$"):
            build_index(images, texts)

    def test_modality_dim_mismatch_rejected(self):
        images = [("p1", np.ones(4, np.float32))]
        texts = [("p1", np.ones(5, np.float32))]
        with pytest.raises(ComretError, match="^texts vs images: expected dim 4, got 5$"):
            build_index(images, texts)

    def test_normalization_property(self, rng):
        rows = rng.standard_normal((20, 7)).astype(np.float32)
        idx = make_index(rows.tolist(), rows.tolist(), normalize=True)
        norms = np.linalg.norm(idx.images.data.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    @pytest.mark.parametrize("channel", ["images", "texts"])
    def test_row_of_another_length_names_its_channel_and_id(self, channel):
        good = [(pid, np.ones(3, np.float32)) for pid in ("p1", "p2", "p3")]
        bad = [good[0], ("p2", np.ones(4, np.float32)), good[2]]
        images, texts = (bad, good[::-1]) if channel == "images" else (good, bad[::-1])
        with pytest.raises(ComretError, match=rf"^{channel} id 'p2': expected dim 3, got 4$"):
            build_index(images, texts)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_packed_bits_equal_stacked_rows(self, rng, dtype, normalize):
        """Rows of any dtype are cast as ``np.stack(rows).astype(float32)``
        casts them, then normalized per row in float64."""
        pages, dim = 150, 33  # more rows than one normalize block, and a partial last block
        ids = [f"p{i}" for i in range(pages)]
        if dtype == np.int64:
            image_rows, text_rows = rng.integers(-(2**40), 2**40, (2, pages, dim))
        else:
            image_rows, text_rows = (rng.standard_normal((2, pages, dim)) * 1e3).astype(dtype)
        order = rng.permutation(pages)
        before = threading.active_count()
        index = build_index(
            list(zip(ids, image_rows)), [(ids[i], text_rows[i]) for i in order], normalize=normalize
        )
        assert threading.active_count() == before
        for rows, packed in ((image_rows, index.images), (text_rows, index.texts)):
            expected = np.stack(list(rows)).astype(np.float32)
            if normalize:
                wide = expected.astype(np.float64)
                expected = (wide / np.linalg.norm(wide, axis=1)[:, None]).astype(np.float32)
            assert packed.data.dtype == np.float32 and packed.data.tobytes() == expected.tobytes()
            assert packed.ids == tuple(ids)

    @pytest.mark.parametrize("channel", ["images", "texts"])
    def test_duplicate_named(self, channel):
        """Either channel names the first id seen a second time."""

        def records(ids):
            return [(pid, np.ones(2, np.float32)) for pid in ids]

        repeated, once = records(["p1", "p2", "p2", "p1"]), records(["p1", "p2"])
        images, texts = (repeated, once) if channel == "images" else (once, repeated)
        with pytest.raises(ComretError, match=f"^{channel}: duplicate id 'p2'$"):
            build_index(images, texts)


#: build_index's checks, in the order in which their errors win.
BUILD_FAULTS = {
    "empty": "need at least one image and one text record",
    "id-sets": "ids present on one side only: p4, p9",
    "dims": "texts vs images: expected dim 3, got 5",
    "images-dup": "images: duplicate id 'p2'",
    "images-shape": "images id 'p3': expected dim 3, got 4",
    "images-zero": "images id 'p4': cannot L2-normalize zero vector",
    "texts-dup": "texts: duplicate id 'p1'",
    "texts-shape": "texts id 'p4': expected dim 3, got 4",
    "texts-zero": "texts id 'p3': cannot L2-normalize zero vector",
}


def faulty_records(faults):
    """Image and text records of pages p1-p4 holding the named faults."""
    ids = ["p1", "p2", "p3", "p4"]
    rows = {channel: [[pid, np.ones(3, np.float32)] for pid in ids] for channel in ("images", "texts")}
    for channel, dup, shape, zero in (("images", "p2", 2, 3), ("texts", "p1", 3, 2)):
        if f"{channel}-shape" in faults:
            rows[channel][shape][1] = np.ones(4, np.float32)
        if f"{channel}-zero" in faults:
            rows[channel][zero][1] = np.zeros(3, np.float32)
        if f"{channel}-dup" in faults:
            rows[channel].append([dup, np.ones(3, np.float32)])
    if "dims" in faults:
        rows["texts"][0][1] = np.ones(5, np.float32)
    if "id-sets" in faults:
        rows["texts"][3][0] = "p9"
    if "empty" in faults:
        rows["images"] = []
    return [tuple(r) for r in rows["images"]], [tuple(r) for r in rows["texts"]]


@pytest.mark.parametrize(
    "first, later",
    [pytest.param(a, b, id=f"{a}-over-{b}") for a, b in itertools.combinations(BUILD_FAULTS, 2)],
)
def test_build_errors_win_in_order(first, later):
    """Each channel is packed in its own thread, yet the error raised is
    the one a sequential build would raise first."""
    images, texts = faulty_records({first, later})
    with pytest.raises(ComretError) as err:
        build_index(images, texts, normalize=True)
    assert str(err.value) == BUILD_FAULTS[first]


@pytest.mark.parametrize("fault", BUILD_FAULTS)
def test_each_build_fault_alone(fault):
    images, texts = faulty_records({fault})
    with pytest.raises(ComretError) as err:
        build_index(images, texts, normalize=True)
    assert str(err.value) == BUILD_FAULTS[fault]


class FullDisk:
    """A file whose second write fails, as on a full disk."""

    def __init__(self, name, mode):
        self.name, self.fh, self.writes = str(name), open(name, mode), 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, raw):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device", self.name)
        return self.fh.write(raw)


def read_cmeb(path):
    """One .cmeb file's (ids, rows), read and checked as load_index reads each file."""
    data, footer = store._map_payload(path)
    return store._decode_ids(path, footer, len(data)), data


def hand_built(images, texts=None):
    """An index directory built by hand, as save_index accepts one."""
    return IndexDirectory(images=images, texts=texts or images)


def error_at(path, message):
    """The match pattern of ``message`` raised for the file at ``path``."""
    return f"^{re.escape(f'{path}: {message}')}$"


class TestMatrixRoundTrip:
    def test_save_load_bit_exact(self, tmp_path, rng):
        idx = make_index(rng.standard_normal((2, 3)).tolist(), rng.standard_normal((2, 3)).tolist())
        save_index(idx, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.images.ids == idx.images.ids
        assert loaded.images.data.tobytes() == idx.images.data.tobytes()
        assert loaded.texts.data.tobytes() == idx.texts.data.tobytes()
        assert (loaded.page_count, loaded.dim) == (2, 3)

    @pytest.mark.parametrize("distinct", [False, True], ids=["shared-ids", "equal-distinct-ids"])
    def test_footer_built_once_for_shared_ids(self, tmp_path, monkeypatch, rng, distinct):
        built = make_index(rng.standard_normal((3, 2)).tolist(), rng.standard_normal((3, 2)).tolist())
        texts = PackedMatrix(ids=tuple(list(built.ids)), data=built.texts.data) if distinct else built.texts
        footer = store._footer
        calls = []
        monkeypatch.setattr(store, "_footer", lambda matrix, path: calls.append(path.name) or footer(matrix, path))
        save_index(IndexDirectory(images=built.images, texts=texts), tmp_path)
        assert calls == (["images.cmeb", "texts.cmeb"] if distinct else ["images.cmeb"])
        loaded = load_index(tmp_path)
        assert loaded.images.ids == loaded.texts.ids == built.ids
        assert loaded.images.data.tobytes() == built.images.data.tobytes()
        assert loaded.texts.data.tobytes() == built.texts.data.tobytes()

    def test_round_trip_property(self, tmp_path, rng):
        for trial in range(10):
            pages = int(rng.integers(1, 12))
            dim = int(rng.integers(1, 9))
            idx = make_index(
                rng.standard_normal((pages, dim)).tolist(),
                rng.standard_normal((pages, dim)).tolist(),
                ids=[f"page/{trial}/{i}" for i in range(pages)],
            )
            save_index(idx, tmp_path / f"m{trial}")
            back = load_index(tmp_path / f"m{trial}")
            assert back.images.ids == back.texts.ids == idx.images.ids
            assert back.images.data.tobytes() == idx.images.data.tobytes()
            assert back.texts.data.tobytes() == idx.texts.data.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cmeb"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ComretError, match=error_at(path, "bad magic b'NOPE'")):
            read_cmeb(path)

    def test_unsupported_version(self, tmp_path, rng):
        save_index(make_index([[1.0]], [[1.0]]), tmp_path)
        path = tmp_path / "images.cmeb"
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ComretError, match=error_at(path, "unsupported format version 9")):
            load_index(tmp_path)

    def test_truncated_payload(self, tmp_path):
        save_index(make_index([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]]), tmp_path)
        path = tmp_path / "images.cmeb"
        full = path.read_bytes()
        path.write_bytes(full[: 4 + 16 + 5])  # mid-matrix
        with pytest.raises(ComretError, match=error_at(path, "header claims 1 rows of dim 3, more than the file holds")):
            load_index(tmp_path)
        # A header claiming 10**12 rows must not try to allocate them.
        path.write_bytes(full[:12] + struct.pack("<Q", 10**12) + full[20:])
        message = f"header claims {10**12} rows of dim 3, more than the file holds"
        with pytest.raises(ComretError, match=error_at(path, message)):
            load_index(tmp_path)

    def test_row_count_beyond_footer(self, tmp_path):
        # dim 0: no payload, but 2**64 - 1 rows cannot fit their ids.
        path = tmp_path / "rows.cmeb"
        path.write_bytes(MAGIC + struct.pack("<IIQ", 2, 0, 2**64 - 1) + struct.pack("<Q", 0))
        message = f"header claims {2**64 - 1} rows of dim 0, more than the file holds"
        with pytest.raises(ComretError, match=error_at(path, message)):
            read_cmeb(path)

    def test_truncated_footer(self, tmp_path):
        save_index(make_index([[1.0]], [[1.0]], ids=["a-long-page-id"]), tmp_path)
        path = tmp_path / "images.cmeb"
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ComretError, match=error_at(path, "file ended while reading id bytes")):
            load_index(tmp_path)

    def test_save_over_a_loaded_index_leaves_it_intact(self, tmp_path, rng):
        first, second = random_index(rng, 40, 8), random_index(rng, 30, 8)
        save_index(first, tmp_path)
        loaded = load_index(tmp_path)
        save_index(second, tmp_path)
        assert loaded.images.data.tobytes() == first.images.data.tobytes()
        assert loaded.texts.data.tobytes() == first.texts.data.tobytes()
        reloaded = load_index(tmp_path)
        assert reloaded.ids == second.ids
        assert reloaded.images.data.tobytes() == second.images.data.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["images.cmeb", "texts.cmeb"]

    @pytest.mark.parametrize(
        "manifest",
        ['{"dim": 8, "M": 40}', '{"dim": 3, "M": 7, "normalize": true}', "{not json"],
        ids=["fits-the-old-index", "other-dim-M", "not-json"],
    )
    def test_save_over_an_older_manifest_ignores_it(self, tmp_path, monkeypatch, rng, manifest):
        # A directory written by an older version also holds a manifest.json.
        save_index(random_index(rng, 40, 8), tmp_path)
        (tmp_path / "manifest.json").write_text(manifest)
        new = random_index(rng, 30, 8)
        opened = []

        def recording_open(name, mode):
            opened.append(os.path.basename(name))
            return open(name, mode)

        monkeypatch.setattr(store, "open", recording_open, raising=False)
        save_index(new, tmp_path)
        monkeypatch.undo()
        assert sorted(opened) == [f".images.cmeb.{os.getpid()}.tmp", f".texts.cmeb.{os.getpid()}.tmp"]
        assert (tmp_path / "manifest.json").read_text() == manifest
        loaded = load_index(tmp_path)
        assert loaded.ids == new.ids
        assert loaded.images.data.tobytes() == new.images.data.tobytes()
        assert loaded.texts.data.tobytes() == new.texts.data.tobytes()

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        save_index(make_index([[1.0, 2.0]], [[1.0, 2.0]]), tmp_path)
        old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(store, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_index(make_index([[3.0, 4.0]] * 2, [[3.0, 4.0]] * 2), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old
        assert sorted(old) == ["images.cmeb", "texts.cmeb"]

    def test_save_index_writes_the_documented_layout(self, tmp_path, rng):
        pages, dim = 150, 9
        index = random_index(rng, pages, dim)
        before = threading.active_count()
        save_index(index, tmp_path)
        assert threading.active_count() == before
        for matrix, name in ((index.images, "images.cmeb"), (index.texts, "texts.cmeb")):
            ids = "\n".join(matrix.ids).encode("utf-8")
            header = b"CMEB" + struct.pack("<IIQ", 2, dim, pages)
            expected = header + matrix.data.astype("<f4").tobytes() + struct.pack("<Q", len(ids)) + ids
            assert (tmp_path / name).read_bytes() == expected

    def test_both_writes_failing_raise_the_images_error(self, tmp_path, monkeypatch, rng):
        texts_failed = threading.Event()

        class ImagesFailLast(FullDisk):
            """Fails as FullDisk does, the texts file before the images file."""

            def write(self, raw):
                try:
                    return super().write(raw)
                except OSError:
                    if "texts" in self.name:
                        texts_failed.set()
                    else:
                        assert texts_failed.wait(timeout=10)
                    raise

        monkeypatch.setattr(store, "open", ImagesFailLast, raising=False)
        with pytest.raises(OSError, match="No space left") as err:
            save_index(random_index(rng, 4, 3), tmp_path)
        assert err.value.filename == str(tmp_path / f".images.cmeb.{os.getpid()}.tmp")
        assert list(tmp_path.iterdir()) == []  # no temporary sibling, no texts.cmeb

    @pytest.mark.parametrize("ids", [("p1", "p2", "p3"), ("q1", "q2", "q3")], ids=["same-ids", "other-ids"])
    def test_failed_save_leaves_the_old_index_whole(self, tmp_path, monkeypatch, rng, ids):
        old = random_index(rng, 3, 4)
        rows = rng.standard_normal((2, 3, 4)).tolist()
        new = make_index(rows[0], rows[1], ids=list(ids))
        save_index(old, tmp_path)

        class TextsDiskFull(FullDisk):
            def write(self, raw):
                return super().write(raw) if "texts" in self.name else self.fh.write(raw)

        monkeypatch.setattr(store, "open", TextsDiskFull, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_index(new, tmp_path)
        monkeypatch.undo()
        loaded = load_index(tmp_path)
        assert loaded.images.ids == loaded.texts.ids == old.ids
        assert loaded.images.data.tobytes() == old.images.data.tobytes()
        assert loaded.texts.data.tobytes() == old.texts.data.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["images.cmeb", "texts.cmeb"]

    def test_version_2_layout(self, tmp_path):
        ids = ["page-a", "página-β"]
        matrix = PackedMatrix(ids=tuple(ids), data=np.arange(4, dtype=np.float32).reshape(2, 2))
        save_index(hand_built(matrix), tmp_path)
        for name in ("images.cmeb", "texts.cmeb"):
            assert (tmp_path / name).read_bytes() == valid_cmeb(2, 2, ids)

    def test_last_id_short_by_one_byte_is_truncated(self, tmp_path):
        save_index(make_index([[1.0]] * 2, [[1.0]] * 2, ids=["page-b", "page-a"]), tmp_path)
        path = tmp_path / "images.cmeb"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ComretError, match=error_at(path, "file ended while reading id bytes")):
            load_index(tmp_path)

    @pytest.mark.parametrize(
        "block, message",
        [
            pytest.param(b"a\nb\nc", "the footer holds 3 ids for 2 rows", id="one-id-too-many"),
            pytest.param(b"abc", "the footer holds 1 ids for 2 rows", id="one-id-too-few"),
            pytest.param(b"ab\n", "id of row 1 is empty", id="empty-last-id"),
            pytest.param(b"\nab", "id of row 0 is empty", id="empty-first-id"),
        ],
    )
    def test_footer_must_split_into_one_id_per_row(self, tmp_path, block, message):
        path = tmp_path / "m.cmeb"
        path.write_bytes(cmeb_head(2, 1) + struct.pack("<Q", len(block)) + block)
        with pytest.raises(ComretError, match=error_at(path, message)):
            read_cmeb(path)

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_non_utf8_id_names_its_row(self, tmp_path, row):
        ids = [b"page-a", b"page-b", b"page-c"]
        ids[row] = ids[row][:2] + b"\xff" + ids[row][3:]
        block = b"\n".join(ids)
        path = tmp_path / "m.cmeb"
        path.write_bytes(cmeb_head(3, 1) + struct.pack("<Q", len(block)) + block)
        with pytest.raises(ComretError, match=error_at(path, f"id of row {row} is not valid UTF-8")):
            read_cmeb(path)

    @pytest.mark.parametrize(
        "ids, reason",
        [
            pytest.param(("a", ""), "is empty or holds a tab or a line break", id="empty"),
            pytest.param(("a", "b\nc"), "is empty or holds a tab or a line break", id="line-break"),
            pytest.param(("a", "b\tc"), "is empty or holds a tab or a line break", id="tab"),
            pytest.param(("a", "b\r"), "is empty or holds a tab or a line break", id="carriage-return"),
            pytest.param(("a", 2), "is not a string", id="int"),
            pytest.param(("a", "\ud800"), "holds an unpaired surrogate", id="surrogate"),
        ],
    )
    def test_write_rejects_an_id_the_footer_cannot_hold(self, tmp_path, rng, ids, reason):
        # Ids a library caller chose, which ingest refuses: the old index stays whole.
        old = random_index(rng, 3, 4)
        save_index(old, tmp_path)
        matrix = PackedMatrix(ids=ids, data=np.ones((2, 3), dtype=np.float32))
        good = PackedMatrix(ids=("a", "b"), data=matrix.data)
        with pytest.raises(ComretError, match=error_at(tmp_path / "texts.cmeb", f"id of row 1 {reason}")):
            save_index(hand_built(good, matrix), tmp_path)
        loaded = load_index(tmp_path)
        assert loaded.ids == old.ids
        assert loaded.images.data.tobytes() == old.images.data.tobytes()
        assert loaded.texts.data.tobytes() == old.texts.data.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["images.cmeb", "texts.cmeb"]

    def test_write_rejects_ids_unlike_the_rows(self, tmp_path):
        matrix = PackedMatrix(ids=("a", "b", "c"), data=np.ones((2, 3), dtype=np.float32))
        with pytest.raises(ComretError, match=error_at(tmp_path / "images.cmeb", "3 ids for 2 rows")):
            save_index(hand_built(matrix), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_unicode_ids_round_trip(self, tmp_path):
        save_index(make_index([[1.0]], [[1.0]], ids=["página-β"]), tmp_path)
        assert load_index(tmp_path).images.ids == ("página-β",)


def cmeb_head(rows, dim):
    """A version-2 header and payload, without the id footer."""
    return MAGIC + struct.pack("<IIQ", 2, dim, rows) + np.arange(rows * dim, dtype="<f4").tobytes()


def valid_cmeb(rows, dim, ids):
    footer = "\n".join(ids).encode()
    return cmeb_head(rows, dim) + struct.pack("<Q", len(footer)) + footer


@st.composite
def damaged_cmeb(draw):
    """A valid file, then truncated, with a flipped header or footer byte,
    or with extra bytes at the end."""
    rows, dim = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    id_text = st.text(st.characters(codec="utf-8", exclude_characters="\n"), min_size=1, max_size=3)
    ids = draw(st.lists(id_text, min_size=rows, max_size=rows))
    raw = bytearray(valid_cmeb(rows, dim, ids))
    damage = draw(st.sampled_from(["none", "truncate", "flip-header", "flip-footer", "extend"]))
    if damage == "truncate":
        del raw[draw(st.integers(0, len(raw) - 1)) :]
    elif damage == "flip-header":
        raw[draw(st.integers(0, 19))] ^= draw(st.integers(1, 255))
    elif damage == "flip-footer" and len(raw) > 20 + rows * dim * 4:
        raw[draw(st.integers(20 + rows * dim * 4, len(raw) - 1))] ^= draw(st.integers(1, 255))
    elif damage == "extend":
        raw += draw(st.binary(min_size=1, max_size=8))
    return bytes(raw)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=64) | damaged_cmeb())
@example(raw=MAGIC + struct.pack("<IIQ", 2, 0, 2**64 - 1) + struct.pack("<Q", 0))
def test_fuzzed_cmeb_reads_or_raises_comret_error(tmp_path, raw):
    path = tmp_path / "fuzz.cmeb"
    path.write_bytes(raw)
    try:
        ids, data = read_cmeb(path)
    except ComretError:
        return
    assert data.shape[0] == len(ids)
    assert data.dtype == np.float32 and not data.flags.writeable


class TestLoadIndexChecks:
    def test_both_matrices_bad_reports_images(self, tmp_path):
        save_index(make_index([[1.0, 2.0]], [[1.0, 2.0]]), tmp_path)
        (tmp_path / "images.cmeb").write_bytes(b"NOPE" + b"\x00" * 32)
        (tmp_path / "texts.cmeb").write_bytes(b"CMEB")
        with pytest.raises(ComretError, match=error_at(tmp_path / "images.cmeb", "bad magic b'NOPE'")):
            load_index(tmp_path)

    def test_images_bad_magic_wins_over_truncated_texts(self, tmp_path):
        save_index(make_index([[1.0, 2.0]], [[1.0, 2.0]], ids=["page-a"]), tmp_path)
        (tmp_path / "images.cmeb").write_bytes(b"NOPE" + b"\x00" * 32)
        texts = tmp_path / "texts.cmeb"
        texts.write_bytes(texts.read_bytes()[:-2])
        with pytest.raises(ComretError, match=error_at(tmp_path / "images.cmeb", "bad magic b'NOPE'")):
            load_index(tmp_path)

    def test_images_bad_id_wins_over_truncated_texts(self, tmp_path):
        save_index(make_index([[1.0, 2.0]], [[1.0, 2.0]], ids=["page-a"]), tmp_path)
        images, texts = tmp_path / "images.cmeb", tmp_path / "texts.cmeb"
        images.write_bytes(images.read_bytes()[:-1] + b"\xff")
        texts.write_bytes(texts.read_bytes()[:-2])
        with pytest.raises(ComretError, match=r"images\.cmeb: id of row 0 is not valid UTF-8$"):
            load_index(tmp_path)

    def test_non_utf8_id_in_texts_named_as_texts(self, tmp_path):
        save_index(make_index([[1.0, 2.0]] * 2, [[1.0, 2.0]] * 2, ids=["page-a", "page-b"]), tmp_path)
        texts = tmp_path / "texts.cmeb"
        texts.write_bytes(texts.read_bytes()[:-1] + b"\xff")
        with pytest.raises(ComretError, match=r"texts\.cmeb: id of row 1 is not valid UTF-8$"):
            load_index(tmp_path)

    def test_texts_footer_with_trailing_bytes_loads(self, tmp_path):
        save_index(make_index([[1.0, 2.0]] * 2, [[1.0, 2.0]] * 2, ids=["page-a", "page-b"]), tmp_path)
        texts = tmp_path / "texts.cmeb"
        texts.write_bytes(texts.read_bytes() + b"\x00\xffextra")
        index = load_index(tmp_path)
        assert index.texts.ids == index.images.ids == ("page-a", "page-b")

    def test_matching_footers_decoded_once(self, tmp_path, monkeypatch):
        save_index(make_index([[1.0, 2.0]] * 3, [[1.0, 2.0]] * 3, ids=["a", "b", "c"]), tmp_path)

        decoded = []
        decode_ids = store._decode_ids

        def spy(path, footer, count):
            decoded.append(path.name)
            return decode_ids(path, footer, count)

        monkeypatch.setattr(store, "_decode_ids", spy)
        index = load_index(tmp_path)
        assert decoded == ["images.cmeb"]
        assert index.texts.ids is index.images.ids

    def test_mapped_arrays_are_read_only_float32_views(self, tmp_path, rng):
        pages, dim = 5, 7
        save_index(random_index(rng, pages, dim), tmp_path)
        index = load_index(tmp_path)
        for matrix, name in ((index.images, "images.cmeb"), (index.texts, "texts.cmeb")):
            assert matrix.data.dtype == np.float32 and matrix.data.shape == (pages, dim)
            assert matrix.data.flags.c_contiguous and not matrix.data.flags.writeable
            expected = np.fromfile(tmp_path / name, dtype="<f4", count=pages * dim, offset=20)
            assert matrix.data.tobytes() == expected.astype(np.float32).tobytes()

    def test_only_texts_bad_reports_texts(self, tmp_path):
        save_index(make_index([[1.0, 2.0]], [[1.0, 2.0]]), tmp_path)
        (tmp_path / "texts.cmeb").write_bytes(b"CMEB")
        with pytest.raises(ComretError, match=error_at(tmp_path / "texts.cmeb", "file ended while reading header")):
            load_index(tmp_path)

    def test_modality_dims_must_agree(self, tmp_path):
        save_index(make_index([[1.0, 2.0]], [[1.0, 2.0]]), tmp_path)
        (tmp_path / "texts.cmeb").write_bytes(valid_cmeb(1, 3, ["p1"]))
        with pytest.raises(ComretError, match="^texts vs images: expected dim 2, got 3$"):
            load_index(tmp_path)

    def test_ids_on_one_side_only_named(self, tmp_path):
        save_index(make_index([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]), tmp_path)
        (tmp_path / "texts.cmeb").write_bytes(valid_cmeb(2, 2, ["p1", "p9"]))
        with pytest.raises(ComretError, match="^ids present on one side only: p2, p9$"):
            load_index(tmp_path)

    def test_reordered_rows_named_as_such(self, tmp_path):
        index = make_index([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
        save_index(index, tmp_path)
        (tmp_path / "texts.cmeb").write_bytes(valid_cmeb(2, 2, index.ids[::-1]))
        message = f"{tmp_path}: texts.cmeb holds the ids of images.cmeb in a different row order"
        with pytest.raises(ComretError, match=f"^{re.escape(message)}$"):
            load_index(tmp_path)

    def test_zero_page_index_refused(self, tmp_path):
        # save_index refuses an index of no pages, so its files are written by hand.
        for name in ("images.cmeb", "texts.cmeb"):
            (tmp_path / name).write_bytes(valid_cmeb(0, 2, []))
        with pytest.raises(ComretError, match="the index holds no pages$"):
            load_index(tmp_path)

    def test_hand_built_zero_page_index_refused(self, tmp_path):
        save_index(make_index([[1.0, 2.0]], [[1.0, 2.0]]), tmp_path)
        empty = MAGIC + struct.pack("<IIQ", 2, 2, 0) + struct.pack("<Q", 0)
        (tmp_path / "images.cmeb").write_bytes(empty)
        (tmp_path / "texts.cmeb").write_bytes(empty)
        with pytest.raises(ComretError, match="the index holds no pages$"):
            load_index(tmp_path)

    @pytest.mark.parametrize("char", ["\t", "\r"], ids=["tab", "carriage-return"])
    @pytest.mark.parametrize("name", ["images.cmeb", "texts.cmeb"])
    def test_id_holding_a_tab_or_cr_refused(self, tmp_path, name, char):
        # A texts footer like the images one is not decoded, so a bad
        # texts id is only found in a footer that differs.
        bad = ["p0", f"p{char}1", "p2"]
        images = bad if name == "images.cmeb" else ["p0", "p1", "p2"]
        (tmp_path / "images.cmeb").write_bytes(valid_cmeb(3, 2, images))
        (tmp_path / "texts.cmeb").write_bytes(valid_cmeb(3, 2, bad))
        with pytest.raises(ComretError, match=error_at(tmp_path / name, "id of row 1 holds a tab or a CR")):
            load_index(tmp_path)


class TestSaveIndexAgreement:
    """save_index refuses, before it writes a byte, every index whose files
    load_index would refuse to pair, with load_index's message."""

    ROWS = np.arange(6, dtype=np.float32).reshape(3, 2)
    GOOD = PackedMatrix(ids=("a", "b", "c"), data=ROWS)
    EMPTY = PackedMatrix(ids=(), data=np.empty((0, 2), dtype=np.float32))

    @pytest.mark.parametrize(
        "images, texts, message",
        [
            pytest.param(
                GOOD, PackedMatrix(ids=("c", "b", "a"), data=ROWS),
                "{root}: texts.cmeb holds the ids of images.cmeb in a different row order", id="texts-reordered",
            ),
            pytest.param(
                GOOD, PackedMatrix(ids=("a", "b", "z"), data=ROWS),
                "ids present on one side only: c, z", id="texts-other-ids",
            ),
            pytest.param(
                GOOD, PackedMatrix(ids=GOOD.ids, data=np.ones((3, 5), dtype=np.float32)),
                "texts vs images: expected dim 2, got 5", id="texts-other-dim",
            ),
            pytest.param(
                GOOD, PackedMatrix(ids=GOOD.ids, data=ROWS[:2]),
                "{root}/texts.cmeb: 3 ids for 2 rows", id="texts-shared-ids-fewer-rows",
            ),
            pytest.param(EMPTY, EMPTY, "{root}: the index holds no pages", id="zero-pages"),
        ],
    )
    def test_refused_index_leaves_the_old_one_loadable(self, tmp_path, rng, images, texts, message):
        old = random_index(rng, 4, 3)
        save_index(old, tmp_path)
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ComretError, match=f"^{re.escape(message.format(root=tmp_path))}$"):
            save_index(IndexDirectory(images=images, texts=texts), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files
        loaded = load_index(tmp_path)
        assert loaded.ids == old.ids
        assert loaded.images.data.tobytes() == old.images.data.tobytes()
        assert loaded.texts.data.tobytes() == old.texts.data.tobytes()

    def test_refused_index_creates_no_directory(self, tmp_path):
        with pytest.raises(ComretError, match="the index holds no pages$"):
            save_index(hand_built(self.EMPTY), tmp_path / "new")
        assert list(tmp_path.iterdir()) == []


class TestParseQueryJsonl:
    def test_full_record(self):
        line = (
            '{"query_id":"q1","text":"what is shown?",'
            '"embeddings":{"image-query":[1.0,0.0],"text-query":[0.0,1.0]},"gold":["p1"]}\n'
        )
        (q,) = parse_query_jsonl([line])
        assert q.query_id == "q1"
        assert q.channel("image-query") is not None

    def test_returns_readonly_float32(self):
        (q,) = parse_query_jsonl(['{"query_id":"q1","embeddings":{"image-query":[1, 2.5, 3.0]}}\n'])
        vec = q.channel("image-query")
        assert vec.dtype == np.float32 and not vec.flags.writeable
        assert vec.tobytes() == np.array([1.0, 2.5, 3.0], dtype=np.float32).tobytes()

    def test_rejects_nan(self):
        with pytest.raises(ComretError, match="^non-finite value in line 1 channel 'image-query'$"):
            parse_query_jsonl(['{"query_id":"q1","embeddings":{"image-query":[1.0,NaN]}}\n'])

    @pytest.mark.parametrize("value", [pytest.param(10**400, id="big-int"), 1e39, float("inf")])
    def test_rejects_values_beyond_float32_without_a_warning(self, value):
        line = json.dumps({"query_id": "q1", "embeddings": {"image-query": [value, 1.0]}}) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ComretError, match="^non-finite value in line 1 channel 'image-query'$"):
                parse_query_jsonl([line])

    def test_rejects_empty(self):
        with pytest.raises(ComretError, match="^line 1: missing or empty channel 'image-query' array$"):
            parse_query_jsonl(['{"query_id":"q1","embeddings":{"image-query":[]}}\n'])

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param({"gold": "p1"}, id="gold-not-a-list"),
            pytest.param({"gold": ["p1", 2]}, id="gold-id-not-a-string"),
            pytest.param({"text": 3}, id="text-not-a-string"),
        ],
    )
    def test_invalid_text_or_gold_rejected(self, extra):
        line = json.dumps({"query_id": "q1", "embeddings": {"image-query": [1.0]}, **extra}) + "\n"
        field = "text" if "text" in extra else "gold"
        with pytest.raises(ComretError, match=f'^line 1: "{field}" must be '):
            parse_query_jsonl([line])

    def test_unknown_channel_rejected(self):
        with pytest.raises(ComretError, match="^line 1: unknown channel 'audio-query'; expected one of "):
            parse_query_jsonl(['{"query_id":"q1","embeddings":{"audio-query":[1.0]}}\n'])

    def test_missing_embeddings_rejected(self):
        with pytest.raises(ComretError, match='^line 1: missing or empty "embeddings" object$'):
            parse_query_jsonl(['{"query_id":"q1"}\n'])

    def test_duplicate_query_id_rejected(self):
        line = '{"query_id":"q1","embeddings":{"image-query":[1.0]}}\n'
        with pytest.raises(ComretError, match="^line 3: duplicate id 'q1'$"):
            parse_query_jsonl([line, "\n", line])


def test_load_index_peak_memory_near_matrix_bytes(tmp_path, rng):
    """No payload is copied: each is viewed in place in its mapped file."""
    pages, dim = 1000, 1024
    save_index(random_index(rng, pages, dim), tmp_path)
    tracemalloc.start()
    try:
        index = load_index(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix_bytes = index.images.data.nbytes + index.texts.data.nbytes
    assert matrix_bytes == 2 * pages * dim * 4
    assert peak <= 1.1 * matrix_bytes


def test_load_index_allocates_a_tenth_of_the_matrices_at_most(tmp_path, rng):
    pages, dim = 1000, 1024
    save_index(random_index(rng, pages, dim), tmp_path)
    tracemalloc.start()
    try:
        load_index(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * (2 * pages * dim * 4)


def test_normalize_peaks_near_the_two_matrices(rng):
    """Normalizing works in float64 row blocks, not whole-matrix copies."""
    pages, dim = 4000, 1024
    ids = [f"page-{i}" for i in range(pages)]
    images = list(zip(ids, rng.standard_normal((pages, dim)).astype(np.float32)))
    texts = list(zip(ids, rng.standard_normal((pages, dim)).astype(np.float32)))
    tracemalloc.start()
    try:
        build_index(images, texts, normalize=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * (pages * dim * 4)


def test_build_from_float64_rows_peaks_near_the_two_matrices(rng):
    """Rows are cast straight into the float32 matrices, with no stacked
    float64 copy."""
    pages, dim = 4000, 1024
    ids = [f"page-{i}" for i in range(pages)]
    images = list(zip(ids, rng.standard_normal((pages, dim))))
    texts = list(zip(ids, rng.standard_normal((pages, dim))))
    tracemalloc.start()
    try:
        build_index(images, texts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * (pages * dim * 4)
