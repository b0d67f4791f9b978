"""Offline index construction and persistence, and the JSONL readers.

Embeddings arrive as JSONL (one ``{"id": ..., "embedding": [...]}`` object
per line) and are packed into two aligned row-major float32 matrices, one
per modality, so the online scoring pass is a single sequential sweep.
Page, query and triplet files share one line reader (``_json_object``)
and one rule for number arrays (``finite_vector``).

orjson reads each line, about 4x faster than ``json``, but ``json.loads``
stays the referee: it reads every line that orjson refuses and every line
holding more than ``ORJSON_BRACKETS`` ``[`` and ``{``. json accepts NaN,
infinities, numbers that overflow to inf and escaped lone surrogates,
which orjson refuses; json refuses nesting past its recursion limit, which
orjson reads until it overflows the C stack. So each line gives the value
or error message that ``json.loads`` gives, except that an integer beyond
64 bits comes back as a float.

Every number array becomes a vector the same way (``_vector``): one
``struct.pack`` of its values as float64, then one cast to the vector's
dtype. struct refuses every JSON value but a number or a bool, so a page
line with no ``t`` and no ``f`` between its first ``[`` and its last
``]``, whose embedding can then hold no bool, skips ``finite_vector``'s
type scan.

Packed matrix file layout (all integers little-endian):

    magic "CMEB" | u32 version=2 | u32 dim | u64 count
    | count*dim little-endian float32
    | footer: u64 byte length + the UTF-8 ids joined by "\n"

Every id is a non-empty string free of tabs, CRs, "\n"s and unpaired
surrogates, as ingest's ids are (``_check_id``), so the footer splits back
into exactly ``count`` ids that each fit in one TSV field. Bytes after the
ids are ignored.

An index directory is its two ``.cmeb`` files, ``images.cmeb`` and
``texts.cmeb``; each header holds the dim and the row count, and any other
file in the directory is ignored. ``load_index`` maps both files
read-only; ``save_index`` replaces both by rename.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np
import orjson

from .core import EMBEDDING_DTYPE, IMAGE_CHANNEL, TEXT_CHANNEL, QueryRecord
from .errors import ComretError

MAGIC = b"CMEB"
VERSION = 2

IMAGES_FILE = "images.cmeb"
TEXTS_FILE = "texts.cmeb"

Record = tuple[str, np.ndarray]

#: Most "[" and "{" a line may hold for orjson to read it. json.loads refuses
#: nesting past the recursion limit, far above 64; orjson reads deeper
#: nesting until it overflows the C stack.
ORJSON_BRACKETS = 64

#: Rows normalized at a time, so the float64 temporaries stay small beside a matrix.
NORM_ROWS = 64


@dataclass(frozen=True)
class PackedMatrix:
    """Row-major float32 matrix with one id per row, unique and ordered."""

    ids: tuple[str, ...]
    data: np.ndarray  # (count, dim) float32, C-contiguous, read-only

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class IndexDirectory:
    """Aligned image/text matrices, one row per page in the same order."""

    images: PackedMatrix
    texts: PackedMatrix

    @property
    def dim(self) -> int:
        return self.images.dim

    @property
    def page_count(self) -> int:
        return self.images.count

    @property
    def ids(self) -> tuple[str, ...]:
        return self.images.ids


def _check_id(value: object, key: str, line_no: int) -> str:
    """An id must be a non-empty string that fits in one field of a TSV
    line (run files and qrels) and in the UTF-8 footer of a .cmeb file."""
    if not isinstance(value, str) or not value:
        raise ComretError(f'line {line_no}: missing or non-string "{key}"')
    if any(c in value for c in "\t\r\n"):
        raise ComretError(f'line {line_no}: "{key}" contains a tab or a line break')
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ComretError(f'line {line_no}: "{key}" contains an unpaired surrogate')
    return value


def _loads(line: str) -> object:
    """``json.loads(line)``, read by orjson when the line holds at most
    ``ORJSON_BRACKETS`` brackets and orjson accepts it; an integer beyond
    64 bits then comes back as a float."""
    # str.find scans at memchr speed, and stops counting past the limit.
    brackets = 0
    for bracket in "[{":
        at = line.find(bracket)
        while at >= 0 and brackets <= ORJSON_BRACKETS:
            brackets += 1
            at = line.find(bracket, at + 1)
    if brackets <= ORJSON_BRACKETS:
        try:
            return orjson.loads(line)
        except orjson.JSONDecodeError:
            pass
    return json.loads(line)


def _json_object(line: str, line_no: int) -> dict:
    """The object on a non-blank line, read as ``json.loads`` reads it."""
    try:
        obj = _loads(line)
    except json.JSONDecodeError as exc:
        raise ComretError(f"line {line_no}: invalid JSON ({exc.msg})")
    except ValueError:  # the int-string conversion limit
        digits = sys.get_int_max_str_digits()
        raise ComretError(f"line {line_no}: invalid JSON (an integer of more than {digits} digits)")
    except RecursionError:
        raise ComretError(f"line {line_no}: invalid JSON (nested too deeply)")
    if not isinstance(obj, dict):
        raise ComretError(f"line {line_no}: expected a JSON object")
    return obj


def json_objects(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSONL stream.

    orjson reads a line when it can; ``json.loads`` reads the rest, so it
    decides every error (see the module docstring). Raises ComretError for
    invalid JSON, including an integer beyond CPython's int-string
    conversion limit or an array nested past its recursion limit, and for
    a value that is not an object.
    """
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            yield line_no, _json_object(line, line_no)


def _vector(values: list, dtype: type) -> np.ndarray | None:
    """A list of numbers as a read-only ``dtype`` vector, or None when
    struct refuses an entry (anything but an int, a float or a bool, or an
    int beyond float64) or a value is not finite in ``dtype``.

    Each value is rounded to float64 and then to ``dtype``, as
    ``np.asarray(values, dtype)`` rounds it. A bool packs as 0.0 or 1.0.
    """
    try:
        packed = struct.pack(f"<{len(values)}d", *values)
    except struct.error:
        return None
    # A value beyond the dtype becomes inf, refused below, not a warning.
    with np.errstate(over="ignore"):
        vec = np.frombuffer(packed, np.float64).astype(dtype)
    if not np.isfinite(vec).all():
        return None
    vec.flags.writeable = False
    return vec


def finite_vector(values: object, dtype: type, line_no: int, field: str, where: str) -> np.ndarray:
    """A JSON array of numbers as a read-only, finite 1-d ``dtype`` vector.

    Raises ComretError naming ``field`` unless ``values`` is a non-empty
    array of numbers, and naming ``where`` for NaN, an infinity or a
    number beyond ``dtype``. The type scan refuses bools, which ``_vector``
    would read as numbers; after it, ``_vector`` declines only a value
    that is not finite, an integer beyond float64 included.
    """
    if not isinstance(values, list) or not values:
        raise ComretError(f"line {line_no}: missing or empty {field} array")
    # Both JSON parsers yield exact types only, and bool is its own type.
    # Counting float first is one pass over the usual all-float array;
    # count(int) runs only when it falls short, as it compares slowly.
    types = list(map(type, values))
    floats = types.count(float)
    if floats != len(types) and floats + types.count(int) != len(types):
        raise ComretError(f"line {line_no}: {field} contains a non-numeric entry")
    vec = _vector(values, dtype)
    if vec is None:
        raise ComretError(f"non-finite value in {where}")
    return vec


def _page_record(obj: dict, line: str, line_no: int) -> Record:
    """The record of a page ``line`` whose object is ``obj``.

    The embedding skips the type scan when no ``t`` and no ``f`` lies
    between the line's first ``[`` and its last ``]``. The embedding's
    brackets lie in that span, so a ``true`` or ``false`` in it would be
    found. A bool is the one value besides a number that ``struct.pack``
    reads as a float; any other value, or one that is not finite, makes
    ``_vector`` decline, and the type scan then names the fault.
    """
    rec_id = _check_id(obj.get("id"), "id", line_no)
    values = obj.get("embedding")
    first, last = line.find("["), line.rfind("]")
    if type(values) is list and values and line.find("t", first, last) < 0 and line.find("f", first, last) < 0:
        vec = _vector(values, EMBEDDING_DTYPE)
        if vec is not None:
            return rec_id, vec
    return rec_id, finite_vector(values, EMBEDDING_DTYPE, line_no, '"embedding"', f"line {line_no}")


def parse_embedding_jsonl(stream: TextIO | Iterable[str]) -> list[Record]:
    """Parse an embedding JSONL stream, rejecting the whole file on any bad line.

    Returns (id, float32 vector) records in file order. Blank lines are
    ignored; every other line must be a JSON object with a string "id" and
    a numeric-array "embedding" of uniform dimension. Each line is read and
    checked as ``json.loads`` reads it, so every record and error is the
    referee's.
    """
    records: list[Record] = []
    expected_dim: int | None = None
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        record = _page_record(_json_object(line, line_no), line, line_no)
        dim = record[1].shape[0]
        if expected_dim is None:
            expected_dim = dim
        elif dim != expected_dim:
            raise ComretError(f"line {line_no}: expected dim {expected_dim}, got {dim}")
        records.append(record)
    return records


def parse_query_jsonl(stream: TextIO | Iterable[str]) -> list[QueryRecord]:
    """Parse query JSONL: {"query_id", "embeddings": {channel: [...]}} per
    line, channels limited to "image-query" / "text-query".

    An optional "text" string and "gold" array of page ids are checked but
    not kept: qrels, not the query file, say which pages are relevant. A
    stream without a query is refused.
    """
    known = (IMAGE_CHANNEL, TEXT_CHANNEL)
    queries: list[QueryRecord] = []
    seen_ids: set[str] = set()
    for line_no, obj in json_objects(stream):
        query_id = _check_id(obj.get("query_id"), "query_id", line_no)
        if query_id in seen_ids:
            raise ComretError(f"line {line_no}: duplicate id {query_id!r}")
        seen_ids.add(query_id)
        embeddings = obj.get("embeddings")
        if not isinstance(embeddings, dict) or not embeddings:
            raise ComretError(f'line {line_no}: missing or empty "embeddings" object')
        channels = {}
        for name, values in embeddings.items():
            if name not in known:
                raise ComretError(f"line {line_no}: unknown channel {name!r}; expected one of {known}")
            field = f"channel {name!r}"
            channels[name] = finite_vector(values, EMBEDDING_DTYPE, line_no, field, f"line {line_no} {field}")
        gold = obj.get("gold", [])
        if not isinstance(gold, list) or not all(isinstance(g, str) for g in gold):
            raise ComretError(f'line {line_no}: "gold" must be an array of page ids')
        if not isinstance(obj.get("text", ""), str):
            raise ComretError(f'line {line_no}: "text" must be a string')
        queries.append(QueryRecord(query_id, channels))
    if not queries:
        raise ComretError("query file contains no queries")
    return queries


def _pack(channel: str, ids: tuple[str, ...], rows: list[np.ndarray], dim: int, normalize: bool) -> PackedMatrix:
    for rid, row in zip(ids, rows):
        if row.shape != (dim,):
            got = row.shape[0] if row.ndim == 1 else row.shape
            raise ComretError(f"{channel} id {rid!r}: expected dim {dim}, got {got}")
    data = np.empty((len(rows), dim), EMBEDDING_DTYPE)
    # Cast straight into the float32 matrix, as astype would: no stacked copy in the rows' dtype.
    np.concatenate(rows, out=data.reshape(-1), casting="unsafe")
    if normalize:
        # Norms in float64; float32 squares of tiny values could underflow.
        # Every operation is per row, so row blocks give the bits of one pass.
        for start in range(0, len(data), NORM_ROWS):
            block = data[start : start + NORM_ROWS].astype(np.float64)
            norms = np.linalg.norm(block, axis=1)
            if not norms.all():
                row_id = ids[start + np.flatnonzero(norms == 0.0)[0]]
                raise ComretError(f"{channel} id {row_id!r}: cannot L2-normalize zero vector")
            block /= norms[:, None]
            data[start : start + NORM_ROWS] = block
    data.flags.writeable = False
    return PackedMatrix(ids=ids, data=data)


def _one_side_only(left: Iterable[str], right: Iterable[str]) -> ComretError:
    """The error naming the ids, at most five, that only one of two id collections holds."""
    ids = sorted(set(left).symmetric_difference(right))
    more = f" (+{len(ids) - 5} more)" if len(ids) > 5 else ""
    return ComretError(f"ids present on one side only: {', '.join(ids[:5])}{more}")


def _both(first: tuple, second: tuple) -> list:
    """Both calls' results, from two threads joined before this returns; the first call's error wins."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(*call) for call in (first, second)]
    return [future.result() for future in futures]


def _duplicate(channel: str, ids: Iterable[str]) -> ComretError:
    """The error naming ``channel`` and the first id seen a second time in ``ids``, which repeat one."""
    seen: set[str] = set()
    dup = next(rid for rid in ids if rid in seen or seen.add(rid))
    return ComretError(f"{channel}: duplicate id {dup!r}")


def build_index(images: list[Record], texts: list[Record], normalize: bool = False) -> IndexDirectory:
    """Pair image and text records by id into aligned matrices.

    Row order follows the images file. The id sets must match exactly and
    every row of both modalities must share one embedding dimension.
    """
    if not images or not texts:
        raise ComretError("need at least one image and one text record")
    image_ids = {r[0] for r in images}
    text_ids = {r[0] for r in texts}
    if image_ids != text_ids:
        raise _one_side_only(image_ids, text_ids)
    if (dim := images[0][1].shape[0]) != texts[0][1].shape[0]:
        raise ComretError(f"texts vs images: expected dim {dim}, got {texts[0][1].shape[0]}")
    ids = tuple(r[0] for r in images)

    def pack_images() -> PackedMatrix:
        if len(image_ids) != len(ids):
            raise _duplicate("images", ids)
        return _pack("images", ids, [r[1] for r in images], dim, normalize)

    def pack_texts() -> PackedMatrix:
        if len(text_ids) != len(texts):
            raise _duplicate("texts", (r[0] for r in texts))
        return _pack("texts", ids, list(map(dict(texts).__getitem__, ids)), dim, normalize)
    return IndexDirectory(*_both((pack_images,), (pack_texts,)))


def _temp(path: Path) -> Path:
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def _footer(matrix: PackedMatrix, path: Path) -> bytes:
    """The id footer of ``matrix``, once each id is one ingest would accept."""
    if len(matrix.ids) != matrix.count:
        raise ComretError(f"{path}: {len(matrix.ids)} ids for {matrix.count} rows")
    try:
        block = "\n".join(matrix.ids)
    except TypeError:
        row = next(row for row, rid in enumerate(matrix.ids) if not isinstance(rid, str))
        raise ComretError(f"{path}: id of row {row} is not a string")
    # The joined ids are scanned, not each id: an index may hold millions.
    if "" in matrix.ids or block.count("\n") > max(matrix.count - 1, 0) or "\t" in block or "\r" in block:
        row = next(row for row, rid in enumerate(matrix.ids) if not rid or any(c in rid for c in "\t\r\n"))
        raise ComretError(f"{path}: id of row {row} is empty or holds a tab or a line break")
    try:
        footer = block.encode("utf-8")
    except UnicodeEncodeError as exc:
        row = block.count("\n", 0, exc.start)
        raise ComretError(f"{path}: id of row {row} holds an unpaired surrogate")
    return footer


def _write_temp(matrix: PackedMatrix, footer: bytes, path: Path) -> None:
    """Write ``matrix`` to the temporary sibling of ``path``; a caller renames or removes it."""
    data = np.ascontiguousarray(matrix.data, dtype="<f4")
    with open(_temp(path), "wb") as fh:
        fh.write(MAGIC + struct.pack("<IIQ", VERSION, matrix.dim, matrix.count))
        fh.write(memoryview(data))
        fh.write(struct.pack("<Q", len(footer)) + footer)


def _map_payload(path: Path) -> tuple[np.ndarray, bytes]:
    """Map a .cmeb file read-only once its header fits the file. Returns
    its payload, viewed in place (copied only on a big-endian host), and
    the bytes of its id footer."""
    with open(path, "rb") as fh:
        header = fh.read(20)
        if header[:4] != MAGIC:
            raise ComretError(f"{path}: bad magic {header[:4]!r}")
        if len(header) != 20:
            raise ComretError(f"{path}: file ended while reading header")
        version, dim, count = struct.unpack_from("<IIQ", header, 4)
        if version != VERSION:
            raise ComretError(f"{path}: unsupported format version {version}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    # The payload, the footer's 8-byte length and at least one byte per id
    # plus a newline between ids must fit.
    payload_bytes = count * dim * 4
    if 20 + payload_bytes + 8 + max(2 * count - 1, 0) > len(mapped):
        raise ComretError(f"{path}: header claims {count} rows of dim {dim}, more than the file holds")
    data = np.frombuffer(mapped, dtype="<f4", count=count * dim, offset=20).reshape(count, dim)
    data = data.astype(EMBEDDING_DTYPE, copy=False)
    data.flags.writeable = False
    return data, mapped[20 + payload_bytes :]


def _decode_ids(path: Path, footer: bytes, count: int) -> tuple[str, ...]:
    """The ``count`` ids of a .cmeb footer, in row order."""
    (length,) = struct.unpack_from("<Q", footer)
    raw = footer[8 : 8 + length]
    if len(raw) != length:
        raise ComretError(f"{path}: file ended while reading id bytes")
    try:
        ids = tuple(raw.decode("utf-8").split("\n")) if raw else ()
    except UnicodeDecodeError as exc:
        row = raw.count(b"\n", 0, exc.start)
        raise ComretError(f"{path}: id of row {row} is not valid UTF-8")
    if len(ids) != count:
        raise ComretError(f"{path}: the footer holds {len(ids)} ids for {count} rows")
    if "" in ids:
        raise ComretError(f"{path}: id of row {ids.index('')} is empty")
    if b"\t" in raw or b"\r" in raw:
        row = next(row for row, rid in enumerate(ids) if "\t" in rid or "\r" in rid)
        raise ComretError(f"{path}: id of row {row} holds a tab or a CR")
    return ids


def _check_agreement(root: Path, images: PackedMatrix, texts: PackedMatrix) -> None:
    """Refuse an index under ``root`` whose two matrices disagree (other
    ids, another row order or other dims) or that holds no pages."""
    if tuple(images.ids) != tuple(texts.ids):
        if sorted(images.ids) == sorted(texts.ids):
            raise ComretError(f"{root}: {TEXTS_FILE} holds the ids of {IMAGES_FILE} in a different row order")
        raise _one_side_only(images.ids, texts.ids)
    if texts.dim != images.dim:
        raise ComretError(f"texts vs images: expected dim {images.dim}, got {texts.dim}")
    if images.count == 0:
        raise ComretError(f"{root}: the index holds no pages")


def save_index(index: IndexDirectory, path: str | Path) -> None:
    """Write images.cmeb and texts.cmeb under ``path``.

    Each file is written to a temporary sibling and renamed over the old
    one: truncating a mapped file in place would kill, with SIGBUS, every
    process that has it loaded. The two are renamed only when both were
    written, so a failed save leaves the old index whole. Ids that ingest
    would refuse (a non-string, an empty id, one holding a tab, a CR, a
    "\n" or an unpaired surrogate) are refused first, as are one id too
    many or too few, then an index whose files ``load_index`` would refuse
    to pair; a refused index writes nothing. Any other file under ``path``
    is left as it is.
    """
    root = Path(path)
    paths = (root / IMAGES_FILE, root / TEXTS_FILE)
    footers = [_footer(index.images, paths[0])]
    # A built or loaded index holds one ids tuple, so one footer serves both
    # files; texts of another row count still meet _footer's count check.
    shared = index.texts.ids is index.images.ids and index.texts.count == index.images.count
    footers.append(footers[0] if shared else _footer(index.texts, paths[1]))
    _check_agreement(root, index.images, index.texts)
    root.mkdir(parents=True, exist_ok=True)
    try:
        # A large write releases the GIL, so the two files are written at once.
        _both((_write_temp, index.images, footers[0], paths[0]), (_write_temp, index.texts, footers[1], paths[1]))
        for target in paths:
            os.replace(_temp(target), target)
    finally:
        for target in paths:
            _temp(target).unlink(missing_ok=True)


def load_index(path: str | Path) -> IndexDirectory:
    """Map an index directory and check that its two files agree and hold
    at least one page; any other file in it is not read.

    The texts file's ids are decoded only when its footer differs from the
    images file's; if both files are bad, the images file's error is raised.
    """
    root = Path(path)
    image_data, image_footer = _map_payload(root / IMAGES_FILE)
    images = PackedMatrix(ids=_decode_ids(root / IMAGES_FILE, image_footer, len(image_data)), data=image_data)
    text_data, text_footer = _map_payload(root / TEXTS_FILE)
    if (len(text_data), text_footer) == (images.count, image_footer):
        texts = PackedMatrix(ids=images.ids, data=text_data)
    else:
        texts = PackedMatrix(ids=_decode_ids(root / TEXTS_FILE, text_footer, len(text_data)), data=text_data)
    _check_agreement(root, images, texts)
    return IndexDirectory(images=images, texts=texts)
