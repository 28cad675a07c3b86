"""Embedding and label file ingestion.

Three on-disk formats are supported: word2vec text (a "N d" header line,
then one token plus d floats per line), CSV with the id in the first
column, and JSON lines with {"id": ..., "vector": [...], "label": ...}
records. Gold labels can also arrive separately as a two-column TSV.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

EMBEDDING_FORMATS = ("word2vec", "csv", "jsonl")

# Vectors below this Euclidean norm are rejected at ingestion: they carry
# no direction, so cosine similarity is undefined for them.
MIN_VECTOR_NORM = 1e-12

# Number tokens converted per numpy call while a file is read: the per-call cost
# stays small, and the str objects waiting for conversion far below the values.
CHUNK_TOKENS = 8192


class FormatError(ValueError):
    """Malformed embedding or label file; carries the offending line number."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}, line {line}: {message}")


def open_utf8(path):
    """A UTF-8 text file opened for reading; an undecodable byte 0xNN reads as U+DCNN (see _utf8_error)."""
    return open(path, encoding="utf-8", errors="surrogateescape")


@contextlib.contextmanager
def rewrite_utf8(path):
    """A UTF-8 text file written over from its first byte, then cut to the bytes written.

    open(path, "w") empties an existing file before writing, and freeing
    its blocks can wait on the filesystem (tens of milliseconds on ext4
    mounted with discard); writing over them does not. A write that
    raises leaves what was written before it and none of the old bytes.
    A device, FIFO or terminal is written as "w" writes it, and not cut.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        try:
            yield fh
        finally:
            try:
                fh.flush()
            finally:
                fd = fh.fileno()
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _utf8_error(text: str) -> tuple[int, str] | None:
    """(newlines before it, message) for the first undecodable byte of text from open_utf8, or None."""
    if not text.isascii():
        try:
            text.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            data, at = exc.object, exc.start
            return data.count(b"\n", 0, at), f"not valid UTF-8: byte 0x{data[at]:02x} ({exc.reason})"
    return None


class _BadRow(ValueError):
    """The first row of an EmbeddingSet that breaks a row rule."""

    def __init__(self, row: int, message: str, first: int | None = None):
        super().__init__(message)
        self.row = row
        self.first = first  # for a duplicate id, the row that has it first


def _first_bad_row(ids, vectors: np.ndarray, values) -> _BadRow | None:
    """The first row that breaks a row rule, or None.

    A row needs a non-empty id on no earlier row, checked first, then
    finite values that fit in float32 and a norm of at least
    MIN_VECTOR_NORM. values are the rows vectors was converted from.
    """
    bad = None
    seen: dict[str, int] = {}
    for i, item_id in enumerate(ids):
        first = seen.setdefault(item_id, i)
        if not item_id or first != i:
            bad = _BadRow(i, f"duplicate id {item_id!r}", first) if item_id else _BadRow(i, "empty id")
            break
    finite = np.isfinite(vectors).all(axis=1)
    squares = np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64)
    # The square of a float32 is exact in float64, so these sums are
    # within a relative d * 2**-53 of the exact ones; only rows within
    # a factor 2 of the bound need the exact sum to be decided.
    stop = len(ids) if bad is None else bad.row
    for i in np.flatnonzero((~finite | (squares < (2.0 * MIN_VECTOR_NORM) ** 2))[:stop]).tolist():
        if not finite[i]:
            finite_source = np.isfinite(np.asarray(values[i], dtype=np.float64)).all()
            what = "value outside the float32 range" if finite_source else "non-finite value"
            return _BadRow(i, f"{what} in vector for id {ids[i]!r}")
        if math.sqrt(math.fsum(v * v for v in vectors[i].tolist())) < MIN_VECTOR_NORM:
            return _BadRow(i, f"zero-norm vector for id {ids[i]!r}")
    return bad


@dataclass
class EmbeddingSet:
    """Ordered collection of id'd embedding vectors with optional labels.

    Vectors are rows of a single float32 array; similarity and modularity
    arithmetic promotes to float64 at the point of use. Item order equals
    source-file order. Treat instances as immutable once constructed;
    they are then safe to share across threads.

    Construction checks the shape, the labels and the row rules of
    _first_bad_row (unique non-empty ids, finite float32 values, a norm
    of at least MIN_VECTOR_NORM), the one place those rules run, for a
    loaded set as for one built directly.
    """

    ids: list[str]
    vectors: np.ndarray
    labels: dict[str, str] | None = None

    def __post_init__(self):
        values = self.vectors
        with np.errstate(over="ignore"):  # the row rules report a value beyond float32
            self.vectors = np.asarray(values, dtype=np.float32)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must form a 2-d array")
        if len(self.ids) != self.vectors.shape[0]:
            raise ValueError("ids and vectors disagree on item count")
        if len(self.ids) == 0:
            raise ValueError("embedding set has no items")
        if self.vectors.shape[1] == 0:
            raise ValueError("vectors have zero dimensions")
        if (bad := _first_bad_row(self.ids, self.vectors, values)) is not None:
            raise bad
        if self.labels is not None:
            known = set(self.ids)
            for item_id, label in self.labels.items():
                if item_id not in known:
                    raise ValueError(f"label references unknown id {item_id!r}")
                if not label:
                    raise ValueError(f"empty label for id {item_id!r}")

    def __len__(self) -> int:
        return len(self.ids)


def load_embeddings(path, format: str) -> EmbeddingSet:
    """Parse an embedding file into a validated EmbeddingSet.

    Per-format code checks the word2vec header, CSV fields and JSON
    records, and one row loop the dimension. The numbers are converted
    to float64 in chunks of CHUNK_TOKENS, each as float() reads it, and
    held as arrays, not as Python floats. The row rules run once, when
    the EmbeddingSet is built; an error met while reading first converts
    and checks the rows above it, so the first in file order wins.

    Args:
        path: file to read.
        format: one of "word2vec", "csv", "jsonl".

    Raises:
        FormatError: malformed content, with the offending line number.
        ValueError: unknown format name.
    """
    if format not in EMBEDDING_FORMATS:
        raise ValueError(f"unknown embedding format {format!r}; expected one of {EMBEDDING_FORMATS}")
    rows = _Rows(path)
    count = None
    with open_utf8(path) as fh:
        if format == "word2vec":
            header = fh.readline()
            if bad := _utf8_error(header):
                raise FormatError(path, 1, bad[1])
            parts = header.split()
            if len(parts) != 2:
                raise FormatError(path, 1, 'expected header "N d"')
            try:
                count, rows.dim = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(path, 1, 'expected integer header "N d"') from None
            if count < 1 or rows.dim < 1:
                raise FormatError(path, 1, f"header declares {count} items of dimension {rows.dim}")
        parse = {"word2vec": _word2vec_row, "csv": _csv_row, "jsonl": _jsonl_row}[format]
        for lineno, line in enumerate(fh, start=1 if count is None else 2):
            if bad := _utf8_error(line):
                raise rows.error(lineno, bad[1])
            if line.strip():
                parse(rows, lineno, line)
    if count is not None and len(rows.ids) != count:
        raise rows.error(len(rows.ids) + 1, f"header declares {count} rows, file has {len(rows.ids)}")
    if not rows.ids:
        raise FormatError(path, 1, f"no embedding {'records' if format == 'jsonl' else 'rows'} found")
    return rows.build()


class _Rows:
    """Rows read so far from one embedding file, with their line numbers.

    Number tokens wait until CHUNK_TOKENS are pending, then one numpy call converts them.
    """

    def __init__(self, path):
        self.path = path
        self.dim: int | None = None
        self.ids: list[str] = []
        self.tokens: list = []  # number tokens of the rows not yet converted
        self.chunks: list[np.ndarray] = []  # float64 values of the rows converted so far
        self.lines: list[int] = []
        self.labels: dict[str, str] = {}

    def build(self) -> EmbeddingSet:
        self.convert()
        self.chunks = [np.concatenate(self.chunks)]  # frees the pieces before the float32 copy is made
        try:
            return EmbeddingSet(ids=self.ids, vectors=self.chunks[0], labels=self.labels or None)
        except _BadRow as bad:
            first = f" (first seen on line {self.lines[bad.first]})" if bad.first is not None else ""
            raise FormatError(self.path, self.lines[bad.row], f"{bad}{first}") from None

    def error(self, lineno: int, message: str) -> FormatError:
        """The error for a line, or for a row before it that breaks a row rule or has an unparseable number."""
        if self.ids:
            try:
                self.build()
            except FormatError as exc:
                return exc
        return FormatError(self.path, lineno, message)

    def add(self, lineno: int, item_id: str, tokens: list) -> None:
        if self.dim not in (None, len(tokens)):
            raise self.error(lineno, f"dimension mismatch: expected {self.dim} values, this row has {len(tokens)}")
        self.dim = len(tokens)
        self.ids.append(item_id)
        self.tokens += tokens
        self.lines.append(lineno)
        if len(self.tokens) >= CHUNK_TOKENS:
            self.convert()

    def convert(self) -> None:
        """Convert the pending tokens to float64, each as float() reads it.

        An unparseable token cuts its row and the rows after it, then raises its line's error.
        """
        tokens, self.tokens, dim = self.tokens, [], self.dim
        bad = None
        try:
            chunk = np.array(tokens, dtype=np.float64).reshape(-1, dim)
        except (ValueError, OverflowError):  # rare: an unparseable token, or a JSON integer beyond float64
            values = []
            for token in tokens:
                try:
                    values.append(_float64(token))
                except ValueError:
                    row = len(values) // dim
                    cut = len(self.ids) - len(tokens) // dim + row
                    bad = (self.lines[cut], f"unparseable number {token!r}")
                    del values[row * dim:], self.ids[cut:], self.lines[cut:]  # no labels: JSON numbers always parse
                    break
            chunk = np.array(values, dtype=np.float64).reshape(-1, dim)
        for i in np.flatnonzero(~np.isfinite(chunk).all(axis=1)).tolist():  # rare: inf, nan or beyond float64
            chunk[i] = list(map(_float64, tokens[i * dim:(i + 1) * dim]))
        self.chunks.append(chunk)
        if bad is not None:
            raise self.error(*bad)


def _float64(token) -> float:
    """float(token), but the largest float64 of its sign for a finite number beyond the float64 range.

    The row rules report that as outside the float32 range, and a literal inf or nan as
    non-finite. jsonl reads its literals as nan (_JSONL_DECODER), so an infinite float was a decimal.
    """
    try:
        value = float(token)
    except OverflowError:  # a JSON integer
        value = math.inf if token > 0 else -math.inf
    literal = isinstance(token, str) and token.strip().lstrip("+-")[:1].isalpha()
    return math.copysign(sys.float_info.max, value) if math.isinf(value) and not literal else value


_JSONL_DECODER = json.JSONDecoder(parse_constant=lambda literal: math.nan)  # Infinity, -Infinity and NaN


def _word2vec_row(rows: _Rows, lineno: int, line: str) -> None:
    tokens = line.split()
    rows.add(lineno, tokens[0], tokens[1:])


def _csv_row(rows: _Rows, lineno: int, line: str) -> None:
    fields = line.rstrip("\r\n").split(",")
    if len(fields) < 2:
        raise rows.error(lineno, "expected an id followed by vector values")
    rows.add(lineno, fields[0].strip(), fields[1:])


def _jsonl_row(rows: _Rows, lineno: int, line: str) -> None:
    try:
        record = _JSONL_DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise rows.error(lineno, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise rows.error(lineno, "invalid JSON: nested too deeply") from None
    if not isinstance(record, dict):
        raise rows.error(lineno, "record is not a JSON object")
    item_id = record.get("id")
    if not isinstance(item_id, str):
        raise rows.error(lineno, 'missing or non-string "id"')
    vector = record.get("vector")
    if not isinstance(vector, list) or not vector:
        raise rows.error(lineno, 'missing or empty "vector"')
    # JSON numbers decode to int or float; bool is rejected as non-numeric
    if not set(map(type, vector)) <= {int, float}:
        raise rows.error(lineno, f"non-numeric vector entry for id {item_id!r}")
    rows.add(lineno, item_id, vector)
    label = record.get("label")
    if label is not None:
        if not isinstance(label, str) or not label:
            raise rows.error(lineno, f"label for id {item_id!r} must be a non-empty string")
        rows.labels[item_id] = label


def load_labels(path, has_header: bool = False) -> dict[str, str]:
    """Read a two-column id<TAB>label file into a map.

    An empty file yields an empty map; evaluation refuses to run on one
    later, but parsing it is not an error.
    """
    labels: dict[str, str] = {}
    firsts: dict[str, int] = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if bad := _utf8_error(line):
                raise FormatError(path, lineno, bad[1])
            if has_header and lineno == 1:
                continue
            if not line.strip():
                continue
            fields = line.rstrip("\r\n").split("\t")
            if len(fields) != 2:
                raise FormatError(path, lineno, f"expected two tab-separated columns, found {len(fields)}")
            item_id, label = fields
            if not item_id:
                raise FormatError(path, lineno, "empty id")
            if not label:
                raise FormatError(path, lineno, f"empty label for id {item_id!r}")
            if item_id in firsts:
                raise FormatError(path, lineno, f"duplicate id {item_id!r} (first seen on line {firsts[item_id]})")
            firsts[item_id] = lineno
            labels[item_id] = label
    return labels
