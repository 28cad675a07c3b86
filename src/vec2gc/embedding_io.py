"""Embedding and label file ingestion.

Three on-disk formats are supported: word2vec text (a "N d" header line,
then one token plus d floats per line), CSV with the id in the first
column, and JSON lines with {"id": ..., "vector": [...], "label": ...}
records. Gold labels can also arrive separately as a two-column TSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

EMBEDDING_FORMATS = ("word2vec_text", "csv", "jsonl")

# Vectors below this Euclidean norm are rejected at ingestion: they carry
# no direction, so cosine similarity is undefined for them.
MIN_VECTOR_NORM = 1e-12


class FormatError(ValueError):
    """Malformed embedding or label file; carries the offending line number."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}, line {line}: {message}")


@dataclass
class EmbeddingSet:
    """Ordered collection of id'd embedding vectors with optional labels.

    Vectors are rows of a single float32 array; similarity and modularity
    arithmetic promotes to float64 at the point of use. Item order equals
    source-file order. Treat instances as immutable once constructed;
    they are then safe to share across threads.
    """

    ids: list[str]
    vectors: np.ndarray
    labels: dict[str, str] | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must form a 2-d array")
        if len(self.ids) != self.vectors.shape[0]:
            raise ValueError("ids and vectors disagree on item count")
        if len(self.ids) == 0:
            raise ValueError("embedding set has no items")
        if self.vectors.shape[1] == 0:
            raise ValueError("vectors have zero dimensions")
        seen = set()
        for item_id in self.ids:
            if not item_id:
                raise ValueError("empty id")
            if item_id in seen:
                raise ValueError(f"duplicate id {item_id!r}")
            seen.add(item_id)
        if not np.isfinite(self.vectors).all():
            raise ValueError("non-finite vector component")
        norms = np.linalg.norm(self.vectors.astype(np.float64), axis=1)
        small = np.nonzero(norms < MIN_VECTOR_NORM)[0]
        if small.size:
            raise ValueError(f"zero-norm vector for id {self.ids[int(small[0])]!r}")
        if self.labels is not None:
            for item_id, label in self.labels.items():
                if item_id not in seen:
                    raise ValueError(f"label references unknown id {item_id!r}")
                if not label:
                    raise ValueError(f"empty label for id {item_id!r}")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def items(self):
        """Iterate (id, vector-row) pairs in file order."""
        return zip(self.ids, self.vectors)


def load_embeddings(path, format: str) -> EmbeddingSet:
    """Parse an embedding file into a validated EmbeddingSet.

    Args:
        path: file to read.
        format: one of "word2vec_text", "csv", "jsonl".

    Raises:
        FormatError: malformed content, with the offending line number.
        ValueError: unknown format name.
    """
    if format == "word2vec_text":
        return _load_word2vec_text(path)
    if format == "csv":
        return _load_csv(path)
    if format == "jsonl":
        return _load_jsonl(path)
    raise ValueError(f"unknown embedding format {format!r}; expected one of {EMBEDDING_FORMATS}")


_OUT_OF_RANGE = "value outside the float32 range"


class _Rows:
    """Rows parsed so far, with their line numbers.

    Ids and structure are checked per row as it is read; finiteness and
    zero norm are checked over all rows at once by vectors(). Every error
    raised through error() first runs vectors() on the rows before it, so
    the first error in file order wins, as if each row had been checked
    completely when it was read.
    """

    def __init__(self, path):
        self.path = path
        self.ids: list[str] = []
        self.rows: list[list[float]] = []
        self.lines: list[int] = []
        self.seen: dict[str, int] = {}

    def error(self, lineno: int, message: str) -> FormatError:
        self.vectors()
        return FormatError(self.path, lineno, message)

    def parse(self, lineno: int, tokens: list[str]) -> list[float]:
        try:
            return list(map(float, tokens))
        except ValueError:
            for token in tokens:
                try:
                    float(token)
                except ValueError:
                    raise self.error(lineno, f"unparseable number {token!r}") from None
            raise

    def add(self, lineno: int, item_id: str, values: list[float]) -> None:
        if not item_id:
            raise self.error(lineno, "empty id")
        if item_id in self.seen:
            raise self.error(lineno, f"duplicate id {item_id!r} (first seen on line {self.seen[item_id]})")
        self.seen[item_id] = lineno
        self.ids.append(item_id)
        self.rows.append(values)
        self.lines.append(lineno)

    def vectors(self) -> np.ndarray:
        """All rows as one float32 array; raises for the first bad row."""
        if not self.rows:
            return np.empty((0, 0), dtype=np.float32)
        with np.errstate(over="ignore"):
            vectors = np.array(self.rows, dtype=np.float32)
        finite = np.isfinite(vectors).all(axis=1)
        wide = vectors.astype(np.float64)
        squares = np.einsum("ij,ij->i", wide, wide)
        # The square of a float32 is exact in float64, so these sums are
        # within a relative d * 2**-53 of the exact ones; only rows within
        # a factor 2 of the bound need the exact sum to be decided.
        for i in np.flatnonzero(~finite | (squares < (2.0 * MIN_VECTOR_NORM) ** 2)).tolist():
            if not finite[i]:
                what = "non-finite value" if not all(map(math.isfinite, self.rows[i])) else _OUT_OF_RANGE
                raise FormatError(self.path, self.lines[i], f"{what} in vector for id {self.ids[i]!r}")
            if math.sqrt(math.fsum(v * v for v in vectors[i].tolist())) < MIN_VECTOR_NORM:
                raise FormatError(self.path, self.lines[i], f"zero-norm vector for id {self.ids[i]!r}")
        return vectors


def _load_word2vec_text(path) -> EmbeddingSet:
    rows = _Rows(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise FormatError(path, 1, 'expected header "N d"')
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(path, 1, 'expected integer header "N d"') from None
        if count < 1 or dim < 1:
            raise FormatError(path, 1, f"header declares {count} items of dimension {dim}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            tokens = line.split()
            if len(tokens) != dim + 1:
                raise rows.error(
                    lineno,
                    f"dimension mismatch: header declares {dim} values, row has {len(tokens) - 1}",
                )
            rows.add(lineno, tokens[0], rows.parse(lineno, tokens[1:]))
    vectors = rows.vectors()
    if len(rows.ids) != count:
        raise FormatError(path, len(rows.ids) + 1, f"header declares {count} rows, file has {len(rows.ids)}")
    return EmbeddingSet(ids=rows.ids, vectors=vectors)


def _load_csv(path) -> EmbeddingSet:
    rows = _Rows(path)
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\r\n").split(",")
            if len(fields) < 2:
                raise rows.error(lineno, "expected an id followed by vector values")
            if dim is None:
                dim = len(fields) - 1
            elif len(fields) - 1 != dim:
                raise rows.error(
                    lineno,
                    f"dimension mismatch: first row has {dim} values, this row has {len(fields) - 1}",
                )
            values = rows.parse(lineno, fields[1:])
            rows.add(lineno, fields[0].strip(), values)
    if not rows.ids:
        raise FormatError(path, 1, "no embedding rows found")
    return EmbeddingSet(ids=rows.ids, vectors=rows.vectors())


def _load_jsonl(path) -> EmbeddingSet:
    rows = _Rows(path)
    labels: dict[str, str] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise rows.error(lineno, f"invalid JSON: {exc.msg}") from None
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
            try:
                values = list(map(float, vector))
            except OverflowError:
                raise rows.error(lineno, f"{_OUT_OF_RANGE} in vector for id {item_id!r}") from None
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise rows.error(
                    lineno,
                    f"dimension mismatch: first record has {dim} values, this one has {len(values)}",
                )
            rows.add(lineno, item_id, values)
            label = record.get("label")
            if label is not None:
                if not isinstance(label, str) or not label:
                    raise rows.error(lineno, f"label for id {item_id!r} must be a non-empty string")
                labels[item_id] = label
    if not rows.ids:
        raise FormatError(path, 1, "no embedding records found")
    return EmbeddingSet(ids=rows.ids, vectors=rows.vectors(), labels=labels or None)


def load_labels(path, has_header: bool = False) -> dict[str, str]:
    """Read a two-column id<TAB>label file into a map.

    An empty file yields an empty map; evaluation refuses to run on one
    later, but parsing it is not an error.
    """
    labels: dict[str, str] = {}
    firsts: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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


def save_embeddings_jsonl(emb: EmbeddingSet, path) -> None:
    """Write an EmbeddingSet as JSON lines; reloading reproduces vectors bit-exact.

    float32 components are emitted through float64 repr, which is exact,
    so the parse-then-narrow on reload restores identical bits.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for item_id, row in emb.items():
            record = {"id": item_id, "vector": [float(v) for v in row]}
            if emb.labels and item_id in emb.labels:
                record["label"] = emb.labels[item_id]
            fh.write(json.dumps(record) + "\n")
