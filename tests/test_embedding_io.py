import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from oracles import fresh, write_jsonl
from vec2gc import EmbeddingSet, FormatError, load_embeddings, load_labels
from vec2gc import embedding_io


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestWord2vecText:
    def test_minimal_file(self, tmp_path):
        path = write(tmp_path / "emb.txt", "3 2\na 1.0 0.0\nb 0.0 1.0\nc 1.0 1.0\n")
        emb = load_embeddings(path, "word2vec")
        assert emb.vectors.shape[1] == 2
        assert len(emb) == 3
        assert emb.ids == ["a", "b", "c"]
        assert np.array_equal(emb.vectors[2], np.array([1.0, 1.0], dtype=np.float32))

    def test_order_matches_file(self, tmp_path):
        path = write(tmp_path / "emb.txt", "3 1\nz 1\ny 2\nx 3\n")
        emb = load_embeddings(path, "word2vec")
        assert emb.ids == ["z", "y", "x"]
        assert emb.vectors[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = write(tmp_path / "emb.txt", "2 2\na 1.0 0.0\nb 0.0\n")
        with pytest.raises(FormatError, match="line 3.*dimension mismatch"):
            load_embeddings(path, "word2vec")

    def test_duplicate_id(self, tmp_path):
        path = write(tmp_path / "emb.txt", "2 1\na 1.0\na 2.0\n")
        with pytest.raises(FormatError, match="duplicate id 'a'"):
            load_embeddings(path, "word2vec")

    def test_non_finite_value(self, tmp_path):
        path = write(tmp_path / "emb.txt", "1 2\na 1.0 nan\n")
        with pytest.raises(FormatError, match="line 2.*non-finite"):
            load_embeddings(path, "word2vec")

    def test_row_count_mismatch(self, tmp_path):
        path = write(tmp_path / "emb.txt", "3 1\na 1.0\nb 2.0\n")
        with pytest.raises(FormatError, match="declares 3 rows"):
            load_embeddings(path, "word2vec")

    def test_header_of_no_items(self, tmp_path):
        path = write(tmp_path / "emb.txt", "0 3\n")
        with pytest.raises(FormatError, match="line 1: header declares 0 items of dimension 3"):
            load_embeddings(path, "word2vec")

    def test_bad_header(self, tmp_path):
        path = write(tmp_path / "emb.txt", "hello\na 1.0\n")
        with pytest.raises(FormatError, match="line 1"):
            load_embeddings(path, "word2vec")

    def test_unparseable_number(self, tmp_path):
        path = write(tmp_path / "emb.txt", "1 1\na one\n")
        with pytest.raises(FormatError, match="unparseable"):
            load_embeddings(path, "word2vec")


class TestCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path / "emb.csv", "a,1.0,0.5\nb,0.25,1.0\n")
        emb = load_embeddings(path, "csv")
        assert emb.ids == ["a", "b"]
        assert emb.vectors.shape[1] == 2

    def test_dimension_mismatch_at_second_row(self, tmp_path):
        path = write(tmp_path / "emb.csv", "a,1,2,3\nb,1,2,3,4\n")
        with pytest.raises(FormatError, match="line 2.*dimension mismatch"):
            load_embeddings(path, "csv")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "emb.csv", "")
        with pytest.raises(FormatError, match="no embedding rows"):
            load_embeddings(path, "csv")


class TestJsonl:
    def test_basic_with_labels(self, tmp_path):
        path = write(
            tmp_path / "emb.jsonl",
            '{"id": "a", "vector": [1.0, 0.0], "label": "sport"}\n'
            '{"id": "b", "vector": [0.0, 1.0]}\n',
        )
        emb = load_embeddings(path, "jsonl")
        assert emb.ids == ["a", "b"]
        assert emb.labels == {"a": "sport"}

    def test_zero_norm_names_id(self, tmp_path):
        path = write(tmp_path / "emb.jsonl", '{"id": "x", "vector": [0.0, 0.0]}\n')
        with pytest.raises(FormatError, match="zero-norm.*'x'"):
            load_embeddings(path, "jsonl")

    def test_invalid_json_reports_line(self, tmp_path):
        path = write(tmp_path / "emb.jsonl", '{"id": "a", "vector": [1.0]}\n{broken\n')
        with pytest.raises(FormatError, match="line 2.*invalid JSON"):
            load_embeddings(path, "jsonl")

    def test_missing_vector(self, tmp_path):
        path = write(tmp_path / "emb.jsonl", '{"id": "a"}\n')
        with pytest.raises(FormatError, match="vector"):
            load_embeddings(path, "jsonl")

    @pytest.mark.parametrize(
        "record, message",
        [
            ("[1]", "record is not a JSON object"),
            ('{"id": 5, "vector": [1.0]}', 'missing or non-string "id"'),
            ('{"id": "a", "vector": [1.0, true]}', "non-numeric vector entry for id 'a'"),
            ('{"id": "a", "vector": [1.0], "label": ""}', "label for id 'a' must be a non-empty string"),
        ],
        ids=["not-an-object", "integer-id", "boolean-entry", "empty-label"],
    )
    def test_malformed_record_names_its_fault(self, tmp_path, record, message):
        path = write(tmp_path / "emb.jsonl", record + "\n")
        with pytest.raises(FormatError) as err:
            load_embeddings(path, "jsonl")
        assert str(err.value) == f"{path}, line 1: {message}"

    def test_unknown_format_rejected(self, tmp_path):
        path = write(tmp_path / "emb.jsonl", '{"id": "a", "vector": [1.0]}\n')
        with pytest.raises(ValueError, match="unknown embedding format"):
            load_embeddings(path, "parquet")


class TestRoundTrip:
    def test_jsonl_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        vectors = rng.standard_normal((20, 5)).astype(np.float32)
        emb = EmbeddingSet(
            ids=[f"item{i}" for i in range(20)],
            vectors=vectors,
            labels={"item3": "alpha", "item7": "beta"},
        )
        path = tmp_path / "round.jsonl"
        write_jsonl(emb, path)
        back = load_embeddings(str(path), "jsonl")
        assert back.ids == emb.ids
        assert back.vectors.shape[1] == emb.vectors.shape[1]
        assert np.array_equal(back.vectors, emb.vectors)
        assert back.labels == emb.labels


class TestLabels:
    def test_basic_tsv(self, tmp_path):
        path = write(tmp_path / "labels.tsv", "a\tsport\nb\ttech\n")
        assert load_labels(path) == {"a": "sport", "b": "tech"}

    def test_duplicate_id(self, tmp_path):
        path = write(tmp_path / "labels.tsv", "a\tsport\na\ttech\n")
        with pytest.raises(FormatError, match="duplicate id 'a'"):
            load_labels(path)

    def test_empty_file_is_empty_map(self, tmp_path):
        path = write(tmp_path / "labels.tsv", "")
        assert load_labels(path) == {}

    def test_empty_label_rejected(self, tmp_path):
        path = write(tmp_path / "labels.tsv", "a\t\n")
        with pytest.raises(FormatError, match="empty label"):
            load_labels(path)

    def test_empty_id_after_a_blank_line(self, tmp_path):
        path = write(tmp_path / "labels.tsv", "a\tx\n\n\tb\n")
        with pytest.raises(FormatError, match="line 3: empty id"):
            load_labels(path)

    def test_header_flag(self, tmp_path):
        path = write(tmp_path / "labels.tsv", "id\tlabel\na\tsport\n")
        assert load_labels(path, has_header=True) == {"a": "sport"}

    def test_wrong_column_count(self, tmp_path):
        path = write(tmp_path / "labels.tsv", "a\tsport\textra\n")
        with pytest.raises(FormatError, match="two tab-separated columns"):
            load_labels(path)


class TestEmbeddingSetInvariants:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate id"):
            EmbeddingSet(ids=["a", "a"], vectors=np.ones((2, 2), dtype=np.float32))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero-norm"):
            EmbeddingSet(ids=["a", "b"], vectors=np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingSet(ids=["a"], vectors=np.array([[np.nan, 1.0]], dtype=np.float32))

    def test_rejects_label_for_unknown_id(self):
        with pytest.raises(ValueError, match="unknown id"):
            EmbeddingSet(ids=["a"], vectors=np.ones((1, 2), dtype=np.float32), labels={"b": "x"})

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError, match="no items"):
            EmbeddingSet(ids=[], vectors=np.zeros((0, 3), dtype=np.float32))

    @pytest.mark.parametrize(
        "ids, vectors, labels, message",
        [
            (["a", "b"], np.ones(2), None, "vectors must form a 2-d array"),
            (["a"], np.ones((2, 2)), None, "ids and vectors disagree on item count"),
            (["a", "b"], np.ones((2, 0)), None, "vectors have zero dimensions"),
            (["a"], np.ones((1, 2)), {"a": ""}, "empty label for id 'a'"),
        ],
        ids=["1-d", "count-mismatch", "zero-dimensions", "empty-label"],
    )
    def test_rejects_malformed_construction(self, ids, vectors, labels, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            EmbeddingSet(ids=ids, vectors=vectors, labels=labels)

    def test_vectors_stored_float32(self):
        emb = EmbeddingSet(ids=["a"], vectors=np.array([[1.0, 2.0]]))
        assert emb.vectors.dtype == np.float32


def render(fmt, rows):
    """File text for rows of (id, [value tokens]) in one embedding format.

    Returns (text, offset): the row at index k sits on line k + 1 + offset.
    """
    if fmt == "word2vec":
        lines = [f"{len(rows)} {len(rows[0][1])}"] + [" ".join([i, *vals]) for i, vals in rows]
        return "\n".join(lines) + "\n", 1
    if fmt == "csv":
        return "".join(",".join([i, *vals]) + "\n" for i, vals in rows), 0
    return "".join('{"id": "%s", "vector": [%s]}\n' % (i, ", ".join(vals)) for i, vals in rows), 0


FORMATS = ("word2vec", "csv", "jsonl")
NAN = {"word2vec": "nan", "csv": "nan", "jsonl": "NaN"}


def write_rows(tmp_path, fmt, rows):
    text, offset = render(fmt, rows)
    path = fresh(tmp_path / f"emb.{fmt}")
    path.write_text(text, encoding="utf-8")
    return str(path), offset


@pytest.mark.parametrize("fmt", FORMATS)
class TestFirstErrorInFileOrder:
    """Values are checked over the whole array at once; errors still come out in file order."""

    def test_non_finite_value_beats_later_dimension_mismatch(self, tmp_path, fmt):
        rows = [(f"r{k}", ["1.0", "0.5"]) for k in range(6)]
        rows[2] = ("r2", ["1.0", NAN[fmt]])
        rows[5] = ("r5", ["1.0", "0.5", "0.25"])
        path, offset = write_rows(tmp_path, fmt, rows)
        with pytest.raises(FormatError, match=rf"line {3 + offset}: non-finite value in vector for id 'r2'"):
            load_embeddings(path, fmt)

    def test_non_finite_value_beats_later_duplicate_id(self, tmp_path, fmt):
        inf = "Infinity" if fmt == "jsonl" else "inf"
        rows = [("a", ["1.0", inf]), ("b", ["1.0", "0.0"]), ("a", ["0.0", "1.0"])]
        path, offset = write_rows(tmp_path, fmt, rows)
        with pytest.raises(FormatError, match=rf"line {1 + offset}: non-finite"):
            load_embeddings(path, fmt)

    def test_duplicate_id_beats_bad_value_on_same_line(self, tmp_path, fmt):
        rows = [("a", ["1.0", "0.0"]), ("a", [NAN[fmt], "0.0"])]
        path, offset = write_rows(tmp_path, fmt, rows)
        with pytest.raises(FormatError, match=rf"line {2 + offset}: duplicate id 'a' \(first seen on line {1 + offset}\)"):
            load_embeddings(path, fmt)

    def test_zero_norm_row_names_its_id(self, tmp_path, fmt):
        rows = [("a", ["1.0", "0.0"]), ("zero", ["0.0", "-0.0"]), ("b", ["1.0", "0.0", "2.0"])]
        path, offset = write_rows(tmp_path, fmt, rows)
        with pytest.raises(FormatError, match=rf"line {2 + offset}: zero-norm vector for id 'zero'"):
            load_embeddings(path, fmt)

    def test_norm_bound_decided_exactly(self, tmp_path, fmt):
        # four components of 6e-13 have norm 1.2e-12; float32(1e-12) is just
        # under 1e-12. Both sit inside the band the exact sum re-checks.
        rows = [("a", ["1.0", "0.0", "0.0", "0.0"]), ("tiny", ["6e-13"] * 4)]
        path, _ = write_rows(tmp_path, fmt, rows)
        assert load_embeddings(path, fmt).ids == ["a", "tiny"]
        rows = [("a", ["1.0", "0.0", "0.0", "0.0"]), ("under", ["1e-12", "0.0", "0.0", "0.0"])]
        path, offset = write_rows(tmp_path, fmt, rows)
        with pytest.raises(FormatError, match=rf"line {2 + offset}: zero-norm vector for id 'under'"):
            load_embeddings(path, fmt)

    def test_float32_overflow_is_a_format_error(self, tmp_path, fmt):
        # 1e39 is finite as a float64 but not as a float32
        rows = [("a", ["1.0", "0.0"]), ("big", ["1e39", "1.0"]), ("c", ["0.0", "1.0"])]
        path, offset = write_rows(tmp_path, fmt, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=rf"line {2 + offset}: value outside the float32 range in vector for id 'big'"):
                load_embeddings(path, fmt)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])  # a word2vec row splits on whitespace, so has an id
def test_empty_id_beats_bad_value_on_same_line(tmp_path, fmt):
    rows = [("a", ["1.0", "0.0"]), ("", ["0.0", NAN[fmt]])]
    path, offset = write_rows(tmp_path, fmt, rows)
    with pytest.raises(FormatError, match=rf"line {2 + offset}: empty id"):
        load_embeddings(path, fmt)


@pytest.mark.parametrize("fmt", ["word2vec", "csv"])  # JSON numbers are parsed by the JSON decoder
def test_unparseable_number_loses_to_earlier_bad_value(tmp_path, fmt):
    rows = [("a", [NAN[fmt], "0.0"]), ("b", ["one", "0.0"])]
    path, offset = write_rows(tmp_path, fmt, rows)
    with pytest.raises(FormatError, match=rf"line {1 + offset}: non-finite"):
        load_embeddings(path, fmt)
    rows = [("a", ["1.0", "0.0"]), ("b", ["1.0", "one"])]
    path, offset = write_rows(tmp_path, fmt, rows)
    with pytest.raises(FormatError, match=rf"line {2 + offset}: unparseable number 'one'"):
        load_embeddings(path, fmt)


def test_jsonl_integer_beyond_float_range(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "a", "vector": [1.0, 0.0]}\n{"id": "big", "vector": [1%s, 0]}\n' % ("0" * 400), encoding="utf-8")
    with pytest.raises(FormatError, match="line 2: value outside the float32 range in vector for id 'big'"):
        load_embeddings(str(path), "jsonl")


@pytest.mark.parametrize("fmt", FORMATS)
def test_row_rules_run_once_per_load_and_per_construction(tmp_path, monkeypatch, fmt):
    calls = []
    rule = embedding_io._first_bad_row
    monkeypatch.setattr(embedding_io, "_first_bad_row", lambda *args: calls.append(args) or rule(*args))
    path, _ = write_rows(tmp_path, fmt, [("a", ["1.0", "0.0"]), ("b", ["0.0", "1.0"])])
    assert load_embeddings(path, fmt).ids == ["a", "b"]
    assert len(calls) == 1
    EmbeddingSet(ids=["a"], vectors=np.ones((1, 2)))
    assert len(calls) == 2


def test_direct_construction_names_a_value_beyond_float32():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="value outside the float32 range in vector for id 'big'"):
            EmbeddingSet(ids=["a", "big"], vectors=np.array([[1.0, 0.0], [1e39, 1.0]]))


def past_first_chunk(text, marker, line):
    """text as bytes with an undecodable byte inserted before marker, beyond the first 8 KiB."""
    data = text.encode("utf-8")
    at = data.index(marker.encode("utf-8"))
    assert at > 8192 and data[:at].count(b"\n") == line - 1
    return data[:at] + b"\xff" + data[at:]


@pytest.mark.parametrize("fmt", FORMATS)
def test_undecodable_byte_names_its_line(tmp_path, fmt):
    rows = [(f"r{k}", ["1.0", "0.5"]) for k in range(1000)]
    text, offset = render(fmt, rows)
    path = tmp_path / f"emb.{fmt}"
    path.write_bytes(past_first_chunk(text, "r900", 901 + offset))
    with pytest.raises(FormatError, match=rf"line {901 + offset}: not valid UTF-8: byte 0xff"):
        load_embeddings(str(path), fmt)


def test_undecodable_label_file_names_its_line(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_bytes(past_first_chunk("".join(f"a{k}\tx\n" for k in range(2000)), "a1500\t", 1501))
    with pytest.raises(FormatError, match=r"line 1501: not valid UTF-8"):
        load_labels(str(path))


def test_undecodable_byte_loses_to_an_earlier_bad_row(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_bytes(b"a,nan,1\nb,1,2\nc,\xff,3\n")
    with pytest.raises(FormatError, match="line 1: non-finite value in vector for id 'a'"):
        load_embeddings(str(path), "csv")


def test_undecodable_byte_loses_to_an_earlier_duplicate_label(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_bytes(b"a\tx\na\ty\nc\t\xff\n")
    with pytest.raises(FormatError, match=r"line 2: duplicate id 'a' \(first seen on line 1\)"):
        load_labels(str(path))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "value, message",
    [
        ("1e400", "value outside the float32 range"),
        ("-1e400", "value outside the float32 range"),
        ("1" + "0" * 400, "value outside the float32 range"),
        ("inf", "non-finite value"),
    ],
    ids=["decimal", "negative-decimal", "integer", "literal-inf"],
)
def test_a_number_beyond_float64_is_outside_float32_in_every_format(tmp_path, fmt, value, message):
    if value == "inf" and fmt == "jsonl":
        value = "Infinity"
    rows = [("a", ["1.0", "0.0"]), ("big", [value, "1.0"])]
    path, offset = write_rows(tmp_path, fmt, rows)
    with pytest.raises(FormatError, match=rf"line {2 + offset}: {message} in vector for id 'big'"):
        load_embeddings(path, fmt)


def test_deeply_nested_jsonl_record_is_a_format_error(tmp_path):
    path = write(tmp_path / "emb.jsonl", '{"id": "a", "vector": [1.0]}\n' + "[" * 200_000 + "\n")
    with pytest.raises(FormatError, match="line 2: invalid JSON: nested too deeply"):
        load_embeddings(path, "jsonl")


@pytest.mark.parametrize("fmt", ["word2vec", "csv"])  # JSON numbers are parsed by the JSON decoder
def test_unparseable_number_in_a_later_chunk_loses_to_an_earlier_duplicate_id(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(embedding_io, "CHUNK_TOKENS", 4)  # two rows of two values per chunk
    rows = [("a", ["1.0", "0.0"]), ("a", ["0.0", "1.0"]), ("b", ["one", "0.0"]), ("c", ["1.0", "1.0"]), ("d", ["1.0"])]
    path, offset = write_rows(tmp_path, fmt, rows)
    with pytest.raises(FormatError, match=rf"line {2 + offset}: duplicate id 'a' \(first seen on line {1 + offset}\)"):
        load_embeddings(path, fmt)
    rows[1] = ("e", ["0.0", "1.0"])
    path, offset = write_rows(tmp_path, fmt, rows)
    with pytest.raises(FormatError, match=rf"line {3 + offset}: unparseable number 'one'"):
        load_embeddings(path, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("at", [1, 3])
@pytest.mark.parametrize("value, message", [("1e400", "value outside the float32 range"), ("nan", "non-finite value")])
def test_a_non_finite_row_that_ends_a_chunk_names_its_id(tmp_path, monkeypatch, fmt, at, value, message):
    monkeypatch.setattr(embedding_io, "CHUNK_TOKENS", 4)  # two rows of two values per chunk
    rows = [(f"r{k}", ["1.0", "0.5"]) for k in range(6)]
    rows[at] = ("bad", [NAN[fmt] if value == "nan" else value, "1.0"])
    rows[at + 1] = ("next", ["1.0", NAN[fmt]])
    path, offset = write_rows(tmp_path, fmt, rows)
    with pytest.raises(FormatError, match=rf"line {at + 1 + offset}: {message} in vector for id 'bad'"):
        load_embeddings(path, fmt)


def test_jsonl_integer_beyond_float64_in_a_later_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(embedding_io, "CHUNK_TOKENS", 4)
    path = tmp_path / "emb.jsonl"
    rows = ["[1.0, 0.0]", "[0.0, 1.0]", "[1, 1]", "[1%s, 0]" % ("0" * 400), "[2, 1]"]
    path.write_text("".join('{"id": "r%d", "vector": %s}\n' % (k, v) for k, v in enumerate(rows)), encoding="utf-8")
    with pytest.raises(FormatError, match="line 4: value outside the float32 range in vector for id 'r3'"):
        load_embeddings(str(path), "jsonl")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_loader_memory_is_a_small_multiple_of_the_values(tmp_path):
    n, d = 20_000, 64
    path = tmp_path / "big.txt"
    values = np.random.default_rng(26).standard_normal((n, d))
    np.savetxt(path, np.column_stack([np.arange(n), values]), fmt=["w%d"] + ["%.6f"] * d, header=f"{n} {d}", comments="")
    # the child's own peak RSS: its ru_maxrss would start from this process's peak
    child = (
        "import re, sys; sys.path.insert(0, sys.argv[1]); from vec2gc import load_embeddings\n"
        "def peak_kib(): return int(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()).group(1))\n"
        "before = peak_kib(); load_embeddings(sys.argv[2], 'word2vec'); print(peak_kib() - before)"
    )
    src = os.path.dirname(os.path.dirname(embedding_io.__file__))
    run = subprocess.run([sys.executable, "-c", child, src, str(path)], capture_output=True, text=True, check=True)
    # float64 chunks, their concatenation and the float32 copy are 2.5 n*d*8, and ids and
    # line numbers about 0.3 more at d = 64; a Python float per value would add 4 n*d*8
    assert int(run.stdout) * 1024 < 4 * n * d * 8, run.stdout
