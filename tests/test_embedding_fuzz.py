"""Property tests of the three embedding loaders: any bytes load or fail at a line of the file."""

import io
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import fresh  # noqa: E402
from test_embedding_io import FORMATS, render, write_rows  # noqa: E402

from vec2gc import EmbeddingSet, FormatError, embedding_io, load_embeddings  # noqa: E402

# derandomized so that a tier-1 run is repeatable; tmp_path is shared by the examples (see fresh)
FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# tokens every format reads as the same number: float() and JSON both take these
NUMBER = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "0.0", "-0.0", "1e39", "6e-13", "1e-12"]),
)


@st.composite
def row_sets(draw):
    """(id, value tokens) rows, mostly of one dimension, with repeated ids likely."""
    dim = draw(st.integers(1, 4))
    values = st.lists(NUMBER, min_size=dim, max_size=dim) | st.lists(NUMBER, min_size=1, max_size=5)
    return draw(st.lists(st.tuples(st.text(alphabet="abc_", min_size=1, max_size=2), values), min_size=1, max_size=6))


@st.composite
def near_files(draw):
    """Rows rendered in one of the formats, with a few bytes spliced in somewhere."""
    text, _ = render(draw(st.sampled_from(FORMATS)), draw(row_sets()))
    data = text.encode("utf-8")
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.binary(max_size=3)) + data[at:]


# bytes of every kind, text made of what the three formats are built from, and near misses
FILE_BYTES = st.one_of(
    st.binary(max_size=120),
    st.text(alphabet='ab ,.-+019eE\n\r\t[]{}":NaIfity\xe9', max_size=120).map(str.encode),
    near_files(),
)


def line_count(data: bytes) -> int:
    # lines as a text-mode file counts them: \n, \r and \r\n each end one
    return len(io.StringIO(data.decode("utf-8", "replace"), newline=None).readlines())


@pytest.mark.parametrize("fmt", FORMATS)
@FUZZ
@given(data=FILE_BYTES)
def test_any_bytes_load_or_fail_at_a_line_of_the_file(tmp_path, fmt, data):
    path = fresh(tmp_path / "emb")
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            emb = load_embeddings(str(path), fmt)
        except FormatError as exc:
            assert 1 <= exc.line <= max(1, line_count(data))
        else:
            assert isinstance(emb, EmbeddingSet) and len(emb) >= 1


@FUZZ
@given(rows=row_sets())
def test_formats_agree_on_the_same_rows(tmp_path, rows):
    outcomes = []
    for fmt in FORMATS:
        path, offset = write_rows(tmp_path, fmt, rows)
        try:
            emb = load_embeddings(path, fmt)
        except FormatError as exc:
            outcomes.append(("error at row", exc.line - 1 - offset))
        else:
            outcomes.append(("loaded", emb.ids, emb.vectors.tobytes(), emb.vectors.shape, emb.labels))
    assert outcomes[1:] == outcomes[:-1]


def outcomes_by_chunk_size(path, fmt):
    """What load_embeddings gives at the default chunk size and at chunks of 1, 2 and 3 tokens."""
    outcomes = []
    for size in (embedding_io.CHUNK_TOKENS, 1, 2, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding_io, "CHUNK_TOKENS", size)
            try:
                emb = load_embeddings(path, fmt)
            except FormatError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((emb.ids, emb.vectors.tobytes(), emb.labels))
    return outcomes


@pytest.mark.parametrize("fmt", FORMATS)
@FUZZ
@given(data=FILE_BYTES)
def test_any_bytes_load_alike_at_every_chunk_size(tmp_path, fmt, data):
    path = fresh(tmp_path / "emb")
    path.write_bytes(data)
    outcomes = outcomes_by_chunk_size(str(path), fmt)
    assert outcomes[1:] == outcomes[:-1]


@pytest.mark.parametrize("fmt", FORMATS)
@FUZZ
@given(rows=row_sets())
def test_rows_load_alike_at_every_chunk_size(tmp_path, fmt, rows):
    outcomes = outcomes_by_chunk_size(write_rows(tmp_path, fmt, rows)[0], fmt)
    assert outcomes[1:] == outcomes[:-1]
