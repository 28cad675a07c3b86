"""Relations the whole pipeline keeps: how the tree document answers a change of its input.

Each relation runs on hypothesis-generated small inputs and on the
topics-dense benchmark corpus at seed 1 (perfbench/corpora.py, read only).
The benchmark runs take about 0.5 s each; the file runs in about 5 s on a
2-CPU x86-64 machine. Row order is not among the relations: a sweep
visits nodes in a seeded permutation of their indices, so reordered rows
can take another trajectory.
"""

import collections
import importlib.util
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import fresh  # noqa: E402
from test_embedding_io import FORMATS, render  # noqa: E402

from vec2gc import EmbeddingSet, build_graph, load_embeddings, vec2gc_cluster  # noqa: E402
from vec2gc.hierarchy import REASON_ISOLATED, dumps_tree  # noqa: E402

RELATION = settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
MOD_THRESHOLD = 0.3
CORPORA = Path(__file__).resolve().parent.parent / "perfbench" / "corpora.py"


class Case(NamedTuple):
    """One clustering run's input and settings; axes are three columns no row has an edge along."""

    ids: list
    vectors: np.ndarray
    theta: float
    max_size: int
    seed: int
    axes: tuple

    def document(self, ids=None, vectors=None) -> str:
        emb = EmbeddingSet(ids=list(self.ids if ids is None else ids), vectors=self.vectors if vectors is None else vectors)
        return self.document_of(emb)

    def document_of(self, emb: EmbeddingSet) -> str:
        tree, bucket = vec2gc_cluster(build_graph(emb, self.theta), MOD_THRESHOLD, self.max_size, self.seed)
        return dumps_tree(
            tree, bucket, emb.ids, theta=self.theta, mod_threshold=MOD_THRESHOLD, max_size=self.max_size, seed=self.seed
        )


@st.composite
def small_cases(draw):
    """Up to 40 items around a few centers, with three zero columns last: an axis vector there has no edge."""
    n, d, k = draw(st.integers(2, 40)), draw(st.integers(2, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.05, 0.3, 0.8]))
    vectors = np.zeros((n, d + 3), dtype=np.float32)
    vectors[:, :d] = rng.standard_normal((k, d))[rng.integers(k, size=n)] + spread * rng.standard_normal((n, d))
    theta = draw(st.sampled_from([0.1, 0.5, 0.8, 0.95]))
    return Case([f"i{a}" for a in range(n)], vectors, theta, draw(st.integers(1, 12)), draw(st.integers(0, 2**64 - 1)), (d, d + 1, d + 2))


def load_corpora():
    if not CORPORA.exists():
        pytest.skip("perfbench/corpora.py is not beside the tests")
    spec = importlib.util.spec_from_file_location("corpora", CORPORA)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("corpora", module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def topics_dense():
    """topics-dense at seed 1 with its workload's settings, and its tree document."""
    corpora = load_corpora()
    corpus, workload = corpora.gen_topics_dense(1), corpora.WORKLOADS["topics-dense"]
    # every component is below 0.45 and theta is 0.6, so the first three axis vectors have no edge
    case = Case(corpus.ids, corpus.vectors, workload.theta, workload.max_size, 1, (0, 1, 2))
    return case, case.document()


def check_scaling(case, text, rng):
    # a power of two scales a float32 exactly, and every norm, dot and quotient with it
    assert case.document(vectors=case.vectors * np.float32(8)) == text
    powers = (2.0 ** rng.integers(-4, 5, size=len(case.ids))).astype(np.float32)
    assert case.document(vectors=case.vectors * powers[:, None]) == text


def check_edgeless_items(case, text, rng):
    ids, vectors = list(case.ids), case.vectors
    added = [f"+edgeless{k}" for k in range(3)]
    for new, axis, at in zip(added, case.axes, (0, len(ids) // 2, len(ids) + 2)):
        ids.insert(at, new)
        vectors = np.insert(vectors, at, np.eye(vectors.shape[1], dtype=np.float32)[axis], axis=0)
    doc, grown = json.loads(text), json.loads(case.document(ids, vectors))
    assert {**grown, "non_community": None} == {**doc, "non_community": None}
    reasons = grown["non_community"]["reasons"]
    assert reasons == {**doc["non_community"]["reasons"], **dict.fromkeys(added, REASON_ISOLATED)}
    assert sorted(grown["non_community"]["members"]) == sorted(reasons)


def check_renaming(case, text, rng):
    # a bijection onto names whose order differs from the original ids' order
    names = dict(zip(case.ids, (f"ré {p}" for p in rng.permutation(len(case.ids)).tolist())))
    doc = json.loads(text)
    for node in doc["nodes"]:
        node["members"] = [names[m] for m in node["members"]]
    bucket = doc["non_community"]
    bucket["members"] = [names[m] for m in bucket["members"]]
    bucket["reasons"] = {names[m]: reason for m, reason in bucket["reasons"].items()}
    assert case.document(ids=[names[i] for i in case.ids]) == json.dumps(doc, indent=2) + "\n"


def write_formats(case, tmp_path) -> dict:
    """The case's float32 values written in each format, each through float64 repr, which reads back exact."""
    rows = [(item_id, [repr(v) for v in row]) for item_id, row in zip(case.ids, case.vectors.tolist())]
    paths = {}
    for fmt in FORMATS:
        paths[fmt] = str(fresh(tmp_path / f"emb.{fmt}"))
        Path(paths[fmt]).write_text(render(fmt, rows)[0], encoding="utf-8")
    return paths


@pytest.mark.filterwarnings("ignore:similarity graph has no edges")
@pytest.mark.parametrize("relation", [check_scaling, check_edgeless_items, check_renaming])
@given(case=small_cases(), rng_seed=st.integers(0, 2**32 - 1))
@RELATION
def test_small_inputs_keep_the_relation(relation, case, rng_seed):
    relation(case, case.document(), np.random.default_rng(rng_seed))


@pytest.mark.parametrize("relation", [check_scaling, check_edgeless_items, check_renaming])
def test_topics_dense_keeps_the_relation(topics_dense, relation):
    case, text = topics_dense
    relation(case, text, np.random.default_rng(5))


@pytest.mark.filterwarnings("ignore:similarity graph has no edges")
@given(case=small_cases())
@RELATION
def test_small_inputs_give_one_document_in_every_format(tmp_path, case):
    text = case.document()
    for fmt, path in write_formats(case, tmp_path).items():
        assert case.document_of(load_embeddings(path, fmt)) == text, fmt


def test_topics_dense_loads_the_same_bits_in_every_format(topics_dense, tmp_path):
    # equal loads give equal documents, so one loaded file is clustered, not three
    case, text = topics_dense
    loaded = {fmt: load_embeddings(path, fmt) for fmt, path in write_formats(case, tmp_path).items()}
    for emb in loaded.values():
        assert emb.ids == case.ids and emb.vectors.tobytes() == case.vectors.tobytes()
    assert case.document_of(loaded["word2vec"]) == text


def adjusted_rand_index(a, b) -> float:
    """Hubert and Arabie's adjusted Rand index of two labelings of the same items (J. Classif. 2:193, 1985)."""
    pairs = lambda counts: sum(c * (c - 1) // 2 for c in counts)  # noqa: E731
    joint = pairs(collections.Counter(zip(a, b)).values())
    left, right = pairs(collections.Counter(a).values()), pairs(collections.Counter(b).values())
    expected = left * right / pairs([len(a)])
    return (joint - expected) / ((left + right) / 2 - expected)


def leaf_labels(text, ids) -> list:
    """Each id's leaf, by node id; an id in the bucket is a group of its own."""
    nodes = json.loads(text)["nodes"]
    leaf = {member: node["id"] for node in nodes if not node["children"] for member in node["members"]}
    return [leaf.get(item_id, f"bucket {item_id}") for item_id in ids]


# One added item may move the tree this far, by the adjusted Rand index of the original items' leaves.
STABLE_ARI = 0.9


def copy_of_first_item(case, cosine) -> np.ndarray:
    """A float32 vector at the given cosine to the first item, turned toward a fixed random direction."""
    x = case.vectors[0].astype(np.float64)
    x /= np.linalg.norm(x)
    other = np.random.default_rng(0).standard_normal(x.size)
    other -= (other @ x) * x
    return (cosine * x + np.sqrt(1.0 - cosine * cosine) * other / np.linalg.norm(other)).astype(np.float32)


@pytest.mark.parametrize(
    "cosine",
    [
        pytest.param(1.0, marks=pytest.mark.xfail(strict=True, reason="an exact duplicate's capped 1e9 edge collapses the tree to 1 leaf")),
        1.0 - 1e-3,
    ],
    ids=["exact-copy", "near-copy"],
)
def test_topics_dense_is_stable_under_one_added_copy(topics_dense, cosine):
    case, text = topics_dense
    copy = case.vectors[:1] if cosine == 1.0 else copy_of_first_item(case, cosine)[None]
    grown = case.document([*case.ids, "+copy"], np.vstack([case.vectors, copy]))
    assert adjusted_rand_index(leaf_labels(text, case.ids), leaf_labels(grown, case.ids)) >= STABLE_ARI
