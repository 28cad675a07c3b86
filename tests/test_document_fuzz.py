"""Property tests of the tree-document and manifest readers: any JSON ends in exit 0 or exit 1 naming the file."""

import json
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import fresh, planted_groups, write_jsonl  # noqa: E402

from vec2gc import __version__  # noqa: E402
from vec2gc.cli import main  # noqa: E402

# derandomized so that a tier-1 run is repeatable; tmp_path is shared by the examples (see fresh)
FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)

# node ids and members drawn from small sets, so that links, duplicates and labeled members are common
NODE_ID = st.integers(-1, 4) | JSON
MEMBER_LISTS = st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), max_size=4)
MEMBERS = MEMBER_LISTS | JSON
NODE = st.fixed_dictionaries(
    {"id": NODE_ID},
    optional={"parent": st.none() | NODE_ID, "children": st.lists(NODE_ID, max_size=3) | JSON, "members": MEMBERS},
)


@st.composite
def near_trees(draw):
    """A well-formed tree document, with one field of one node replaced half the time."""
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, draw(st.integers(1, 5)))]
    nodes = [
        {"id": i, "parent": p, "children": [c for c, q in enumerate(parents) if q == i], "members": draw(MEMBER_LISTS)}
        for i, p in enumerate(parents)
    ]
    if draw(st.booleans()):
        node = draw(st.sampled_from(nodes))
        node[draw(st.sampled_from(sorted(node)))] = draw(NODE_ID | MEMBERS)
    return {"nodes": nodes, "non_community": {"members": draw(MEMBER_LISTS)}}


TREE = st.one_of(
    JSON,
    st.fixed_dictionaries(
        {},
        optional={
            "nodes": st.lists(NODE, max_size=5) | JSON,
            "non_community": st.fixed_dictionaries({}, optional={"members": MEMBERS}) | JSON,
        },
    ),
    near_trees(),
)


def outcome(argv, capsys, path) -> None:
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty tree is a warning, and a valid outcome
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 1:
        assert str(path) in err


@FUZZ
@given(doc=TREE)
def test_any_tree_document_evaluates_or_names_the_file(tmp_path, capsys, doc):
    labels = fresh(tmp_path / "labels.tsv")
    labels.write_text("a\tx\nb\tx\nc\ty\n", encoding="utf-8")
    tree = fresh(tmp_path / "tree.json")
    tree.write_text(json.dumps(doc), encoding="utf-8")
    outcome(["evaluate", "--tree", str(tree), "--labels", str(labels)], capsys, tree)


@pytest.fixture
def recorded(tmp_path):
    """The manifest of a small clustering run."""
    emb, _ = planted_groups([8, 8, 8], intra_cs=0.9)
    write_jsonl(emb, tmp_path / "emb.jsonl")
    argv = ["cluster", "--input", str(tmp_path / "emb.jsonl"), "--theta", "0.5", "--seed", "3"]
    assert main(argv + ["--output", str(tmp_path / "tree.json")]) == 0
    return json.loads((tmp_path / "tree.manifest.json").read_text())


# what is read from the manifest, and one unknown name; input, labels and format
# name the files a rerun reads and restarts sets its length, so they keep their recorded values
FUZZED = ["theta", "mod_threshold", "max_size", "min_community_size", "seed", "output", "colour"]
# half the manifests are of this version; another version, or none (None drops
# the field), is refused before the parameters are read
VERSIONS = st.just(__version__) | st.sampled_from(["0.3.1", None, 3])


# values near the valid ones, so that reruns happen too
NEAR = st.integers(-2, 30) | st.floats(-0.5, 1.5) | st.sampled_from([1e-9, 100, "tree.json"])


@st.composite
def parameter_objects(draw, recorded):
    """Any JSON, or the recorded parameters with a few of them replaced or dropped."""
    if draw(st.integers(0, 3)) == 0:
        return draw(JSON)
    params = dict(recorded)
    for key in draw(st.lists(st.sampled_from(FUZZED), max_size=3)):
        if draw(st.booleans()):
            params[key] = draw(NEAR | JSON)
        else:
            params.pop(key, None)
    return params


@FUZZ
@given(data=st.data())
def test_any_manifest_parameters_rerun_or_name_the_file(tmp_path, capsys, recorded, data):
    manifest = fresh(tmp_path / "fuzz.manifest.json")
    # the recorded checksum, so that reruns are exercised too
    doc = {
        "version": data.draw(VERSIONS),
        "parameters": data.draw(parameter_objects(recorded["parameters"])),
        "input_sha256": recorded["input_sha256"],
    }
    if doc["version"] is None:
        del doc["version"]
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["cluster", "--from-manifest", str(manifest), "--output", str(tmp_path / "rerun.json")]
    outcome(argv, capsys, manifest)
