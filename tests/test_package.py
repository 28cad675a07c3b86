
import dataclasses

import pytest

import vec2gc

# removed in 0.3.0 because only tests called them, and tree_document in 0.3.1:
# json.loads(dumps_tree(...)) gives the same document. 0.4.1 removed edge_weight,
# the scalar twin of build_graph's weights, and kmedoids_fit, now kmedoids.
# 0.4.2 renamed the SimilarityGraph field total_weight (m) to two_m (2m), below
REMOVED = ["cosine_similarity", "move_gain", "save_embeddings_jsonl", "tree_document", "edge_weight", "kmedoids_fit"]


def test_every_exported_name_resolves_once():
    assert len(vec2gc.__all__) == len(set(vec2gc.__all__))
    for name in vec2gc.__all__:
        assert hasattr(vec2gc, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_cannot_be_imported(name):
    with pytest.raises(ImportError):
        exec(f"from vec2gc import {name}", {})
    assert name not in vec2gc.__all__


def test_total_weight_is_renamed_two_m():
    fields = {field.name for field in dataclasses.fields(vec2gc.SimilarityGraph)}
    assert "two_m" in fields and "total_weight" not in fields
