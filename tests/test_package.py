
import pytest

import vec2gc

# removed in 0.3.0 because only tests called them, and tree_document in 0.3.1:
# json.loads(dumps_tree(...)) gives the same document
REMOVED = ["cosine_similarity", "move_gain", "save_embeddings_jsonl", "tree_document"]


def test_every_exported_name_resolves_once():
    assert len(vec2gc.__all__) == len(set(vec2gc.__all__))
    for name in vec2gc.__all__:
        assert hasattr(vec2gc, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_cannot_be_imported(name):
    with pytest.raises(ImportError):
        exec(f"from vec2gc import {name}", {})
    assert name not in vec2gc.__all__
