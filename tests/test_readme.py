"""The README's library example runs as written, so a removed name or a broken call fails here."""

import re
from pathlib import Path

from oracles import planted_groups, write_jsonl
from vec2gc import EmbeddingSet

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_library_example_runs(tmp_path, monkeypatch):
    emb, labels = planted_groups([12, 12, 12], intra_cs=0.95)
    write_jsonl(EmbeddingSet(ids=emb.ids, vectors=emb.vectors, labels=labels), tmp_path / "docs.jsonl")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    assert sorted(map(len, scope["clusters"])) == [12, 12, 12]
    assert scope["report"].fractions[0.9] == 1.0
