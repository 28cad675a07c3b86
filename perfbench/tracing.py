"""In-process span recorder for the traced benchmark run.

Spans are recorded around the calls vec2gc's modules make into each
other, by replacing the public names those modules import: the
`vec2gc.cli` names (loaders, graph kernel, export, hierarchy, evaluation)
and `vec2gc.hierarchy.louvain` / `induced_subgraph`. The program itself
is not modified. A target that does not exist (renamed or removed by a
later refactor) is skipped and reported, so its layer metrics come out
absent rather than crashing the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `dump` writes them out once, at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()  # span names whose target exists
        self.missing: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run, attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, describe=None) -> bool:
        """Replace module.attr by a spanning wrapper; False if it does not exist.

        describe(args, kwargs, result) returns counts stored on the span.
        """
        target = getattr(module, attr, None)
        if not callable(target):
            self.missing.append(f"{module.__name__}.{attr}")
            return False

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = target(*args, **kwargs)
                if describe is not None:
                    try:
                        s.attrs.update(describe(args, kwargs, result))
                    except (AttributeError, TypeError, IndexError, KeyError):
                        # a changed return type loses its counts, not the run
                        pass
                return result

        self._patched.append((module, attr, target))
        self.installed.add(name)
        setattr(module, attr, wrapper)
        return True

    def restore(self) -> None:
        for module, attr, target in reversed(self._patched):
            setattr(module, attr, target)
        self._patched.clear()

    def children(self, s: Span) -> list[Span]:
        return [c for c in self.spans if c.parent == s.id]

    def self_time(self, s: Span) -> float:
        """Span duration minus the part of it that child spans cover."""
        covered, cursor = 0.0, s.start
        for c in sorted(self.children(s), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return s.duration - covered

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _graph_counts(g) -> dict:
    degree = np.diff(g.indptr)
    return {"edges": int(g.indices.size) // 2, "isolated": int(np.count_nonzero(degree == 0))}


def install(tracer: Tracer, cli, hierarchy) -> None:
    """Wrap the inter-module calls of vec2gc; see the module docstring."""
    tracer.wrap(cli, "load_embeddings", "embedding_io.load")
    tracer.wrap(cli, "load_labels", "embedding_io.labels")
    tracer.wrap(cli, "build_graph", "simgraph.build", lambda a, k, r: _graph_counts(r))
    tracer.wrap(cli, "write_edges_tsv", "simgraph.write", lambda a, k, r: {"edges": _graph_counts(a[0])["edges"]})
    tracer.wrap(cli, "vec2gc_cluster", "hierarchy.cluster")
    tracer.wrap(cli, "dumps_tree", "hierarchy.dumps")
    tracer.wrap(cli, "kmedoids", "evaluation.kmedoids")
    tracer.wrap(cli, "purity_report", "evaluation.purity")
    tracer.wrap(
        hierarchy, "louvain", "community.louvain",
        lambda a, k, r: {
            "edges": _graph_counts(a[0])["edges"],
            "communities": int(r.community_count),
            "modularity": float(r.modularity),
        },
    )
    tracer.wrap(hierarchy, "induced_subgraph", "simgraph.induced")
