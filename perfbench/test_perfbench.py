"""Self-tests of the benchmark harness.

Run from the root of a checkout:
    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import types

import numpy as np
import pytest

import corpora
import run as bench
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from vec2gc import EmbeddingSet, build_graph  # noqa: E402
import vec2gc.cli as cli  # noqa: E402
import vec2gc.hierarchy as hierarchy  # noqa: E402


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _make_run(tmp_path, w: corpora.Workload, seed: int) -> bench.Run:
    prep = corpora.prepare(w, seed, str(tmp_path / "cache"))
    rundir = tmp_path / "run"
    rundir.mkdir()
    return bench.Run(ROOT, prep, seed, str(rundir))


@pytest.mark.parametrize("name", sorted(corpora.WORKLOADS))
def test_generators_are_byte_identical_for_a_seed(tmp_path, name):
    w = corpora.WORKLOADS[name]
    digests = []
    for attempt, seed in enumerate((5, 5, 6)):
        path = str(tmp_path / f"corpus{attempt}")
        corpora.write_corpus(corpora.GENERATORS[name](seed), w, path)
        digests.append(_digest(path))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_written_values_parse_to_the_generated_float32_bits(tmp_path):
    w = corpora.WORKLOADS["nested-deep"]
    corpus = corpora.gen_nested_deep(3)
    path = str(tmp_path / "c.csv")
    corpora.write_corpus(corpus, w, path)
    emb = cli.load_embeddings(path, "csv")
    assert emb.ids == corpus.ids
    assert np.array_equal(emb.vectors.view(np.uint32), corpus.vectors.view(np.uint32))


def test_reference_edges_equal_build_graph_on_a_small_corpus():
    corpus = corpora.gen_topics_dense(7)
    vectors = corpus.vectors[:600]
    theta = corpora.WORKLOADS["topics-dense"].theta
    src, dst, weight, borderline = corpora.reference_edges(vectors, theta, block=64)
    g = build_graph(EmbeddingSet(corpus.ids[:600], vectors), theta)
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    upper = g.indices > rows
    assert borderline == 0
    assert src.size > 1000
    assert np.array_equal(src, rows[upper]) and np.array_equal(dst, g.indices[upper])
    np.testing.assert_allclose(weight, g.weights[upper], rtol=1e-12, atol=0)


def test_a_child_exiting_1_is_counted_as_failed(tmp_path):
    run = _make_run(tmp_path, corpora.WORKLOADS["topics-dense"], 1)
    run.prep.input = run.prep.baseline_input = os.path.join(str(tmp_path), "missing.jsonl")
    run.spawner = bench.Spawner()
    try:
        metrics = bench.untraced(run, seconds=0.0)
    finally:
        run.spawner.close()
    assert run.attempted == len(bench.COMMANDS) * bench.MIN_REPS
    assert run.failed == run.attempted
    assert sum(p.startswith("cluster: exit 1") for p in run.problems) == bench.MIN_REPS
    assert metrics["success_rate"]["value"] == 0.0


def test_a_wrong_export_fails_the_exactness_gate(tmp_path):
    run = _make_run(tmp_path, corpora.WORKLOADS["topics-dense"], 1)
    p = run.prep
    ids = p.corpus.ids
    lines = [f"{ids[a]}\t{ids[b]}\t{w:.12g}\n" for a, b, w in zip(p.ref_src, p.ref_dst, p.ref_weight)]
    path = str(tmp_path / "edges.tsv")
    with open(path, "w") as fh:
        fh.writelines(lines)
    assert bench.check_graph(run, path) == ""
    with open(path, "w") as fh:
        fh.writelines(lines[1:])
    assert "edges exported" in bench.check_graph(run, path)
    a, b, w = lines[0].rstrip("\n").split("\t")
    with open(path, "w") as fh:
        fh.writelines([f"{a}\t{b}\t{float(w) * (1 + 1e-10):.15g}\n"] + lines[1:])
    assert "weights differ" in bench.check_graph(run, path)


def _traced_cluster(run: bench.Run, tracer: tracing.Tracer):
    tracer.run = "test"
    with tracer.span("cli.main", command="cluster") as top:
        code = cli.main(run.argv("cluster", run.path("tree.json")))
    assert code == 0
    return top


def test_self_times_and_child_spans_sum_to_the_main_span(tmp_path):
    run = _make_run(tmp_path, corpora.WORKLOADS["nested-deep"], 1)
    tracer = tracing.Tracer()
    tracing.install(tracer, cli, hierarchy)
    try:
        top = _traced_cluster(run, tracer)
    finally:
        tracer.restore()
    children = tracer.children(top)
    assert {c.name for c in children} >= {"embedding_io.load", "simgraph.build", "hierarchy.cluster"}
    assert tracer.self_time(top) + sum(c.duration for c in children) == pytest.approx(top.duration, abs=1e-9)
    # over the whole tree: self times of every span under cli.main add up to it
    under = [s for s in tracer.spans if s.id != top.id]
    assert sum(tracer.self_time(s) for s in [top] + under) == pytest.approx(top.duration, abs=1e-6)
    louvain = [s for s in under if s.name == "community.louvain"]
    assert len(louvain) > 10 and all(s.run == "test" for s in louvain)
    tracer.dump(str(tmp_path / "spans.jsonl"))
    assert sum(1 for _ in open(tmp_path / "spans.jsonl")) == len(tracer.spans)


def test_a_missing_trace_target_leaves_its_metrics_absent(tmp_path):
    run = _make_run(tmp_path, corpora.WORKLOADS["topics-dense"], 1)
    # a hierarchy module from after a refactor: neither name exists any more
    refactored = types.SimpleNamespace(__name__="vec2gc.hierarchy")
    tracer = tracing.Tracer()
    tracing.install(tracer, cli, refactored)
    try:
        cluster = _traced_cluster(run, tracer)
        mains = {"cluster": cluster}
        for command, out in bench.COMMANDS[1:]:
            with tracer.span("cli.main", command=command) as s:
                assert cli.main(run.argv(command, run.path(out))) == 0
            mains[command] = s
    finally:
        tracer.restore()
    _, doc, _ = bench.check_tree(run, os.path.join(run.rundir, "tree.json"))
    m = bench.layer_metrics(run, tracer, mains, cluster.duration, doc)
    assert tracer.missing == ["vec2gc.hierarchy.louvain", "vec2gc.hierarchy.induced_subgraph"]
    assert not any(k.startswith("community.") or k.startswith("simgraph.induced") for k in m)
    assert m["simgraph.edges"] > 0 and m["hierarchy.cluster_s"] > 0


with open(os.path.join(ROOT, "perfbench", "provenance.json"), encoding="utf-8") as _fh:
    PROVENANCE = json.load(_fh)["workloads"]


@pytest.mark.parametrize("name", sorted(corpora.WORKLOADS))
def test_workload_shape_holds_on_a_second_seed(tmp_path, name):
    w = corpora.WORKLOADS[name]
    run = _make_run(tmp_path, w, 12)
    tracer = tracing.Tracer()
    tracing.install(tracer, cli, hierarchy)
    try:
        top = _traced_cluster(run, tracer)
    finally:
        tracer.restore()
    # the shape recorded for seed 11 holds within 10% of the edges and one
    # point of the isolated fraction
    recorded = PROVENANCE[name]
    assert recorded["n"] == w.n and recorded["theta"] == w.theta and recorded["max_size"] == w.max_size
    assert run.prep.ref_src.size == pytest.approx(recorded["edges"], rel=0.1)
    build = next(s for s in tracer.spans if s.name == "simgraph.build")
    assert build.attrs["isolated"] / w.n == pytest.approx(recorded["isolated"] / w.n, abs=0.01)

    def spent(span_name):
        return sum(s.duration for s in tracer.spans if s.name == span_name)

    louvain = [s for s in tracer.spans if s.name == "community.louvain"]
    if name == "dedup-wide":
        assert spent("embedding_io.load") + spent("simgraph.build") >= 0.7 * top.duration
        assert spent("community.louvain") <= 0.25 * top.duration
    else:
        assert spent("community.louvain") >= 0.8 * top.duration
    if name == "nested-deep":
        assert len(louvain) >= 40
        assert sum(s.duration for s in louvain[1:]) >= 0.4 * spent("community.louvain")
