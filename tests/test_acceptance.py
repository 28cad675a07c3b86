"""Acceptance suite: one test per criterion, stated tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import warnings

import numpy as np
import pytest

from oracles import (
    arc_and_blob,
    best_partition_by_enumeration,
    dense_from_graph,
    modularity_double_sum,
    planted_groups,
    planted_nested,
    random_weighted_graph,
    reference_graph_edges,
    graph_edges,
    write_jsonl,
)
from vec2gc import (
    EmbeddingSet,
    build_graph,
    flat_clusters,
    kmedoids,
    louvain,
    modularity,
    purity_report,
    vec2gc_cluster,
)
from vec2gc.cli import main


def ok(num, message):
    print(f"[acceptance] criterion {num}: PASS - {message}")


def test_criterion_01_edge_weight_anchors():
    # the worked similarity-to-weight pairs at double precision, read from build_graph
    # on integer vectors against (1, 0, ...) whose cosines are exact
    def weight(b, theta):
        a = [1] + [0] * (len(b) - 1)
        g = build_graph(EmbeddingSet(ids=["a", "b"], vectors=np.array([a, b], dtype=np.float32)), theta)
        return graph_edges(g).get((0, 1))

    assert weight([9, 3, 3, 1], 0.5) == pytest.approx(10.0, abs=1e-12)  # cs 9/10
    assert weight([19, 5, 3, 2, 1], 0.5) == pytest.approx(20.0, abs=1e-12)  # cs 19/20
    exact = [([-1, 0], -1.0), ([0, 1], 0.0), ([9, 3, 3, 1], 0.9), ([19, 5, 3, 2, 1], 0.95)]
    for theta in (0.1, 0.5, 0.8):
        for b, cs in exact:
            assert (weight(b, theta) is None) == (cs < theta)
    for b, cs in exact[2:]:
        assert weight(b, float(np.nextafter(cs, 1.0))) is None  # theta just above the cosine
    ok(1, "weight 10 at cs 0.9, 20 at cs 0.95, and no edge below theta")


def test_criterion_02_modularity_oracle_and_louvain_quality():
    rng = np.random.default_rng(20240817)
    for trial in range(200):
        n = int(rng.integers(3, 9))
        g = random_weighted_graph(rng, n)
        seed = int(rng.integers(2**63))
        adj = dense_from_graph(g)
        part = louvain(g, seed=seed)
        brute = modularity_double_sum(adj, part.assignment)
        assert part.modularity == pytest.approx(brute, abs=1e-9)
        qstar, _ = best_partition_by_enumeration(adj)
        if qstar > 1e-12:
            assert part.modularity >= 0.9 * qstar
        else:
            assert part.modularity >= qstar - 1e-9
    ok(2, "200 random graphs: Q matches brute force (1e-9) and louvain >= 0.9 * optimum")


def test_criterion_03_trivial_partition_identity():
    rng = np.random.default_rng(55)
    for _ in range(100):
        g = random_weighted_graph(rng, int(rng.integers(3, 40)), p=float(rng.uniform(0.2, 0.9)))
        assert abs(modularity(g, [0] * g.n)) <= 1e-12
    ok(3, "Q(all-in-one-community) = 0 within 1e-12 on 100 random graphs")


def planted_four_groups():
    return planted_groups([50, 50, 50, 50], intra_cs=0.92)


def test_criterion_04_planted_structure_recovery():
    emb, labels = planted_four_groups()
    # oracle check of the planted geometry itself
    unit = emb.vectors.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    sims = unit @ unit.T
    group_of = np.repeat(np.arange(4), 50)
    same = group_of[:, None] == group_of[None, :]
    np.fill_diagonal(same, False)
    assert sims[same].min() >= 0.9
    assert sims[~same & ~np.eye(200, dtype=bool)].max() <= 0.3

    g = build_graph(emb, 0.5)
    tree, bucket = vec2gc_cluster(g, 0.3, 500, seed=12345)
    leaves = flat_clusters(tree)
    assert len(leaves) == 4
    assert bucket.members == []
    assert sorted(map(tuple, (sorted(l) for l in leaves))) == [
        tuple(range(50 * i, 50 * (i + 1))) for i in range(4)
    ]
    report = purity_report([[emb.ids[i] for i in leaf] for leaf in leaves], labels)
    assert all(row.purity == 1.0 for row in report.per_cluster)
    assert report.fractions == {0.5: 1.0, 0.7: 1.0, 0.9: 1.0}
    ok(4, "4 planted groups recovered as 4 pure leaves; fractions all 1.0")


def test_criterion_05_hierarchy_recursion():
    emb, sub_groups, super_groups = planted_nested(
        super_count=2, subs_per_super=3, sub_size=20, intra=0.9, cross_sub=0.6
    )
    g = build_graph(emb, 0.5)
    tree, bucket = vec2gc_cluster(g, 0.2, 30, seed=2024)
    assert bucket.members == []
    depth = {}
    for node in tree.nodes:
        depth[node.id] = 0 if node.parent is None else depth[node.parent] + 1
    assert max(depth.values()) >= 2
    leaves = flat_clusters(tree)
    assert sorted(map(tuple, (sorted(l) for l in leaves))) == sorted(
        map(tuple, (sorted(s) for s in sub_groups))
    )
    ok(5, "nested planted structure gives depth >= 2 with the 6 sub-groups as leaves")


def test_criterion_06_non_community_behavior():
    # exact bucket for planted isolated vectors
    for j in (1, 3, 7):
        emb, _ = planted_groups([12, 12], intra_cs=0.92, isolated=j)
        g = build_graph(emb, 0.5)
        tree, bucket = vec2gc_cluster(g, 0.3, 500, seed=j)
        assert bucket.members == list(range(24, 24 + j))
        assert all(bucket.reasons[m] == "isolated" for m in bucket.members)

    # partition property on 1000 randomized inputs
    rng = np.random.default_rng(321)
    for _ in range(1000):
        n = int(rng.integers(5, 26))
        emb = EmbeddingSet(
            ids=[f"r{i}" for i in range(n)],
            vectors=rng.standard_normal((n, 6)).astype(np.float32),
        )
        g = build_graph(emb, float(rng.uniform(0.3, 0.7)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree, bucket = vec2gc_cluster(
                g, 0.3, int(rng.integers(3, 20)), seed=int(rng.integers(2**63))
            )
        leaf_members = [m for leaf in flat_clusters(tree) for m in leaf]
        assert sorted(leaf_members + bucket.members) == list(range(n))
        assert set(leaf_members).isdisjoint(bucket.members)
    ok(6, "isolated vectors bucket exactly; leaves + bucket partition 1000 random inputs")


def test_criterion_07_graph_oracle():
    rng = np.random.default_rng(777)
    for n, d, theta in [(3, 4, 0.0), (17, 6, 0.2), (64, 12, 0.4), (128, 16, 0.5), (200, 24, 0.3)]:
        emb = EmbeddingSet(
            ids=[f"v{i}" for i in range(n)],
            vectors=rng.standard_normal((n, d)).astype(np.float32),
        )
        ref = reference_graph_edges(emb.vectors, theta)
        got = graph_edges(build_graph(emb, theta))
        assert got.keys() == ref.keys()
        for pair, w in ref.items():
            assert got[pair] == pytest.approx(w, rel=1e-12)
    ok(7, "build_graph matches the naive O(n^2) reference")


def test_criterion_08_determinism_on_5k_input(tmp_path):
    rng = np.random.default_rng(99)
    emb = EmbeddingSet(
        ids=[f"x{i}" for i in range(5000)],
        vectors=rng.standard_normal((5000, 32)).astype(np.float32),
    )
    source = tmp_path / "big.jsonl"
    write_jsonl(emb, source)
    outputs = []
    for run in range(2):
        out = tmp_path / f"tree{run}.json"
        code = main(
            [
                "cluster",
                "--input", str(source),
                "--format", "jsonl",
                "--theta", "0.5",
                "--seed", "31337",
                "--output", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    ok(8, "a fixed seed gives byte-identical tree JSON on a 5k-node input")


def test_criterion_09_baseline_comparison():
    # same planted data as criterion 4: the baseline also solves it
    emb, labels = planted_four_groups()
    clusters = kmedoids(emb, 4, seed=777).clusters
    report = purity_report([[emb.ids[i] for i in c] for c in clusters], labels)
    assert report.fractions == {0.5: 1.0, 0.7: 1.0, 0.9: 1.0}

    # elongated arc + tight blob: the threshold graph separates the
    # labels, a 2-medoid split cannot
    emb2, labels2 = arc_and_blob()
    ref = reference_graph_edges(emb2.vectors, 0.9)
    assert not any((a < 60) != (b < 60) for a, b in ref)
    g = build_graph(emb2, 0.9)
    tree, bucket = vec2gc_cluster(g, 0.3, 500, seed=31337)
    vec_clusters = [[emb2.ids[i] for i in leaf] for leaf in flat_clusters(tree)]
    vec_report = purity_report(vec_clusters, labels2, noise_size=len(bucket.members))
    km_clusters = kmedoids(emb2, 2, seed=31337).clusters
    km_report = purity_report([[emb2.ids[i] for i in c] for c in km_clusters], labels2)
    assert vec_report.fractions[0.9] > km_report.fractions[0.9]
    ok(
        9,
        f"kmedoids solves the planted blobs; on the elongated set fraction@90 "
        f"{vec_report.fractions[0.9]:.2f} (graph) > {km_report.fractions[0.9]:.2f} (kmedoids)",
    )


def test_criterion_10_comparative_table_shape(tmp_path, capsys):
    emb, labels = planted_four_groups()
    source = tmp_path / "emb.jsonl"
    write_jsonl(emb, source)
    labels_path = tmp_path / "labels.tsv"
    labels_path.write_text("".join(f"{k}\t{v}\n" for k, v in labels.items()), encoding="utf-8")
    tree_path = tmp_path / "tree.json"
    assert (
        main(
            [
                "cluster",
                "--input", str(source),
                "--format", "jsonl",
                "--theta", "0.5",
                "--seed", "8",
                "--output", str(tree_path),
            ]
        )
        == 0
    )
    assert main(["evaluate", "--tree", str(tree_path), "--labels", str(labels_path)]) == 0
    table = capsys.readouterr().out
    assert "Fraction of clusters @ k% purity" in table
    fractions = {}
    for line in table.splitlines():
        token = line.strip().split("%")[0]
        if token in ("50", "70", "90"):
            fractions[int(token)] = float(line.split()[-1])
    assert set(fractions) == {50, 70, 90}
    assert fractions[90] <= fractions[70] <= fractions[50]
    ok(10, "evaluate emits the comparison-table columns with monotone fractions")
