import json
import multiprocessing

import numpy as np
import pytest

from oracles import planted_groups, reference_graph_edges
from vec2gc import (
    EmbeddingSet,
    build_graph,
    derive_seed,
    dumps_tree,
    flat_clusters,
    leaf_clusters_from_document,
    tree_document,
    vec2gc_cluster,
)
from vec2gc import community, hierarchy


def cluster_planted(sizes, theta=0.5, mod_threshold=0.3, max_size=500, seed=99, **kwargs):
    emb, labels = planted_groups(sizes, **{k: v for k, v in kwargs.items() if k in ("intra_cs", "isolated")})
    g = build_graph(emb, theta)
    extra = {k: v for k, v in kwargs.items() if k in ("min_community_size", "config")}
    tree, bucket = vec2gc_cluster(g, mod_threshold, max_size, seed, **extra)
    return emb, g, tree, bucket


class TestVec2gcCluster:
    def test_two_separated_groups(self):
        emb, g, tree, bucket = cluster_planted([20, 20], intra_cs=0.95, max_size=50)
        assert bucket.members == []
        root = tree.nodes[tree.root]
        assert not root.is_leaf
        assert root.split_modularity is not None and root.split_modularity >= 0.3
        leaves = flat_clusters(tree)
        assert sorted(map(tuple, leaves)) == [tuple(range(20)), tuple(range(20, 40))]
        assert root.members == list(range(40))

    def test_single_group_becomes_root_leaf(self):
        emb, g, tree, bucket = cluster_planted([10])
        assert len(tree.nodes) == 1
        root = tree.nodes[tree.root]
        assert root.is_leaf
        assert root.members == list(range(10))
        assert root.split_modularity is None
        assert bucket.members == []

    def test_isolated_vector_goes_to_bucket(self):
        emb, labels = planted_groups([6], intra_cs=0.92, isolated=1)
        # oracle: the extra vector really is below theta to everything
        ref = reference_graph_edges(emb.vectors, 0.5)
        assert all(6 not in pair for pair in ref)
        g = build_graph(emb, 0.5)
        tree, bucket = vec2gc_cluster(g, 0.3, 500, seed=5)
        assert bucket.members == [6]
        assert bucket.reasons == {6: "isolated"}
        assert flat_clusters(tree) == [list(range(6))]

    def test_all_isolated_yields_empty_tree_with_warning(self):
        emb = EmbeddingSet(
            ids=["a", "b", "c"], vectors=np.eye(3, dtype=np.float32)
        )
        g = build_graph(emb, 0.5)
        with pytest.warns(UserWarning, match="no edges"):
            tree, bucket = vec2gc_cluster(g, 0.3, 500, seed=1)
        assert tree.root is None
        assert tree.nodes == []
        assert bucket.members == [0, 1, 2]
        assert set(bucket.reasons.values()) == {"isolated"}
        assert flat_clusters(tree) == []

    def test_min_community_size_routes_to_bucket(self):
        # two big groups plus a pair; with min_community_size=3 the pair
        # is noise, not a leaf
        emb, g, tree, bucket = cluster_planted(
            [15, 15, 2], intra_cs=0.95, max_size=50, min_community_size=3
        )
        assert bucket.members == [30, 31]
        assert set(bucket.reasons.values()) == {"singleton_community"}
        assert sorted(len(leaf) for leaf in flat_clusters(tree)) == [15, 15]

    def test_low_modularity_leaf_may_exceed_max_size(self):
        # a single uniform group cannot be split, so the stop branch keeps
        # all members in one leaf even above max_size
        emb, g, tree, bucket = cluster_planted([60], max_size=50)
        leaves = flat_clusters(tree)
        assert len(leaves) == 1
        assert len(leaves[0]) == 60

    def test_size_gate_on_split_leaves(self):
        emb, g, tree, bucket = cluster_planted([30, 30, 30], intra_cs=0.95, max_size=40)
        for node in tree.nodes:
            if node.is_leaf and node.parent is not None:
                assert len(node.members) <= 40

    def test_parent_members_equal_union_of_children(self):
        emb, g, tree, bucket = cluster_planted([20, 20, 20], intra_cs=0.95, max_size=21)
        for node in tree.nodes:
            if not node.is_leaf:
                merged = sorted(m for c in node.children for m in tree.nodes[c].members)
                assert node.members == merged

    def test_partition_property_randomized(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(6, 40))
            emb = EmbeddingSet(
                ids=[f"r{i}" for i in range(n)],
                vectors=rng.standard_normal((n, 6)).astype(np.float32),
            )
            g = build_graph(emb, float(rng.uniform(0.2, 0.7)))
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tree, bucket = vec2gc_cluster(g, 0.3, int(rng.integers(3, 40)), seed=int(rng.integers(2**63)))
            leaf_members = [m for leaf in flat_clusters(tree) for m in leaf]
            assert sorted(leaf_members + bucket.members) == list(range(n))

    def test_internal_nodes_record_qualifying_modularity(self):
        emb, g, tree, bucket = cluster_planted([20, 20, 20], intra_cs=0.95, max_size=21, mod_threshold=0.3)
        internals = [n for n in tree.nodes if not n.is_leaf]
        assert internals
        for node in internals:
            assert node.split_modularity >= 0.3

    def test_two_thousand_node_smoke(self):
        # termination and the partition property at a realistic size
        rng = np.random.default_rng(2025)
        n = 2000
        emb = EmbeddingSet(
            ids=[f"n{i}" for i in range(n)],
            vectors=rng.standard_normal((n, 24)).astype(np.float32),
        )
        g = build_graph(emb, 0.5)
        tree, bucket = vec2gc_cluster(g, 0.3, 200, seed=4242)
        leaf_members = [m for leaf in flat_clusters(tree) for m in leaf]
        assert sorted(leaf_members + bucket.members) == list(range(n))
        depth = {}
        for node in tree.nodes:
            depth[node.id] = 0 if node.parent is None else depth[node.parent] + 1
        assert max(depth.values()) <= n

    def test_parameter_validation(self):
        emb, _ = planted_groups([4])
        g = build_graph(emb, 0.5)
        with pytest.raises(ValueError, match=r"mod_threshold out of \[0, 1\)"):
            vec2gc_cluster(g, 1.0, 10, seed=0)
        with pytest.raises(ValueError, match="max_size"):
            vec2gc_cluster(g, 0.3, 0, seed=0)
        with pytest.raises(ValueError, match="min_community_size"):
            vec2gc_cluster(g, 0.3, 10, seed=0, min_community_size=0)


def noise_tree_text(seed=17):
    """Tree bytes of a 300-item noise corpus; the root call and 7 sub-calls run Louvain."""
    rng = np.random.default_rng(seed)
    emb = EmbeddingSet(
        ids=[f"n{i}" for i in range(300)],
        vectors=rng.standard_normal((300, 6)).astype(np.float32),
    )
    g = build_graph(emb, 0.6)
    tree, bucket = vec2gc_cluster(g, 0.2, 20, seed=seed)
    return dumps_tree(tree, bucket, emb.ids, theta=0.6, mod_threshold=0.2, max_size=20, seed=seed)


class TestRestartWorkers:
    def force_pool(self, monkeypatch, on):
        monkeypatch.setattr(community, "_available_cpus", lambda: 2)
        monkeypatch.setattr(community, "POOL_MIN_WORK", 0 if on else float("inf"))

    def test_pool_on_and_off_write_equal_bytes(self, monkeypatch):
        self.force_pool(monkeypatch, on=False)
        off = noise_tree_text()
        self.force_pool(monkeypatch, on=True)
        opened = []
        original = hierarchy.louvain

        def watch(*args, **kwargs):
            part = original(*args, **kwargs)
            opened.append(bool(multiprocessing.active_children()))
            return part

        monkeypatch.setattr(hierarchy, "louvain", watch)
        assert noise_tree_text() == off
        assert len(opened) > 1 and all(opened)
        assert multiprocessing.active_children() == []

    def test_daemonic_caller_runs_in_process(self, monkeypatch):
        self.force_pool(monkeypatch, on=False)
        expected = noise_tree_text()
        self.force_pool(monkeypatch, on=True)
        # pool workers are daemonic, and a daemonic process may not fork workers
        with multiprocessing.get_context("fork").Pool(1) as outer:
            result = outer.apply_async(noise_tree_text)
            assert result.get(timeout=120) == expected

    def test_no_worker_outlives_an_error(self, monkeypatch):
        self.force_pool(monkeypatch, on=True)
        seen = []

        def fail(*args, **kwargs):
            seen.extend(multiprocessing.active_children())
            raise RuntimeError("stop after the root call")

        monkeypatch.setattr(hierarchy, "induced_subgraph", fail)
        with pytest.raises(RuntimeError, match="stop after the root call"):
            noise_tree_text()
        assert seen
        assert multiprocessing.active_children() == []
        assert not any(p.is_alive() for p in seen)


class TestFlatClusters:
    def test_leaf_order_is_depth_first(self):
        emb, g, tree, bucket = cluster_planted([20, 20], intra_cs=0.95, max_size=50)
        leaves = flat_clusters(tree)
        ids = [node.id for node in tree.nodes if node.is_leaf]
        assert [tree.nodes[i].members for i in sorted(ids)] == leaves


class TestSerialization:
    def test_document_shape(self):
        emb, g, tree, bucket = cluster_planted([8, 8], intra_cs=0.95, max_size=50)
        doc = tree_document(tree, bucket, emb.ids, theta=0.5, mod_threshold=0.3, max_size=50, seed=99)
        assert list(doc) == ["theta", "mod_threshold", "max_size", "seed", "nodes", "non_community"]
        assert list(doc["nodes"][0]) == ["id", "parent", "children", "members", "split_modularity"]
        assert list(doc["non_community"]) == ["members", "reasons"]
        assert doc["nodes"][0]["id"] == 0
        assert doc["nodes"][0]["parent"] is None
        # members serialize as id strings sorted by corpus index
        for node in doc["nodes"]:
            assert all(isinstance(m, str) for m in node["members"])

    def test_byte_identical_across_runs(self):
        kwargs = dict(sizes=[12, 12, 12], intra_cs=0.95, max_size=13, seed=31415)
        emb1, g1, tree1, bucket1 = cluster_planted(**kwargs)
        emb2, g2, tree2, bucket2 = cluster_planted(**kwargs)
        s1 = dumps_tree(tree1, bucket1, emb1.ids, theta=0.5, mod_threshold=0.3, max_size=13, seed=31415)
        s2 = dumps_tree(tree2, bucket2, emb2.ids, theta=0.5, mod_threshold=0.3, max_size=13, seed=31415)
        assert s1 == s2

    def test_round_trip_through_document(self):
        emb, g, tree, bucket = cluster_planted([10, 10], intra_cs=0.95, isolated=2, max_size=50)
        doc = json.loads(
            dumps_tree(tree, bucket, emb.ids, theta=0.5, mod_threshold=0.3, max_size=50, seed=99)
        )
        leaves, noise = leaf_clusters_from_document(doc)
        expected = [[emb.ids[i] for i in leaf] for leaf in flat_clusters(tree)]
        assert leaves == expected
        assert noise == [emb.ids[i] for i in bucket.members]

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            leaf_clusters_from_document({"nodes": "nope"})

    def test_members_must_be_strings(self):
        leaf = {"id": 0, "parent": None, "children": [], "members": ["a"]}
        with pytest.raises(ValueError, match="tree node 0: members"):
            leaf_clusters_from_document({"nodes": [dict(leaf, members=[1])]})
        with pytest.raises(ValueError, match="non_community: members"):
            leaf_clusters_from_document({"nodes": [leaf], "non_community": {"members": [None]}})
        with pytest.raises(ValueError, match="non_community"):
            leaf_clusters_from_document({"nodes": [leaf], "non_community": []})


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 0) != derive_seed(2, 0)
        assert 0 <= derive_seed(2**64 - 1, 2**63) < 2**64
