import collections
import dataclasses
import functools
import json
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from oracles import graph_from_edges, planted_groups, reference_cluster, reference_graph_edges
import oracles
from vec2gc import (
    MAX_EDGE_WEIGHT,
    ClusterTree,
    EmbeddingSet,
    Partition,
    SimilarityGraph,
    TreeNode,
    build_graph,
    derive_seed,
    dumps_tree,
    flat_clusters,
    induced_subgraph,
    leaf_clusters_from_document,
    vec2gc_cluster,
)
from vec2gc import community, hierarchy


def cluster_planted(sizes, theta=0.5, mod_threshold=0.3, max_size=500, seed=99, **kwargs):
    emb, labels = planted_groups(sizes, **{k: v for k, v in kwargs.items() if k in ("intra_cs", "isolated")})
    g = build_graph(emb, theta)
    extra = {k: v for k, v in kwargs.items() if k in ("min_community_size", "restarts")}
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

    @pytest.mark.parametrize("n", [0, 3])
    def test_an_input_without_edges_runs_no_optimizer_call(self, monkeypatch, n):
        def fail(*args):
            raise AssertionError("louvain called on an input without edges")

        monkeypatch.setattr(hierarchy, "louvain", fail)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tree, bucket = vec2gc_cluster(graph_from_edges(n, []), 0.3, 500, seed=1)
        assert tree == ClusterTree(nodes=[], root=None)
        assert bucket == hierarchy.NonCommunityBucket(list(range(n)), dict.fromkeys(range(n), "isolated"))
        assert [str(w.message) for w in caught] == ["similarity graph has no edges; every item is non-community"]

    def test_every_community_below_min_size_yields_empty_tree_with_warning(self):
        emb, _ = planted_groups([4, 4, 4], intra_cs=0.95)
        g = build_graph(emb, 0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tree, bucket = vec2gc_cluster(g, 0.0, 2, seed=1, min_community_size=5)
        assert tree == ClusterTree(nodes=[], root=None)
        assert bucket.members == list(range(12))
        assert set(bucket.reasons.values()) == {"singleton_community"}
        assert [str(w.message) for w in caught] == ["every community fell below min_community_size; tree is empty"]

    def test_min_community_size_routes_to_bucket(self):
        # two big groups plus a pair; with min_community_size=3 the pair
        # is noise, not a leaf
        emb, g, tree, bucket = cluster_planted(
            [15, 15, 2], intra_cs=0.95, max_size=50, min_community_size=3
        )
        assert bucket.members == [30, 31]
        assert set(bucket.reasons.values()) == {"singleton_community"}
        assert sorted(len(leaf) for leaf in flat_clusters(tree)) == [15, 15]

    def test_an_edgeless_community_above_max_size_becomes_a_leaf(self):
        # 2m is near 6e9, so moves must gain 3: a random restart's groups of
        # weakly linked nodes stay together, and one reaches a level edgeless
        rng = np.random.default_rng(8)
        edges = [(0, 1, MAX_EDGE_WEIGHT), (2, 3, MAX_EDGE_WEIGHT), (4, 5, MAX_EDGE_WEIGHT)]
        edges += [(6 + a, 6 + b, 2.0) for a in range(40) for b in range(a + 1, 40) if rng.random() < 0.05]
        g = graph_from_edges(46, edges)
        tree, bucket = vec2gc_cluster(g, 0.3, 3, 3)
        leaves = flat_clusters(tree)
        assert sorted([m for leaf in leaves for m in leaf] + bucket.members) == list(range(46))
        assert any(len(leaf) > 3 and induced_subgraph(g, np.array(leaf)).two_m == 0.0 for leaf in leaves)

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
            for members in [*(node.members for node in tree.nodes), bucket.members]:
                assert all(a < b for a, b in zip(members, members[1:]))

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


def noise_graph(seed=17):
    rng = np.random.default_rng(seed)
    emb = EmbeddingSet(
        ids=[f"n{i}" for i in range(300)],
        vectors=rng.standard_normal((300, 6)).astype(np.float32),
    )
    return emb, build_graph(emb, 0.6)


def noise_tree_text(seed=17, max_size=20):
    """Tree bytes of a 300-item noise corpus.

    At max_size 20 the root call and 7 sub-calls run Louvain; at 5 the
    recursion has four levels of 1, 8, 26 and 6 calls.
    """
    emb, g = noise_graph(seed)
    tree, bucket = vec2gc_cluster(g, 0.2, max_size, seed=seed)
    return dumps_tree(tree, bucket, emb.ids, theta=0.6, mod_threshold=0.2, max_size=max_size, seed=seed)


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

    def test_no_level_has_more_pool_work_than_the_one_above(self, monkeypatch):
        # a level's graphs are induced subgraphs of communities of the level above, so the
        # work each level hands RestartPool.start never grows: the root level opens the
        # pool or no level does
        monkeypatch.setattr(community, "POOL_MIN_WORK", float("inf"))
        works = []
        start = community.RestartPool.start

        def recording(pool, calls, restarts):
            works.append(sum(g.indices.size for g, _ in calls) * restarts)
            return start(pool, calls, restarts)

        monkeypatch.setattr(community.RestartPool, "start", recording)
        rng = np.random.default_rng(53)
        runs = [(oracles.planted_nested(3, 4, 12, intra=0.9, cross_sub=0.55)[0], 0.5, 0.2, 8, 5), (noise_graph()[0], 0.6, 0.2, 5, 17)]
        graphs = [(build_graph(emb, theta), *rest) for emb, theta, *rest in runs]
        graphs += [(planted_graph(rng), 0.05, int(rng.integers(2, 4)), int(rng.integers(2**63))) for _ in range(60)]
        deep = 0
        for g, mod_threshold, max_size, seed in graphs:
            works.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                vec2gc_cluster(g, mod_threshold, max_size, seed, restarts=int(rng.integers(1, 5)))
            assert works == sorted(works, reverse=True)
            deep += sum(work > 0 for work in works) >= 3
        assert deep >= 10


def planted_graph(rng) -> SimilarityGraph:
    """Random two-level planted groups: dense sub-groups inside looser super-groups.

    Sub-groups hold 1 to 2, 3, 6 or 12 nodes, so with min_community_size up
    to 4 some splits send every community to the bucket.
    """
    biggest = int(rng.choice([2, 3, 6, 12]))
    supers = [rng.integers(1, biggest + 1, size=int(rng.integers(2, 6))).tolist() for _ in range(int(rng.integers(1, 5)))]
    edges = {}
    owner = []  # (super, sub) per node
    for si, subs in enumerate(supers):
        for bi, size in enumerate(subs):
            owner += [(si, bi)] * size
    for a in range(len(owner)):
        for b in range(a + 1, len(owner)):
            if owner[a] == owner[b]:
                p, lo, hi = 0.9, 3.0, 5.0
            elif owner[a][0] == owner[b][0]:
                p, lo, hi = 0.3, 0.3, 1.5
            else:
                p, lo, hi = 0.02, 0.05, 0.3
            if rng.random() < p:
                edges[(a, b)] = float(rng.uniform(lo, hi))
    n = max(len(owner), 2)
    edges = edges or {(0, 1): 1.0}
    return graph_from_edges(n, [(a, b, w) for (a, b), w in edges.items()])


def split_node_depths(doc) -> list[int]:
    depth = {}
    for node in doc["nodes"]:  # parents come before their children
        depth[node["id"]] = 0 if node["parent"] is None else depth[node["parent"]] + 1
    return [depth[node["id"]] for node in doc["nodes"] if node["children"]]


class TestFrontier:
    def test_trees_equal_the_recursive_builder(self, monkeypatch):
        monkeypatch.setattr(community, "POOL_MIN_WORK", float("inf"))
        rng = np.random.default_rng(41)
        pruned_nodes = empty_roots = recursed = 0
        for _ in range(200):
            g = planted_graph(rng)
            # small max_size and min_community_size 4 are where split nodes lose every child
            mod_threshold, max_size = float(rng.uniform(0.05, 0.5)), int(rng.choice([2, 3, 4, rng.integers(5, 21)]))
            seed, min_size = int(rng.integers(2**63)), int(rng.choice([1, 2, 3, 4, 4, 4]))
            restarts = int(rng.integers(1, 5))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tree, bucket = vec2gc_cluster(g, mod_threshold, max_size, seed, min_size, restarts)
            ref_tree, ref_bucket, pruned = reference_cluster(g, mod_threshold, max_size, seed, min_size, restarts)
            ids = [f"v{i}" for i in range(g.n)]
            kwargs = dict(theta=0.5, mod_threshold=mod_threshold, max_size=max_size, seed=seed)
            doc = json.loads(dumps_tree(tree, bucket, ids, **kwargs))
            assert doc == json.loads(dumps_tree(ref_tree, ref_bucket, ids, **kwargs))
            pruned_nodes += pruned
            empty_roots += ref_tree.root is None
            recursed += any(depth > 0 for depth in split_node_depths(doc))
        # the cases the builder must get right all occur
        assert pruned_nodes >= 5 and empty_roots >= 5 and recursed >= 20

    def test_pooled_trees_are_byte_identical_at_every_worker_count(self, monkeypatch):
        monkeypatch.setattr(community, "POOL_MIN_WORK", float("inf"))
        expected = noise_tree_text(max_size=5)
        assert max(split_node_depths(json.loads(expected))) >= 2  # three levels of calls or more
        monkeypatch.setattr(community, "POOL_MIN_WORK", 0)
        for workers in (1, 2, 3):
            monkeypatch.setattr(community, "_available_cpus", lambda: workers)
            assert noise_tree_text(max_size=5) == expected
        assert multiprocessing.active_children() == []

    def test_one_parent_louvain_call_per_optimizer_call(self, monkeypatch):
        # wrapped as perfbench/tracing.py wraps them: the module-level names hierarchy calls
        def record(module, attr, calls, describe):
            target = getattr(module, attr)

            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                result = target(*args, **kwargs)
                calls.append((os.getpid(), describe(args, result)))
                return result

            monkeypatch.setattr(module, attr, wrapper)

        def louvain_key(args, part):
            return args[0].n, part.community_count, part.modularity

        def certified(sub_g):
            return sub_g.n <= hierarchy.CERTIFY_MAX_NODES and community.modularity_bound(sub_g) < 0.2

        emb, g = noise_graph()
        ref_louvain, ref_induced = [], []
        record(oracles, "louvain", ref_louvain, lambda args, part: (louvain_key(args, part), certified(args[0])))
        record(oracles, "induced_subgraph", ref_induced, lambda args, r: r.n)
        reference_cluster(g, 0.2, 5, 17)
        monkeypatch.setattr(community, "_available_cpus", lambda: 2)
        monkeypatch.setattr(community, "POOL_MIN_WORK", 0)
        louvain_calls, induced_calls = [], []
        record(hierarchy, "louvain", louvain_calls, louvain_key)
        record(hierarchy, "induced_subgraph", induced_calls, lambda args, r: r.n)
        vec2gc_cluster(g, 0.2, 5, 17)
        assert {pid for pid, _ in louvain_calls + induced_calls} == {os.getpid()}
        # the reference runs every call; the parent skips those the bound proves leaves
        skipped = [key for _, (key, proved) in ref_louvain if proved]
        assert skipped and all(count == 1 or q < 0.2 for _, count, q in skipped)
        uncertified = collections.Counter(key for _, (key, proved) in ref_louvain if not proved)
        assert collections.Counter(k for _, k in louvain_calls) == uncertified
        # one induced subgraph per recursed community; this graph has no isolated item to drop
        assert np.all(np.diff(g.indptr) > 0)
        assert len(induced_calls) == len(ref_induced) == len(ref_louvain) - 1
        assert sorted(k for _, k in induced_calls) == sorted(k for _, k in ref_induced)

    def test_a_5000_deep_chain_builds(self, monkeypatch):
        # splitting one end node off a path graph per call; recursion would stop near depth 1,000
        monkeypatch.setattr(community, "POOL_MIN_WORK", float("inf"))

        def split_off_one(sub_g, seed, config, pool):
            assignment = np.ones(sub_g.n, dtype=np.int64)
            assignment[0] = 0
            return Partition(assignment, 2, 0.5)

        monkeypatch.setattr(hierarchy, "louvain", split_off_one)
        n = 5001
        g = graph_from_edges(n, [(a, a + 1, 1.0) for a in range(n - 1)])
        # at mod_threshold 0 no bound proves a leaf, so the fake louvain sees every path down to 2 nodes
        tree, bucket = vec2gc_cluster(g, 0.0, 1, seed=1, min_community_size=1)
        depth = [0] * len(tree.nodes)
        for node in tree.nodes[1:]:
            depth[node.id] = depth[node.parent] + 1
        assert max(depth) == 5000
        leaves = flat_clusters(tree)
        assert bucket.members == []
        assert sorted(m for leaf in leaves for m in leaf) == list(range(n))
        assert tree.nodes[tree.root].members == list(range(n))


class TestCertifiedLeaves:
    def test_trees_are_byte_identical_without_the_bound(self, monkeypatch):
        monkeypatch.setattr(community, "POOL_MIN_WORK", float("inf"))
        rng = np.random.default_rng(47)
        fired = []

        def counted(sub_g):
            bound = community.modularity_bound(sub_g)
            fired.append(bound < mod_threshold)
            return bound

        monkeypatch.setattr(hierarchy, "modularity_bound", counted)
        for supers, subs, sub_size, cross, theta, max_size, mod_threshold in [
            (2, 3, 20, 0.6, 0.5, 10, 0.3),
            (3, 4, 12, 0.55, 0.5, 8, 0.2),
            (4, 3, 9, 0.6, 0.45, 5, 0.1),
            (4, 3, 9, 0.6, 0.45, 5, 0.443),  # between the bounds of the 27-node super-groups
        ]:
            emb, _, _ = oracles.planted_nested(supers, subs, sub_size, intra=0.9, cross_sub=cross)
            emb.vectors += rng.normal(scale=0.003, size=emb.vectors.shape).astype(np.float32)
            g = build_graph(emb, theta)
            texts = []
            for cap in (hierarchy.CERTIFY_MAX_NODES, 0):
                monkeypatch.setattr(hierarchy, "CERTIFY_MAX_NODES", cap)
                tree, bucket = vec2gc_cluster(g, mod_threshold, max_size, 5)
                kwargs = dict(theta=theta, mod_threshold=mod_threshold, max_size=max_size, seed=5)
                texts.append(dumps_tree(tree, bucket, emb.ids, **kwargs))
            assert texts[0] == texts[1]
        assert sum(fired) >= 5


def depth_first_leaves(tree) -> list[list[int]]:
    """Leaf members found by walking children from the root, without recursion."""
    leaves, stack = [], [] if tree.root is None else [tree.root]
    while stack:
        node = tree.nodes[stack.pop()]
        if node.is_leaf:
            leaves.append(node.members)
        stack.extend(reversed(node.children))
    return leaves


class TestFlatClusters:
    def test_leaf_order_is_depth_first(self, monkeypatch):
        monkeypatch.setattr(community, "POOL_MIN_WORK", float("inf"))
        rng = np.random.default_rng(43)
        deep = 0
        for _ in range(60):
            g = planted_graph(rng)
            mod_threshold, max_size = float(rng.uniform(0.02, 0.1)), int(rng.choice([2, 3]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tree, _ = vec2gc_cluster(g, mod_threshold, max_size, int(rng.integers(2**63)), 1)
            assert flat_clusters(tree) == depth_first_leaves(tree)
            deep += any(node.parent is not None and not node.is_leaf for node in tree.nodes)
        assert deep >= 20  # trees with a split below the root, where preorder is not level order

        # TestFrontier's 5,000-deep chain: each call splits node 0 off its path graph
        def split_off_one(sub_g, seed, config, pool):
            assignment = np.ones(sub_g.n, dtype=np.int64)
            assignment[0] = 0
            return Partition(assignment, 2, 0.5)

        monkeypatch.setattr(hierarchy, "louvain", split_off_one)
        n = 5001
        g = graph_from_edges(n, [(a, a + 1, 1.0) for a in range(n - 1)])
        tree, _ = vec2gc_cluster(g, 0.0, 1, seed=1, min_community_size=1)  # 0: see TestFrontier
        assert len(tree.nodes) == 2 * n - 1
        assert flat_clusters(tree) == depth_first_leaves(tree)


class TestSerialization:
    def test_document_shape(self):
        emb, g, tree, bucket = cluster_planted([8, 8], intra_cs=0.95, max_size=50)
        doc = json.loads(dumps_tree(tree, bucket, emb.ids, theta=0.5, mod_threshold=0.3, max_size=50, seed=99))
        assert list(doc) == ["theta", "mod_threshold", "max_size", "seed", "nodes", "non_community"]
        assert len(doc["nodes"]) > 1
        for node in doc["nodes"]:
            assert list(node) == ["id", "parent", "children", "members", "split_modularity"]
        assert list(doc["non_community"]) == ["members", "reasons"]
        assert doc["nodes"][0]["id"] == 0
        assert doc["nodes"][0]["parent"] is None
        # members serialize as id strings sorted by corpus index
        for node in doc["nodes"]:
            assert all(isinstance(m, str) for m in node["members"])

    def test_is_leaf_is_derived_from_children(self):
        _, _, tree, _ = cluster_planted([12, 12, 12], intra_cs=0.95, max_size=13, seed=31415)
        assert any(node.is_leaf for node in tree.nodes) and not all(node.is_leaf for node in tree.nodes)
        for node in tree.nodes:
            assert node.is_leaf == (not node.children)
        assert "is_leaf" not in [f.name for f in dataclasses.fields(TreeNode)]

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
