"""Golden tree bytes, fixed by the code alone.

The first graphs come from plain Python integer arithmetic, with every
weight on a 1/8 grid, so they pin the optimizer, the recursion and the
serializer: a change to any of those three that moves a byte fails here,
with the restart pool on or off. The embedding corpora, also integer
arithmetic, add the graph kernel: their trees are built in child
processes at 1 and 2 BLAS threads and must give the same bytes at both.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import graph_from_edges
from vec2gc import EmbeddingSet, build_graph, community, dumps_tree, vec2gc_cluster


def draws(seed):
    """Integers in [0, 2**31) from java.util.Random's 48-bit linear congruential generator."""
    state = (seed ^ 0x5DEECE66D) & ((1 << 48) - 1)
    while True:
        state = (state * 0x5DEECE66D + 0xB) & ((1 << 48) - 1)
        yield state >> 17


def planted_edges(groups, seed):
    """Edges among nodes labelled by tuples; pairs sharing a longer label prefix link denser and heavier.

    A pair sharing the whole label links with probability 3/4, one sharing
    a first part only with 1/4 and any other pair with 1/32. The weights
    are 5/8 to 8/8, 2/8 to 4/8 and 1/8 to 2/8.
    """
    rng = draws(seed)
    edges = []
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            if groups[a] == groups[b]:
                keep, weight = next(rng) % 4 != 0, 5 + next(rng) % 4
            elif groups[a][0] == groups[b][0]:
                keep, weight = next(rng) % 4 == 0, 2 + next(rng) % 3
            else:
                keep, weight = next(rng) % 32 == 0, 1 + next(rng) % 2
            if keep:
                edges.append((a, b, weight / 8))
    return graph_from_edges(len(groups), edges)


def noise_edges(n, seed):
    """Each pair linked with probability 1/6, at a weight of 1/8 to 8/8: the tree shape depends on the seed."""
    rng = draws(seed)
    edges = [(a, b, (1 + next(rng) % 8) / 8) for a in range(n) for b in range(a + 1, n) if next(rng) % 6 == 0]
    return graph_from_edges(n, edges)


CASES = {
    # six groups of 12 nodes: the root call splits, and every community is a leaf
    "flat": (lambda: planted_edges([(g, 0) for g in range(6) for _ in range(12)], seed=7), 20),
    # three groups of three sub-groups of 8: some groups split again, so the recursion reaches depth 2
    "nested": (lambda: planted_edges([(g, s) for g in range(3) for s in range(3) for _ in range(8)], seed=7), 10),
    # 60 nodes and 300 edges with no planted structure: restarts and ties decide the tree
    "noise": (lambda: noise_edges(60, seed=5), 8),
}

# sha256 of each tree's text; recorded with vec2gc 0.3.0
GOLDEN = {
    ("flat", 1): "885be7602d4e729e0f84de7ce66e1be51e39dfa1b1134e8c4e452ed862f157c6",
    ("flat", 2**40 + 3): "97a5c12b9db6324b2fd88f8feaf0c61f10237aa8fd1844214991582726d08936",
    ("nested", 1): "15cfa4baad7a283067c95d5cab1cb0f45bc6663d3eaf27b94b33cc8e829a92d6",
    ("nested", 2**40 + 3): "2cd3b35f835eb138f6c59ca580ebf86d19a7967ad4f269bd276cadb3fb05a389",
    ("noise", 1): "4e6e8ca4f27b0036a57625954aa19593c0e11500480f8c09463093d356e90d67",
    ("noise", 2**40 + 3): "67cd130fdb856fb4b916f6fae34628610b00191fe349a388b899348c2ca5dafd",
}


def tree_text(case, seed):
    graph, max_size = CASES[case]
    g = graph()
    tree, bucket = vec2gc_cluster(g, 0.2, max_size, seed)
    ids = [f"g{i}" for i in range(g.n)]
    return tree, dumps_tree(tree, bucket, ids, theta=0.5, mod_threshold=0.2, max_size=max_size, seed=seed)


@pytest.mark.parametrize("pool", ["off", "on"])
@pytest.mark.parametrize("case, seed", sorted(GOLDEN))
def test_tree_bytes_are_golden(monkeypatch, case, seed, pool):
    monkeypatch.setattr(community, "_available_cpus", lambda: 2)
    monkeypatch.setattr(community, "POOL_MIN_WORK", 0 if pool == "on" else float("inf"))
    tree, text = tree_text(case, seed)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[case, seed]


@pytest.mark.parametrize("case", ["nested", "noise"])
def test_the_recursion_reaches_depth_2(case):
    for seed in (1, 2**40 + 3):
        tree, _ = tree_text(case, seed)
        depth = [0] * len(tree.nodes)
        for node in tree.nodes[1:]:
            depth[node.id] = depth[node.parent] + 1
        assert max(depth) >= 2


def test_the_noise_tree_depends_on_the_seed():
    shapes = [[len(node.members) for node in tree_text("noise", seed)[0].nodes] for seed in (1, 2**40 + 3)]
    assert shapes[0] != shapes[1]


def planted_vectors(d, seed, levels):
    """Vectors with every component a multiple of 1/1024, from integer arithmetic alone.

    Each (count, spread) level gives every point of the level above count
    children, the parent's components plus integers in [-spread, spread];
    the first level's parent is the origin.
    """
    rng = draws(seed)
    points = [[0] * d]
    for count, spread in levels:
        points = [[c + next(rng) % (2 * spread + 1) - spread for c in p] for p in points for _ in range(count)]
    return [[c / 1024 for c in p] for p in points]


EMBEDDING_CASES = {
    # 26 topics of 50 in 48 dimensions: wide enough for the BLAS library to
    # split a product over threads, which moved weight bits before 0.4.0
    "topics": (lambda: planted_vectors(48, 11, [(26, 1024), (50, 300)]), 0.6, 60),
    # 3 x 4 sub-topics of 25 in 16 dimensions, split to depth 2
    "nested": (lambda: planted_vectors(16, 12, [(3, 1024), (4, 500), (25, 200)]), 0.5, 30),
}

# sha256 of each tree's text at seed 1; recorded with vec2gc 0.4.0
EMBEDDING_GOLDEN = {
    "topics": "a1afc7939332993f56fe867060c6d6fadfbc38b06ab87dc65d1b0375e892a381",
    "nested": "da8001a82ffab4f82fa29559d7c9b5399dcf756475df52f4c44adcdcba773609",
}

# random inputs whose graph bytes depended on the BLAS thread count before 0.4.0
RANDOM_GRAPHS = [(1300, 31), (2085, 32), (4621, 33)]


def embedding_digests() -> dict:
    """sha256 of each embedding case's tree, and of each random input's graph at theta 0.2."""
    trees = {}
    for case, (vectors, theta, max_size) in EMBEDDING_CASES.items():
        vectors = vectors()
        emb = EmbeddingSet(ids=[f"e{i}" for i in range(len(vectors))], vectors=vectors)
        tree, bucket = vec2gc_cluster(build_graph(emb, theta), 0.3, max_size, 1)
        text = dumps_tree(tree, bucket, emb.ids, theta=theta, mod_threshold=0.3, max_size=max_size, seed=1)
        trees[case] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    graphs = []
    for n, seed in RANDOM_GRAPHS:
        vectors = np.random.default_rng(seed).standard_normal((n, 48)).astype(np.float32)
        g = build_graph(EmbeddingSet(ids=[f"r{i}" for i in range(n)], vectors=vectors), 0.2)
        graphs.append(hashlib.sha256(g.indptr.tobytes() + g.indices.tobytes() + g.weights.tobytes()).hexdigest())
    return {"trees": trees, "graphs": graphs}


@pytest.fixture(scope="module")
def digests_by_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(community.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    child = "import json, sys; sys.path[:0] = sys.argv[1:]; import test_golden; print(json.dumps(test_golden.embedding_digests()))"
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", child, src, here], capture_output=True, text=True, env=env, check=True)
        digests[threads] = json.loads(run.stdout)
    return digests


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(EMBEDDING_GOLDEN))
def test_embedding_tree_bytes_are_golden_at_every_blas_thread_count(digests_by_blas_threads, case, threads):
    assert digests_by_blas_threads[threads]["trees"][case] == EMBEDDING_GOLDEN[case]


def test_graph_bytes_do_not_depend_on_blas_threads(digests_by_blas_threads):
    assert digests_by_blas_threads["1"]["graphs"] == digests_by_blas_threads["2"]["graphs"]
