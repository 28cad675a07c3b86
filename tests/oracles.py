"""Independent reference computations and planted-data builders for tests.

Everything here recomputes results from first principles (dense matrices,
double loops, exhaustive enumeration) so the package's CSR/optimizer
paths are checked against code that shares none of their machinery.
"""

import json
import math

import numpy as np

from vec2gc import (
    ClusterTree,
    EmbeddingSet,
    NonCommunityBucket,
    SimilarityGraph,
    TreeNode,
    derive_seed,
    induced_subgraph,
    louvain,
    members_by_community,
)
from vec2gc.community import RESTARTS


def set_partitions(n):
    """All set partitions of range(n) as assignment lists (restricted growth)."""
    a = [0] * n
    while True:
        yield list(a)
        i = n - 1
        while i > 0:
            if a[i] <= max(a[:i]):
                a[i] += 1
                break
            a[i] = 0
            i -= 1
        else:
            return


def dense_from_graph(g) -> np.ndarray:
    A = np.zeros((g.n, g.n))
    for r in range(g.n):
        lo, hi = g.indptr[r], g.indptr[r + 1]
        A[r, g.indices[lo:hi]] = g.weights[lo:hi]
    return A


def modularity_double_sum(adj: np.ndarray, assignment) -> float:
    """Literal ordered-pair double sum of the modularity formula."""
    n = adj.shape[0]
    k = adj.sum(axis=1)
    two_m = float(k.sum())
    q = 0.0
    for a in range(n):
        for b in range(n):
            if assignment[a] == assignment[b]:
                q += adj[a, b] - k[a] * k[b] / two_m
    return q / two_m


def modularity_dense(adj: np.ndarray, assignment) -> float:
    """Vectorized equivalent of the double sum, for exhaustive searches."""
    k = adj.sum(axis=1)
    two_m = float(k.sum())
    c = np.asarray(assignment)
    mask = c[:, None] == c[None, :]
    return float((adj[mask] - np.outer(k, k)[mask] / two_m).sum() / two_m)


def best_partition_by_enumeration(adj: np.ndarray):
    """(Q*, assignment*) over every set partition of the node set."""
    k = adj.sum(axis=1)
    two_m = float(k.sum())
    B = adj - np.outer(k, k) / two_m
    best_q, best = -math.inf, None
    for assign in set_partitions(adj.shape[0]):
        c = np.asarray(assign)
        q = float(B[c[:, None] == c[None, :]].sum() / two_m)
        if q > best_q:
            best_q, best = q, assign
    return best_q, best


def left_to_right_row_sums(ptr, wt) -> list[float]:
    """Each CSR row's weights added strictly left to right, in plain Python."""
    sums = []
    for a in range(len(ptr) - 1):
        total = 0.0
        for idx in range(ptr[a], ptr[a + 1]):
            total += wt[idx]
        sums.append(total)
    return sums


def random_weighted_graph(rng, n, p=0.5, wmin=1.0, wmax=5.0) -> SimilarityGraph:
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.append((a, b, float(rng.uniform(wmin, wmax))))
    if not edges:
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.append((a, b, float(rng.uniform(wmin, wmax))))
    return graph_from_edges(n, edges)


def graph_from_edges(n, edges) -> SimilarityGraph:
    """Graph from (a, b, weight) triples, each undirected edge once; inputs are not checked."""
    triples = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
    src, dst, w = triples[:, 0].astype(np.int64), triples[:, 1].astype(np.int64), triples[:, 2]
    rows, cols = np.concatenate([src, dst]), np.concatenate([dst, src])
    order = np.lexsort((cols, rows))
    return SimilarityGraph.from_csr(n, rows[order], cols[order], np.concatenate([w, w])[order])


def row(g, a):
    """Neighbor indices and weights of node a."""
    lo, hi = g.indptr[a], g.indptr[a + 1]
    return g.indices[lo:hi], g.weights[lo:hi]


def write_jsonl(emb, path) -> None:
    """Write an EmbeddingSet as JSON lines; reloading reproduces the vectors bit-exact.

    float32 components are emitted through float64 repr, which is exact,
    so the parse-then-narrow on reload restores identical bits.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for item_id, vector in zip(emb.ids, emb.vectors):
            record = {"id": item_id, "vector": [float(v) for v in vector]}
            if emb.labels and item_id in emb.labels:
                record["label"] = emb.labels[item_id]
            fh.write(json.dumps(record) + "\n")


def reference_graph_edges(vectors, theta) -> dict:
    """Naive O(n^2) thresholded-similarity edges: {(a, b): weight}, a < b.

    Uses the raw dot/(|a||b|) form on float64 copies and inlines the
    weight mapping, so it shares nothing with the blocked production path.
    """
    v = np.asarray(vectors, dtype=np.float64)
    n = v.shape[0]
    norms = [math.sqrt(float(row @ row)) for row in v]
    edges = {}
    for a in range(n):
        for b in range(a + 1, n):
            cs = float(v[a] @ v[b]) / (norms[a] * norms[b])
            cs = min(1.0, max(-1.0, cs))
            if cs >= theta:
                edges[(a, b)] = 1e9 if cs >= 1.0 - 1e-9 else 1.0 / (1.0 - cs)
    return edges


def fixed_order_similarities(vectors) -> dict:
    """Cosine similarity {(a, b): cs}, a < b, of every pair, in plain Python floats.

    The order of build_graph's recompute, written as loops: float() of each
    float32 component, every dot product added left to right, and
    cs = dot / (sqrt(a.a) * sqrt(b.b)). Each Python operation rounds once,
    so build_graph must reach the same bits.
    """

    def dot(x, y):
        acc = 0.0
        for p, q in zip(x, y):
            acc += p * q
        return acc

    rows = [[float(v) for v in row] for row in np.asarray(vectors, dtype=np.float32)]
    norms = [math.sqrt(dot(row, row)) for row in rows]
    return {
        (a, b): dot(rows[a], rows[b]) / (norms[a] * norms[b])
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    }


def fixed_order_edges(vectors, theta) -> dict:
    """Edges {(a, b): weight} of the pairs whose fixed_order_similarities reach theta."""
    return {
        pair: 1e9 if cs >= 1.0 - 1e-9 else 1.0 / (1.0 - cs)
        for pair, cs in fixed_order_similarities(vectors).items()
        if cs >= theta
    }


def graph_edges(g) -> dict:
    """{(a, b): weight} with a < b, extracted from a SimilarityGraph."""
    out = {}
    for a in range(g.n):
        lo, hi = g.indptr[a], g.indptr[a + 1]
        for b, w in zip(g.indices[lo:hi].tolist(), g.weights[lo:hi].tolist()):
            if b > a:
                out[(a, b)] = w
    return out


def reference_kmedoids(emb, k, seed, max_iters=100):
    """k-medoids as it was written over one dense n x n distance matrix.

    The same seeding, assignment and Voronoi update as
    vec2gc.evaluation.kmedoids_fit, read from the full matrix instead of
    computed in blocks. Returns (clusters, medoids, objective_history).
    """
    n = len(emb)
    unit = emb.vectors.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    dist = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(dist, 0.0)

    rng = np.random.default_rng(int(seed))
    medoids = [int(rng.integers(n))]
    while len(medoids) < k:
        d2 = dist[:, medoids].min(axis=1) ** 2
        total = float(d2.sum())
        nxt = int(rng.choice(n, p=d2 / total)) if total > 0.0 else None
        if nxt is None or nxt in medoids:
            nxt = min(set(range(n)) - set(medoids))
        medoids.append(nxt)
    medoids.sort()

    def assign_to(medoids):
        assign = np.argmin(dist[:, medoids], axis=1)
        assign[medoids] = np.arange(len(medoids))
        return assign

    history = []
    assign = assign_to(medoids)
    for _ in range(max_iters):
        history.append(float(dist[np.arange(n), np.asarray(medoids)[assign]].sum()))
        new_medoids = []
        for j in range(len(medoids)):
            members = np.nonzero(assign == j)[0]
            within = dist[np.ix_(members, members)].sum(axis=1)
            new_medoids.append(int(members[int(np.argmin(within))]))
        new_medoids.sort()
        if new_medoids == medoids:
            break
        medoids = new_medoids
        assign = assign_to(medoids)
    clusters = [np.nonzero(assign == j)[0].tolist() for j in range(len(medoids))]
    return clusters, medoids, history


def planted_groups(sizes, intra_cs=0.92, isolated=0, label_prefix="group"):
    """Embeddings with exact planted geometry.

    Each group g gets an orthonormal center axis; each point mixes its
    group center with a private spread axis, so every intra-group pair
    has cosine exactly intra_cs (up to float32 storage) and every
    inter-group pair exactly 0. `isolated` extra items sit on their own
    axes, orthogonal to everything.

    Returns (EmbeddingSet, labels) where labels maps id -> group name;
    isolated items get no label.
    """
    groups = len(sizes)
    total = sum(sizes)
    dim = groups + total + isolated
    center = math.sqrt(intra_cs)
    spread = math.sqrt(1.0 - intra_cs)
    ids, rows = [], []
    labels = {}
    idx = 0
    for gi, size in enumerate(sizes):
        for pj in range(size):
            vec = np.zeros(dim, dtype=np.float32)
            vec[gi] = center
            vec[groups + idx] = spread
            item_id = f"g{gi}p{pj}"
            ids.append(item_id)
            labels[item_id] = f"{label_prefix}{gi}"
            rows.append(vec)
            idx += 1
    for j in range(isolated):
        vec = np.zeros(dim, dtype=np.float32)
        vec[groups + total + j] = 1.0
        ids.append(f"iso{j}")
        rows.append(vec)
    return EmbeddingSet(ids=ids, vectors=np.stack(rows), labels=labels), labels


def planted_nested(super_count=2, subs_per_super=3, sub_size=20, intra=0.9, cross_sub=0.6):
    """Two-level planted hierarchy.

    Intra-sub-group cosine is exactly `intra`, pairs from sibling
    sub-groups of the same super-group score exactly `cross_sub`, and
    pairs across super-groups score 0.

    Returns (EmbeddingSet, sub_groups, super_groups) where the group
    lists hold member-index lists.
    """
    total_subs = super_count * subs_per_super
    total = total_subs * sub_size
    dim = super_count + total_subs + total
    cos_b = math.sqrt(intra)
    sin_b = math.sqrt(1.0 - intra)
    cos_g = math.sqrt(cross_sub / intra)
    sin_g = math.sqrt(1.0 - cross_sub / intra)
    ids, rows = [], []
    sub_groups, super_groups = [], []
    idx = 0
    for si in range(super_count):
        super_members = []
        for bi in range(subs_per_super):
            sub_members = []
            sub_axis = super_count + si * subs_per_super + bi
            for pj in range(sub_size):
                vec = np.zeros(dim, dtype=np.float32)
                vec[si] = cos_b * cos_g
                vec[sub_axis] = cos_b * sin_g
                vec[super_count + total_subs + idx] = sin_b
                ids.append(f"s{si}b{bi}p{pj}")
                rows.append(vec)
                sub_members.append(idx)
                super_members.append(idx)
                idx += 1
            sub_groups.append(sub_members)
        super_groups.append(super_members)
    return EmbeddingSet(ids=ids, vectors=np.stack(rows)), sub_groups, super_groups


def arc_and_blob(arc_points=60, blob_points=30):
    """An elongated arc of one label next to a tight blob of another.

    The arc spans 120 degrees on the unit circle, so consecutive points
    are nearly identical while its endpoints are far apart; a threshold
    graph chains it into one connected block, but any single medoid is
    far from the arc's ends. The blob sits 28 degrees beyond the arc's
    end, outside a 0.9 cosine threshold but closer to the arc's tail
    than the tail is to the arc's medoid.
    """
    arc = np.linspace(0.0, 2.0 * math.pi / 3.0, arc_points)
    blob = np.linspace(math.radians(148.0), math.radians(152.0), blob_points)
    angles = np.concatenate([arc, blob])
    vectors = np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(np.float32)
    ids = [f"arc{i}" for i in range(arc_points)] + [f"blob{i}" for i in range(blob_points)]
    labels = {i: ("arc" if i.startswith("arc") else "blob") for i in ids}
    return EmbeddingSet(ids=ids, vectors=vectors, labels=labels), labels


class _BuildNode:
    def __init__(self, members, children, split_modularity):
        self.members, self.children, self.split_modularity = members, children, split_modularity


def reference_cluster(g, mod_threshold, max_size, seed, min_community_size=2, restarts=RESTARTS):
    """vec2gc_cluster as the depth-first recursive builder it replaced, without a pool.

    Returns (tree, bucket, pruned) where pruned counts the recursed
    (non-root) nodes that lost every child; an empty tree means the root
    was pruned. The louvain and induced_subgraph it calls are this
    module's names, so a test can count them.
    """
    bucket = NonCommunityBucket()
    degree_counts = np.diff(g.indptr)
    for a in np.nonzero(degree_counts == 0)[0].tolist():
        bucket.members.append(a)
        bucket.reasons[a] = "isolated"
    active = np.nonzero(degree_counts > 0)[0]
    if active.size == 0:
        return ClusterTree(), bucket, 0
    pool = None
    pruned = [0]

    def build(sub_g, corpus_idx, node_seed):
        part = louvain(sub_g, node_seed, restarts, pool)
        if part.community_count == 1 or part.modularity < mod_threshold:
            return _BuildNode(members=sorted(corpus_idx.tolist()), children=[], split_modularity=None)
        children = []
        for ci, local in enumerate(members_by_community(part.assignment)):
            corpus = corpus_idx[local]
            if corpus.size < min_community_size:
                for a in corpus.tolist():
                    bucket.members.append(a)
                    bucket.reasons[a] = "singleton_community"
            elif corpus.size <= max_size:
                children.append(_BuildNode(sorted(corpus.tolist()), [], None))
            else:
                child = build(induced_subgraph(sub_g, local), corpus, derive_seed(node_seed, ci))
                if child is not None:
                    children.append(child)
                else:
                    pruned[0] += 1
        if not children:
            return None
        return _BuildNode(members=None, children=children, split_modularity=part.modularity)

    work = induced_subgraph(g, active) if active.size < g.n else g
    root = build(work, active, seed)
    bucket.members.sort()
    if root is None:
        return ClusterTree(), bucket, pruned[0]
    return _reference_flatten(root), bucket, pruned[0]


def _reference_flatten(root):
    _reference_fill_members(root)
    tree = ClusterTree(nodes=[], root=0)

    def emit(bnode, parent):
        node_id = len(tree.nodes)
        node = TreeNode(
            id=node_id,
            parent=parent,
            children=[],
            members=bnode.members,
            split_modularity=bnode.split_modularity,
            is_leaf=not bnode.children,
        )
        tree.nodes.append(node)
        for child in bnode.children:
            node.children.append(emit(child, node_id))
        return node_id

    emit(root, None)
    return tree


def _reference_fill_members(bnode):
    if bnode.members is None:
        merged = []
        for child in bnode.children:
            merged.extend(_reference_fill_members(child))
        merged.sort()
        bnode.members = merged
    return bnode.members
