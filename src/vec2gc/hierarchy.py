"""Hierarchical community clustering into a tree plus a non-community bucket.

Each (sub)graph is partitioned by the modularity optimizer. When the
partition's modularity falls below mod_threshold, or only one community
emerges, the node becomes a leaf. A graph without edges, where
modularity is undefined, becomes a leaf without an optimizer call, as
does a graph of at most CERTIFY_MAX_NODES nodes whose
community.modularity_bound is below mod_threshold: no partition of it
can reach the threshold, so the call would make the same leaf.
Otherwise communities larger than max_size are recursed into (their
induced subgraphs keep the original edge weights; the similarity
threshold is never re-applied), smaller ones become leaf children, and
communities below min_community_size join the non-community bucket, as
do items isolated by the threshold itself.
"""

from __future__ import annotations

import hashlib
import json
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .community import _MASK64, RESTARTS, RestartPool, louvain, members_by_community, modularity_bound
from .simgraph import SimilarityGraph, induced_subgraph

REASON_ISOLATED = "isolated"
REASON_SINGLETON = "singleton_community"

# Largest graph tested against modularity_bound before its optimizer call.
# Every call the bound proved a leaf in the six benchmark runs (3 workloads,
# seeds 1 and 7) had 18 to 28 nodes; a 300-node cap also tested nested-deep's
# six 200-node level-1 calls, which never pass, for about 0.03 s per run.
CERTIFY_MAX_NODES = 64


def derive_seed(parent_seed: int, child_index: int) -> int:
    """Stable per-child seed so sibling subtrees draw independent streams."""
    packed = struct.pack("<QQ", parent_seed & _MASK64, child_index & _MASK64)
    return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little")


@dataclass
class TreeNode:
    id: int
    parent: int | None
    children: list[int]
    members: list[int]
    split_modularity: float | None

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class ClusterTree:
    """Hierarchy of cluster nodes; ids are depth-first preorder, root first."""

    nodes: list[TreeNode] = field(default_factory=list)
    root: int | None = None


@dataclass
class NonCommunityBucket:
    """Items excluded from the tree, with the reason per item."""

    members: list[int] = field(default_factory=list)
    reasons: dict[int, str] = field(default_factory=dict)


@dataclass
class _BuildNode:
    corpus: np.ndarray  # the node's ascending corpus indices
    children: list["_BuildNode"] = field(default_factory=list)
    split_modularity: float | None = None


def vec2gc_cluster(
    g: SimilarityGraph,
    mod_threshold: float,
    max_size: int,
    seed: int,
    min_community_size: int = 2,
    restarts: int = RESTARTS,
) -> tuple[ClusterTree, NonCommunityBucket]:
    """Recursively split a similarity graph into a cluster tree.

    Returns the tree and the non-community bucket; together their leaf
    members partition the graph's nodes exactly. Deterministic for fixed
    (graph, mod_threshold, max_size, seed, min_community_size, restarts).

    The tree is built one level at a time. The edgeless calls and those
    that modularity_bound proves leaves are settled first; the level's
    other optimizer calls are handed together to the run's RestartPool,
    which may fork worker processes that run their restarts side by side;
    each louvain call then takes its result from the handle the pool
    returned for it. Each result is placed by its node's slot and every
    child seed comes from derive_seed, so the tree bytes do not depend on
    the order in which calls finish, nor on the worker count.
    """
    _check_cluster_parameters(mod_threshold, max_size, min_community_size, restarts)

    bucket = NonCommunityBucket()

    degree_counts = np.diff(g.indptr)
    for a in np.nonzero(degree_counts == 0)[0].tolist():
        bucket.reasons[a] = REASON_ISOLATED

    active = np.nonzero(degree_counts > 0)[0]
    root = _BuildNode(active)
    # corpus ascends at every level: active does, and so does each members_by_community group
    level = [(induced_subgraph(g, active) if active.size < g.n else g, seed, root)]
    with RestartPool() as pool:
        while level:
            calls = [
                (sub_g, node_seed, bnode)
                for sub_g, node_seed, bnode in level
                if not (sub_g.two_m <= 0.0 or sub_g.n <= CERTIFY_MAX_NODES and modularity_bound(sub_g) < mod_threshold)
            ]
            started = pool.start([(sub_g, node_seed) for sub_g, node_seed, _ in calls], restarts)
            next_level = []
            for (sub_g, node_seed, bnode), handle in zip(calls, started):
                part = louvain(sub_g, node_seed, restarts, handle)
                if part.community_count == 1 or part.modularity < mod_threshold:
                    continue
                bnode.split_modularity = part.modularity
                for ci, local in enumerate(members_by_community(part.assignment)):
                    corpus = bnode.corpus[local]
                    if corpus.size < min_community_size:
                        for a in corpus.tolist():
                            bucket.reasons[a] = REASON_SINGLETON
                        continue
                    child = _BuildNode(corpus)
                    bnode.children.append(child)
                    if corpus.size > max_size:
                        next_level.append((induced_subgraph(sub_g, local), derive_seed(node_seed, ci), child))
            level = next_level
    bucket.members = sorted(bucket.reasons)
    tree = _flatten(root, bucket)
    if not tree.nodes:
        reason = "every community fell below min_community_size; tree is empty"
        warnings.warn(reason if active.size else "similarity graph has no edges; every item is non-community")
    return tree, bucket


def _check_cluster_parameters(mod_threshold: float, max_size: int, min_community_size: int, restarts: int) -> None:
    """Reject the vec2gc_cluster settings it cannot use; each message starts with the setting's name."""
    if not (0.0 <= float(mod_threshold) < 1.0):
        raise ValueError(f"mod_threshold out of [0, 1): got {mod_threshold!r}")
    if int(max_size) < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size!r}")
    if int(min_community_size) < 1:
        raise ValueError(f"min_community_size must be at least 1, got {min_community_size!r}")
    if int(restarts) < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts!r}")


def _flatten(root: _BuildNode, bucket: NonCommunityBucket) -> ClusterTree:
    """Number the nodes in depth-first preorder, root first.

    A node's members are its corpus items outside the bucket. Each item
    of a split node ends in a leaf below it or in the bucket, so a node
    without members has none below it either; it is skipped with its
    subtree.
    """
    tree = ClusterTree()
    stack: list[tuple[_BuildNode, TreeNode | None]] = [(root, None)]
    while stack:
        bnode, parent = stack.pop()
        members = [a for a in bnode.corpus.tolist() if a not in bucket.reasons]
        if not members:
            continue
        node = TreeNode(
            id=len(tree.nodes),
            parent=None if parent is None else parent.id,
            children=[],
            members=members,
            split_modularity=bnode.split_modularity,
        )
        tree.nodes.append(node)
        if parent is not None:
            parent.children.append(node.id)
        stack.extend((child, node) for child in reversed(bnode.children))
    tree.root = 0 if tree.nodes else None
    return tree


def flat_clusters(tree: ClusterTree) -> list[list[int]]:
    """Leaf member lists in depth-first, child-order traversal.

    _flatten numbers the nodes in that preorder, each child after the
    subtrees of its earlier siblings, so id order is already leaf order.
    """
    return [list(node.members) for node in tree.nodes if node.is_leaf]


def dumps_tree(
    tree: ClusterTree,
    bucket: NonCommunityBucket,
    ids: list[str],
    *,
    theta: float,
    mod_threshold: float,
    max_size: int,
    seed: int,
) -> str:
    """JSON text of a clustering run's tree document; each node's keys are TreeNode's fields, in order."""
    doc = {
        "theta": theta,
        "mod_threshold": mod_threshold,
        "max_size": max_size,
        "seed": seed,
        "nodes": [vars(node) | {"members": [ids[i] for i in node.members]} for node in tree.nodes],
        "non_community": {
            "members": [ids[i] for i in bucket.members],
            "reasons": {ids[i]: bucket.reasons[i] for i in bucket.members},
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def leaf_clusters_from_document(doc: dict) -> tuple[list[list[str]], list[str]]:
    """Leaf member-id lists (depth-first child order) and bucket ids from a tree document.

    The document is validated before it is walked: integer ids that are
    unique, integer or null parents, one root, children that exist and
    name their parent, no node reached twice or left unreached, and string
    members, none of them in two leaves or in a leaf and the bucket. A
    violation is a ValueError naming the node.
    """
    if not isinstance(doc, dict):
        raise ValueError("tree document must be a JSON object")
    nodes = doc.get("nodes", [])
    if not isinstance(nodes, list):
        raise ValueError('tree document has no "nodes" list')
    by_id: dict[int, dict] = {}
    for position, node in enumerate(nodes):
        if not isinstance(node, dict):
            raise ValueError(f'entry {position} of "nodes" must be a JSON object')
        node_id = node.get("id")
        if type(node_id) is not int:
            raise ValueError(f"tree node {node_id!r}: id must be an integer")
        if node_id in by_id:
            raise ValueError(f"tree node {node_id}: duplicate id")
        if type(node.get("parent")) not in (int, type(None)):
            raise ValueError(f"tree node {node_id}: parent must be an integer or null")
        by_id[node_id] = node
        children = node.get("children", [])
        if not isinstance(children, list):
            raise ValueError(f"tree node {node_id}: children must be a list")
        _check_members(node.get("members"), f"tree node {node_id}")
    roots = [node_id for node_id, node in by_id.items() if node.get("parent") is None]
    if by_id and len(roots) != 1:
        raise ValueError(f"tree document needs exactly one root node, found {roots or 'none'}")

    leaves: dict[int, list[str]] = {}  # in depth-first order
    reached: set[int] = set()
    stack = roots
    while stack:
        node_id = stack.pop()
        if node_id in reached:
            raise ValueError(f"tree node {node_id}: reached twice")
        reached.add(node_id)
        node = by_id[node_id]
        children = node.get("children", [])
        for child in children:
            if type(child) is not int or child not in by_id:
                raise ValueError(f"tree node {node_id}: child {child!r} does not exist")
            if by_id[child].get("parent") != node_id:
                raise ValueError(f"tree node {child}: parent is not {node_id}, which lists it as a child")
        if children:
            stack.extend(reversed(children))
        else:
            leaves[node_id] = list(node["members"])
    for node_id in by_id:
        if node_id not in reached:
            raise ValueError(f"tree node {node_id}: not reachable from the root")
    bucket = doc.get("non_community", {})
    if not isinstance(bucket, dict):
        raise ValueError('tree document "non_community" must be a JSON object')
    noise = bucket.get("members", [])
    _check_members(noise, "non_community")
    seen: dict[str, str] = {}
    for place, members in [*((f"tree node {i}", m) for i, m in leaves.items()), ("non_community", noise)]:
        for member in members:
            if member in seen:
                raise ValueError(f"{place}: member {member!r} is also in {seen[member]}")
            seen[member] = place
    return list(leaves.values()), list(noise)


def _check_members(members, where: str) -> None:
    if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
        raise ValueError(f"{where}: members must be a list of strings")
