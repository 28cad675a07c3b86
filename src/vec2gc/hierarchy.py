"""Hierarchical community clustering into a tree plus a non-community bucket.

Each (sub)graph is partitioned by the modularity optimizer. When the
partition's modularity falls below mod_threshold, or only one community
emerges, the node becomes a leaf. Otherwise communities larger than
max_size are recursed into (their induced subgraphs keep the original
edge weights; the similarity threshold is never re-applied), smaller
ones become leaf children, and communities below min_community_size join
the non-community bucket, as do items isolated by the threshold itself.
"""

from __future__ import annotations

import hashlib
import json
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .community import RESTARTS, RestartPool, louvain, members_by_community
from .simgraph import SimilarityGraph, induced_subgraph

REASON_ISOLATED = "isolated"
REASON_SINGLETON = "singleton_community"

_MASK64 = (1 << 64) - 1


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
    is_leaf: bool


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
    members: list[int] | None
    children: list["_BuildNode"]
    split_modularity: float | None


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

    The tree is built one level at a time. Each level's optimizer calls
    are handed together to the run's RestartPool, so sibling calls, and
    the restart chunks of large ones, may run side by side in worker
    processes; each louvain call then reduces the chunks the pool
    returned for it. Each result is placed by its node's slot and every
    child seed comes from derive_seed, so the tree bytes do not depend on
    the order in which calls finish, nor on the worker count.
    """
    _check_cluster_parameters(mod_threshold, max_size, min_community_size, restarts)

    bucket = NonCommunityBucket()

    degree_counts = np.diff(g.indptr)
    for a in np.nonzero(degree_counts == 0)[0].tolist():
        bucket.members.append(a)
        bucket.reasons[a] = REASON_ISOLATED

    active = np.nonzero(degree_counts > 0)[0]
    if active.size == 0:
        warnings.warn("similarity graph has no edges; every item is non-community")
        bucket.members.sort()
        return ClusterTree(), bucket

    root = _BuildNode(None, [], None)
    split_nodes: list[_BuildNode] = []
    level = [(induced_subgraph(g, active) if active.size < g.n else g, active, seed, root)]
    with RestartPool() as pool:
        while level:
            started = pool.start([(sub_g, node_seed) for sub_g, _, node_seed, _ in level], restarts)
            next_level = []
            for (sub_g, corpus_idx, node_seed, bnode), chunks in zip(level, started):
                part = louvain(sub_g, node_seed, restarts, chunks)
                if part.community_count == 1 or part.modularity < mod_threshold:
                    bnode.members = sorted(corpus_idx.tolist())
                    continue
                bnode.split_modularity = part.modularity
                split_nodes.append(bnode)
                for ci, local in enumerate(members_by_community(part.assignment)):
                    corpus = corpus_idx[local]
                    if corpus.size < min_community_size:
                        for a in corpus.tolist():
                            bucket.members.append(a)
                            bucket.reasons[a] = REASON_SINGLETON
                    elif corpus.size <= max_size:
                        bnode.children.append(_BuildNode(sorted(corpus.tolist()), [], None))
                    else:
                        child = _BuildNode(None, [], None)
                        bnode.children.append(child)
                        next_level.append((induced_subgraph(sub_g, local), corpus, derive_seed(node_seed, ci), child))
            level = next_level
    bucket.members.sort()
    _prune(split_nodes)
    if root.members is None:
        warnings.warn("every community fell below min_community_size; tree is empty")
        return ClusterTree(), bucket
    return _flatten(root), bucket


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


def _prune(split_nodes: list[_BuildNode]) -> None:
    """Drop split nodes left without children and give the others their members.

    split_nodes lists every split node after its ancestors, so walking it
    backwards settles each node's children before the node. A dropped
    node keeps members None.
    """
    for bnode in reversed(split_nodes):
        bnode.children = [child for child in bnode.children if child.members is not None]
        if bnode.children:
            merged: list[int] = []
            for child in bnode.children:
                merged.extend(child.members)
            merged.sort()
            bnode.members = merged


def _flatten(root: _BuildNode) -> ClusterTree:
    """Number the nodes in depth-first preorder, root first."""
    tree = ClusterTree(nodes=[], root=0)
    stack: list[tuple[_BuildNode, TreeNode | None]] = [(root, None)]
    while stack:
        bnode, parent = stack.pop()
        node = TreeNode(
            id=len(tree.nodes),
            parent=None if parent is None else parent.id,
            children=[],
            members=bnode.members,
            split_modularity=bnode.split_modularity,
            is_leaf=not bnode.children,
        )
        tree.nodes.append(node)
        if parent is not None:
            parent.children.append(node.id)
        stack.extend((child, node) for child in reversed(bnode.children))
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
    """JSON text of a clustering run's tree document; key order is stable."""
    doc = {
        "theta": theta,
        "mod_threshold": mod_threshold,
        "max_size": max_size,
        "seed": seed,
        "nodes": [
            {
                "id": node.id,
                "parent": node.parent,
                "children": list(node.children),
                "members": [ids[i] for i in node.members],
                "split_modularity": node.split_modularity,
            }
            for node in tree.nodes
        ],
        "non_community": {
            "members": [ids[i] for i in bucket.members],
            "reasons": {ids[i]: bucket.reasons[i] for i in bucket.members},
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def leaf_clusters_from_document(doc: dict) -> tuple[list[list[str]], list[str]]:
    """Leaf member-id lists (depth-first child order) and bucket ids from a tree document.

    The document is validated before it is walked: integer ids that are
    unique, one root, children that exist and name their parent, no node
    reached twice or left unreached, and string members. A violation is a
    ValueError naming the node.
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
        by_id[node_id] = node
        children = node.get("children", [])
        if not isinstance(children, list):
            raise ValueError(f"tree node {node_id}: children must be a list")
        _check_members(node.get("members"), f"tree node {node_id}")
    roots = [node_id for node_id, node in by_id.items() if node.get("parent") is None]
    if by_id and len(roots) != 1:
        raise ValueError(f"tree document needs exactly one root node, found {roots or 'none'}")

    leaves: list[list[str]] = []
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
            leaves.append(list(node["members"]))
    for node_id in by_id:
        if node_id not in reached:
            raise ValueError(f"tree node {node_id}: not reachable from the root")
    bucket = doc.get("non_community", {})
    if not isinstance(bucket, dict):
        raise ValueError('tree document "non_community" must be a JSON object')
    noise = bucket.get("members", [])
    _check_members(noise, "non_community")
    return leaves, list(noise)


def _check_members(members, where: str) -> None:
    if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
        raise ValueError(f"{where}: members must be a list of strings")
