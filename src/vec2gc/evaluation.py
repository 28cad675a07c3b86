"""Cluster purity reporting and a k-medoids baseline.

Purity of a cluster is the share of its labeled members carrying the
most common label. A report counts, for each threshold k, the fraction
of clusters whose purity reaches k; noise buckets are excluded from the
cluster count and reported alongside.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .community import members_by_community
from .embedding_io import EmbeddingSet

DEFAULT_THRESHOLDS = (0.5, 0.7, 0.9)


@dataclass
class ClusterPurityRow:
    index: int
    size: int
    labeled: int
    majority_label: str
    purity: float


@dataclass
class PurityReport:
    """Per-cluster purity plus the fraction-at-threshold statistics.

    n_clusters counts only clusters with at least one labeled member;
    the noise bucket is excluded from it and surfaced as noise_size.
    """

    per_cluster: list[ClusterPurityRow]
    n_clusters: int
    fractions: dict[float, float]
    noise_size: int
    unlabeled_members: int
    clusters_without_labels: int


def cluster_purity(members, labels: dict[str, str]) -> tuple[float, str]:
    """Purity and majority label of one cluster.

    Unlabeled members are dropped before counting; ties between majority
    candidates resolve to the lexicographically smallest label.
    """
    counts = Counter(labels[m] for m in members if m in labels)
    if not counts:
        raise ValueError("cluster has no labeled members")
    majority = min(counts, key=lambda label: (-counts[label], label))
    return counts[majority] / sum(counts.values()), majority


def purity_report(
    clusters,
    labels: dict[str, str],
    thresholds=DEFAULT_THRESHOLDS,
    noise_size: int = 0,
) -> PurityReport:
    """Evaluate a flat clustering against gold labels.

    Clusters with no labeled members are skipped (counted, not scored);
    unlabeled members of scored clusters are dropped from the purity
    denominator but kept in the reported size.
    """
    clusters = list(clusters)
    if not clusters:
        raise ValueError("no clusters to evaluate")
    if not labels:
        raise ValueError("no labels available")
    thresholds = [float(t) for t in thresholds]
    for t in thresholds:
        if not (0.0 < t <= 1.0):
            raise ValueError(f"purity threshold out of (0, 1]: got {t!r}")

    rows: list[ClusterPurityRow] = []
    unlabeled = 0
    skipped = 0
    for idx, members in enumerate(clusters):
        members = list(members)
        labeled = sum(1 for m in members if m in labels)
        unlabeled += len(members) - labeled
        if labeled == 0:
            skipped += 1
            continue
        purity, majority = cluster_purity(members, labels)
        rows.append(
            ClusterPurityRow(index=idx, size=len(members), labeled=labeled, majority_label=majority, purity=purity)
        )
    if not rows:
        raise ValueError("no cluster has labeled members")
    n = len(rows)
    fractions = {t: sum(1 for r in rows if r.purity >= t) / n for t in sorted(thresholds)}
    return PurityReport(
        per_cluster=rows,
        n_clusters=n,
        fractions=fractions,
        noise_size=noise_size,
        unlabeled_members=unlabeled,
        clusters_without_labels=skipped,
    )


def format_report_table(report: PurityReport) -> str:
    """Plain-text table: one row per threshold, comparison-table style."""
    lines = ["Purity Value  Fraction of clusters @ k% purity"]
    for t in sorted(report.fractions):
        lines.append(f"{round(t * 100):>3d}%          {report.fractions[t]:.2f}")
    lines.append(
        f"N = {report.n_clusters} clusters evaluated"
        f" (noise excluded: {report.noise_size},"
        f" unlabeled members: {report.unlabeled_members},"
        f" clusters without labels: {report.clusters_without_labels})"
    )
    return "\n".join(lines)


def report_to_json_dict(report: PurityReport) -> dict:
    """JSON-ready form of a report; key order is stable."""
    return {
        "n_clusters": report.n_clusters,
        "noise_size": report.noise_size,
        "fractions": {f"{t:g}": report.fractions[t] for t in sorted(report.fractions)},
        "unlabeled_members": report.unlabeled_members,
        "clusters_without_labels": report.clusters_without_labels,
        "per_cluster": [
            {
                "cluster": row.index,
                "size": row.size,
                "labeled": row.labeled,
                "majority_label": row.majority_label,
                "purity": row.purity,
            }
            for row in report.per_cluster
        ],
    }


@dataclass
class KMedoidsResult:
    clusters: list[list[int]]
    medoids: list[int]
    objective_history: list[float]


# The most float64 distances one block holds (2 MiB); a longer row is one block.
BLOCK_ENTRIES = 1 << 18


def kmedoids_fit(emb: EmbeddingSet, k: int, seed: int, max_iters: int = 100) -> KMedoidsResult:
    """K-medoids on cosine distance (1 - cs) with greedy spread-out seeding.

    The first medoid is drawn uniformly; each further medoid is sampled
    with probability proportional to the squared distance to its nearest
    chosen medoid. Assignment and Voronoi medoid updates then alternate
    until the medoid set stabilizes. Deterministic for a fixed seed.

    _distance_blocks computes distances as they are needed: one column
    per seed, all items against the medoids, each cluster against
    itself. Memory is the n x d unit vectors, one block of at most
    BLOCK_ENTRIES distances and O(n + k). A distance's last bit depends
    on the shape of the product it came from, so between duplicate
    vectors it is 0 or 1.1e-16, and such a tie may resolve differently
    from another version.
    """
    n = len(emb)
    if k < 1 or k > n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, got {max_iters}")
    unit = emb.vectors.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]

    rng = np.random.default_rng(int(seed))
    medoids = [int(rng.integers(n))]
    nearest = np.full(n, np.inf)  # each item's distance to its nearest chosen medoid
    while True:
        for start, block in _distance_blocks(unit, medoids[-1:]):
            part = nearest[start : start + len(block)]
            np.minimum(part, block[:, 0], out=part)
        if len(medoids) == k:
            break
        d2 = nearest ** 2
        total = float(d2.sum())
        nxt = None
        if total > 0.0:
            nxt = int(rng.choice(n, p=d2 / total))
        if nxt is None or nxt in medoids:
            # all remaining points coincide with a medoid: take the
            # smallest index not yet chosen
            chosen = set(medoids)
            nxt = next(i for i in range(n) if i not in chosen)
        medoids.append(nxt)
    medoids.sort()

    history: list[float] = []
    assign, near = _assign(unit, medoids)
    for _ in range(max_iters):
        history.append(float(near.sum()))
        new_medoids = sorted(_medoid(unit, members) for members in members_by_community(assign))
        if new_medoids == medoids:
            break
        medoids = new_medoids
        assign, near = _assign(unit, medoids)
    clusters = [members.tolist() for members in members_by_community(assign)]
    return KMedoidsResult(clusters=clusters, medoids=medoids, objective_history=history)


def _distance_blocks(unit: np.ndarray, cols, among: bool = False):
    """Yield (start, block): block[i, j] = 1 - clip(u . u_cols[j], -1, 1) for row start + i.

    cols is sorted; rows are all items, or cols themselves when among is
    set. An item's distance to itself is set to 0; rounding can leave 1.1e-16.
    """
    right = unit[cols]
    rows = right if among else unit
    step = max(1, BLOCK_ENTRIES // len(cols))
    for start in range(0, len(rows), step):
        block = rows[start : start + step] @ right.T  # a cluster in one block: right @ right.T
        np.minimum(block, 1.0, out=block)
        np.maximum(block, -1.0, out=block)
        np.subtract(1.0, block, out=block)
        if among:
            block.reshape(-1)[start :: len(cols) + 1] = 0.0
        else:
            for j in range(bisect_left(cols, start), bisect_left(cols, start + len(block))):
                block[cols[j] - start, j] = 0.0
        yield start, block


def _assign(unit: np.ndarray, medoids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each item's first nearest medoid, and its distance to it."""
    assign = np.empty(len(unit), dtype=np.intp)
    near = np.empty(len(unit))
    for start, block in _distance_blocks(unit, medoids):
        assign[start : start + len(block)] = columns = block.argmin(axis=1)
        near[start : start + len(block)] = block[np.arange(len(block)), columns]
    # a medoid always anchors its own cluster, even among duplicates, so
    # every label 0..k-1 occurs and members_by_community yields k groups
    assign[medoids] = np.arange(len(medoids))
    return assign, near


def _medoid(unit: np.ndarray, members: np.ndarray) -> int:
    """The first member with the least distance sum to the others."""
    if len(members) == 1:
        return int(members[0])
    within = [block.sum(axis=1) for _, block in _distance_blocks(unit, members, among=True)]
    return int(members[np.concatenate(within).argmin()])


def kmedoids(emb: EmbeddingSet, k: int, seed: int, max_iters: int = 100) -> list[list[int]]:
    """Cluster memberships only; see kmedoids_fit for the full result."""
    return kmedoids_fit(emb, k, seed, max_iters=max_iters).clusters
