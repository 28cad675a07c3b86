"""Cluster purity reporting and a k-medoids baseline.

Purity of a cluster is the share of its labeled members carrying the
most common label. A report counts, for each threshold k, the fraction
of clusters whose purity reaches k; noise buckets are excluded from the
cluster count and reported alongside.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

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


def kmedoids_fit(emb: EmbeddingSet, k: int, seed: int, max_iters: int = 100) -> KMedoidsResult:
    """K-medoids on cosine distance (1 - cs) with greedy spread-out seeding.

    The first medoid is drawn uniformly; each further medoid is sampled
    with probability proportional to the squared distance to its nearest
    chosen medoid. Assignment and Voronoi medoid updates then alternate
    until the medoid set stabilizes. Deterministic for a fixed seed.
    """
    n = len(emb)
    if k < 1 or k > n:
        raise ValueError(f"k must be between 1 and {n}, got {k}")
    unit = emb.vectors.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    dist = unit @ unit.T  # clipped and subtracted in place: one n x n matrix, not two
    np.clip(dist, -1.0, 1.0, out=dist)
    np.subtract(1.0, dist, out=dist)
    np.fill_diagonal(dist, 0.0)

    rng = np.random.default_rng(int(seed))
    medoids = [int(rng.integers(n))]
    nearest = dist[:, medoids[0]].copy()  # each item's distance to its nearest chosen medoid
    while len(medoids) < k:
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
        np.minimum(nearest, dist[:, nxt], out=nearest)
    medoids.sort()

    history: list[float] = []
    assign = _assign(dist, medoids)
    for _ in range(max_iters):
        history.append(_objective(dist, medoids, assign))
        new_medoids = []
        for j in range(len(medoids)):
            members = np.nonzero(assign == j)[0]
            within = dist[np.ix_(members, members)].sum(axis=1)
            new_medoids.append(int(members[int(np.argmin(within))]))
        new_medoids.sort()
        if new_medoids == medoids:
            break
        medoids = new_medoids
        assign = _assign(dist, medoids)

    clusters = [np.nonzero(assign == j)[0].tolist() for j in range(len(medoids))]
    return KMedoidsResult(clusters=clusters, medoids=medoids, objective_history=history)


def _assign(dist: np.ndarray, medoids: list[int]) -> np.ndarray:
    columns = dist[:, medoids]
    assign = np.argmin(columns, axis=1)
    # a medoid always anchors its own cluster, even among duplicates
    assign[medoids] = np.arange(len(medoids))
    return assign


def _objective(dist: np.ndarray, medoids: list[int], assign: np.ndarray) -> float:
    med = np.asarray(medoids)
    return float(dist[np.arange(dist.shape[0]), med[assign]].sum())


def kmedoids(emb: EmbeddingSet, k: int, seed: int, max_iters: int = 100) -> list[list[int]]:
    """Cluster memberships only; see kmedoids_fit for the full result."""
    return kmedoids_fit(emb, k, seed, max_iters=max_iters).clusters
