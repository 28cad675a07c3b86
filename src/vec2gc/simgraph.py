"""Thresholded cosine-similarity graphs over embedding sets.

Pairs whose cosine similarity reaches a threshold theta are connected
with weight 1/(1 - cs). The mapping is deliberately non-linear: cs 0.9
becomes weight 10, cs 0.95 becomes 20, so near-identical pairs bind far
more tightly than pairs just above the threshold. Similarities within
1e-9 of 1 are capped so duplicate vectors produce a finite weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding_io import MIN_VECTOR_NORM, EmbeddingSet

SIMILARITY_CAP = 1.0 - 1e-9
MAX_EDGE_WEIGHT = 1e9

_BLOCK_ROWS = 256
# Each block is multiplied by column windows of _COL_TILE columns (a
# multiple of _BLOCK_ROWS), never by all n columns. How BLAS rounds an entry
# depends on the shape of the product it is part of: the trailing columns
# of a product take other kernels (OpenBLAS: the last n mod 8), and small
# products take another kernel or fewer threads, which group rows
# differently. So windows start on the _BLOCK_ROWS grid, the last one ends
# at n, and every window has at least _BLOCK_ROWS x _COL_TILE entries (a
# short last block gets proportionally wider windows). Every entry is then
# rounded as in the full-row product unit[i0:i1] @ unit.T, and a tile holds
# fewer than 4 x _BLOCK_ROWS x (_COL_TILE + _BLOCK_ROWS) floats for any n.
_COL_TILE = 1024
# Edge lines are formatted and written this many at a time.
_WRITE_LINES = 8192


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not (0.0 <= theta <= SIMILARITY_CAP):
        raise ValueError(
            f"theta out of [0, 1): got {theta!r} (usable range is 0 <= theta <= {SIMILARITY_CAP})"
        )
    return theta


@dataclass
class SimilarityGraph:
    """Symmetric weighted graph in compressed sparse row form.

    The one graph type of the package: thresholded similarity graphs,
    their induced subgraphs and the super-node graphs of aggregation.
    Neighbor lists are sorted by index. degrees[a] is the weighted degree
    k_a, the sum of row a; total_weight is m = degrees.sum() / 2. A
    similarity graph has no self-loops; an aggregated graph stores a loop
    at its full adjacency-matrix value (twice the loop mass), so degrees
    stay equal to row sums. Instances are immutable by convention.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray
    total_weight: float

    @property
    def edge_count(self) -> int:
        return int(self.indices.size) // 2

    @classmethod
    def from_csr(cls, n: int, rows, cols, weights) -> "SimilarityGraph":
        """Graph from its CSR entries, sorted by row and then by column.

        Each undirected edge appears in both directions. np.bincount adds
        each row's weights left to right in entry order; modularity values
        depend on those degree bits, so the order must not change.
        """
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        degrees = np.bincount(rows, weights=weights, minlength=n)
        return cls(
            n=n,
            indptr=indptr,
            indices=np.asarray(cols, dtype=np.int64),
            weights=weights,
            degrees=degrees,
            total_weight=float(degrees.sum()) / 2.0,
        )


def edge_weight(cs: float, theta: float) -> float:
    """Map a similarity to an edge weight: 0 below theta, else 1/(1 - cs).

    Similarities at or above SIMILARITY_CAP return MAX_EDGE_WEIGHT, the
    exact value of 1/(1 - cs) at the cap, keeping the mapping finite and
    monotone.
    """
    theta = _check_theta(theta)
    cs = min(1.0, max(-1.0, float(cs)))
    if cs < theta:
        return 0.0
    return float(_edge_weights(np.array([cs]))[0])


def _edge_weights(cs: np.ndarray) -> np.ndarray:
    # weights of similarities already >= theta; the floor only acts at or
    # above SIMILARITY_CAP, where the weight is replaced by the cap anyway
    den = np.maximum(1.0 - cs, 1e-9)
    w = 1.0 / den
    w[cs >= SIMILARITY_CAP] = MAX_EDGE_WEIGHT
    return w


def build_graph(emb: EmbeddingSet, theta: float) -> SimilarityGraph:
    """Connect every pair with cosine similarity >= theta.

    Exact O(n^2 d) pairwise computation over unit-normalized float64
    copies of the stored vectors. Rows are taken in blocks of _BLOCK_ROWS,
    and each block is multiplied only by the columns at or after its
    first row, in windows of about _COL_TILE columns, so only the upper
    triangle is thresholded and the peak similarity memory is set by the
    tile size, not by n. The only parallelism is the BLAS library's own
    threads inside each product.
    """
    theta = _check_theta(theta)
    n = len(emb)
    unit = emb.vectors.astype(np.float64)
    norms = np.linalg.norm(unit, axis=1)
    if (norms < MIN_VECTOR_NORM).any():
        raise ValueError("zero-norm vector cannot be placed in a similarity graph")
    unit /= norms[:, None]

    # edges (row, col, similarity) with col > row, in any order: _assemble sorts them
    rows, cols, sims = [], [], []
    for i0 in range(0, n, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, n)
        width = _COL_TILE * -(-_BLOCK_ROWS // (i1 - i0))
        # start of the last window; the columns before j0 that it covers belong
        # to an earlier window or to the lower triangle and are skipped
        last = max(0, n - width) // _BLOCK_ROWS * _BLOCK_ROWS
        j0 = i0
        while j0 < n:
            # the last window also takes a remainder narrower than width
            c0, c1 = min(j0, last), (j0 + width if j0 + 2 * width <= n else n)
            tile = np.matmul(unit[i0:i1], unit[c0:c1].T)[:, j0 - c0:]
            # no clipping into [-1, 1]: theta >= 0, and every cs above 1
            # gets MAX_EDGE_WEIGHT from _edge_weights as 1 itself would
            hit = tile >= theta
            if j0 == i0:
                # the square on the diagonal holds col <= row pairs
                hit[:, :i1 - i0] = np.triu(hit[:, :i1 - i0], 1)
            r, c = np.divmod(np.flatnonzero(hit), hit.shape[1])
            rows.append(r + i0)
            cols.append(c + j0)
            sims.append(tile[r, c])
            del tile, hit  # one tile alive at a time
            j0 = c1
    return _assemble(n, np.concatenate(rows), np.concatenate(cols), _edge_weights(np.concatenate(sims)))


def _assemble(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> SimilarityGraph:
    # mirror the one-per-edge arrays into a symmetric CSR
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    order = np.lexsort((cols, rows))
    return SimilarityGraph.from_csr(n, rows[order], cols[order], np.concatenate([w, w])[order])


def induced_subgraph(g: SimilarityGraph, nodes) -> SimilarityGraph:
    """Restrict the graph to `nodes`, renumbering them 0..len(nodes)-1.

    Edge weights are reused as-is; the construction threshold is never
    re-applied. `nodes` must be unique; order is normalized to ascending.
    """
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    if nodes.size and (nodes[0] < 0 or nodes[-1] >= g.n):
        raise ValueError("subgraph nodes outside node range")
    newid = np.full(g.n, -1, dtype=np.int64)
    newid[nodes] = np.arange(nodes.size)
    rows_all = np.repeat(np.arange(g.n), np.diff(g.indptr))
    mask = (newid[rows_all] >= 0) & (newid[g.indices] >= 0)
    # newid keeps node order, so the kept entries stay sorted by row and column
    return SimilarityGraph.from_csr(nodes.size, newid[rows_all[mask]], newid[g.indices[mask]], g.weights[mask])


def write_edges_tsv(g: SimilarityGraph, ids: list[str], path) -> None:
    """Export the edge list as "src_id<TAB>dst_id<TAB>weight", one line per edge.

    Each undirected edge appears once with src index < dst index; weights
    are printed with 12 significant digits. An id with a tab or a line
    break raises ValueError before the file is opened.
    """
    if len(ids) != g.n:
        raise ValueError("id list does not match graph size")
    if (bad := next((i for i in ids if "\t" in i or "\n" in i or "\r" in i), None)) is not None:
        raise ValueError(f"id {bad!r} has a tab or a line break, which an edge TSV line cannot hold")
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    upper = g.indices > rows
    src, dst, w = rows[upper], g.indices[upper], g.weights[upper]
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, src.size, _WRITE_LINES):
            hi = lo + _WRITE_LINES
            fh.write("".join(
                f"{ids[a]}\t{ids[b]}\t{weight:.12g}\n"
                for a, b, weight in zip(src[lo:hi].tolist(), dst[lo:hi].tolist(), w[lo:hi].tolist())
            ))
