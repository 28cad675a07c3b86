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

from .embedding_io import MIN_VECTOR_NORM, EmbeddingSet, rewrite_utf8

SIMILARITY_CAP = 1.0 - 1e-9
MAX_EDGE_WEIGHT = 1e9

# The float32 screen multiplies row blocks of _BLOCK_ROWS by column
# windows of _COL_TILE, so a tile holds at most _BLOCK_ROWS x _COL_TILE
# similarities whatever n is. Any shape gives the same graph.
_BLOCK_ROWS = 256
_COL_TILE = 2048
# Screened pairs are recomputed this many at a time.
_RECOMPUTE = 1 << 14
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
    Neighbor lists are sorted by index, and both directions of an edge
    hold the same bits. degrees[a] is the weighted degree k_a, the sum of
    row a; two_m is 2m, the degrees added in node order. A similarity
    graph has no self-loops; an aggregated graph stores a loop at its full
    adjacency-matrix value (twice the loop mass), so degrees stay equal to
    row sums. Instances are immutable by convention.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray
    two_m: float

    @property
    def edge_count(self) -> int:
        return int(self.indices.size) // 2

    @classmethod
    def from_csr(cls, n: int, rows, cols, weights) -> "SimilarityGraph":
        """Graph from its CSR entries, sorted by row and then by column.

        Both directions of each edge appear, at the same bits. np.bincount
        adds each row's weights left to right in entry order; modularity
        values depend on those degree bits, so the order must not change.
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
            # in node order, as gains and so trees need: sum() compensates
            # rounding from Python 3.12 on, ndarray.sum() adds pairwise
            two_m=float(np.add.accumulate(degrees)[-1]) if n else 0.0,
        )


def _edge_weights(cs: np.ndarray) -> np.ndarray:
    # weights 1/(1 - cs) of similarities already >= theta. At or above
    # SIMILARITY_CAP the weight is MAX_EDGE_WEIGHT, the exact value at the
    # cap, so the mapping stays finite and monotone; the floor only acts there
    den = np.maximum(1.0 - cs, 1e-9)
    w = 1.0 / den
    w[cs >= SIMILARITY_CAP] = MAX_EDGE_WEIGHT
    return w


def build_graph(emb: EmbeddingSet, theta: float) -> SimilarityGraph:
    """Connect every pair with cosine similarity >= theta.

    Exact O(n^2 d) pairwise computation in two steps. A float32 product of
    the unit vectors screens out the pairs that are surely below theta; it
    is taken in row blocks of _BLOCK_ROWS by column windows of _COL_TILE
    over the upper triangle only, so the tile size, not n, sets the peak
    similarity memory. Each pair the screen keeps is recomputed from the
    stored float32 values by _fixed_order_dots,

        cs = dot(a, b) / (sqrt(dot(a, a)) * sqrt(dot(b, b))),

    and that value alone decides theta and the weight. Every rounding in
    it is a fixed-order IEEE operation, so the weights are a function of
    the input bytes alone: no tile shape, BLAS build or BLAS thread count
    changes a bit. The only parallelism is the BLAS library's own threads
    inside the screen's products.

    The screen keeps the pairs whose float32 similarity s reaches
    lo = theta - margin, rounded down to float32. A pair with cs >= theta
    is among them, because |s - cs| is at most the sum of, with u = 2^-24,
    x^ = x / |x| and x~ its float32 copy:

    - the float32 product's error, gamma_d sum_i |x~_i y~_i| <=
      gamma_d (1 + u)^2 with gamma_d = d u / (1 - d u), in any summation
      order and with or without fused multiply-add (Higham, Accuracy and
      Stability of Numerical Algorithms, 3.1);
    - rounding the unit vectors to float32, x~_i = x^_i (1 + delta_i)
      with |delta_i| <= u (plus the float64 norm's error, far below u):
      2u + u^2, as sum_i |x^_i y^_i| <= 1;
    - the recompute's own float64 error, about (2d + 4) 2^-53: the dot,
      two norms, their product and the division;
    - float32 subnormals, which round absolutely: 2^-150 for each of the
      d products and each of the 2d unit components.

    While d u <= 1/2, gamma_d <= 2 d u and the sum stays below
    margin = 2 (d + 4) u + d 2^-148. Longer vectors are not screened.
    """
    theta = _check_theta(theta)
    n, d = emb.vectors.shape
    every = np.arange(n)
    norms = np.sqrt(_fixed_order_dots(emb.vectors, every, every))
    if (norms < MIN_VECTOR_NORM).any():
        raise ValueError("zero-norm vector cannot be placed in a similarity graph")
    # float64 quotients rounded once to float32, with no float64 n x d copy
    unit = np.empty_like(emb.vectors)
    np.divide(emb.vectors, norms[:, None], out=unit, casting="same_kind")
    margin = 2.0 * (d + 4) * 2.0**-24 + d * 2.0**-148
    lo = np.nextafter(np.float32(theta - margin), np.float32(-np.inf)) if d <= 2**23 else -np.inf

    # screened pairs (row, col) with col > row, in any order: _assemble sorts the edges
    rows, cols = [], []
    for i0 in range(0, n, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, n)
        for j0 in range(i0, n, _COL_TILE):
            j1 = min(j0 + _COL_TILE, n)
            hit = np.matmul(unit[i0:i1], unit[j0:j1].T) >= lo
            r, c = np.divmod(np.flatnonzero(hit), j1 - j0)
            del hit  # one tile alive at a time
            r += i0
            c += j0
            if j0 < i1:
                # the window reaches the diagonal: keep col > row only
                upper = c > r
                r, c = r[upper], c[upper]
            rows.append(r)
            cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)

    cs = np.empty(rows.size)
    for k in range(0, rows.size, _RECOMPUTE):
        a, b = rows[k:k + _RECOMPUTE], cols[k:k + _RECOMPUTE]
        cs[k:k + _RECOMPUTE] = _fixed_order_dots(emb.vectors, a, b) / (norms[a] * norms[b])
    # no clipping into [-1, 1]: theta >= 0, and every cs above 1 gets
    # MAX_EDGE_WEIGHT from _edge_weights as 1 itself would
    keep = cs >= theta
    src, dst, cs = rows[keep], cols[keep], cs[keep]
    del rows, cols, keep
    return _assemble(n, src, dst, _edge_weights(cs))


def _fixed_order_dots(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j x[a, j] * x[b, j] in float64, added left to right over j.

    x is the n x d float32 vectors, converted to float64 one column at a
    time: no transposed or float64 copy of x is made, because a freed n x d
    block can stay resident for the rest of the run. A product of two
    float32 values is exact in float64, so each term costs one rounding,
    an elementwise IEEE addition in a fixed order: no BLAS, pairwise
    summation or fused multiply-add.
    """
    acc, term, other = np.zeros(a.size), np.empty(a.size), np.empty(a.size)
    for values in x.T:
        values = values.astype(np.float64)
        # the indices are in range; "clip" only skips numpy's bounds check
        values.take(a, out=term, mode="clip")
        values.take(b, out=other, mode="clip")
        term *= other
        acc += term
    return acc


def _assemble(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> SimilarityGraph:
    # mirror the one-per-edge arrays into a symmetric CSR, sorted by the
    # (row, col) keys; they are unique, so any sort gives the one order
    keys = np.concatenate([src * n + dst, dst * n + src])
    order = np.argsort(keys)
    rows, cols = np.divmod(keys[order], n)
    del keys
    return SimilarityGraph.from_csr(n, rows, cols, np.concatenate([w, w])[order])


def induced_subgraph(g: SimilarityGraph, nodes) -> SimilarityGraph:
    """Restrict the graph to the distinct `nodes`, renumbering them 0, 1, ... in ascending order.

    Edge weights are reused as-is; the construction threshold is never
    re-applied. The order of `nodes` and repeats in it do not matter.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= g.n):
        raise ValueError("subgraph nodes outside node range")
    # a mask, not np.unique: numpy 2's np.unique imports numpy.ma on its first call
    keep = np.zeros(g.n, dtype=bool)
    keep[nodes] = True
    nodes = np.flatnonzero(keep)
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
    with rewrite_utf8(path) as fh:
        for lo in range(0, src.size, _WRITE_LINES):
            hi = lo + _WRITE_LINES
            fh.write("".join(
                f"{ids[a]}\t{ids[b]}\t{weight:.12g}\n"
                for a, b, weight in zip(src[lo:hi].tolist(), dst[lo:hi].tolist(), w[lo:hi].tolist())
            ))
