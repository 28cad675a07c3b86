"""Weighted modularity and a seeded Louvain optimizer.

The optimizer is the classic two-phase scheme: sweeps of single-node
moves until none improves modularity by more than gain_epsilon, then
aggregation of communities into super-nodes, repeated until a level
stops improving. A final move phase runs against the original graph so
the returned partition is locally optimal node-by-node, not only
super-node-by-super-node. The independent seeded restarts of one call
can run on the worker processes of a RestartPool.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass

import numpy as np

from .simgraph import SimilarityGraph


@dataclass(frozen=True)
class LouvainConfig:
    """Knobs of the optimizer; defaults favor reproducibility over speed.

    restarts runs the whole multi-level pass that many times, the first
    from singleton communities, the rest from seeded random partitions,
    keeping the best-modularity result. Dense weighted graphs have local
    maxima that a single greedy pass lands in; restarts escape them.
    Each restart draws from its own seeded stream, so they may run in
    worker processes; the result is deterministic for a fixed seed.
    """

    gain_epsilon: float = 1e-9
    max_sweeps: int = 100
    max_levels: int = 50
    restarts: int = 16


@dataclass
class Partition:
    """Node-to-community assignment with its cached modularity.

    Community ids are dense integers 0..community_count-1, numbered by
    first occurrence in node order.
    """

    assignment: np.ndarray
    community_count: int
    modularity: float


def members_by_community(assignment) -> list[np.ndarray]:
    """Group node indices by dense community id, ascending within each group."""
    assignment = np.asarray(assignment, dtype=np.int64)
    order = np.argsort(assignment, kind="stable")
    counts = np.bincount(assignment)
    return np.split(order, np.cumsum(counts)[:-1])


def modularity(g, assignment) -> float:
    """Modularity Q of a community assignment over a weighted graph.

    Q sums, over ordered node pairs in the same community, the edge
    weight minus the degree-product expectation k_a*k_b/(2m), normalized
    by 2m. Diagonal entries participate at their stored value, which is 0
    for thresholded similarity graphs and twice the loop mass for
    aggregated ones.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (g.n,):
        raise ValueError("assignment must cover every node exactly once")
    if g.total_weight <= 0.0:
        raise ValueError("modularity is undefined on a graph with no edges")
    n_comm = int(assignment.max()) + 1
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    same = assignment[rows] == assignment[g.indices]
    # Per-node in-community sums first, then per-community totals: the
    # grouping then matches the degrees computation, so the all-in-one
    # partition cancels to exactly zero.
    node_in = np.bincount(rows[same], weights=g.weights[same], minlength=g.n)
    w_in = np.bincount(assignment, weights=node_in, minlength=n_comm)
    k_tot = np.bincount(assignment, weights=g.degrees, minlength=n_comm)
    two_m = float(k_tot.sum())
    frac = k_tot / two_m
    return float((w_in / two_m - frac * frac).sum())


def move_gain(g, assignment, node: int, target: int) -> float:
    """Exact modularity change from moving one node into a target community."""
    assignment = np.asarray(assignment, dtype=np.int64)
    current = int(assignment[node])
    if target == current:
        return 0.0
    two_m = float(g.degrees.sum())
    k_a = float(g.degrees[node])
    lo, hi = g.indptr[node], g.indptr[node + 1]
    nbrs, ws = g.indices[lo:hi], g.weights[lo:hi]
    nbr_comm = assignment[nbrs]
    not_self = nbrs != node
    k_in_cur = float(ws[(nbr_comm == current) & not_self].sum())
    k_in_tgt = float(ws[(nbr_comm == target) & not_self].sum())
    k_tot = np.bincount(assignment, weights=g.degrees, minlength=max(int(assignment.max()), target) + 1)
    sigma_cur = float(k_tot[current]) - k_a
    sigma_tgt = float(k_tot[target])
    return 2.0 * ((k_in_tgt - sigma_tgt * k_a / two_m) - (k_in_cur - sigma_cur * k_a / two_m)) / two_m


def aggregate_graph(g: SimilarityGraph, assignment) -> SimilarityGraph:
    """Collapse communities into super-nodes; intra weight becomes loop mass.

    The induced identity partition on the result has the same modularity
    as `assignment` on `g`.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    n_comm = int(assignment.max()) + 1
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    key = assignment[rows] * n_comm + assignment[g.indices]
    order = np.argsort(key, kind="stable")
    uniq, starts = np.unique(key[order], return_index=True)
    sums = np.add.reduceat(g.weights[order], starts)
    return SimilarityGraph.from_csr(n_comm, uniq // n_comm, uniq % n_comm, sums)


def louvain(g, seed: int = 0, config: LouvainConfig | None = None, pool: RestartPool | None = None) -> Partition:
    """Modularity-maximizing partition of a weighted graph.

    Deterministic for a fixed seed: node visit order is a seeded shuffle
    per sweep, equal-gain targets resolve to the smallest community id,
    and restart ties to the earliest restart. With a pool, the restarts
    may run in worker processes, in contiguous chunks whose winners are
    compared in chunk order, so the result is the same at every worker
    count.
    """
    config = config or LouvainConfig()
    if g.total_weight <= 0.0:
        raise ValueError("community detection requires a graph with at least one edge")
    restarts = max(1, config.restarts)
    winners = pool.run(g, seed, config, restarts) if pool is not None else None
    if winners is None:
        return _restart_chunk(g, seed, config, 0, restarts)
    return _earliest_best(winners)


_SEED_MASK = (1 << 64) - 1

# Smallest work (CSR entries x restarts) of a call that runs on worker
# processes. Measured on 2 CPUs, Python 3.11, medians of 5 to 7 runs: the
# first pool of a process costs about 30 ms to open and close (13 ms to
# import multiprocessing, 13 ms to fork two workers from a 75 MB process
# and run a first task, 4 ms to close). Once open, two workers save 0.7 to
# 3.1 us per unit on calls of 47k to 51k units (sub-calls of the
# nested-deep benchmark corpus, the root call of dedup-wide), after
# pickling the graph and the result. A call at the threshold therefore
# saves at least about what the first fork costs.
POOL_MIN_WORK = 40_000


class RestartPool:
    """Worker processes that run the restarts of louvain calls.

    One pool serves the calls of one clustering run. Its workers are
    forked on the first call whose work (CSR entries x restarts)
    reaches POOL_MIN_WORK and are reused by later calls; close() ends
    them. With one CPU, without the fork start method, or inside a
    daemonic process, every call runs in-process instead.
    """

    def __init__(self):
        self._pool = None
        self._workers: int | None = None  # decided on first use

    def __enter__(self) -> RestartPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, g, seed: int, config: LouvainConfig, restarts: int) -> list[Partition] | None:
        """Winners of contiguous restart chunks in chunk order, or None to run in-process."""
        if g.indices.size * restarts < POOL_MIN_WORK:
            return None
        if self._workers is None:
            self._open(restarts)
        chunks = min(self._workers, restarts)
        if self._pool is None or chunks < 2:
            return None
        cuts = [restarts * i // chunks for i in range(chunks + 1)]
        tasks = [(g, seed, config, cuts[i], cuts[i + 1]) for i in range(chunks)]
        return self._pool.starmap(_restart_chunk, tasks, chunksize=1)

    def _open(self, restarts: int) -> None:
        import multiprocessing  # here, so runs without a call this large never import it

        self._workers = min(_available_cpus(), restarts)
        if (
            self._workers < 2
            or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()
        ):
            return
        # fork, not spawn: workers inherit the loaded modules instead of
        # importing numpy again, and they do no BLAS work, so BLAS threads
        # in the parent cannot deadlock them.
        self._pool = multiprocessing.get_context("fork").Pool(self._workers, initializer=_ignore_sigint)

    def close(self) -> None:
        """End the workers and wait for them; the pool then runs everything in-process."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.terminate()
            pool.join()


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _ignore_sigint() -> None:
    # Ctrl-C reaches the whole process group; the parent handles it and
    # terminates the pool, so workers print no traceback of their own.
    # Imported here, in the worker, to keep it out of the package import.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _restart_chunk(g, seed: int, config: LouvainConfig, start: int, stop: int) -> Partition:
    """Best partition of restarts start..stop-1."""
    return _earliest_best(_restart(g, seed, config, r) for r in range(start, stop))


def _earliest_best(parts) -> Partition:
    """Highest-modularity partition; a tie keeps the earliest."""
    best = None
    for part in parts:
        if best is None or part.modularity > best.modularity:
            best = part
    return best


def _restart(g, seed: int, config: LouvainConfig, restart: int) -> Partition:
    rng = np.random.default_rng((int(seed) & _SEED_MASK, restart))
    if restart == 0:
        init = None
    else:
        groups = int(rng.integers(2, g.n + 1)) if g.n > 1 else 1
        init, _ = _dense_relabel(rng.integers(0, groups, size=g.n).tolist())
    return _louvain_pass(g, rng, config, init)


def _louvain_pass(g, rng, config: LouvainConfig, init) -> Partition:
    level = g
    node_map = np.arange(g.n)
    if init is not None:
        comm, _ = _move_phase(g, rng, config, init=init)
        node_map, n_comm = _dense_relabel(comm)
        if n_comm < g.n:
            level = aggregate_graph(g, node_map)
    for _ in range(config.max_levels):
        comm, moved = _move_phase(level, rng, config)
        if not moved:
            break
        dense, n_comm = _dense_relabel(comm)
        node_map = dense[node_map]
        if n_comm == level.n:
            break
        level = aggregate_graph(level, dense)

    # Refinement against the original graph: aggregation only guarantees
    # super-node optimality, single nodes may still have good moves left.
    final_comm, _ = _move_phase(g, rng, config, init=node_map)
    assignment, count = _dense_relabel(final_comm)
    return Partition(assignment=assignment, community_count=count, modularity=modularity(g, assignment))


def _dense_relabel(comm) -> tuple[np.ndarray, int]:
    out = np.empty(len(comm), dtype=np.int64)
    mapping: dict[int, int] = {}
    for i, c in enumerate(comm):
        out[i] = mapping.setdefault(int(c), len(mapping))
    return out, len(mapping)


def _node_degrees(ptr, wt) -> tuple[list[float], float]:
    """Row sums and their total, each added strictly left to right.

    Not sum(): from Python 3.12 it compensates rounding, which would make
    gains, and so trees, depend on the Python version.
    """
    k = []
    two_m = 0.0
    for a in range(len(ptr) - 1):
        total = 0.0
        for idx in range(ptr[a], ptr[a + 1]):
            total += wt[idx]
        k.append(total)
        two_m += total
    return k, two_m


def _move_phase(g, rng, config, init=None):
    """Single-node move sweeps until no move beats gain_epsilon.

    Returns (community list, whether anything moved). Plain-Python lists
    throughout: the loop is branch-heavy and element access dominates.
    """
    n = g.n
    ptr = g.indptr.tolist()
    nbr = g.indices.tolist()
    wt = g.weights.tolist()
    k, two_m = _node_degrees(ptr, wt)
    eps = config.gain_epsilon * two_m / 2.0

    comm = list(range(n)) if init is None else [int(c) for c in init]
    size = [0] * n
    for c in comm:
        size[c] += 1
    free = [c for c in range(n) if size[c] == 0]
    heapq.heapify(free)

    moved_any = False
    for _ in range(config.max_sweeps):
        sigma = [0.0] * n
        for a in range(n):
            sigma[comm[a]] += k[a]
        order = rng.permutation(n)
        if _sequential_sweep(order.tolist(), ptr, nbr, wt, k, two_m, eps, comm, sigma, size, free) == 0:
            break
        moved_any = True
    return comm, moved_any


def _sequential_sweep(order, ptr, nbr, wt, k, two_m, eps, comm, sigma, size, free):
    """One pass of single-node moves in the given order; returns the move count.

    Each node leaves its community and takes the adjacent community of
    highest gain, ties to the smallest id; standing alone wins when every
    adjacent gain is negative and the old community keeps members. The
    node moves only when that beats staying by more than eps.
    """
    moves = 0
    for a in order:
        lo, hi = ptr[a], ptr[a + 1]
        if lo == hi:
            continue
        c = comm[a]
        k_a = k[a]
        sigma[c] -= k_a
        size[c] -= 1
        acc: dict[int, float] = {}
        for b, w in zip(nbr[lo:hi], wt[lo:hi]):
            if b != a:
                d = comm[b]
                if d in acc:
                    acc[d] += w
                else:
                    acc[d] = w
        base = acc.pop(c, 0.0) - sigma[c] * k_a / two_m
        target, gain = c, base
        for d, w in acc.items():
            g = w - sigma[d] * k_a / two_m
            if g > gain or (g == gain and target != c and d < target):
                target, gain = d, g
        if size[c] > 0 and 0.0 > gain:
            target, gain = -1, 0.0
        if (gain - base) > eps and target != c:
            if target == -1:
                target = heapq.heappop(free)
            comm[a] = target
            sigma[target] += k_a
            size[target] += 1
            if size[c] == 0:
                heapq.heappush(free, c)
            moves += 1
        else:
            sigma[c] += k_a
            size[c] += 1
    return moves
