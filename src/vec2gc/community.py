"""Weighted modularity and a seeded Louvain optimizer.

The optimizer is the classic two-phase scheme: sweeps of single-node
moves until none improves modularity by more than GAIN_EPSILON, then
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


# Smallest modularity gain that counts as a move. Far above the rounding
# of a gain (about 1e-16 of 2m), so a move never rests on rounding noise.
GAIN_EPSILON = 1e-9

# Most move sweeps of one phase, a guard against cycling: the 3,352 move
# phases of the six benchmark runs (3 workloads, seeds 1 and 7) need at most 11.
MAX_SWEEPS = 100

# Seeded restarts of one louvain call. Dense weighted graphs have local
# maxima that a single greedy pass lands in; restarts escape them. 8 write
# the same trees as the 16 of versions before 0.2 on all three benchmark
# corpora at seeds 1 to 8, in 56 to 57% of the optimizer time. On tiny
# graphs they trade some quality: the exhaustive-optimum acceptance test
# needs at least 6, and on 2,040 random graphs of 3 to 8 nodes from its
# generator the best of 8 falls below 0.9 times the optimal Q on 4, the
# best of 16 on none.
RESTARTS = 8


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
    ends = np.cumsum(np.bincount(assignment)).tolist()
    return [order[start:end] for start, end in zip([0, *ends], ends)]


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


def louvain(g, seed: int = 0, restarts: int = RESTARTS, chunks: list | None = None) -> Partition:
    """Modularity-maximizing partition of a weighted graph.

    The best of restarts runs of the whole multi-level pass (see
    RESTARTS), the first from singletons, the rest from seeded random
    partitions. Deterministic for a fixed seed: node visit order is a
    seeded shuffle per sweep, equal-gain targets resolve to the smallest
    community id, and restart ties to the earliest restart. Without
    chunks the restarts run here. chunks are the restart chunks that
    RestartPool.start submitted for this call; their winners are compared
    in chunk order, so the result is the same at every worker count.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts!r}")
    if g.total_weight <= 0.0:
        raise ValueError("community detection requires a graph with at least one edge")
    if chunks is None:
        return _restart_chunk(g, seed, 0, restarts)
    return _earliest_best(chunk.get() for chunk in chunks)


_SEED_MASK = (1 << 64) - 1

# Smallest work (CSR entries x restarts, summed over the calls of one
# level) that runs on worker processes. Measured on 2 CPUs, Python 3.11,
# 8 restarts: the first pool of a process costs 20 to 31 ms (median 25 of
# 9 runs) to import multiprocessing, fork two workers, run a first task
# and close them. Once open, two workers save, per unit and after
# pickling, 0.3 to 0.75 us (median 0.54) on single calls of 18k to 28k
# units (the nested-deep benchmark's level-1 calls, medians of 5, in 3 of
# 4 runs; the fourth, on a busy host, saved nothing) and 0.8 to 1.45 us on
# dedup-wide's 24k-unit root call, so single calls break even near
# 25 ms / 0.54 us = 47k units, with 17k to 100k inside the spread. A level
# of many small calls saves more per unit, 1.0 to 1.9 us (nested-deep's 46
# level-2 calls, 97k units), because their per-call setup runs in parallel
# too; it breaks even at 13k to 31k. 40k stays: it lies inside the
# single-call range, and the benchmark corpora's levels are below 5.1k or
# above 94k, except dedup-wide's one 24k call, which saves about what
# opening the pool costs (24k x 1.1 us = 26 ms).
POOL_MIN_WORK = 40_000


class RestartPool:
    """Worker processes that run the restarts of louvain calls.

    One pool serves the calls of one clustering run, which starts each
    level of its recursion at once: start() submits the level's calls in
    contiguous restart chunks, a call's share of the chunks following its
    share of the level's work, and returns each call's chunks for louvain
    to reduce. So sibling calls run side by side, and a large call's
    chunks run on every worker. The workers are forked by the first level
    whose work reaches POOL_MIN_WORK, reused by later levels, and ended by
    close(). With one CPU, without the fork start method, or inside a
    daemonic process, every call runs in-process.
    """

    def __init__(self):
        self._pool = None
        self._workers: int | None = None  # decided on first use

    def __enter__(self) -> RestartPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self, calls, restarts: int) -> list:
        """Submit the (graph, seed) louvain calls of one level; one entry per call.

        An entry is the call's list of restart chunks, or None when the
        level runs in-process: its work is below POOL_MIN_WORK, or the
        pool has no workers.
        """
        works = [g.indices.size * restarts for g, _ in calls]
        level_work = sum(works)
        in_process = [None] * len(calls)
        if not level_work or level_work < POOL_MIN_WORK:
            return in_process
        if self._workers is None:
            self._open(restarts)
        if self._pool is None:
            return in_process
        started = []
        for (g, seed), work in zip(calls, works):
            chunks = min(restarts, max(1, -(-self._workers * work // level_work)))
            cuts = [restarts * i // chunks for i in range(chunks + 1)]
            started.append(
                [self._pool.apply_async(_restart_chunk, (g, seed, cuts[i], cuts[i + 1])) for i in range(chunks)]
            )
        return started

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


def _restart_chunk(g, seed: int, start: int, stop: int) -> Partition:
    """Best partition of restarts start..stop-1."""
    sweep_graph = _SweepGraph(g)
    return _earliest_best(_restart(sweep_graph, seed, r) for r in range(start, stop))


def _earliest_best(parts) -> Partition:
    """Highest-modularity partition; a tie keeps the earliest."""
    best = None
    for part in parts:
        if best is None or part.modularity > best.modularity:
            best = part
    return best


def _restart(sg: _SweepGraph, seed: int, restart: int) -> Partition:
    rng = np.random.default_rng((int(seed) & _SEED_MASK, restart))
    if restart == 0:
        init = None
    else:
        groups = int(rng.integers(2, sg.n + 1)) if sg.n > 1 else 1
        init, _ = _dense_relabel(rng.integers(0, groups, size=sg.n).tolist())
    return _louvain_pass(sg, rng, init)


def _louvain_pass(sg: _SweepGraph, rng, init) -> Partition:
    g = sg.g
    level = sg
    node_map = np.arange(g.n)
    if init is not None:
        comm, _ = _move_phase(sg, rng, init=init)
        node_map, n_comm = _dense_relabel(comm)
        if n_comm < g.n:
            level = _SweepGraph(aggregate_graph(g, node_map))
    while True:  # ends: a level that continues has fewer nodes than the one before
        comm, moved = _move_phase(level, rng)
        if not moved:
            break
        dense, n_comm = _dense_relabel(comm)
        node_map = dense[node_map]
        if n_comm == level.n:
            break
        level = _SweepGraph(aggregate_graph(level.g, dense))

    # Refinement against the original graph: aggregation only guarantees
    # super-node optimality, single nodes may still have good moves left.
    # Its partition comes from the levels above and is usually stable
    # already, so its first sweep is certified too.
    final_comm, _ = _move_phase(sg, rng, init=node_map, certify_first=True)
    assignment, count = _dense_relabel(final_comm)
    return Partition(assignment=assignment, community_count=count, modularity=modularity(g, assignment))


def _dense_relabel(comm: list[int]) -> tuple[np.ndarray, int]:
    """Community ids renumbered 0, 1, ... by first occurrence."""
    mapping: dict[int, int] = {}
    out = np.array([mapping.setdefault(c, len(mapping)) for c in comm], dtype=np.int64)
    return out, len(mapping)


def _left_to_right_total(values) -> float:
    """Sum added strictly left to right.

    Not sum(): from Python 3.12 it compensates rounding, which would make
    gains, and so trees, depend on the Python version. Nor ndarray.sum(),
    which adds pairwise; add.accumulate adds in order.
    """
    return float(np.add.accumulate(np.asarray(values, dtype=np.float64))[-1])


_U = 2.0**-53  # unit roundoff of float64


class _SweepGraph:
    """What the move sweeps of one graph read, built once per graph.

    A restart chunk builds it once for its input graph, whose first and
    final move phase every restart runs, and once per aggregated level.
    Plain lists for the Python sweep, where element access dominates: the
    CSR arrays, the degrees k (each row summed left to right, see
    SimilarityGraph.from_csr) and their left-to-right total two_m. numpy
    arrays for the stay certificate (see _slack): the entries without
    self-loops, and per-node rounding margins.
    """

    def __init__(self, g: SimilarityGraph):
        self.g = g
        self.n = n = g.n
        self.ptr = g.indptr.tolist()
        self.nbr = g.indices.tolist()
        self.wt = g.weights.tolist()
        self.k = g.degrees.tolist()
        self.two_m = _left_to_right_total(g.degrees)
        lengths = np.diff(g.indptr)
        rows = np.repeat(np.arange(n), lengths)
        loop_free = rows != g.indices
        self.rows = rows[loop_free]
        self.cols = g.indices[loop_free]
        self.weights = g.weights[loop_free]
        self.margin = (5.0 * lengths + (3.0 * n + 32.0)) * _U * g.degrees
        # Largest ratio between the two stored directions of an edge:
        # aggregation sums them in different orders, a similarity graph
        # stores both at the same bits (ratio 1). The (col, row) keys are
        # unique, so any sort of them gives the transposed order.
        transposed = np.argsort(g.indices * n + rows)
        spread = float(np.max(g.weights / g.weights[transposed]))
        self.scale = 2.0 * _up(_up(1.0 + 2.0 * (n + 4) * _U) * _up(spread))


def _up(x):
    return np.nextafter(x, np.inf)


def _down(x):
    return np.nextafter(x, -np.inf)


def _slack(sg: _SweepGraph, comm: np.ndarray, sigma: np.ndarray, eps: float) -> list[float]:
    """How far below eps each node's best move provably stays, per unit of the skip test.

    Node a of community c stays in a sweep unless max(g_d, 0) - base > eps,
    where acc_d is a's weight to community d without its self-loop, base =
    acc_c - (sigma_c - k_a) * k_a / 2m and g_d = acc_d - sigma_d * k_a / 2m
    for each adjacent community d != c; 0 is the stand-alone option. At
    the start of the sweep this computes Q_a = max(best g_d, 0) - base
    with the sweep's own operations: np.bincount adds each (node,
    community) group in CSR order, and sigma was summed in node order.
    The 0 also covers every community not adjacent then, whose g_d is
    -sigma_d * k_a / 2m <= 0 because sigma is a fresh sum of degrees.

    Earlier nodes of the same sweep change these numbers. In exact
    arithmetic, a neighbour of weight w that moves changes acc of two
    communities by w, which raises max(g_d, 0) - base by at most 2w, and a
    node of degree k that moves changes two sigmas by k, which raises it by
    at most 2k * k_a / 2m. So a stays when

        eps - Q_a - margin_a >= 2 * (used_a + D * k_a / 2m)

    with used_a the weight of a's neighbours that moved earlier in the
    sweep, D the degree sum of all earlier moves, and margin_a a bound on
    every rounding. With u = 2^-53, L_a the length of a's row, and (n +
    L_a) * u < 2^-20 (no quantity here is near underflow), the
    magnitudes are |acc| <= 1.05 k_a, |sigma| <= 1.05 * 2m, and:

    - each of the four acc sums (here and in the sweep, for c and for d)
      is within 1.03 * L_a * u * k_a of its exact value;
    - every earlier visit rounds at most two sigma updates (the stay step
      sigma_c -= k; sigma_c += k, or a move's two updates), each by at
      most 1.05 * u * 2m, so sigma_c and sigma_d drift from their exact
      running values by at most 2.1 * n * u * 2m together, which moves
      the comparison by at most 2.1 * n * u * k_a;
    - the differences, products and quotients forming g_d, base and Q_a,
      here and in the sweep, add at most 25 * u * k_a.

    Their sum is below (4.2 L_a + 2.1 n + 25) u k_a; margin_a = (5 L_a +
    3 n + 32) u k_a also covers the rounding of its own evaluation. The
    sweep's last step, gain - base compared with eps, rounds
    monotonically and needs none.

    The sweep tests slack_a >= used_a + shift * k_a, where used_a sums
    the weights of moved neighbours as stored in the movers' rows and
    shift sums k / 2m over the moves. Those sums, the product and the
    addition are at most n + 3 roundings of non-negative numbers, and a
    stored weight is at most `spread` times its reverse entry, so the
    exact right-hand side is at most scale / 2 times the computed one
    (_SweepGraph.scale). slack_a = (eps - Q_a - margin_a) / scale, with
    every operation rounded down, therefore makes a passing test imply
    the inequality above.
    """
    n = sg.n
    k = sg.g.degrees
    neighbour_comm = comm[sg.cols]
    own = neighbour_comm == comm[sg.rows]
    # adding 0.0 for the other entries leaves every sum's bits as they are
    acc_own = np.bincount(sg.rows, weights=sg.weights * own, minlength=n)
    base = acc_own - (sigma[comm] - k) * k / sg.two_m
    other = ~own
    nodes = sg.rows[other]
    groups, group_of = np.unique(nodes * n + neighbour_comm[other], return_inverse=True)
    acc = np.bincount(group_of, weights=sg.weights[other], minlength=groups.size)
    nodes, targets = np.divmod(groups, n)
    best = np.zeros(n)
    np.maximum.at(best, nodes, acc - sigma[targets] * k[nodes] / sg.two_m)
    q = best - base
    return _down(_down(_down(eps - q) - sg.margin) / sg.scale).tolist()


def _move_phase(sg: _SweepGraph, rng, init=None, certify_first: bool = False):
    """Single-node move sweeps until no move beats GAIN_EPSILON, at most MAX_SWEEPS.

    Returns (community list, whether anything moved). Every sweep after
    the first is certified: it skips the nodes that _slack proves stay.
    A first sweep from singletons or from a random partition moves most
    nodes, so certifying it would only cost; the caller certifies a
    first sweep whose partition is likely stable already.
    """
    n = sg.n
    eps = GAIN_EPSILON * sg.two_m / 2.0

    comm = list(range(n)) if init is None else [int(c) for c in init]
    size = [0] * n
    for c in comm:
        size[c] += 1
    free = [c for c in range(n) if size[c] == 0]
    heapq.heapify(free)

    moved_any = False
    for sweep in range(MAX_SWEEPS):
        comm_array = np.array(comm, dtype=np.int64)
        # bincount adds in node order, as a Python loop over the nodes would
        sigma = np.bincount(comm_array, weights=sg.g.degrees, minlength=n)
        order = rng.permutation(n)
        slack = _slack(sg, comm_array, sigma, eps) if sweep or certify_first else None
        moves = _sequential_sweep(
            order.tolist(), sg.ptr, sg.nbr, sg.wt, sg.k, sg.two_m, eps, comm, sigma.tolist(), size, free, slack
        )
        if moves == 0:
            break
        moved_any = True
    return comm, moved_any


def _sequential_sweep(order, ptr, nbr, wt, k, two_m, eps, comm, sigma, size, free, slack=None):
    """One pass of single-node moves in the given order; returns the move count.

    Each node leaves its community and takes the adjacent community of
    highest gain, ties to the smallest id; standing alone wins when every
    adjacent gain is negative and the old community keeps members. The
    node moves only when that beats staying by more than eps. With a
    slack list (see _slack), a node whose slack covers what the moves
    before it in this sweep can have changed is not evaluated: it stays,
    and sigma takes the same stay step, so every result is bit-identical
    to evaluating it. None evaluates every node.
    """
    certify = slack is not None
    if certify:
        used = [0.0] * len(k)
        shift = 0.0
    moves = 0
    for a in order:
        lo, hi = ptr[a], ptr[a + 1]
        if lo == hi:
            continue
        c = comm[a]
        k_a = k[a]
        sigma[c] -= k_a
        if certify and slack[a] >= used[a] + shift * k_a:
            sigma[c] += k_a
            continue
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
            if certify:
                shift += k_a / two_m
                for b, w in zip(nbr[lo:hi], wt[lo:hi]):
                    used[b] += w
        else:
            sigma[c] += k_a
            size[c] += 1
    return moves
