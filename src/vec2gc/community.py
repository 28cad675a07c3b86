"""Weighted modularity and a seeded Louvain optimizer.

The optimizer is the classic two-phase scheme: sweeps of single-node
moves until none improves modularity by more than GAIN_EPSILON, then
aggregation of communities into super-nodes, repeated until a level
stops improving. A final move phase runs against the original graph so
the returned partition is locally optimal node-by-node, not only
super-node-by-super-node. A call runs more seeded restarts on a small
graph than on a large one (restart_count). The calls of one tree level
with one restart count run as one pass over their graphs laid side by
side, each graph's result the bits of a call of its own, and the pass's
restarts can run on worker processes that a RestartPool forks for it.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .simgraph import SimilarityGraph


# Smallest modularity gain that counts as a move. Far above the rounding
# of a gain (about 1e-16 of 2m), so a move never rests on rounding noise.
GAIN_EPSILON = 1e-9

# Most move sweeps of one phase, a guard against cycling: the 2,363 move
# phases of the six benchmark runs (3 workloads, seeds 1 and 7) need at most 14.
MAX_SWEEPS = 100

# Seeded restarts of one louvain call on a graph of more than
# SMALL_GRAPH_NODES nodes; smaller graphs run twice as many (restart_count).
# Dense weighted graphs have local maxima that a single greedy pass lands
# in; restarts escape them. Restart r is seeded (seed, r), so a large
# graph's 4 are the first 4 of the 8 every call ran before 0.6.0: on the
# three benchmark corpora at seeds 1 to 16 they write the same trees in 45
# of 48 runs. Small graphs keep 8: the exhaustive-optimum acceptance test
# needs at least 6 on graphs of 3 to 8 nodes, and on 2,040 random graphs of
# that size from its generator the best of 8 falls below 0.9 times the
# optimal Q on 4, the best of 16 on none.
RESTARTS = 4

# Largest graph that runs 2 * restarts. 64 keeps, at the default, the 8
# restarts and the bits of every call of 64 nodes or fewer from before
# 0.6.0; it is not where restarts stop paying. A cut-off of 8 writes the
# same 48 benchmark trees and takes about 12% off nested-deep's cluster
# time (its 26 small calls are 52k units of work, its root 70k; see
# POOL_MIN_WORK). On random graphs of 33 to 64 nodes the best of 4
# restarts is below the best of 8 about as often (41 to 46%) as on 65 to
# 128 (44 to 52%). Not hierarchy.CERTIFY_MAX_NODES, which is the same
# number for another reason.
SMALL_GRAPH_NODES = 64


def restart_count(n: int, restarts: int) -> int:
    """Restarts of a louvain call on a graph of n nodes: restarts above SMALL_GRAPH_NODES nodes, 2 * restarts at or below."""
    return restarts if n > SMALL_GRAPH_NODES else 2 * restarts


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
    if g.two_m <= 0.0:
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
    two_m = float(k_tot.sum())  # not g.two_m: these bits reach split_modularity, so the tree bytes
    frac = k_tot / two_m
    return float((w_in / two_m - frac * frac).sum())


def modularity_bound(g: SimilarityGraph) -> float:
    """A number that modularity(g, c), as computed, stays below for every assignment c.

    B = A - k k^T / 2m has B·1 = 0, so with community c's indicator written
    as s_c = (n_c / n)·1 + t_c, t_c ⟂ 1, Q = Σ_c t_c^T B t_c / 2m <=
    max(λ, 0)·Σ_c |t_c|^2 / 2m, where λ is B's largest eigenvalue and
    Σ_c |t_c|^2 = n - Σ_c n_c^2 / n <= n - 1 (Newman, "Modularity and
    community structure in networks", PNAS 103:8577, 2006). eigvalsh
    reads one triangle of B, which is all of A because both stored
    directions of an edge hold the same bits (SimilarityGraph).

    Rounding, with u = 2^-53 and |B|_2 <= |A|_2 + |k|^2 / 2m <= 2 k_max <= 2·2m:
    the degrees are row sums within n·u of exact and two_m their in-order
    sum within (n - 1)·u, so forming B moves each entry by at most
    (4n + 2)·u·(A_ab + k_a k_b / 2m), and λ by at most (4n + 2)·u·2k_max;
    eigvalsh returns the eigenvalues of B + E with |E|_2 <= p(n)·u·|B|_2,
    p about n in practice, 8n^2 allowed here; and modularity() is within
    20·n·u of its assignment's exact Q. The sum,
    2(n - 1)(8n^2 + 4n + 2)·u + 20·n·u, is below 16·n^3·u for n >= 2; the
    margin 32·n^3·u also covers evaluating the bound.
    """
    if g.two_m <= 0.0:
        raise ValueError("modularity is undefined on a graph with no edges")
    n = g.n
    b = np.zeros((n, n))
    b[np.repeat(np.arange(n), np.diff(g.indptr)), g.indices] = g.weights
    b -= np.outer(g.degrees, g.degrees) / g.two_m
    top = max(float(np.linalg.eigvalsh(b)[-1]), 0.0)
    return top * (n - 1) / g.two_m + 32.0 * n**3 * _U


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
    rows, cols = np.divmod(uniq, n_comm)
    lower = rows > cols  # each takes its mirror's sum, so both directions hold the same bits
    sums[lower] = sums[np.searchsorted(uniq, cols[lower] * n_comm + rows[lower])]
    return SimilarityGraph.from_csr(n_comm, rows, cols, sums)


def louvain(g, seed: int = 0, restarts: int = RESTARTS, started=None) -> Partition:
    """Modularity-maximizing partition of a weighted graph.

    The best of restart_count(g.n, restarts) runs of the whole
    multi-level pass (see RESTARTS), the first from singletons, the rest
    from seeded random partitions. Deterministic for a fixed seed: node
    visit order is a seeded shuffle per sweep, equal-gain targets resolve
    to the smallest community id, and restart ties to the earliest
    restart. Without
    started the restarts run here. started is this call's handle from
    RestartPool.start, which returns the call's best partition; its
    restarts are compared in restart order, so the result is the same at
    every worker count.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts!r}")
    if g.two_m <= 0.0:
        raise ValueError("community detection requires a graph with at least one edge")
    if started is None:
        return _best([functools.partial(_restarts, [g], [seed], 0, restart_count(g.n, restarts))], 0)
    return started()


_MASK64 = (1 << 64) - 1  # a seed's low 64 bits, as its generator and hierarchy.derive_seed read it

# Smallest work (CSR entries x restart_count, summed over the graphs of one
# pass) that forks the pass's workers. Measured on a shared 2-CPU machine,
# Python 3.11, in processes of 39 to 56 MiB holding a benchmark graph
# (medians of 21): a bare os.fork takes 0.5 to 1.2 ms, but a forked pass of
# two workers costs 10.6 to 22 ms (median about 13) more than half its
# in-process time, most of it copy-on-write faults while the parent forks
# the second worker. On nested-deep's three large passes (65k to 70k units,
# medians of 11) two workers saved 0.13 to 0.46 us per unit, less than two
# CPUs promise, as the second was often busy with other work. 13 ms /
# 0.3 us breaks even near 43k units, with 23k to 160k inside the range.
# 40k stays. The passes of the seed-3 benchmark corpora at seed 1 are
# topics-dense 495k (1 call); nested-deep 70k (root), 69k (7 calls) and 65k
# (35 calls of 64 nodes or fewer); dedup-wide 12k. Forking dedup-wide's
# pass (a threshold of 10k) made its cluster_s worse in 5 of 6 perfbench
# pairs, and keeping nested-deep's passes in-process (100k) in 8 of 8.
POOL_MIN_WORK = 40_000


class RestartPool:
    """Runs the restarts of the louvain calls of each level of a clustering run.

    start() lays the level's graphs of one restart count (restart_count)
    side by side as the blocks of one graph and runs their restarts in one
    pass (_restarts), each block drawing and stopping as its graph's own
    call would. A pass whose work reaches POOL_MIN_WORK forks one worker
    per CPU up to its restart count, each running one contiguous chunk of
    the restarts on the graphs it inherited, so every call's restarts run
    on every worker; the parent waits for them. Other passes, and every
    pass with one CPU or without os.fork, run in-process, each inside the
    first louvain call of its graphs. close() kills and reaps the workers
    whose results were never read.
    """

    def __init__(self):
        self._workers: dict[int, object] = {}  # pid -> the read end of its result pipe, until reaped

    def __enter__(self) -> RestartPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self, calls, restarts: int) -> list:
        """Start the (graph, seed) louvain calls of one level; one handle per call.

        The calls run as one pass per restart count (restart_count), each
        over the graphs of the calls with that count. Calling a handle
        returns its call's best partition, the earliest restart's of a tie
        (_best). A forked pass's workers start now; an in-process pass
        runs on the first call of its handles.
        """
        counts = [restart_count(g.n, restarts) for g, _ in calls]
        handles = [None] * len(calls)
        for count in sorted(set(counts)):
            group = [i for i, c in enumerate(counts) if c == count]
            graphs, seeds = [calls[i][0] for i in group], [calls[i][1] for i in group]
            work = sum(g.indices.size for g in graphs) * count
            parts = min(_available_cpus(), count) if work >= POOL_MIN_WORK and hasattr(os, "fork") else 1
            if parts == 1:
                chunks = [functools.cache(functools.partial(_restarts, graphs, seeds, 0, count))]
            else:
                cuts = [count * i // parts for i in range(parts + 1)]
                chunks = [self._fork(graphs, seeds, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
            for block, i in enumerate(group):
                handles[i] = functools.partial(_best, chunks, block)
        return handles

    def _fork(self, graphs, seeds, start: int, stop: int):
        """Fork a worker that runs _restarts(graphs, seeds, start, stop); returns the handle that reads its result."""
        import signal

        import numpy.random  # noqa: F401  numpy loads it lazily: once here, not again in every worker

        read, write = os.pipe()
        # Ctrl-C reaches the whole process group. The worker never takes it:
        # it keeps SIGINT blocked, and the parent handles it and kills the
        # workers, which it can once the worker is in self._workers.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            pid = os.fork()
            if pid == 0:
                # fork, not spawn: the worker inherits the level's graphs and
                # the loaded modules, and does no BLAS work, so BLAS threads in
                # the parent cannot deadlock it. It leaves through os._exit, so
                # it flushes none of the parent's buffers and runs no exit hook.
                status = 1
                try:
                    os.close(read)
                    try:
                        result = (True, _restarts(graphs, seeds, start, stop))
                    except Exception as exc:
                        result = (False, exc)
                    with open(write, "wb") as fh:
                        pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            self._workers[pid] = open(read, "rb")
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return functools.cache(functools.partial(self._collect, pid))

    def _collect(self, pid: int):
        """The chunk of restarts worker pid ran; raises its exception, or an error naming how it ended without a result."""
        fh = self._workers[pid]
        data = fh.read()
        fh.close()
        status = os.waitpid(pid, 0)[1]
        del self._workers[pid]
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            import signal

            raise ChildProcessError(f"restart worker {pid} was killed by signal {signal.Signals(-code).name}")
        if code:
            raise ChildProcessError(f"restart worker {pid} exited with status {code} and no result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Kill and reap every worker whose result was never read."""
        if self._workers:
            import signal

            for pid, fh in list(self._workers.items()):
                fh.close()
                with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped by _collect just before an interrupt
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                del self._workers[pid]


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _side_by_side(graphs) -> SimilarityGraph:
    """The block-diagonal graph of graphs: each graph's nodes numbered after those of the graphs before it."""
    if len(graphs) == 1:
        return graphs[0]
    lengths = np.concatenate([np.diff(g.indptr) for g in graphs])
    offsets = np.cumsum([0] + [g.n for g in graphs[:-1]])
    cols = np.concatenate([g.indices + offset for g, offset in zip(graphs, offsets)])
    weights = np.concatenate([g.weights for g in graphs])
    return SimilarityGraph.from_csr(lengths.size, np.repeat(np.arange(lengths.size), lengths), cols, weights)


def _restarts(graphs, seeds, start: int, stop: int) -> list[list[Partition]]:
    """Restarts start..stop-1 of one level's pass, in order, each a partition per graph.

    The graphs are the blocks of one level (_side_by_side), and each
    block's partitions have the bits of louvain calls on its graph alone.
    """
    sg = _SweepGraph(_side_by_side(graphs), [g.n for g in graphs])
    return [_restart(sg, graphs, seeds, r) for r in range(start, stop)]


def _best(chunks, block: int) -> Partition:
    """Block block's best partition over the chunks' restarts, in restart order; a tie goes to the earliest."""
    return max((parts[block] for chunk in chunks for parts in chunk()), key=lambda p: p.modularity)


def _restart(sg: _SweepGraph, graphs, seeds, restart: int) -> list[Partition]:
    """One multi-level pass of every block; restart 0 from singletons, the others from seeded random partitions.

    Block b draws from its own generator, seeded (seeds[b], restart), what
    a pass over graphs[b] alone draws, stops where that pass stops, and
    its partition is scored on graphs[b].
    """
    rngs = [np.random.default_rng((int(seed) & _MASK64, restart)) for seed in seeds]
    init = None
    if restart:
        init = []
        for rng, size, start in zip(rngs, sg.sizes, sg.starts):
            groups = int(rng.integers(2, size + 1)) if size > 1 else 1
            local, _ = _dense_relabel(rng.integers(0, groups, size=size).tolist())
            init.extend((local + start).tolist())
    # A random start is the first level: it is aggregated even when nothing
    # moved, and the levels then run from singletons. A block swept from
    # singletons continues only with fewer communities than nodes, which
    # it cannot have if nothing moved, so every block stops.
    # A stopped block stays in the levels as singletons, which aggregate to
    # the same bits, so block b is always the level's block b.
    level, running = sg, range(len(seeds))
    node_map = np.arange(sg.n)
    while True:
        comm = _move_phase(level, rngs, running, init=init)
        # first-occurrence ids number the blocks' communities one block
        # after another, each block's in its own first-occurrence order
        dense, n_comm = _dense_relabel(comm)
        node_map = dense[node_map]
        counts = np.diff([*dense[level.starts[:-1]].tolist(), n_comm]).tolist()
        running = [b for b in running if init is not None or counts[b] < level.sizes[b]]
        if not running:
            break
        level = _SweepGraph(aggregate_graph(level.g, dense), counts)
        init = None

    # Refinement against the original graph: aggregation only guarantees
    # super-node optimality, single nodes may still have good moves left.
    # Its partition comes from the levels above and is usually stable
    # already, so its first sweep is certified too.
    refine = node_map + np.repeat(np.subtract(sg.starts[:-1], level.starts[:-1]), sg.sizes)
    final_comm = _move_phase(sg, rngs, range(len(seeds)), init=refine, certify_first=True)
    dense, _ = _dense_relabel(final_comm)
    parts = []
    for g, lo, hi in zip(graphs, sg.starts, sg.starts[1:]):
        # Q on the block's own graph: its sums over communities are pairwise, so they depend on the array length
        assignment = dense[lo:hi] - dense[lo]
        parts.append(Partition(assignment, int(assignment.max()) + 1, modularity(g, assignment)))
    return parts


def _dense_relabel(comm: list[int]) -> tuple[np.ndarray, int]:
    """Community ids renumbered 0, 1, ... by first occurrence."""
    mapping: dict[int, int] = {}
    out = np.array([mapping.setdefault(c, len(mapping)) for c in comm], dtype=np.int64)
    return out, len(mapping)


_U = 2.0**-53  # unit roundoff of float64


class _SweepGraph:
    """What the move sweeps of one level read, built once per level.

    A level is blocks of sizes[b] nodes, block b starting at node
    starts[b], with no edge between blocks: the graphs of a level's
    louvain calls laid side by side, or their super-node graphs.
    _restarts builds it once for its input level, whose first and final
    move phase every restart runs, and _restart once per aggregated level.
    The sweep and the stay certificate (see _stays) read one set of
    arrays, the level's entries without self-loops (rows, cols, weights:
    views of g's arrays on a level without loops, as every input level)
    and the degrees (each row summed left to right, see from_csr): the
    sweep through the memoryviews ptr, nbr, wt and k, whose items are
    Python ints and floats, as a list's are.
    two_m, each block's 2m, is a list; node_two_m and margin are arrays.
    """

    def __init__(self, g: SimilarityGraph, sizes: list[int]):
        self.g = g
        self.n = g.n
        self.sizes = sizes
        self.starts = np.cumsum([0, *sizes]).tolist()
        block = np.repeat(np.arange(len(sizes)), sizes)
        # bincount adds each block's degrees in node order from 0.0, the
        # bits SimilarityGraph.from_csr gives the block's 2m on its own
        two_m = np.bincount(block, weights=g.degrees, minlength=len(sizes))
        self.two_m = two_m.tolist()
        self.node_two_m = two_m[block]
        lengths = np.diff(g.indptr)
        rows = np.repeat(np.arange(g.n), lengths)
        loop_free = rows != g.indices
        keep = slice(None) if loop_free.all() else loop_free  # a slice takes views, not copies
        self.rows, self.cols, self.weights = rows[keep], g.indices[keep], g.weights[keep]
        self.ptr = memoryview(np.concatenate([[0], np.cumsum(np.bincount(self.rows, minlength=g.n))]))
        self.nbr = memoryview(self.cols)
        self.wt = memoryview(self.weights)
        self.k = memoryview(g.degrees)
        self.margin = (5.0 * lengths + (3.0 * np.repeat(sizes, sizes) + 32.0)) * _U * g.degrees


def _stays(sg: _SweepGraph, comm: np.ndarray, sigma: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Which nodes provably stay when a sweep from this partition evaluates them before any move.

    Node a of community c stays unless max(g_d, 0) - base > eps, where
    acc_d is a's weight to community d without its self-loop, base =
    acc_c - (sigma_c - k_a) * k_a / 2m and g_d = acc_d - sigma_d * k_a / 2m
    for each adjacent community d != c; 0 is the stand-alone option. 2m
    and eps are those of a's block, elementwise the sweep's scalars. At
    the start of the sweep this computes Q_a = max(best g_d, 0) - base
    with the sweep's own operations: np.bincount adds each (node,
    community) group in CSR order, and sigma was summed in node order.
    The 0 also covers every community not adjacent then, whose g_d is
    -sigma_d * k_a / 2m <= 0 because sigma is a fresh sum of degrees.

    a is marked when eps - Q_a, rounded down, is at least margin_a, a
    bound on every rounding, so a stays when the sweep evaluates it after
    nodes that all stayed. With u = 2^-53, L_a the length of a's row, n
    and 2m the node count and 2m of a's block, and (n + L_a) * u < 2^-20
    (no quantity here is near underflow), the magnitudes are |acc| <=
    1.05 k_a, |sigma| <= 1.05 * 2m, and:

    - each of the four acc sums (here and in the sweep, for c and for d)
      is within 1.03 * L_a * u * k_a of its exact value;
    - every earlier visit to a node of the block rounds the two sigma
      updates of its stay step (sigma_c -= k; sigma_c += k), each by at
      most 1.05 * u * 2m, so sigma_c and sigma_d drift from their exact
      running values by at most 2.1 * n * u * 2m together, which moves
      the comparison by at most 2.1 * n * u * k_a; visits to other blocks
      touch only their own communities;
    - the differences, products and quotients forming g_d, base and Q_a,
      here and in the sweep, add at most 25 * u * k_a.

    Their sum is below (4.2 L_a + 2.1 n + 25) u k_a; margin_a = (5 L_a +
    3 n + 32) u k_a also covers the rounding of its own evaluation. The
    sweep's last step, gain - base compared with eps, rounds
    monotonically and needs none.
    """
    n = sg.n
    k = sg.g.degrees
    two_m = sg.node_two_m
    neighbour_comm = comm[sg.cols]
    own = neighbour_comm == comm[sg.rows]
    # adding 0.0 for the other entries leaves every sum's bits as they are
    acc_own = np.bincount(sg.rows, weights=sg.weights * own, minlength=n)
    base = acc_own - (sigma[comm] - k) * k / two_m
    other = ~own
    nodes = sg.rows[other]
    groups, group_of = np.unique(nodes * n + neighbour_comm[other], return_inverse=True)
    acc = np.bincount(group_of, weights=sg.weights[other], minlength=groups.size)
    nodes, targets = np.divmod(groups, n)
    best = np.zeros(n)
    np.maximum.at(best, nodes, acc - sigma[targets] * k[nodes] / two_m[nodes])
    return np.nextafter(eps - (best - base), -np.inf) >= sg.margin


def _move_phase(sg: _SweepGraph, rngs, running, init=None, certify_first: bool = False):
    """Single-node move sweeps of the running blocks until one moves nothing, at most MAX_SWEEPS.

    rngs[b] is block b's generator. Returns the community list. A sweep
    visits each running block in turn, in the block's own seeded order,
    with the block's 2m and eps; a block stops after its own sweep that
    moves nothing. Blocks share no community, so a block's sweeps are
    those of its graph alone. Every sweep after the first is certified: it
    visits only the nodes that _stays does not mark at its start, even
    when an earlier move of the sweep changes a marked node's
    neighbourhood. A block still stops only after a sweep that moves
    nothing, in which every node was evaluated and stayed or is proven to
    stay. A first sweep from singletons or from a random partition moves
    most nodes, so certifying it would only cost; the caller certifies a
    first sweep whose partition is likely stable already.
    """
    n = sg.n
    eps = [GAIN_EPSILON * two_m / 2.0 for two_m in sg.two_m]
    comm = list(range(n)) if init is None else [int(c) for c in init]
    size = np.bincount(comm, minlength=n).tolist()
    # a node that stands alone takes its own block's smallest free id; ascending, so already heaps
    free = [[c for c in range(lo, hi) if size[c] == 0] for lo, hi in zip(sg.starts, sg.starts[1:])]

    for sweep in range(MAX_SWEEPS):
        comm_array = np.array(comm, dtype=np.int64)
        # bincount adds in node order, as a Python loop over the nodes would
        sigma = np.bincount(comm_array, weights=sg.g.degrees, minlength=n)
        certified = sweep or certify_first
        if certified:
            visit = ~_stays(sg, comm_array, sigma, GAIN_EPSILON * sg.node_two_m / 2.0)
        sigma = sigma.tolist()
        still = []
        for b in running:
            order = rngs[b].permutation(sg.sizes[b]) + sg.starts[b]
            if certified:
                order = order[visit[order]]
            if _sequential_sweep(order.tolist(), sg.ptr, sg.nbr, sg.wt, sg.k, sg.two_m[b], eps[b], comm, sigma, size, free[b]):
                still.append(b)
        running = still
        if not running:
            break
    return comm


def _sequential_sweep(order, ptr, nbr, wt, k, two_m, eps, comm, sigma, size, free):
    """One pass of single-node moves over the nodes of order; returns the move count.

    Each node leaves its community and takes the adjacent community of
    highest gain, ties to the smallest id; standing alone wins when every
    adjacent gain is negative and the old community keeps members. The
    node moves only when that beats staying by more than eps.
    """
    moves = 0
    for a in order:
        lo, hi = ptr[a], ptr[a + 1]
        c = comm[a]
        k_a = k[a]
        sigma[c] -= k_a
        size[c] -= 1
        acc: dict[int, float] = {}
        for b, w in zip(nbr[lo:hi], wt[lo:hi]):
            d = comm[b]
            acc[d] = acc.get(d, 0.0) + w
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
