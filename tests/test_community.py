import collections
import heapq
import math
import multiprocessing
import multiprocessing.pool
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from oracles import (
    best_partition_by_enumeration,
    dense_from_graph,
    graph_from_edges,
    left_to_right_row_sums,
    modularity_dense,
    modularity_double_sum,
    random_weighted_graph,
    reference_restart_chunk,
    row,
)
from vec2gc import (
    Partition,
    SimilarityGraph,
    aggregate_graph,
    build_graph,
    EmbeddingSet,
    induced_subgraph,
    louvain,
    members_by_community,
    modularity,
    vec2gc_cluster,
)
from vec2gc import community

TRIANGLES = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
K4 = [(a, b, 1.0) for a in range(4) for b in range(a + 1, 4)]
PATH3 = [(0, 1, 1.0), (1, 2, 1.0)]


class TestModularity:
    def test_single_community_is_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_weighted_graph(rng, int(rng.integers(3, 30)))
            assert abs(modularity(g, [0] * g.n)) < 1e-12

    def test_disjoint_triangles_closed_form(self):
        g = graph_from_edges(6, TRIANGLES)
        q = modularity(g, [0, 0, 0, 1, 1, 1])
        # closed form: sum_c (m_c/m - (K_c/2m)^2) = 2 * (1/2 - 1/4)
        assert q == pytest.approx(0.5, abs=1e-12)
        assert q == pytest.approx(modularity_double_sum(dense_from_graph(g), [0, 0, 0, 1, 1, 1]), abs=1e-12)

    def test_path_graph_against_double_sum(self):
        g = graph_from_edges(3, PATH3)
        assignment = [0, 0, 1]
        oracle = modularity_double_sum(dense_from_graph(g), assignment)
        assert modularity(g, assignment) == pytest.approx(oracle, abs=1e-12)

    def test_random_graphs_match_double_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            g = random_weighted_graph(rng, n)
            assignment = np.unique(rng.integers(0, n, size=n), return_inverse=True)[1]
            oracle = modularity_double_sum(dense_from_graph(g), assignment)
            assert modularity(g, assignment) == pytest.approx(oracle, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            g = random_weighted_graph(rng, n)
            assignment = np.unique(rng.integers(0, n, size=n), return_inverse=True)[1]
            assert -0.5 - 1e-12 <= modularity(g, assignment) <= 1.0 + 1e-12

    def test_edgeless_graph_rejected(self):
        emb = EmbeddingSet(
            ids=["a", "b"], vectors=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        )
        g = build_graph(emb, 0.5)
        with pytest.raises(ValueError, match="no edges"):
            modularity(g, [0, 0])

    def test_incomplete_assignment_rejected(self):
        g = graph_from_edges(3, PATH3)
        with pytest.raises(ValueError, match="every node"):
            modularity(g, [0, 1])


class TestModularityBound:
    def test_bounds_every_partition_and_louvains_result(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            wmin, wmax = [(1.0, 5.0), (1e-3, 1e3), (0.5, 0.5)][int(rng.integers(3))]
            g = random_weighted_graph(rng, n, p=float(rng.uniform(0.2, 1.0)), wmin=wmin, wmax=wmax)
            bound = community.modularity_bound(g)
            qstar, _ = best_partition_by_enumeration(dense_from_graph(g))
            assert bound >= qstar
            assert bound >= louvain(g, seed=int(rng.integers(2**63))).modularity

    def test_complete_graph_is_bounded_by_the_margin(self):
        # B = J / 4 - I on K4 with equal weights: largest eigenvalue 0, no split can gain
        bound = community.modularity_bound(graph_from_edges(4, K4))
        assert 0.0 < bound < 1e-12

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            community.modularity_bound(SimilarityGraph.from_csr(2, np.array([], dtype=np.int64), [], np.array([])))


class TestLouvain:
    def test_separates_disjoint_triangles(self):
        g = graph_from_edges(6, TRIANGLES)
        part = louvain(g, seed=42)
        assert part.community_count == 2
        assert part.modularity == pytest.approx(0.5, abs=1e-12)
        assert len(set(part.assignment[:3].tolist())) == 1
        assert len(set(part.assignment[3:].tolist())) == 1
        # exhaustive enumeration confirms 0.5 is optimal
        qstar, _ = best_partition_by_enumeration(dense_from_graph(g))
        assert part.modularity == pytest.approx(qstar, abs=1e-12)

    def test_complete_graph_single_community(self):
        g = graph_from_edges(4, K4)
        part = louvain(g, seed=7)
        assert part.community_count == 1
        assert part.modularity == pytest.approx(0.0, abs=1e-12)
        qstar, _ = best_partition_by_enumeration(dense_from_graph(g))
        assert qstar == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        g = random_weighted_graph(rng, 40, p=0.2)
        a = louvain(g, seed=123)
        b = louvain(g, seed=123)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.modularity == b.modularity

    def test_partition_invariants(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_weighted_graph(rng, int(rng.integers(4, 30)), p=0.3)
            part = louvain(g, seed=int(rng.integers(2**63)))
            assert part.assignment.shape == (g.n,)
            ids = sorted(set(part.assignment.tolist()))
            assert ids == list(range(part.community_count))
            assert part.modularity == pytest.approx(modularity(g, part.assignment), abs=1e-9)

    def test_local_optimality_by_recomputation(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            g = random_weighted_graph(rng, int(rng.integers(4, 20)), p=0.4)
            part = louvain(g, seed=int(rng.integers(2**63)))
            adj = dense_from_graph(g)
            before = modularity_dense(adj, part.assignment)
            for node in range(g.n):
                nbrs, _ = row(g, node)
                for target in set(part.assignment[nbrs].tolist()):
                    moved = part.assignment.copy()
                    moved[node] = target
                    assert modularity_dense(adj, moved) - before <= community.GAIN_EPSILON

    def test_near_optimal_on_tiny_graphs(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            g = random_weighted_graph(rng, n)
            part = louvain(g, seed=int(rng.integers(2**63)))
            qstar, _ = best_partition_by_enumeration(dense_from_graph(g))
            if qstar > 1e-12:
                assert part.modularity >= 0.9 * qstar
            else:
                assert part.modularity >= qstar - 1e-9

    def test_edgeless_graph_rejected(self):
        emb = EmbeddingSet(
            ids=["a", "b"], vectors=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        )
        g = build_graph(emb, 0.5)
        with pytest.raises(ValueError, match="at least one edge"):
            louvain(g, seed=0)


def sorted_candidates_sweep(order, ptr, nbr, wt, k, two_m, eps, comm, sigma, size, free):
    """The sweep as first written: candidates scanned in ascending id order."""
    moves = 0
    for a in order:
        if ptr[a] == ptr[a + 1]:
            continue
        c = comm[a]
        sigma[c] -= k[a]
        size[c] -= 1
        acc = {}
        for idx in range(ptr[a], ptr[a + 1]):
            b = nbr[idx]
            if b != a:
                acc[comm[b]] = acc.get(comm[b], 0.0) + wt[idx]
        base = acc.get(c, 0.0) - sigma[c] * k[a] / two_m
        target, gain = c, base
        for d in sorted(acc):
            if d != c and acc[d] - sigma[d] * k[a] / two_m > gain:
                target, gain = d, acc[d] - sigma[d] * k[a] / two_m
        if size[c] > 0 and 0.0 > gain:
            target, gain = -1, 0.0
        if (gain - base) > eps and target != c:
            if target == -1:
                target = heapq.heappop(free)
            comm[a] = target
            sigma[target] += k[a]
            size[target] += 1
            if size[c] == 0:
                heapq.heappush(free, c)
            moves += 1
        else:
            sigma[c] += k[a]
            size[c] += 1
    return moves


class TestMovePhase:
    def test_degree_total_adds_left_to_right(self):
        # sum() compensates rounding from Python 3.12 on and gives 1.0 here
        g = graph_from_edges(10, [(a, a + 1, 0.1) for a in range(0, 10, 2)])
        assert g.degrees.tolist() == [0.1] * 10
        assert g.two_m == 0.9999999999999999
        assert math.fsum(g.degrees) == 1.0

    def test_sweep_matches_sorted_candidate_reference(self, monkeypatch):
        # integer weights make equal gains common, so the tie rule is exercised
        rng = np.random.default_rng(13)
        graphs = [random_weighted_graph(rng, int(rng.integers(8, 60)), p=0.3, wmin=1.0, wmax=1.0) for _ in range(12)]
        graphs += [random_weighted_graph(rng, int(rng.integers(8, 60)), p=0.3) for _ in range(6)]
        fast = [louvain(g, seed=i, restarts=4) for i, g in enumerate(graphs)]
        monkeypatch.setattr(community, "_sequential_sweep", sorted_candidates_sweep)
        for i, g in enumerate(graphs):
            ref = louvain(g, seed=i, restarts=4)
            assert np.array_equal(fast[i].assignment, ref.assignment)
            assert fast[i].modularity == ref.modularity


def certificate_graphs(rng, count):
    """Float weights, integer weights (equal gains) and aggregated graphs with self-loops."""
    for i in range(count):
        n = int(rng.integers(6, 60))
        p = float(rng.uniform(0.05, 0.5))
        kind = i % 4
        if kind == 0:
            yield random_weighted_graph(rng, n, p=p)
        elif kind == 1:
            yield random_weighted_graph(rng, n, p=p, wmin=1.0, wmax=1.0)
        else:
            g = random_weighted_graph(rng, n, p=p, wmin=1.0, wmax=1.0 if kind == 2 else 7.0)
            yield aggregate_graph(g, np.unique(rng.integers(0, max(2, n // 3), size=n), return_inverse=True)[1])


class TestCertifiedSweep:
    @pytest.mark.parametrize("restarts", [0, -5])
    def test_louvain_rejects_fewer_than_one_restart(self, restarts):
        g = graph_from_edges(3, TRIANGLES[:3])
        with pytest.raises(ValueError, match=f"restarts must be at least 1, got {restarts}"):
            louvain(g, restarts=restarts)

    @staticmethod
    def certified_states(monkeypatch, graphs, seeds, gain_epsilon):
        """The starting state of every certified sweep, at every level, of one level's pass over graphs."""
        states = []
        real = community._stays

        def recording_stays(sg, comm, sigma, eps):
            marked = real(sg, comm, sigma, eps)
            states.append((sg, comm.tolist(), sigma.tolist(), eps, marked))
            return marked

        monkeypatch.setattr(community, "_stays", recording_stays)
        monkeypatch.setattr(community, "GAIN_EPSILON", gain_epsilon)
        community._restarts(graphs, seeds, 0, 3)
        monkeypatch.undo()
        return states

    def test_no_marked_node_moves(self, monkeypatch):
        # a certified sweep skips the marked nodes, so evaluating a block's
        # marked nodes one after another, in any order, from the sweep's
        # state, with the block's own 2m, eps and free ids, moves none
        rng = np.random.default_rng(18)
        graphs = list(certificate_graphs(rng, 80))
        blocks = marked_nodes = 0
        cuts = [0, *np.cumsum(rng.integers(1, 7, size=40)).tolist()]
        levels = [graphs[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if lo < len(graphs)]
        for i, level in enumerate(levels):
            seeds = [int(s) for s in rng.integers(2**63, size=len(level))]
            for sg, comm, sigma, eps, marked in self.certified_states(monkeypatch, level, seeds, [0.0, 1e-9, 1e-3, 0.05][i % 4]):
                size = np.bincount(comm, minlength=sg.n).tolist()
                for b, (lo, hi) in enumerate(zip(sg.starts, sg.starts[1:])):
                    assert np.all(eps[lo:hi] == eps[lo])
                    free = [c for c in range(lo, hi) if size[c] == 0]
                    order = (rng.permutation(np.flatnonzero(marked[lo:hi])) + lo).tolist()
                    # blocks share no community, so one block's sweep leaves the others' state as it is
                    moves = community._sequential_sweep(
                        order, sg.ptr, sg.nbr, sg.wt, sg.k, sg.two_m[b], float(eps[lo]), comm, sigma, size, free
                    )
                    assert moves == 0
                    blocks += 1
                    marked_nodes += len(order)
        assert len(levels) >= 15 and blocks >= 1000 and marked_nodes >= 20000


def force_pool(monkeypatch, workers):
    monkeypatch.setattr(community, "_available_cpus", lambda: workers)
    monkeypatch.setattr(community, "POOL_MIN_WORK", 0)


def record_submissions(monkeypatch) -> list:
    """The AsyncResult of every apply_async on a worker pool from now on, in submission order: one per restart chunk."""
    submitted = []
    real = multiprocessing.pool.Pool.apply_async

    def recording(self, *args, **kwargs):
        submitted.append(real(self, *args, **kwargs))
        return submitted[-1]

    monkeypatch.setattr(multiprocessing.pool.Pool, "apply_async", recording)
    return submitted


class TestRestartPool:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pooled_partition_is_bit_identical(self, monkeypatch, workers):
        rng = np.random.default_rng(14)
        graphs = [random_weighted_graph(rng, int(rng.integers(20, 80)), p=0.15) for _ in range(4)]
        expected = [louvain(g, seed=21 + i) for i, g in enumerate(graphs)]
        force_pool(monkeypatch, workers)
        with community.RestartPool() as pool:
            for i, g in enumerate(graphs):
                [handle] = pool.start([(g, 21 + i)], community.RESTARTS)
                part = louvain(g, seed=21 + i, started=handle)
                assert np.array_equal(part.assignment, expected[i].assignment)
                assert part.community_count == expected[i].community_count
                assert part.modularity == expected[i].modularity
            assert (pool._pool is not None) == (workers > 1)
        assert multiprocessing.active_children() == []

    @staticmethod
    def coin_restart(sg, graphs, seeds, restart):
        """Per block, a random partition scoring 0 or 1, so later chunks tie the best of earlier ones."""
        parts = []
        for size, seed in zip(sg.sizes, seeds):
            rng = np.random.default_rng((seed, restart))
            assignment, count = community._dense_relabel(rng.integers(0, 3, size=size).tolist())
            parts.append(Partition(assignment, count, float(rng.integers(0, 2))))
        return parts

    @pytest.mark.parametrize("workers", [2, 3])
    def test_restart_ties_go_to_the_earliest_chunk(self, monkeypatch, workers):
        monkeypatch.setattr(community, "_restart", self.coin_restart)
        rng = np.random.default_rng(15)
        graphs = [random_weighted_graph(rng, int(rng.integers(10, 40)), p=0.3) for _ in range(4)]
        seeds = [5, 6, 7, 8]
        restarts = community.RESTARTS
        sg = community._SweepGraph(community._side_by_side(graphs), [g.n for g in graphs])
        runs = [self.coin_restart(sg, graphs, seeds, r) for r in range(restarts)]
        force_pool(monkeypatch, workers)
        with community.RestartPool() as pool:
            started = pool.start(list(zip(graphs, seeds)), restarts)
            assert pool._pool is not None
            parts = [louvain(g, seed, restarts, handle) for g, seed, handle in zip(graphs, seeds, started)]
        first_chunk_end = restarts // workers
        spans = 0
        for b, part in enumerate(parts):
            best = max(run[b].modularity for run in runs)
            winners = [r for r, run in enumerate(runs) if run[b].modularity == best]
            spans += winners[0] < first_chunk_end <= winners[-1]
            assert np.array_equal(part.assignment, runs[winners[0]][b].assignment)
            assert part.modularity == best
        assert spans >= 2  # blocks whose tying winners fall in different chunks

    def test_ties_go_to_the_earliest_chunk_when_it_finishes_last(self, monkeypatch):
        # restart 0, in chunk 0, is held back, so chunk 1's tying winners arrive first
        def coin_restart(sg, graphs, seeds, restart):
            if restart == 0:
                time.sleep(0.5)
            return [Partition(np.zeros(size, dtype=np.int64), 1, 1.0) for size in sg.sizes]

        monkeypatch.setattr(community, "_restart", coin_restart)
        rng = np.random.default_rng(15)
        calls = [(random_weighted_graph(rng, 30, p=0.3), 5), (random_weighted_graph(rng, 12, p=0.3), 6)]
        force_pool(monkeypatch, 2)
        submitted = record_submissions(monkeypatch)
        with community.RestartPool() as pool:
            started = pool.start(calls, community.RESTARTS)
            first, second = submitted
            second.wait(timeout=60)
            assert second.ready() and not first.ready()
            parts = [louvain(g, seed, started=handle) for (g, seed), handle in zip(calls, started)]
        for block, part in enumerate(parts):
            assert part is first.get()[0][block]  # restart 0's partition

    def test_each_call_of_a_mixed_level_gets_a_chunk_per_worker_and_its_separate_result(self, monkeypatch):
        rng = np.random.default_rng(18)
        big = random_weighted_graph(rng, 60, p=0.5)
        small = [random_weighted_graph(rng, 8, p=0.5) for _ in range(3)]
        calls = [(small[0], 1), (big, 2), (small[1], 3), (small[2], 4)]
        force_pool(monkeypatch, 3)
        submitted = record_submissions(monkeypatch)
        for restarts in (community.RESTARTS, 2):
            expected = [louvain(g, seed=s, restarts=restarts) for g, s in calls]
            with community.RestartPool() as pool:
                submitted.clear()
                started = pool.start(calls, restarts)
                assert len(submitted) == min(3, restarts) and len(started) == len(calls)
                for (g, s), handle, want in zip(calls, started, expected):
                    part = louvain(g, seed=s, restarts=restarts, started=handle)
                    assert np.array_equal(part.assignment, want.assignment) and part.modularity == want.modularity

    def test_small_calls_stay_in_process(self, monkeypatch):
        monkeypatch.setattr(community, "_available_cpus", lambda: 2)
        g = random_weighted_graph(np.random.default_rng(16), 20, p=0.3)
        expected = louvain(g, seed=1)
        submitted = record_submissions(monkeypatch)
        with community.RestartPool() as pool:
            [handle] = pool.start([(g, 1)], community.RESTARTS)
            part = louvain(g, seed=1, started=handle)
            assert np.array_equal(part.assignment, expected.assignment)
            assert pool._pool is None and submitted == []
            assert multiprocessing.active_children() == []

    def test_an_in_process_level_runs_in_its_first_louvain_call(self, monkeypatch):
        # start() does no optimizer work, so a caller that never reduces a call pays for none
        passes = []
        real = community._restarts

        def counted(*args):
            passes.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(community, "_restarts", counted)
        monkeypatch.setattr(community, "POOL_MIN_WORK", float("inf"))
        rng = np.random.default_rng(19)
        calls = [(random_weighted_graph(rng, 20, p=0.3), seed) for seed in range(3)]
        with community.RestartPool() as pool:
            started = pool.start(calls, community.RESTARTS)
            assert passes == []
            parts = [louvain(g, seed, started=handle) for (g, seed), handle in zip(calls, started)]
            assert passes == [3]
        monkeypatch.undo()
        for (g, seed), part in zip(calls, parts):
            assert np.array_equal(part.assignment, louvain(g, seed).assignment)

    def test_package_import_loads_no_process_modules(self):
        # a pool imports multiprocessing, and its workers signal, only when a level is large enough
        src = os.path.dirname(os.path.dirname(community.__file__))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import vec2gc; "
            "print([m for m in ('multiprocessing', 'concurrent.futures', 'signal') if m in sys.modules])"
        )
        run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
        assert run.stdout == "[]\n"


def loop_heavy_graph(rng):
    """Super-nodes whose self-loops outweigh their edges: nodes leave a random start to stand alone."""
    groups, size = int(rng.integers(2, 9)), 3
    n = groups * size
    edges = [(a, b, 5.0) for a in range(n) for b in range(a + 1, n) if a // size == b // size]
    edges += [(a, b, float(rng.uniform(0.1, 2.0))) for a in range(n) for b in range(a + 1, n) if a // size != b // size and rng.random() < 0.3]
    return aggregate_graph(graph_from_edges(n, edges), np.arange(n) // size)


def level_graphs(rng, count):
    """certificate_graphs, some swapped for loop-heavy graphs or ones that aggregate down to one node, in random order."""
    graphs = list(certificate_graphs(rng, count))
    for i in np.flatnonzero(rng.random(count) < 0.4).tolist():
        if i % 2:
            graphs[i] = loop_heavy_graph(rng)
        else:
            graphs[i] = random_weighted_graph(rng, int(rng.integers(2, 7)), p=1.0, wmin=1.0, wmax=float(rng.choice([1.0, 2.0])))
    return [graphs[i] for i in rng.permutation(count)]


class TestLevelPass:
    @pytest.mark.parametrize("max_sweeps, gain_epsilon", [(None, None), (1, None), (2, None), (None, 0.05)])
    def test_each_block_has_the_bits_of_its_separate_call(self, monkeypatch, max_sweeps, gain_epsilon):
        # the per-graph optimizer each call ran before levels ran as one pass is the reference;
        # MAX_SWEEPS 1 and 2 stop blocks at the cap, at different sweeps of one phase, and a
        # large GAIN_EPSILON makes each block's eps, a share of its own 2m, decide moves
        if max_sweeps is not None:
            monkeypatch.setattr(community, "MAX_SWEEPS", max_sweeps)
        if gain_epsilon is not None:
            monkeypatch.setattr(community, "GAIN_EPSILON", gain_epsilon)
        rng = np.random.default_rng(31 + (max_sweeps or 0) + 5 * (gain_epsilon is not None))
        levels = []
        for count in [1, 30, *rng.integers(1, 31, size=6).tolist()]:
            graphs = level_graphs(rng, count)
            levels.append(([(g, int(s)) for g, s in zip(graphs, rng.integers(2**63, size=count))], int(rng.integers(1, 5))))
        expected = [[reference_restart_chunk(g, s, 0, restarts) for g, s in calls] for calls, restarts in levels]
        assert any(want.community_count == 1 for level in expected for want in level)
        submitted = record_submissions(monkeypatch)
        for workers in (None, 1, 2, 3):
            if workers is None:
                monkeypatch.setattr(community, "POOL_MIN_WORK", float("inf"))
            else:
                force_pool(monkeypatch, workers)
            with community.RestartPool() as pool:
                for (calls, restarts), want in zip(levels, expected):
                    submitted.clear()
                    started = pool.start(calls, restarts)
                    assert (pool._pool is not None) == (workers not in (None, 1))
                    assert len(submitted) == (0 if pool._pool is None else min(pool._workers, restarts))
                    assert len(started) == len(calls)
                    for (g, seed), handle, ref in zip(calls, started, want):
                        part = louvain(g, seed, restarts, handle)
                        assert np.array_equal(part.assignment, ref.assignment)
                        assert part.community_count == ref.community_count
                        assert part.modularity.hex() == ref.modularity.hex()
            assert multiprocessing.active_children() == []


def graph_with_a_loop_only_node(rng):
    """5 to 11 nodes, one of which has its self-loop as its only entry, as a super-node of an aggregated graph can."""
    n, lone = int(rng.integers(5, 12)), int(rng.integers(5))
    others = [a for a in range(n) if a != lone]
    edges = [(a, b, float(rng.uniform(1.0, 5.0))) for i, a in enumerate(others) for b in others[i + 1 :] if rng.random() < 0.5]
    g = graph_from_edges(n, edges or [(others[0], others[1], 1.0)])
    rows = np.repeat(np.arange(n), np.diff(g.indptr))
    at = int(g.indptr[lone])  # the lone node's row is empty; its loop goes there
    loop = float(rng.uniform(1.0, 10.0))
    return SimilarityGraph.from_csr(n, np.insert(rows, at, lone), np.insert(g.indices, at, lone), np.insert(g.weights, at, loop))


class TestLoopOnlyNode:
    def test_the_sweep_evaluates_a_node_whose_only_entry_is_its_loop(self):
        # a random start can put the node in a community it has no edge to; the sweep,
        # which reads rows without self-loops, evaluates its empty row like any other,
        # so the node leaves to stand alone as the per-graph reference's node does
        rng = np.random.default_rng(41)
        for _ in range(40):
            g = graph_with_a_loop_only_node(rng)
            for seed in range(3):
                part, ref = louvain(g, seed, 4), reference_restart_chunk(g, seed, 0, 4)
                assert np.array_equal(part.assignment, ref.assignment)
                assert part.modularity.hex() == ref.modularity.hex()


class TestOptimizerMemory:
    def test_the_traced_peak_follows_the_arrays(self):
        # Each level holds its entries once, as arrays of 16 bytes an entry (column
        # and weight) that the sweep reads in place, and a level without self-loops
        # reads the graph's own arrays: 72 bytes an entry at the peak (88 with copies).
        # Python list copies of the sweep's entries, an object and a pointer an
        # entry, read 157, so the bound tells the two apart with margin.
        n = 1500
        rng = np.random.default_rng(5)
        g = build_graph(EmbeddingSet([f"i{i}" for i in range(n)], rng.standard_normal((n, 16))), 0.5)
        assert g.indices.size == 46_216
        tracemalloc.start()
        try:
            louvain(g, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / g.indices.size < 120


class TestSweepGraph:
    def test_a_level_without_loops_reads_the_graph_arrays_in_place(self):
        g = graph_from_edges(6, TRIANGLES + [(2, 3, 0.5)])
        sg = community._SweepGraph(g, [g.n])
        assert np.shares_memory(sg.cols, g.indices) and np.shares_memory(sg.weights, g.weights)
        # each super-node's loop is left out, its edge to the other kept
        agg = aggregate_graph(g, [0, 0, 0, 1, 1, 1])
        sa = community._SweepGraph(agg, [agg.n])
        assert (sa.rows.tolist(), sa.cols.tolist(), sa.weights.tolist()) == ([0, 1], [1, 0], [0.5, 0.5])


class TestDenseRelabel:
    def test_equals_the_dict_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            comm = rng.integers(0, int(rng.integers(1, 60)), size=int(rng.integers(1, 200))).tolist()
            mapping, expected = {}, []
            for c in comm:
                if c not in mapping:
                    mapping[c] = len(mapping)
                expected.append(mapping[c])
            out, count = community._dense_relabel(comm)
            assert out.dtype == np.int64 and out.tolist() == expected and count == len(mapping)


class TestAggregation:
    def test_coarsening_preserves_modularity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(4, 25))
            g = random_weighted_graph(rng, n, p=0.3)
            assignment = np.unique(rng.integers(0, max(2, n // 3), size=n), return_inverse=True)[1]
            agg = aggregate_graph(g, assignment)
            induced = np.arange(agg.n)
            assert modularity(agg, induced) == pytest.approx(modularity(g, assignment), abs=1e-9)

    def test_two_m_preserved(self):
        g = graph_from_edges(6, TRIANGLES)
        agg = aggregate_graph(g, [0, 0, 0, 1, 1, 1])
        assert agg.two_m == pytest.approx(g.two_m, rel=1e-12)
        assert agg.n == 2


class TestOneGraphType:
    def test_aggregated_graph_is_a_similarity_graph_without_theta(self):
        g = graph_from_edges(6, TRIANGLES + [(2, 3, 0.5)])
        agg = aggregate_graph(g, [0, 0, 0, 1, 1, 1])
        assert isinstance(agg, SimilarityGraph)
        # each triangle's loop is stored at twice its mass of 3
        for a, other in ((0, 1), (1, 0)):
            nbrs, ws = row(agg, a)
            assert sorted(zip(nbrs.tolist(), ws.tolist())) == sorted([(a, 6.0), (other, 0.5)])

    @staticmethod
    def graphs():
        rng = np.random.default_rng(17)
        emb = EmbeddingSet(ids=[f"v{i}" for i in range(300)], vectors=rng.standard_normal((300, 4)).astype(np.float32))
        for _ in range(6):
            # rows longer than 8 entries, where numpy's pairwise sum regroups
            g = random_weighted_graph(rng, int(rng.integers(30, 60)), p=0.6, wmin=0.1, wmax=7.0)
            yield g
            yield induced_subgraph(g, np.flatnonzero(rng.random(g.n) < 0.7))
            yield aggregate_graph(g, np.unique(rng.integers(0, g.n // 4, size=g.n), return_inverse=True)[1])
        yield build_graph(emb, 0.6)

    def test_degrees_are_left_to_right_row_sums(self):
        for g in self.graphs():
            assert g.degrees.tolist() == left_to_right_row_sums(g.indptr.tolist(), g.weights.tolist())

    def test_both_directions_of_an_edge_hold_the_same_bits(self):
        for g in self.graphs():
            rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
            # the (col, row) keys are unique, so any sort of them gives the transposed order
            transposed = np.argsort(g.indices * g.n + rows)
            assert list(map(float.hex, g.weights.tolist())) == list(map(float.hex, g.weights[transposed].tolist()))

    def test_two_m_is_the_degrees_added_in_node_order(self):
        for g in self.graphs():
            in_order = left_to_right_row_sums([0, g.n], g.degrees.tolist())[0]
            assert g.two_m == float(np.add.accumulate(g.degrees)[-1]) == in_order > 0.0


class TestMembersByCommunity:
    def test_groups_are_sorted_and_complete(self):
        assignment = np.array([1, 0, 1, 2, 0])
        groups = members_by_community(assignment)
        assert [g.tolist() for g in groups] == [[1, 4], [0, 2], [3]]


def pieces(g, nodes) -> int:
    """How many connected pieces the graph g induces on nodes, by breadth-first search."""
    inside, seen, count = set(nodes), set(), 0
    for start in nodes:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = collections.deque([start])
        while queue:
            a = queue.popleft()
            for b in g.indices[g.indptr[a] : g.indptr[a + 1]].tolist():
                if b in inside and b not in seen:
                    seen.add(b)
                    queue.append(b)
    return count


class TestConnectedCommunities:
    @staticmethod
    def gaussian_trial():
        """Trial 41 of a scan of random Gaussian inputs, where a community of 4 nodes comes in two pieces."""
        rng = np.random.default_rng(123)
        for _ in range(42):
            n, d, theta = int(rng.integers(60, 401)), int(rng.integers(3, 13)), float(rng.uniform(0.3, 0.8))
            vectors = rng.standard_normal((n, d))
        emb = EmbeddingSet(ids=[f"v{i}" for i in range(n)], vectors=vectors.astype(np.float32))
        return (n, d, theta), build_graph(emb, theta)

    def test_the_trial_is_the_scanned_input(self):
        (n, d, theta), g = self.gaussian_trial()
        assert (n, d, theta) == (382, 6, 0.7040115389960708)
        assert g.edge_count == 2913 and np.all(np.diff(g.indptr) > 0)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="Louvain's moves can leave a community in pieces")
    def test_every_community_and_leaf_is_connected(self):
        _, g = self.gaussian_trial()
        communities = [c.tolist() for c in members_by_community(louvain(g, 41).assignment)]
        tree, _ = vec2gc_cluster(g, 0.3, 20, 41)
        split_communities = [len(c) for c in communities if pieces(g, c) > 1]
        split_leaves = [node.id for node in tree.nodes if node.is_leaf and pieces(g, node.members) > 1]
        assert (split_communities, split_leaves) == ([], [])  # on 0.5.0: ([4], [52])
