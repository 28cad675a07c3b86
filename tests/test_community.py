import heapq
import math
import multiprocessing
import os
import subprocess
import sys
import time

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
    def certified_states(monkeypatch, g, seed, gain_epsilon):
        """The starting state of every certified sweep, at every level, during one louvain call."""
        states = []
        real = community._stays

        def recording_stays(sg, comm, sigma, eps):
            marked = real(sg, comm, sigma, eps)
            states.append((sg, comm.tolist(), sigma.tolist(), eps, np.flatnonzero(marked)))
            return marked

        monkeypatch.setattr(community, "_stays", recording_stays)
        monkeypatch.setattr(community, "GAIN_EPSILON", gain_epsilon)
        louvain(g, seed=seed, restarts=3)
        monkeypatch.undo()
        return states

    def test_no_marked_node_moves(self, monkeypatch):
        # a certified sweep skips the marked nodes, so evaluating them one
        # after another, in any order, from the sweep's state moves none
        rng = np.random.default_rng(18)
        states = marked_nodes = 0
        for i, g in enumerate(certificate_graphs(rng, 80)):
            for sg, comm, sigma, eps, marked in self.certified_states(monkeypatch, g, i, [0.0, 1e-9, 1e-3, 0.05][i % 4]):
                size = np.bincount(comm, minlength=sg.n).tolist()
                free = [c for c in range(sg.n) if size[c] == 0]
                order = rng.permutation(marked).tolist()
                moves = community._sequential_sweep(order, sg.ptr, sg.nbr, sg.wt, sg.k, sg.two_m, eps, comm, sigma, size, free)
                assert moves == 0
                states += 1
                marked_nodes += marked.size
        assert states >= 200 and marked_nodes >= 1000


def force_pool(monkeypatch, workers):
    monkeypatch.setattr(community, "_available_cpus", lambda: workers)
    monkeypatch.setattr(community, "POOL_MIN_WORK", 0)


class TestRestartPool:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pooled_partition_is_bit_identical(self, monkeypatch, workers):
        rng = np.random.default_rng(14)
        graphs = [random_weighted_graph(rng, int(rng.integers(20, 80)), p=0.15) for _ in range(4)]
        expected = [louvain(g, seed=21 + i) for i, g in enumerate(graphs)]
        force_pool(monkeypatch, workers)
        with community.RestartPool() as pool:
            for i, g in enumerate(graphs):
                [chunks] = pool.start([(g, 21 + i)], community.RESTARTS)
                part = louvain(g, seed=21 + i, chunks=chunks)
                assert np.array_equal(part.assignment, expected[i].assignment)
                assert part.community_count == expected[i].community_count
                assert part.modularity == expected[i].modularity
            assert (pool._pool is not None) == (workers > 1)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_restart_ties_go_to_the_earliest_chunk(self, monkeypatch, workers):
        # every restart scores 0 or 1, so later chunks tie the best of earlier ones
        def coin_restart(sweep_graph, seed, restart):
            rng = np.random.default_rng((seed, restart))
            assignment, count = community._dense_relabel(rng.integers(0, 3, size=sweep_graph.n).tolist())
            return Partition(assignment, count, float(rng.integers(0, 2)))

        monkeypatch.setattr(community, "_restart", coin_restart)
        g = random_weighted_graph(np.random.default_rng(15), 30, p=0.3)
        restarts = community.RESTARTS
        sweep_graph = community._SweepGraph(g)
        runs = [community._restart(sweep_graph, 5, r) for r in range(restarts)]
        best = max(p.modularity for p in runs)
        winners = [r for r, p in enumerate(runs) if p.modularity == best]
        first_chunk_end = restarts // workers
        assert winners[0] < first_chunk_end and winners[-1] >= first_chunk_end
        force_pool(monkeypatch, workers)
        with community.RestartPool() as pool:
            [chunks] = pool.start([(g, 5)], restarts)
            part = louvain(g, seed=5, restarts=restarts, chunks=chunks)
            assert pool._pool is not None
        assert np.array_equal(part.assignment, runs[winners[0]].assignment)
        assert part.modularity == best

    def test_ties_go_to_the_earliest_chunk_when_it_finishes_last(self, monkeypatch):
        # restart 0, in chunk 0, is held back, so chunk 1's tying winner arrives first
        def coin_restart(sweep_graph, seed, restart):
            if restart == 0:
                time.sleep(0.5)
            return Partition(np.zeros(sweep_graph.n, dtype=np.int64), 1, 1.0)

        monkeypatch.setattr(community, "_restart", coin_restart)
        g = random_weighted_graph(np.random.default_rng(15), 30, p=0.3)
        force_pool(monkeypatch, 2)
        with community.RestartPool() as pool:
            [chunks] = pool.start([(g, 5)], community.RESTARTS)
            chunks[1].wait(timeout=60)
            assert chunks[1].ready() and not chunks[0].ready()
            part = louvain(g, seed=5, chunks=chunks)
        assert part is chunks[0].get()

    def test_a_level_splits_its_chunks_by_work(self, monkeypatch):
        rng = np.random.default_rng(18)
        big = random_weighted_graph(rng, 60, p=0.5)
        small = [random_weighted_graph(rng, 8, p=0.5) for _ in range(3)]
        calls = [(small[0], 1), (big, 2), (small[1], 3), (small[2], 4)]
        expected = [louvain(g, seed=s) for g, s in calls]
        force_pool(monkeypatch, 3)
        with community.RestartPool() as pool:
            started = pool.start(calls, community.RESTARTS)
            assert [len(chunks) for chunks in started] == [1, 3, 1, 1]
            for (g, s), chunks, want in zip(calls, started, expected):
                part = louvain(g, seed=s, chunks=chunks)
                assert np.array_equal(part.assignment, want.assignment) and part.modularity == want.modularity

    def test_small_calls_stay_in_process(self, monkeypatch):
        monkeypatch.setattr(community, "_available_cpus", lambda: 2)
        g = random_weighted_graph(np.random.default_rng(16), 20, p=0.3)
        with community.RestartPool() as pool:
            assert pool.start([(g, 1)], community.RESTARTS) == [None]
            assert pool._pool is None
            assert multiprocessing.active_children() == []

    def test_package_import_loads_no_process_modules(self):
        # a pool imports multiprocessing, and its workers signal, only when a level is large enough
        src = os.path.dirname(os.path.dirname(community.__file__))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import vec2gc; "
            "print([m for m in ('multiprocessing', 'concurrent.futures', 'signal') if m in sys.modules])"
        )
        run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
        assert run.stdout == "[]\n"


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
