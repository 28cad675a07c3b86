import math
import re

import numpy as np
import pytest

from oracles import (
    fixed_order_edges,
    fixed_order_similarities,
    graph_edges,
    planted_groups,
    reference_graph_edges,
    row,
)
from vec2gc import (
    MAX_EDGE_WEIGHT,
    SIMILARITY_CAP,
    EmbeddingSet,
    build_graph,
    induced_subgraph,
    write_edges_tsv,
)
from vec2gc.simgraph import _edge_weights


def random_embeddings(rng, n, d):
    return EmbeddingSet(
        ids=[f"v{i}" for i in range(n)],
        vectors=rng.standard_normal((n, d)).astype(np.float32),
    )


def pair_weight(a, b, theta=0.0):
    """Weight that build_graph puts on the edge of two vectors, or 0.0 without an edge."""
    g = build_graph(EmbeddingSet(ids=["a", "b"], vectors=np.array([a, b], dtype=np.float32)), theta)
    return graph_edges(g).get((0, 1), 0.0)


# integer vectors against (1, 0, ...) whose cosines are exact: 9/10 and 19/20
CS_09 = ([1, 0, 0, 0], [9, 3, 3, 1])
CS_095 = ([1, 0, 0, 0, 0], [19, 5, 3, 2, 1])


class TestCosineSimilarity:
    """The cosine step of build_graph, read back from the weight 1/(1 - cs)."""

    def test_orthogonal(self):
        assert 1.0 - 1.0 / pair_weight([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_parallel_scale_invariant(self):
        assert pair_weight([2.0, 0.0], [5.0, 0.0]) == MAX_EDGE_WEIGHT
        assert pair_weight([4.0, 4.0], [0.5, 0.0]) == pair_weight([1.0, 1.0], [1.0, 0.0])

    def test_45_degrees(self):
        cs = 1.0 - 1.0 / pair_weight([1.0, 1.0], [1.0, 0.0])
        # independent hand oracle: dot / (|a||b|)
        ref = 1.0 / (math.sqrt(2.0) * 1.0)
        assert abs(cs - 0.7071067811865475) < 1e-15
        assert abs(cs - ref) < 1e-15

    def test_zero_norm_rejected(self):
        # construction rejects a zero vector; build_graph guards a set changed afterwards
        emb = EmbeddingSet(ids=["a", "b"], vectors=np.array([[1.0, 0.0], [1.0, 0.0]], dtype=np.float32))
        emb.vectors[0] = 0.0
        with pytest.raises(ValueError, match="zero-norm"):
            build_graph(emb, 0.0)

    def test_clamped_into_unit_interval(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((100, 6))
        # scaled copies put cosines at 1 up to rounding, on either side of it
        vectors = np.concatenate([base, base * rng.uniform(0.1, 10.0, size=(100, 1))])
        g = build_graph(EmbeddingSet(ids=[f"v{i}" for i in range(200)], vectors=vectors.astype(np.float32)), 0.0)
        assert g.edge_count > 0
        assert g.weights.min() >= 1.0  # the weight at cs 0
        assert g.weights.max() == MAX_EDGE_WEIGHT


class TestEdgeWeight:
    """build_graph's weights on exact cosines, and the mapping 1/(1 - cs) itself."""

    def test_worked_anchors(self):
        assert pair_weight(*CS_09, theta=0.5) == pytest.approx(10.0, rel=1e-14)
        assert pair_weight(*CS_095, theta=0.5) == pytest.approx(20.0, rel=1e-13)

    def test_below_threshold_is_zero(self):
        for pair, cs in ((CS_09, 0.9), (CS_095, 0.95)):
            assert pair_weight(*pair, theta=float(np.nextafter(cs, 1.0))) == 0.0

    def test_lower_bound_at_threshold(self):
        for pair, cs in ((CS_09, 0.9), (CS_095, 0.95)):
            assert pair_weight(*pair, theta=cs) >= 1.0 / (1.0 - cs)

    def test_cap_at_identical_vectors(self):
        below_cap = float(np.nextafter(SIMILARITY_CAP, 0.0))
        weights = _edge_weights(np.array([below_cap, SIMILARITY_CAP, 1.0]))
        # the 1e-9 floor never acts below the cap
        assert weights.tolist() == [1.0 / (1.0 - below_cap), MAX_EDGE_WEIGHT, MAX_EDGE_WEIGHT]

    def test_monotone_in_similarity(self):
        cs = np.sort(np.random.default_rng(11).uniform(0.0, 1.0, size=500))
        cs = np.concatenate([cs, [np.nextafter(SIMILARITY_CAP, 0.0), SIMILARITY_CAP, 1.0]])
        assert (np.diff(_edge_weights(cs)) >= 0.0).all()

    def test_separability_stretches_gaps(self):
        # for cs1 < cs2 with weights beyond 1, the weight gap exceeds the similarity gap
        cs = np.sort(np.random.default_rng(12).uniform(0.05, 0.999, size=(500, 2)), axis=1)
        weights = _edge_weights(cs.reshape(-1)).reshape(cs.shape)
        apart = (cs[:, 0] < cs[:, 1]) & (weights[:, 0] > 1.0)
        assert ((weights[:, 1] - weights[:, 0]) > (cs[:, 1] - cs[:, 0]))[apart].all()

    def test_theta_validation(self):
        emb = random_embeddings(np.random.default_rng(0), 4, 3)
        for theta in (-0.1, 1.0 - 1e-12, 1.2):
            with pytest.raises(ValueError, match=r"theta out of \[0, 1\)"):
                build_graph(emb, theta)


class TestBuildGraph:
    def test_three_identical_unit_vectors(self):
        emb = EmbeddingSet(ids=["a", "b", "c"], vectors=np.array([[1.0, 0.0]] * 3, dtype=np.float32))
        g = build_graph(emb, 0.9)
        assert graph_edges(g) == {(0, 1): 1e9, (0, 2): 1e9, (1, 2): 1e9}
        assert g.two_m == 6e9

    def test_single_edge_and_isolated_node(self):
        emb = EmbeddingSet(
            ids=["a", "b", "c"],
            vectors=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], dtype=np.float32),
        )
        g = build_graph(emb, 0.5)
        assert graph_edges(g) == {(0, 2): 1e9}
        assert g.degrees[1] == 0.0

    def test_theta_at_one_rejected(self):
        emb = random_embeddings(np.random.default_rng(0), 20, 8)
        with pytest.raises(ValueError, match=r"theta out of \[0, 1\)"):
            build_graph(emb, 1.0 - 1e-12)
        # a merely-high theta is fine and matches the brute-force oracle
        g = build_graph(emb, 0.999)
        assert graph_edges(g).keys() == reference_graph_edges(emb.vectors, 0.999).keys()

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        for n, d, theta in [(30, 8, 0.3), (75, 16, 0.5), (120, 12, 0.2), (200, 24, 0.4)]:
            emb = random_embeddings(rng, n, d)
            ref = reference_graph_edges(emb.vectors, theta)
            got = graph_edges(build_graph(emb, theta))
            assert got.keys() == ref.keys()
            for pair, w in ref.items():
                assert got[pair] == pytest.approx(w, rel=1e-12)

    def test_power_of_two_scaling_is_bit_exact(self):
        rng = np.random.default_rng(6)
        emb = random_embeddings(rng, 60, 8)
        scaled = emb.vectors.copy()
        scaled[7] *= 4.0
        scaled[21] *= 0.25
        scaled[40] *= 2.0
        emb2 = EmbeddingSet(ids=list(emb.ids), vectors=scaled)
        g1 = build_graph(emb, 0.3)
        g2 = build_graph(emb2, 0.3)
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)
        assert np.array_equal(g1.weights, g2.weights)

    def test_structural_invariants(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            emb = random_embeddings(rng, int(rng.integers(5, 80)), 8)
            theta = float(rng.uniform(0.0, 0.8))
            g = build_graph(emb, theta)
            edges = graph_edges(g)
            # symmetry comes with matching weights
            for a in range(g.n):
                nbrs, ws = row(g, a)
                assert a not in nbrs.tolist()
                assert nbrs.tolist() == sorted(nbrs.tolist())
                for b, w in zip(nbrs.tolist(), ws.tolist()):
                    assert edges[(min(a, b), max(a, b))] == w
                    assert w >= 1.0 / (1.0 - theta) - 1e-12
                    assert np.isfinite(w)
                assert g.degrees[a] == pytest.approx(float(ws.sum()), rel=1e-12, abs=1e-300)
            if edges:
                assert sum(g.degrees) == pytest.approx(g.two_m, rel=1e-9)


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self):
        emb, _ = planted_groups([5, 5], intra_cs=0.9)
        g = build_graph(emb, 0.5)
        sub = induced_subgraph(g, [0, 1, 2, 3, 4])
        assert sub.n == 5
        assert sub.edge_count == 10
        full = graph_edges(g)
        for (a, b), w in graph_edges(sub).items():
            assert full[(a, b)] == w

    def test_weights_are_reused_not_recomputed(self):
        emb, _ = planted_groups([4], intra_cs=0.9)
        g = build_graph(emb, 0.5)
        sub = induced_subgraph(g, [1, 2])
        assert graph_edges(sub) == {(0, 1): graph_edges(g)[(1, 2)]}

    @pytest.mark.parametrize("nodes", [[0, 3], [-1, 0]], ids=["past-the-end", "negative"])
    def test_nodes_outside_the_graph_are_refused(self, nodes):
        emb, _ = planted_groups([3], intra_cs=0.9)
        with pytest.raises(ValueError, match="subgraph nodes outside node range"):
            induced_subgraph(build_graph(emb, 0.5), nodes)


class TestEdgeTsv:
    def test_format(self, tmp_path):
        emb = EmbeddingSet(
            ids=["left", "mid", "right"],
            vectors=np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]], dtype=np.float32),
        )
        g = build_graph(emb, 0.5)
        path = tmp_path / "edges.tsv"
        write_edges_tsv(g, emb.ids, path)
        lines = path.read_text().splitlines()
        assert len(lines) == g.edge_count
        src, dst, w = lines[0].split("\t")
        assert (src, dst) == ("left", "mid")
        assert float(w) == pytest.approx(graph_edges(g)[(0, 1)], rel=1e-11)
        # 12 significant digits
        assert len(w.replace(".", "").replace("-", "").lstrip("0")) <= 12

    @pytest.mark.parametrize("brk", ["\t", "\n", "\r"], ids=["tab", "newline", "return"])
    def test_id_with_a_tab_or_line_break_is_refused_before_writing(self, tmp_path, brk):
        emb = EmbeddingSet(ids=["left", f"m{brk}id", "right"], vectors=np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]]))
        path = tmp_path / "edges.tsv"
        with pytest.raises(ValueError, match=f"id {re.escape(repr(f'm{brk}id'))} has a tab or a line break"):
            write_edges_tsv(build_graph(emb, 0.5), emb.ids, path)
        assert not path.exists()

    def test_an_id_list_of_another_length_is_refused_before_writing(self, tmp_path):
        emb, _ = planted_groups([3], intra_cs=0.9)
        path = tmp_path / "edges.tsv"
        with pytest.raises(ValueError, match="id list does not match graph size"):
            write_edges_tsv(build_graph(emb, 0.5), emb.ids[:2], path)
        assert not path.exists()

    def test_a_write_that_raises_leaves_the_lines_before_it_and_no_old_bytes(self, tmp_path, monkeypatch):
        import vec2gc.simgraph as simgraph

        class FailingId(str):
            """An id whose formatting raises on the 15th call: the source id of edge 7."""

            calls = 0

            def __format__(self, spec):
                FailingId.calls += 1
                if FailingId.calls == 15:
                    raise RuntimeError("formatting failed")
                return str.__format__(self, spec)

        emb = random_embeddings(np.random.default_rng(24), 60, 6)
        g = build_graph(emb, 0.3)
        path = tmp_path / "edges.tsv"
        write_edges_tsv(g, emb.ids, path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"\xff" * 2 * len(b"".join(lines)))
        monkeypatch.setattr(simgraph, "_WRITE_LINES", 3)
        with pytest.raises(RuntimeError, match="formatting failed"):
            write_edges_tsv(g, [FailingId(i) for i in emb.ids], path)
        # edge 7 is in the third chunk of 3 lines, so the first two chunks were written
        assert path.read_bytes() == b"".join(lines[:6])


class TestTiledKernel:
    """build_graph screens pairs in row blocks x column windows; the tiling must not show."""

    TILES = [(8, 16), (16, 8), (8, 8), (256, 2048), (3, 1000)]

    @staticmethod
    def build_with_tiles(monkeypatch, emb, theta, block_rows, col_tile):
        import vec2gc.simgraph as simgraph

        with monkeypatch.context() as m:
            m.setattr(simgraph, "_BLOCK_ROWS", block_rows)
            m.setattr(simgraph, "_COL_TILE", col_tile)
            return build_graph(emb, theta)

    def test_weights_are_the_fixed_order_reference_bit_for_bit(self, monkeypatch):
        # the recompute alone decides every edge and weight: any tile shape
        # gives the plain-Python loop's bits, not merely values within 1e-12
        rng = np.random.default_rng(21)
        for n, d, theta in [(37, 64, 0.1), (203, 16, 0.3), (150, 48, 0.0)]:
            emb = random_embeddings(rng, n, d)
            ref = fixed_order_edges(emb.vectors, theta)
            assert ref
            for block_rows, col_tile in self.TILES:
                got = graph_edges(self.build_with_tiles(monkeypatch, emb, theta, block_rows, col_tile))
                assert got == ref, (n, block_rows, col_tile)

    def test_small_tiles_match_default_tiles_and_oracle(self, monkeypatch):
        # n a multiple of neither tile side, so blocks and windows end mid-tile
        rng = np.random.default_rng(21)
        for n, d, theta in [(37, 64, 0.1), (203, 16, 0.3), (517, 64, 0.2)]:
            emb = random_embeddings(rng, n, d)
            default = build_graph(emb, theta)
            for block_rows, col_tile in self.TILES:
                tiled = self.build_with_tiles(monkeypatch, emb, theta, block_rows, col_tile)
                for field in ("indptr", "indices", "weights", "degrees"):
                    assert np.array_equal(getattr(tiled, field), getattr(default, field)), field
            ref = reference_graph_edges(emb.vectors, theta)
            got = graph_edges(default)
            assert got.keys() == ref.keys()
            for pair, w in ref.items():
                assert got[pair] == pytest.approx(w, rel=1e-12)

    def test_a_pair_at_exactly_theta_is_an_edge(self):
        # theta set to a pair's own similarity keeps it and one ulp above
        # drops it: the screen's margin covers the float32 product's error
        rng = np.random.default_rng(26)
        vectors = (rng.standard_normal((30, 48)) + 0.4).astype(np.float32)
        vectors[15:] = vectors[:15] + 0.05 * rng.standard_normal((15, 48)).astype(np.float32)
        emb = EmbeddingSet(ids=[f"v{i}" for i in range(30)], vectors=vectors)
        sims = {pair: cs for pair, cs in fixed_order_similarities(vectors).items() if 0.0 <= cs <= SIMILARITY_CAP}
        assert len(sims) >= 200
        for pair, cs in sims.items():
            assert pair in graph_edges(build_graph(emb, cs)), (pair, cs)
            assert pair not in graph_edges(build_graph(emb, float(np.nextafter(cs, 1.0)))), (pair, cs)

    def test_tile_shapes_do_not_grow_with_n(self, monkeypatch):
        import vec2gc.simgraph as simgraph

        shapes = []
        matmul = np.matmul

        def recording_matmul(a, b):
            shapes.append((a.shape[0], b.shape[1]))
            return matmul(a, b)

        monkeypatch.setattr(np, "matmul", recording_matmul)
        rng = np.random.default_rng(23)
        for block_rows, col_tile, sizes in [(8, 16, (40, 203, 1001)), (256, 1024, (700, 3001))]:
            monkeypatch.setattr(simgraph, "_BLOCK_ROWS", block_rows)
            monkeypatch.setattr(simgraph, "_COL_TILE", col_tile)
            for n in sizes:
                shapes.clear()
                g = build_graph(random_embeddings(rng, n, 4), 0.99)
                assert g.n == n and shapes
                assert max(r for r, _ in shapes) <= block_rows
                assert max(c for _, c in shapes) <= col_tile


class TestEdgeTsvChunks:
    def test_chunked_writer_matches_per_edge_loop(self, tmp_path, monkeypatch):
        import vec2gc.simgraph as simgraph

        rng = np.random.default_rng(24)
        emb = random_embeddings(rng, 60, 6)
        g = build_graph(emb, 0.3)
        expected = []
        for a in range(g.n):
            nbrs, ws = row(g, a)
            for b, weight in zip(nbrs.tolist(), ws.tolist()):
                if b > a:
                    expected.append(f"{emb.ids[a]}\t{emb.ids[b]}\t{weight:.12g}\n")
        assert len(expected) > 7
        monkeypatch.setattr(simgraph, "_WRITE_LINES", 7)
        path = tmp_path / "edges.tsv"
        write_edges_tsv(g, emb.ids, path)
        assert path.read_bytes() == "".join(expected).encode("utf-8")
