import math
import re

import numpy as np
import pytest

from oracles import graph_edges, planted_groups, reference_graph_edges, row
from vec2gc import (
    EmbeddingSet,
    build_graph,
    edge_weight,
    induced_subgraph,
    write_edges_tsv,
)


def random_embeddings(rng, n, d):
    return EmbeddingSet(
        ids=[f"v{i}" for i in range(n)],
        vectors=rng.standard_normal((n, d)).astype(np.float32),
    )


def pair_weight(a, b):
    """Weight that build_graph puts on the edge of two vectors at theta 0."""
    g = build_graph(EmbeddingSet(ids=["a", "b"], vectors=np.array([a, b], dtype=np.float32)), 0.0)
    return graph_edges(g).get((0, 1), 0.0)


class TestCosineSimilarity:
    """The cosine step of build_graph, read back from the weight 1/(1 - cs)."""

    def test_orthogonal(self):
        assert 1.0 - 1.0 / pair_weight([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_parallel_scale_invariant(self):
        assert pair_weight([2.0, 0.0], [5.0, 0.0]) == edge_weight(1.0, 0.0)
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
        assert g.weights.min() >= edge_weight(0.0, 0.0)
        assert g.weights.max() == edge_weight(1.0, 0.0)


class TestEdgeWeight:
    def test_worked_anchors(self):
        assert edge_weight(0.9, 0.5) == pytest.approx(10.0, rel=1e-14)
        assert edge_weight(0.95, 0.5) == pytest.approx(20.0, rel=1e-13)

    def test_below_threshold_is_zero(self):
        assert edge_weight(0.4, 0.5) == 0.0

    def test_cap_at_identical_vectors(self):
        assert edge_weight(1.0, 0.5) == 1e9

    def test_lower_bound_at_threshold(self):
        theta = 0.5
        assert edge_weight(theta, theta) >= 1.0 / (1.0 - theta)

    def test_monotone_in_similarity(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            cs1, cs2 = sorted(rng.uniform(-1.0, 1.0, size=2))
            assert edge_weight(cs1, 0.3) <= edge_weight(cs2, 0.3)

    def test_separability_stretches_gaps(self):
        # for cs1 < cs2 both above a non-negative threshold with weights
        # beyond 1, the weight gap exceeds the similarity gap
        rng = np.random.default_rng(12)
        for _ in range(500):
            theta = rng.uniform(0.05, 0.9)
            cs1, cs2 = np.sort(rng.uniform(theta, 0.999, size=2))
            if cs1 == cs2:
                continue
            w1, w2 = edge_weight(cs1, theta), edge_weight(cs2, theta)
            if w1 > 1.0:
                assert (w2 - w1) > (cs2 - cs1)

    def test_theta_validation(self):
        with pytest.raises(ValueError, match=r"theta out of \[0, 1\)"):
            edge_weight(0.5, 1.0 - 1e-12)
        with pytest.raises(ValueError, match=r"theta out of \[0, 1\)"):
            edge_weight(0.5, -0.1)
        with pytest.raises(ValueError, match=r"theta out of \[0, 1\)"):
            edge_weight(0.5, 1.2)


class TestBuildGraph:
    def test_three_identical_unit_vectors(self):
        emb = EmbeddingSet(ids=["a", "b", "c"], vectors=np.array([[1.0, 0.0]] * 3, dtype=np.float32))
        g = build_graph(emb, 0.9)
        assert graph_edges(g) == {(0, 1): 1e9, (0, 2): 1e9, (1, 2): 1e9}
        assert g.total_weight == 3e9

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
                assert sum(g.degrees) == pytest.approx(2.0 * g.total_weight, rel=1e-9)


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


def full_row_graph(emb, theta):
    """The graph built from whole-row products unit[i0:i1] @ unit.T, one 256-row block at a time."""
    from vec2gc.simgraph import _assemble, _edge_weights

    unit = emb.vectors.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    n = unit.shape[0]
    src, dst, w = [], [], []
    for i0 in range(0, n, 256):
        i1 = min(i0 + 256, n)
        sims = np.clip(unit[i0:i1] @ unit.T, -1.0, 1.0)
        mask = (sims >= theta) & (np.arange(n)[None, :] > np.arange(i0, i1)[:, None])
        r, c = np.nonzero(mask)
        src.append(r + i0)
        dst.append(c)
        w.append(_edge_weights(sims[r, c]))
    return _assemble(n, np.concatenate(src), np.concatenate(dst), np.concatenate(w))


class TestTiledKernel:
    """build_graph multiplies row blocks by column windows; the tiling must not show."""

    @staticmethod
    def assert_same_graph(a, b):
        for field in ("indptr", "indices", "weights", "degrees"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert a.total_weight == b.total_weight

    def test_bit_identical_to_full_row_products(self):
        # n past one window, not a multiple of 256 or 8, and short last blocks
        rng = np.random.default_rng(20)
        for n, d, theta in [(1300, 16, 0.5), (2085, 8, 0.3), (2565, 64, 0.3), (4621, 16, 0.45)]:
            emb = random_embeddings(rng, n, d)
            ref = full_row_graph(emb, theta)
            assert ref.edge_count > 0
            self.assert_same_graph(build_graph(emb, theta), ref)

    def test_small_tiles_match_default_tiles_and_oracle(self, monkeypatch):
        # 8 x 16 tiles, n a multiple of neither, so blocks and windows end
        # mid-tile. BLAS rounds such small products in other kernels and
        # without threads, which can move a weight by an ulp, so weights are
        # compared to 1e-12 here; the edge structure must match exactly.
        import vec2gc.simgraph as simgraph

        rng = np.random.default_rng(21)
        for n, d, theta in [(37, 64, 0.1), (203, 16, 0.3), (517, 64, 0.2)]:
            emb = random_embeddings(rng, n, d)
            default = build_graph(emb, theta)
            with monkeypatch.context() as m:
                m.setattr(simgraph, "_BLOCK_ROWS", 8)
                m.setattr(simgraph, "_COL_TILE", 16)
                tiled = build_graph(emb, theta)
            assert np.array_equal(tiled.indptr, default.indptr)
            assert np.array_equal(tiled.indices, default.indices)
            assert np.allclose(tiled.weights, default.weights, rtol=1e-12, atol=0.0)
            ref = reference_graph_edges(emb.vectors, theta)
            got = graph_edges(tiled)
            assert got.keys() == ref.keys()
            for pair, w in ref.items():
                assert got[pair] == pytest.approx(w, rel=1e-12)

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
                assert max(r * c for r, c in shapes) < 4 * block_rows * (col_tile + block_rows)


class TestEdgeWeightVectorAgreement:
    def test_scalar_is_the_vector_mapping(self):
        from vec2gc.simgraph import SIMILARITY_CAP, _edge_weights

        below_cap = float(np.nextafter(SIMILARITY_CAP, 0.0))
        cs = np.array([0.3, 0.5, 0.9, 0.95, 0.999999, below_cap, SIMILARITY_CAP, 1.0])
        vector = _edge_weights(cs.copy())
        for c, w in zip(cs.tolist(), vector.tolist()):
            assert edge_weight(c, 0.3) == w
        # the 1e-9 floor never acts below the cap
        assert edge_weight(below_cap, 0.3) == 1.0 / (1.0 - below_cap)
        assert edge_weight(SIMILARITY_CAP, 0.3) == 1e9


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
