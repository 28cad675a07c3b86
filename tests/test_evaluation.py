import copy
from dataclasses import fields

import numpy as np
import pytest

from oracles import planted_groups, reference_kmedoids
from vec2gc import (
    EmbeddingSet,
    cluster_purity,
    format_report_table,
    kmedoids,
    purity_report,
    report_to_json_dict,
)
from vec2gc import evaluation


class TestClusterPurity:
    def test_eight_of_ten(self):
        members = [f"m{i}" for i in range(10)]
        labels = {m: "sport" for m in members[:8]}
        labels.update({members[8]: "tech", members[9]: "auto"})
        assert cluster_purity(members, labels) == (0.8, "sport")

    def test_uniform_cluster(self):
        members = ["a", "b", "c"]
        assert cluster_purity(members, {m: "x" for m in members}) == (1.0, "x")

    def test_tie_breaks_lexicographically(self):
        labels = {"m1": "b", "m2": "b", "m3": "a", "m4": "a"}
        assert cluster_purity(list(labels), labels) == (0.5, "a")

    def test_unlabeled_members_dropped(self):
        labels = {"m1": "x", "m2": "x"}
        purity, majority = cluster_purity(["m1", "m2", "m3", "m4"], labels)
        assert (purity, majority) == (1.0, "x")

    def test_no_labeled_members_rejected(self):
        with pytest.raises(ValueError, match="no labeled members"):
            cluster_purity(["m1"], {"other": "x"})


class TestPurityReport:
    def make_clusters(self, purities):
        # cluster i has 10 members with purity purities[i]
        clusters, labels = [], {}
        for ci, p in enumerate(purities):
            members = [f"c{ci}m{j}" for j in range(10)]
            majority = round(p * 10)
            for j, m in enumerate(members):
                labels[m] = f"maj{ci}" if j < majority else f"min{ci}{j}"
            clusters.append(members)
        return clusters, labels

    def test_fraction_counting(self):
        clusters, labels = self.make_clusters([1.0, 0.8, 0.6, 0.4])
        report = purity_report(clusters, labels)
        assert report.n_clusters == 4
        assert report.fractions == {0.5: 3 / 4, 0.7: 2 / 4, 0.9: 1 / 4}

    def test_single_pure_cluster(self):
        clusters, labels = self.make_clusters([1.0])
        report = purity_report(clusters, labels)
        assert report.fractions == {0.5: 1.0, 0.7: 1.0, 0.9: 1.0}

    def test_fractions_monotone_on_random_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            purities = [round(float(rng.uniform(0.1, 1.0)), 1) for _ in range(int(rng.integers(1, 12)))]
            clusters, labels = self.make_clusters(purities)
            report = purity_report(clusters, labels)
            assert report.fractions[0.9] <= report.fractions[0.7] <= report.fractions[0.5]

    def test_fractions_reproducible_from_rows(self):
        clusters, labels = self.make_clusters([0.9, 0.7, 0.5, 0.3, 1.0])
        report = purity_report(clusters, labels)
        for t, frac in report.fractions.items():
            recount = sum(1 for row in report.per_cluster if row.purity >= t) / report.n_clusters
            assert frac == recount

    def test_purity_is_exact_ratio(self):
        clusters, labels = self.make_clusters([0.7, 0.4])
        report = purity_report(clusters, labels)
        for row in report.per_cluster:
            majority_count = sum(
                1 for m in clusters[row.cluster] if labels.get(m) == row.majority_label
            )
            assert row.purity == majority_count / row.labeled

    def test_unlabeled_cluster_skipped_and_counted(self):
        clusters = [["a", "b"], ["c", "d"]]
        labels = {"a": "x", "b": "x"}
        report = purity_report(clusters, labels)
        assert report.n_clusters == 1
        assert report.clusters_without_labels == 1
        assert report.unlabeled_members == 2

    def test_noise_size_carried(self):
        clusters, labels = self.make_clusters([1.0])
        report = purity_report(clusters, labels, noise_size=17)
        assert report.noise_size == 17

    def test_requires_labels(self):
        with pytest.raises(ValueError, match="no labels"):
            purity_report([["a"]], {})

    def test_requires_clusters(self):
        with pytest.raises(ValueError, match="no clusters"):
            purity_report([], {"a": "x"})

    def test_threshold_validation(self):
        clusters, labels = self.make_clusters([1.0])
        with pytest.raises(ValueError, match=r"threshold out of \(0, 1\]"):
            purity_report(clusters, labels, thresholds=[0.0])

    def test_merging_same_majority_clusters_keeps_min_purity(self):
        # merging two clusters that agree on the majority label cannot
        # drop purity below the smaller of the two
        rng = np.random.default_rng(14)
        for _ in range(50):
            labels = {}
            groups = []
            for ci in range(2):
                members = [f"c{ci}m{j}" for j in range(int(rng.integers(2, 15)))]
                for m in members:
                    labels[m] = "shared" if rng.random() < 0.6 else f"other{rng.integers(5)}"
                labels[members[0]] = "shared"
                groups.append(members)
            p = []
            for members in groups:
                counts = {}
                for m in members:
                    counts[labels[m]] = counts.get(labels[m], 0) + 1
                if max(counts, key=lambda l: (counts[l], l)) != "shared":
                    break
                p.append(counts["shared"] / len(members))
            else:
                merged_purity, _ = cluster_purity(groups[0] + groups[1], labels)
                assert merged_purity >= min(p) - 1e-12


class TestReportFormats:
    def test_table_has_comparison_columns(self):
        clusters = [["a", "b"], ["c", "d"]]
        labels = {"a": "x", "b": "x", "c": "x", "d": "y"}
        assert format_report_table(purity_report(clusters, labels, noise_size=3)) == (
            "Purity Value  Fraction of clusters @ k% purity\n"
            " 50%          1.00\n"
            " 70%          0.50\n"
            " 90%          0.50\n"
            "N = 2 clusters evaluated (noise excluded: 3, unlabeled members: 0, clusters without labels: 0)"
        )

    def test_table_labels_tell_thresholds_apart(self):
        clusters = [["a", "b"], ["c", "d"]]
        labels = {"a": "x", "b": "x", "c": "x", "d": "y"}
        report = purity_report(clusters, labels, thresholds=[0.5, 0.5000001, 0.995, 0.9999999, 1])
        rows = format_report_table(report).splitlines()[1:-1]
        assert rows == [
            " 50%          1.00",
            "50.00001%     0.50",
            "99.5%         0.50",
            "99.99999%     0.50",
            "100%          0.50",
        ]

    def test_json_dict_key_order(self):
        clusters = [["a", "b"], ["c"]]
        labels = {"a": "x", "b": "x"}
        report = purity_report(clusters, labels)
        before = copy.deepcopy(report)
        doc = report_to_json_dict(report)
        assert list(doc) == [
            "n_clusters",
            "noise_size",
            "fractions",
            "unlabeled_members",
            "clusters_without_labels",
            "per_cluster",
        ]
        assert list(doc) == [f.name for f in fields(evaluation.PurityReport)]
        assert doc["fractions"] == {"0.5": 1.0, "0.7": 1.0, "0.9": 1.0}
        for row in doc["per_cluster"]:
            assert list(row) == ["cluster", "size", "labeled", "majority_label", "purity"]
        # the result is a copy: editing it, its fractions or a row leaves the report as it was
        doc["n_clusters"] = 9
        doc["fractions"]["0.5"] = 0.0
        doc["per_cluster"][0]["purity"] = 0.0
        doc["per_cluster"].append({})
        assert report == before

    def test_json_dict_keeps_thresholds_that_agree_to_six_digits(self):
        clusters = [["a", "b"], ["c", "d"]]
        labels = {"a": "x", "b": "x", "c": "x", "d": "y"}
        doc = report_to_json_dict(purity_report(clusters, labels, thresholds=[0.5, 0.5000001, 0.9999999, 1.0]))
        assert doc["fractions"] == {"0.5": 1.0, "0.5000001": 0.5, "0.9999999": 0.5, "1": 0.5}


class TestKMedoids:
    def test_recovers_planted_blobs(self):
        emb, labels = planted_groups([25, 25], intra_cs=0.95)
        clusters = kmedoids(emb, 2, seed=21).clusters
        assert sorted(map(tuple, (sorted(c) for c in clusters))) == [
            tuple(range(25)),
            tuple(range(25, 50)),
        ]

    def test_k_equals_n(self):
        emb, _ = planted_groups([5], intra_cs=0.9)
        result = kmedoids(emb, 5, seed=3)
        assert sorted(map(tuple, result.clusters)) == [(i,) for i in range(5)]
        assert result.medoids == list(range(5))

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        emb = EmbeddingSet(
            ids=[f"p{i}" for i in range(40)],
            vectors=rng.standard_normal((40, 6)).astype(np.float32),
        )
        assert kmedoids(emb, 5, seed=77) == kmedoids(emb, 5, seed=77)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            emb = EmbeddingSet(
                ids=[f"p{i}" for i in range(30)],
                vectors=rng.standard_normal((30, 5)).astype(np.float32),
            )
            result = kmedoids(emb, int(rng.integers(2, 8)), seed=trial)
            history = result.objective_history
            assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))

    def test_clusters_partition_items(self):
        rng = np.random.default_rng(17)
        emb = EmbeddingSet(
            ids=[f"p{i}" for i in range(25)],
            vectors=rng.standard_normal((25, 4)).astype(np.float32),
        )
        clusters = kmedoids(emb, 4, seed=5).clusters
        assert sorted(m for c in clusters for m in c) == list(range(25))
        assert all(c for c in clusters)

    def test_seeding_matches_recomputing_the_nearest_medoid(self):
        def reference_seeds(emb, k, seed):
            """The spread-out seeding, with each item's nearest medoid found again from all chosen ones."""
            unit = emb.vectors.astype(np.float64)
            unit /= np.linalg.norm(unit, axis=1)[:, None]

            def column(m):  # the library's distances to medoid m, one column at a time
                return np.concatenate([block[:, 0] for _, block in evaluation._distance_blocks(unit, [m])])

            rng = np.random.default_rng(seed)
            medoids = [int(rng.integers(len(emb)))]
            columns = [column(medoids[0])]
            while len(medoids) < k:
                d2 = np.min(columns, axis=0) ** 2
                nxt = int(rng.choice(len(emb), p=d2 / d2.sum())) if d2.sum() > 0.0 else None
                if nxt is None or nxt in medoids:
                    nxt = min(set(range(len(emb))) - set(medoids))
                medoids.append(nxt)
                columns.append(column(nxt))
            return sorted(medoids)

        rng = np.random.default_rng(18)
        vectors = rng.standard_normal((60, 5)).astype(np.float32)
        vectors[30:] = vectors[:30]  # duplicates: items at distance 0 from a medoid
        emb = EmbeddingSet(ids=[f"p{i}" for i in range(60)], vectors=vectors)
        for k, seed in [(2, 1), (7, 2), (29, 3), (45, 4), (60, 5)]:
            assert kmedoids(emb, k, seed=seed, max_iters=0).medoids == reference_seeds(emb, k, seed)

    def test_k_validation(self):
        emb, _ = planted_groups([4])
        with pytest.raises(ValueError, match="k must be"):
            kmedoids(emb, 0, seed=1)
        with pytest.raises(ValueError, match="k must be"):
            kmedoids(emb, 5, seed=1)

    def test_negative_max_iters_rejected(self):
        emb, _ = planted_groups([4])
        with pytest.raises(ValueError, match="max_iters must be at least 0, got -1"):
            kmedoids(emb, 2, seed=1, max_iters=-1)

    def test_every_item_its_own_medoid_costs_exactly_nothing(self):
        # rounding leaves some items at 1.1e-16 from themselves; the own distance is 0
        rng = np.random.default_rng(19)
        emb = EmbeddingSet(ids=[f"p{i}" for i in range(40)], vectors=rng.standard_normal((40, 5)).astype(np.float32))
        unit = emb.vectors.astype(np.float64)
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        assert (1.0 - np.clip(np.einsum("ij,ij->i", unit, unit), -1.0, 1.0)).any()
        for budget in (1, 7, evaluation.BLOCK_ENTRIES):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluation, "BLOCK_ENTRIES", budget)
                assert kmedoids(emb, 40, seed=2).objective_history == [0.0]

    def test_a_tie_in_distance_sums_goes_to_the_first_member(self):
        # two items form one cluster; their distance sums tie, whatever rounding
        # leaves on each item's product with itself
        rng = np.random.default_rng(20)
        for _ in range(40):
            vectors = rng.standard_normal((2, 6)).astype(np.float32)
            emb = EmbeddingSet(ids=["a", "b"], vectors=vectors)
            for budget in (1, 2, evaluation.BLOCK_ENTRIES):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(evaluation, "BLOCK_ENTRIES", budget)
                    for seed in range(4):
                        assert kmedoids(emb, 1, seed=seed).medoids == [0]


def random_kmedoids_cases(count=60, seed=21):
    """Random inputs without duplicate vectors: n 20 to 300, d 3 to 8, k 1 to n.

    Every third case has k = n, on at most 60 items: at a budget of one
    entry, seeding then takes n blocks for each of n medoids.
    """
    rng = np.random.default_rng(seed)
    for case in range(count):
        n, d = int(rng.integers(20, 61 if case % 3 == 1 else 301)), int(rng.integers(3, 9))
        k = [1, n, int(rng.integers(1, n + 1))][case % 3]
        vectors = rng.standard_normal((n, d)).astype(np.float32)
        assert len(np.unique(vectors, axis=0)) == n
        yield EmbeddingSet(ids=[f"p{i}" for i in range(n)], vectors=vectors), k, case


class TestKMedoidsBlocks:
    """The blocked distances give the full-matrix k-medoids, whatever the block budget."""

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_blocked_equals_the_full_matrix(self, budget, monkeypatch):
        monkeypatch.setattr(evaluation, "BLOCK_ENTRIES", budget)
        for emb, k, seed in random_kmedoids_cases():
            clusters, medoids, history = reference_kmedoids(emb, k, seed)
            result = kmedoids(emb, k, seed)
            assert result.medoids == medoids, (len(emb), k, seed)
            assert result.clusters == clusters, (len(emb), k, seed)
            assert len(result.objective_history) == len(history)
            np.testing.assert_allclose(result.objective_history, history, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("budget", [1, 7, 64, evaluation.BLOCK_ENTRIES])
    def test_an_item_as_near_to_two_medoids_joins_the_first(self, budget, monkeypatch):
        monkeypatch.setattr(evaluation, "BLOCK_ENTRIES", budget)
        rng = np.random.default_rng(23)
        unit = rng.standard_normal((30, 5))
        unit[7] = unit[3]  # two medoids at one point: every item ties between them
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        medoids = [3, 7, 12]
        assign, near = evaluation._assign(unit, medoids)
        assert (assign == 0).sum() > 5
        assert assign[7] == 1 and 1 not in np.delete(assign, 7)
        assert near[medoids].tolist() == [0.0, 0.0, 0.0]

    def test_blocks_cover_every_row_within_the_budget(self, monkeypatch):
        monkeypatch.setattr(evaluation, "BLOCK_ENTRIES", 64)
        unit = np.random.default_rng(22).standard_normal((150, 4))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        for cols, among in [([3], False), ([0, 5, 149], False), (list(range(0, 150, 2)), False), (np.arange(40), True)]:
            rows = np.asarray(cols) if among else np.arange(150)
            expected = 1.0 - np.clip(unit[rows] @ unit[cols].T, -1.0, 1.0)
            stop = 0
            for start, block in evaluation._distance_blocks(unit, cols, among):
                assert start == stop and block.size <= max(64, len(cols))
                own = rows[start : start + len(block), None] == np.asarray(cols)[None, :]
                assert (block[own] == 0.0).all()
                np.testing.assert_allclose(block[~own], expected[start : start + len(block)][~own], rtol=0, atol=1e-15)
                stop += len(block)
            assert stop == len(rows)
