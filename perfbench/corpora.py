"""Seeded corpora for the vec2gc benchmark and an independent edge oracle.

Every corpus is a pure function of (workload, seed): the same seed gives
byte-identical files. Vector components are written with five decimals.
A component is generated as an integer m and stored as m / 1e5; IEEE
division and decimal parsing both round the exact rational m / 10^5 to
the nearest double, so the float64 value the program parses is known
here without parsing the file, and so are its float32 bits.

The reference edge set is computed by this module's own blocked float64
code (upper triangle only, a different blocking from the program's), so
a graph export can be checked pair by pair without trusting
`vec2gc.simgraph`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

SCALE = 1e5
GEOMETRY_SEED = 20210419
# Mirrors of the program's documented edge-weight contract (README):
# weight 1 / (1 - cs), capped at 1e9 within 1e-9 of similarity 1.
SIMILARITY_CAP = 1.0 - 1e-9
MAX_EDGE_WEIGHT = 1e9
# Pairs this close to theta may fall on either side under a different
# summation order; the generators keep them absent (see `borderline`).
THETA_MARGIN = 1e-12


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is in BENCHMARK.json and provenance.json."""

    name: str
    n: int
    d: int
    format: str  # CLI --format value
    theta: float
    max_size: int
    labels_file: bool  # labels passed to `cluster` as a separate file
    baseline: bool  # `baseline kmedoids` runs on the whole corpus, not a subset


WORKLOADS = {
    w.name: w
    for w in (
        Workload("topics-dense", 2000, 64, "jsonl", 0.6, 500, labels_file=False, baseline=True),
        Workload("nested-deep", 1200, 64, "csv", 0.7, 15, labels_file=True, baseline=True),
        Workload("dedup-wide", 10000, 64, "word2vec", 0.8, 500, labels_file=False, baseline=False),
    )
}

# `baseline kmedoids` builds dense n x n float64 matrices, so on
# dedup-wide it runs on a fixed subset of BASELINE_ITEMS items: the
# members of the first BASELINE_GROUPS near-duplicate groups, then
# singletons, in file order. Its size and k are the same for every seed.
BASELINE_ITEMS = 1000
BASELINE_GROUPS = 150


@dataclass
class Corpus:
    """Generated items: ids in file order, exact float32 vectors, gold labels."""

    ids: list[str]
    quantized: np.ndarray  # int64 components m, written as m / 1e5
    vectors: np.ndarray  # float32, the values the program parses
    labels: list[str]
    topics: int  # planted topic count, the k given to the baseline


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _quantize(raw: np.ndarray) -> np.ndarray:
    return np.rint(raw * SCALE).astype(np.int64)


def _sizes(total: int, parts: int) -> list[int]:
    # fixed, near-equal sizes: corpora for different seeds differ in
    # geometry only, never in how many items a topic holds
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _rngs(seed: int, tag: int):
    # The planted geometry (topic centers) is fixed per workload; the seed
    # draws the items around it and their file order. Runs on different
    # seeds then measure samples of one workload, not different workloads.
    return np.random.default_rng([GEOMETRY_SEED, tag]), np.random.default_rng([seed, tag])


def _finish(rng, prefix: str, q: np.ndarray, labels: list[str], topics: int) -> Corpus:
    order = rng.permutation(len(labels))
    q = q[order]
    labels = [labels[i] for i in order]
    ids = [f"{prefix}{i:05d}" for i in range(len(labels))]
    vectors = (q / SCALE).astype(np.float32)
    return Corpus(ids=ids, quantized=q, vectors=vectors, labels=labels, topics=topics)


def gen_topics_dense(seed: int) -> Corpus:
    # 8 meta-centers, 5 topics each: two pairs of near-twin topics, which
    # Louvain merges, and one lone topic. Topic offsets are orthonormal, so
    # every center cosine is fixed by construction: lone and non-twin
    # pairs sit at 1 / (1 + a^2), twins higher. Merged twins fail the 90%
    # purity bar and lone topics pass it, so purity90 sits near 1/3 and
    # moves when the optimizer merges or splits differently.
    w = WORKLOADS["topics-dense"]
    geo, rng = _rngs(seed, 1)
    metas, per_meta = 8, 5
    basis = np.linalg.qr(geo.standard_normal((w.d, w.d)))[0].T
    a, t = 0.9, 0.5
    centers = []
    for m in range(metas):
        dims = basis[metas + per_meta * m: metas + per_meta * (m + 1)]
        offsets = [
            dims[0] + t * dims[1], dims[0] - t * dims[1],
            dims[2] + t * dims[3], dims[2] - t * dims[3],
            dims[4],
        ]
        centers += [_unit(basis[m] + a * _unit(u)) for u in offsets]
    outliers = w.n // 20
    rows, labels = [], []
    for k, size in enumerate(_sizes(w.n - outliers, len(centers))):
        rows.append(centers[k] + 0.62 * rng.standard_normal((size, w.d)) / np.sqrt(w.d))
        labels += [f"topic{k:02d}"] * size
    rows.append(rng.standard_normal((outliers, w.d)))
    labels += [f"outlier{i:03d}" for i in range(outliers)]
    return _finish(rng, "t", _quantize(_unit(np.vstack(rows))), labels, len(centers))


def gen_nested_deep(seed: int) -> Corpus:
    w = WORKLOADS["nested-deep"]
    geo, rng = _rngs(seed, 2)
    supers, subs = 6, 8
    sup = _unit(geo.standard_normal((supers, w.d)))
    rows, labels = [], []
    sizes = _sizes(w.n, supers * subs)
    for s in range(supers):
        for j in range(subs):
            center = _unit(sup[s] + 0.45 * _unit(geo.standard_normal(w.d)))
            size = sizes[s * subs + j]
            rows.append(center + 0.68 * rng.standard_normal((size, w.d)) / np.sqrt(w.d))
            labels += [f"s{s}.{j}"] * size
    return _finish(rng, "n", _quantize(_unit(np.vstack(rows))), labels, supers * subs)


def gen_dedup_wide(seed: int) -> Corpus:
    w = WORKLOADS["dedup-wide"]
    geo, rng = _rngs(seed, 3)
    grouped = w.n * 15 // 100
    groups = grouped // 3
    rows, labels = [], []
    for g, size in enumerate(_sizes(grouped, groups)):
        base = _unit(geo.standard_normal(w.d))
        rows.append(base + 0.2 * rng.standard_normal((size, w.d)) / np.sqrt(w.d))
        labels += [f"dup{g:04d}"] * size
    singles = w.n - grouped
    rows.append(rng.standard_normal((singles, w.d)))
    labels += [f"single{i:05d}" for i in range(singles)]
    return _finish(rng, "w", _quantize(_unit(np.vstack(rows))), labels, groups)


GENERATORS = {
    "topics-dense": gen_topics_dense,
    "nested-deep": gen_nested_deep,
    "dedup-wide": gen_dedup_wide,
}


def _fmt_rows(q: np.ndarray) -> list[str]:
    # formatting the double nearest m / 1e5 to five decimals gives back m
    return [" ".join(f"{v / SCALE:.5f}" for v in row) for row in q.tolist()]


def _write_word2vec(path: str, ids: list[str], q: np.ndarray) -> None:
    rows = _fmt_rows(q)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(rows)} {q.shape[1]}\n")
        for item_id, row in zip(ids, rows):
            fh.write(item_id + " " + row + "\n")


def write_corpus(corpus: Corpus, w: Workload, path: str) -> None:
    """Write the embedding file in the workload's format."""
    if w.format == "word2vec":
        _write_word2vec(path, corpus.ids, corpus.quantized)
        return
    rows = _fmt_rows(corpus.quantized)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if w.format == "jsonl":
            for item_id, row, label in zip(corpus.ids, rows, corpus.labels):
                vec = "[" + row.replace(" ", ", ") + "]"
                fh.write(f'{{"id": {json.dumps(item_id)}, "vector": {vec}, "label": {json.dumps(label)}}}\n')
        elif w.format == "csv":
            for item_id, row in zip(corpus.ids, rows):
                fh.write(item_id + "," + row.replace(" ", ",") + "\n")
        else:
            raise ValueError(f"unknown format {w.format!r}")


def baseline_subset(corpus: Corpus) -> list[int]:
    """Indices, in file order, of the dedup-wide baseline input."""
    keep = {f"dup{g:04d}" for g in range(BASELINE_GROUPS)}
    grouped = [i for i, label in enumerate(corpus.labels) if label in keep]
    singles = [i for i, label in enumerate(corpus.labels) if label.startswith("single")]
    return sorted(grouped + singles[: BASELINE_ITEMS - len(grouped)])


def write_labels(ids: list[str], labels: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for item_id, label in zip(ids, labels):
            fh.write(f"{item_id}\t{label}\n")


def reference_edges(vectors: np.ndarray, theta: float, block: int = 512):
    """Exact edge set {cs >= theta} over float64 unit vectors, upper triangle.

    Returns (src, dst, weight, borderline): src < dst in lexicographic
    order, and the number of pairs within THETA_MARGIN of theta, which
    callers require to be zero so the pair set is unambiguous.
    """
    unit = vectors.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    n = unit.shape[0]
    src, dst, cs_all = [], [], []
    borderline = 0
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        sims = unit[i0:i1] @ unit[i0:].T
        np.clip(sims, -1.0, 1.0, out=sims)
        sims[np.tril_indices(i1 - i0, 0, n - i0)] = -2.0  # keep column > row only
        borderline += int(np.count_nonzero(np.abs(sims - theta) <= THETA_MARGIN))
        r, c = np.nonzero(sims >= theta)
        src.append(r + i0)
        dst.append(c + i0)
        cs_all.append(sims[r, c])
    src = np.concatenate(src)
    dst = np.concatenate(dst)
    cs = np.concatenate(cs_all)
    weight = np.where(cs >= SIMILARITY_CAP, MAX_EDGE_WEIGHT, 1.0 / np.maximum(1.0 - cs, 1e-9))
    return src, dst, weight, borderline


@dataclass
class Prepared:
    """Files of one (workload, seed) under a cache directory."""

    workload: Workload
    corpus: Corpus
    input: str
    labels: str
    ref_src: np.ndarray
    ref_dst: np.ndarray
    ref_weight: np.ndarray
    baseline_input: str  # the corpus itself, or the dedup-wide subset
    baseline_ids: list[str]


def prepare(w: Workload, seed: int, cache_dir: str) -> Prepared:
    """Generate (or reuse) the corpus files and the reference edge set."""
    os.makedirs(cache_dir, exist_ok=True)
    corpus = GENERATORS[w.name](seed)
    ext = {"jsonl": "jsonl", "csv": "csv", "word2vec": "txt"}[w.format]
    input_path = os.path.join(cache_dir, f"corpus.{ext}")
    labels_path = os.path.join(cache_dir, "labels.tsv")
    ref_path = os.path.join(cache_dir, "reference.npz")
    done = os.path.join(cache_dir, "complete")
    if w.baseline:
        baseline_input, baseline_ids = input_path, corpus.ids
    else:
        subset = baseline_subset(corpus)
        baseline_input = os.path.join(cache_dir, "baseline-subset.txt")
        baseline_ids = [corpus.ids[i] for i in subset]
    if not os.path.exists(done):
        write_corpus(corpus, w, input_path)
        write_labels(corpus.ids, corpus.labels, labels_path)
        if not w.baseline:
            _write_word2vec(baseline_input, baseline_ids, corpus.quantized[subset])
        src, dst, weight, borderline = reference_edges(corpus.vectors, w.theta)
        if borderline:
            raise RuntimeError(f"{w.name} seed {seed}: {borderline} pairs within {THETA_MARGIN} of theta")
        np.savez(ref_path, src=src, dst=dst, weight=weight)
        with open(done, "w") as fh:
            fh.write("ok\n")
    with np.load(ref_path) as ref:
        src, dst, weight = ref["src"], ref["dst"], ref["weight"]
    return Prepared(w, corpus, input_path, labels_path, src, dst, weight, baseline_input, baseline_ids)
