"""vec2gc benchmark: seeded corpora through the real CLI, checked and timed.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload topics-dense --seed 1 --seconds 20 --trace 0

--trace 0 runs every command (`cluster`, `graph`, `evaluate`,
`baseline kmedoids`) in its own fresh interpreter, one at a time, and
reports the end-to-end metrics: medians over the repetitions that fit in
--seconds (at least two), times scaled to a reference machine speed
(see PROBE_REFERENCE_S). --trace 1 runs the same commands in-process
with spans around vec2gc's inter-module calls and reports per-layer
metrics. Every output is checked: graph exports against an independent
float64 edge oracle, trees for an exact partition of the input ids and
byte-identical repetition, purity reports against labels recounted here.
The last stdout line is one JSON object {correct, attempted, failed,
metrics}. Generated corpora and the reference edge set are cached under
.perfbench-work/ in the checkout, keyed by workload and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import corpora
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench-work"
GENERATOR_VERSION = 1  # bump when a generator changes, so caches are not reused
CACHE_ENTRIES = 8
MIN_REPS = 2
MAX_REPS = 60
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 160.0  # no repetition starts after this, so the run ends inside 180 s
WEIGHT_RTOL = 1e-12
# End-to-end times are reported in seconds of a reference machine on which
# child.probe() takes this long. The run's median probe time measures how
# fast the machine ran during the run; on a shared machine that drifts by
# tens of percent over minutes, and the scaling removes the drift.
PROBE_REFERENCE_S = 0.04
MOD_THRESHOLD = "0.3"
# command, output file; evaluate reads the cluster output of the same repetition
COMMANDS = (("cluster", "tree.json"), ("graph", "edges.tsv"), ("evaluate", "report.json"), ("baseline", "baseline.json"))


class Run:
    """Files and bookkeeping of one benchmark invocation."""

    def __init__(self, root: str, prep: corpora.Prepared, seed: int, rundir: str):
        self.root, self.prep, self.seed, self.rundir = root, prep, seed, rundir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tree_hashes: set[str] = set()
        self.started = time.perf_counter()
        self.spawner: Spawner | None = None
        self.samples: dict[str, list[float]] = {}  # every measured value, for results.json

    def path(self, name: str) -> str:
        return os.path.relpath(os.path.join(self.rundir, name), self.root)

    def record(self, op: str, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{op}: {why}")
        return ok

    def argv(self, command: str, out: str) -> list[str]:
        w, p = self.prep.workload, self.prep
        if command == "cluster":
            argv = [
                "cluster", "--input", p.input, "--format", w.format, "--theta", str(w.theta),
                "--mod-threshold", MOD_THRESHOLD, "--max-size", str(w.max_size),
                "--seed", str(self.seed), "--output", out,
            ]
            return argv + (["--labels", p.labels] if w.labels_file else [])
        if command == "graph":
            return ["graph", "--input", p.input, "--format", w.format, "--theta", str(w.theta), "--output", out]
        if command == "evaluate":
            return ["evaluate", "--tree", self.path("tree.json"), "--labels", p.labels, "--output", out]
        if command == "baseline":
            fmt = w.format if w.baseline else "word2vec"
            return [
                "baseline", "kmedoids", "--input", p.baseline_input, "--format", fmt, "--labels", p.labels,
                "--k", str(self.baseline_k()), "--seed", str(self.seed), "--output", out,
            ]
        raise ValueError(command)

    def baseline_k(self) -> int:
        return self.prep.corpus.topics if self.prep.workload.baseline else corpora.BASELINE_GROUPS


# ---------------------------------------------------------------- checks


def check_tree(run: Run, path: str):
    """Leaves plus bucket partition the input ids; returns (why, doc, sha256)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
        nodes = doc["nodes"]
        placed = [m for node in nodes if not node["children"] for m in node["members"]]
        placed += doc["non_community"]["members"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable tree: {exc!r}", None, digest
    if len(placed) != len(set(placed)):
        return "an id is placed twice", doc, digest
    if set(placed) != set(run.prep.corpus.ids):
        return "leaves and bucket do not cover the input ids exactly", doc, digest
    roots = [node for node in nodes if node["parent"] is None]
    if len(roots) != 1 or roots[0]["split_modularity"] is None:
        return "tree has no split root", doc, digest
    return "", doc, digest


def check_graph(run: Run, path: str) -> str:
    """The exported edges equal the reference edge set."""
    index = {item: i for i, item in enumerate(run.prep.corpus.ids)}
    src, dst, weight = [], [], []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                a, b, w = line.rstrip("\n").split("\t")
                src.append(index[a])
                dst.append(index[b])
                weight.append(float(w))
    except (ValueError, KeyError) as exc:
        return f"unreadable edge line: {exc!r}"
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    order = np.lexsort((hi, lo))
    lo, hi, weight = lo[order], hi[order], np.asarray(weight)[order]
    p = run.prep
    if lo.size != p.ref_src.size:
        return f"{lo.size} edges exported, reference has {p.ref_src.size}"
    if not (np.array_equal(lo, p.ref_src) and np.array_equal(hi, p.ref_dst)):
        return "edge pairs differ from the reference"
    # the export prints 12 significant digits: allow half a unit in the
    # 12th digit for that rounding, plus WEIGHT_RTOL for the arithmetic
    printed = 0.5 * 10.0 ** (np.floor(np.log10(p.ref_weight)) - 11)
    bad = np.abs(weight - p.ref_weight) > printed + WEIGHT_RTOL * p.ref_weight
    if bad.any():
        return f"{int(bad.sum())} weights differ from the reference beyond print rounding plus {WEIGHT_RTOL} relative"
    return ""


def purity90(clusters: list[list[str]], labels: dict[str, str]) -> float:
    passing = 0
    for members in clusters:
        counts: dict[str, int] = {}
        for m in members:
            counts[labels[m]] = counts.get(labels[m], 0) + 1
        passing += max(counts.values()) / len(members) >= 0.9
    return passing / len(clusters)


def check_evaluate(run: Run, path: str, doc) -> tuple[str, float]:
    """Reported purity90 equals a recount from the tree and gold labels."""
    try:
        with open(path, encoding="utf-8") as fh:
            reported = float(json.load(fh)["fractions"]["0.9"])
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return f"unreadable report: {exc!r}", 0.0
    labels = dict(zip(run.prep.corpus.ids, run.prep.corpus.labels))
    expected = purity90([node["members"] for node in doc["nodes"] if not node["children"]], labels)
    if abs(reported - expected) > 1e-12:
        return f"purity90 {reported} reported, {expected} recounted", reported
    return "", reported


def check_baseline(run: Run, path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        sizes = sum(row["size"] for row in report["per_cluster"])
        count = report["n_clusters"]
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return f"unreadable baseline report: {exc!r}"
    items = len(run.prep.baseline_ids)
    if sizes != items or not (1 <= count <= run.baseline_k()):
        return f"{count} clusters over {sizes} items; expected at most {run.baseline_k()} over {items}"
    return ""


# ------------------------------------------------------------ untraced run


class Spawner:
    """Handle on spawner.py, which forks and reaps the CLI children."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str], cwd: str, log: str, timeout: float) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "cwd": cwd, "log": log, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_child(run: Run, tag: str, argv: list[str]) -> dict:
    """One CLI command in a fresh interpreter, alone on the machine."""
    result_path = os.path.join(run.rundir, f"{tag}.result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), run.root, result_path, *argv]
    timeout = min(CHILD_TIMEOUT_S, RUN_BUDGET_S + 15 - (time.perf_counter() - run.started))
    out = run.spawner.run(cmd, run.root, os.path.join(run.rundir, f"{tag}.log"), max(timeout, 1.0))
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            out.update(json.load(fh))
    return out


def run_op(run: Run, command: str, out: str, samples: dict, state: dict) -> None:
    """Run one command in a child, check its output and record its samples."""
    res = run_child(run, command, run.argv(command, run.path(out)))
    if "probe_s" in res:
        samples["probe_s"].append(res["probe_s"])
        samples["setup_s"].append(res["setup_s"])
        if command != "evaluate":
            samples[f"{command}_s"].append(res["wall_s"])
    if command != "evaluate":
        samples[f"{command}_peak_rss_mb"].append(res["rss_mb"])
    if res["code"] != 0:
        run.record(command, False, f"exit {res['code']}" + (" (timed out)" if res["timed_out"] else ""))
        return
    path = os.path.join(run.rundir, out)
    if command == "cluster":
        why, doc, digest = check_tree(run, path)
        run.tree_hashes.add(digest)
        if not why and len(run.tree_hashes) > 1:
            why = "tree bytes differ between repetitions"
        if not why:
            state["doc"] = doc
            samples["modularity"].append(float(next(
                node["split_modularity"] for node in doc["nodes"] if node["parent"] is None)))
    elif command == "graph":
        why = check_graph(run, path)
    elif command == "evaluate":
        why, value = check_evaluate(run, path, state["doc"])
        samples["purity90"].append(value)
    else:
        why = check_baseline(run, path)
    run.record(command, not why, why)


# Share of --seconds each command gets (child start to reap). Cheap
# commands repeat more often, so every median rests on seconds of
# measurement. evaluate has no timing metric and runs MIN_REPS times.
SHARES = {"cluster": 0.5, "graph": 0.35, "evaluate": 0.0, "baseline": 0.15}
UNITS = {
    "setup_s": "s", "cluster_s": "s", "graph_s": "s", "baseline_s": "s",
    "cluster_peak_rss_mb": "MiB", "graph_peak_rss_mb": "MiB", "baseline_peak_rss_mb": "MiB",
    "modularity": "1", "purity90": "1",
}


def untraced(run: Run, seconds: float) -> dict:
    """End-to-end metrics: medians over children run one at a time.

    Every command runs at least MIN_REPS times; then the command furthest
    below its share of --seconds runs next, while its last duration still
    fits in what is left of --seconds.
    """
    samples: dict[str, list[float]] = {name: [] for name in [*UNITS, "probe_s"]}
    run.samples = samples
    outputs = dict(COMMANDS)
    spent = {command: 0.0 for command in SHARES}
    count = {command: 0 for command in SHARES}
    last = {command: 0.0 for command in SHARES}
    state: dict = {"doc": None}
    begin = time.perf_counter()
    while True:
        if time.perf_counter() - run.started > RUN_BUDGET_S:
            if min(count.values()) < MIN_REPS:
                run.record("run", False, "time budget exhausted before the minimum repetitions")
            break
        left = seconds - (time.perf_counter() - begin)
        due = [c for c in SHARES if count[c] < MIN_REPS]
        if state["doc"] is None and "cluster" in due:
            due = ["cluster"]  # evaluate reads a checked tree
        if not due:
            due = [c for c in SHARES if spent[c] < SHARES[c] * seconds and last[c] <= left and count[c] < MAX_REPS]
        if not due:
            break
        command = min(due, key=lambda c: spent[c] / SHARES[c] if SHARES[c] else -1.0)
        if command == "evaluate" and state["doc"] is None:
            run.record("evaluate", False, "no checked tree to evaluate")
        else:
            t0 = time.perf_counter()
            run_op(run, command, outputs[command], samples, state)
            last[command] = time.perf_counter() - t0
            spent[command] += last[command]
        count[command] += 1
    # times in reference-machine seconds: this run's medians scaled by how
    # much slower than the reference the machine ran during the run
    speed = PROBE_REFERENCE_S / statistics.median(samples["probe_s"]) if samples["probe_s"] else 1.0
    print(f"machine speed vs reference: {speed:.4f}; unscaled medians: " + ", ".join(
        f"{name} {statistics.median(samples[name]):.6g}" for name, unit in UNITS.items() if unit == "s" and samples[name]))
    metrics = {}
    for name, unit in UNITS.items():
        values = samples[name]
        value = statistics.median(values) if values else 0.0
        metrics[name] = {"value": value * speed if unit == "s" else value, "unit": unit}
    metrics["success_rate"] = {"value": (run.attempted - run.failed) / max(run.attempted, 1), "unit": "1"}
    return metrics


# -------------------------------------------------------------- traced run


def traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics: medians over in-process traced repetitions."""
    src = os.path.abspath(os.path.join(run.root, "src"))
    sys.path.insert(0, src)
    import vec2gc.cli as cli
    import vec2gc.hierarchy as hierarchy

    if os.path.commonpath([os.path.abspath(cli.__file__), src]) != src:
        raise RuntimeError(f"vec2gc imported from {cli.__file__}, not from {src}")

    tracer = tracing.Tracer()
    tracing.install(tracer, cli, hierarchy)
    per_rep: list[dict] = []
    begin = time.perf_counter()
    reps = 0
    try:
        while reps < 1 or (time.perf_counter() - begin < seconds and reps < MAX_REPS):
            if time.perf_counter() - run.started > RUN_BUDGET_S - 30:
                break
            reps += 1
            plain = run_child(run, "cluster-untraced", run.argv("cluster", run.path("tree-untraced.json")))
            if not run.record("cluster-untraced", plain["code"] == 0, f"exit {plain['code']}"):
                continue
            tracer.run = f"rep{reps}"
            mains, doc = {}, None
            for command, out in COMMANDS:
                with tracer.span("cli.main", command=command) as s, contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(run.argv(command, run.path(out)))
                mains[command] = s
                why = f"exit {code}" if code != 0 else ""
                if not why and command == "cluster":
                    why, doc, digest = check_tree(run, os.path.join(run.rundir, out))
                    _, _, plain_digest = check_tree(run, os.path.join(run.rundir, "tree-untraced.json"))
                    run.tree_hashes.update({digest, plain_digest})
                    if not why and len(run.tree_hashes) > 1:
                        why = "traced and untraced tree bytes differ"
                elif not why and command == "graph":
                    why = check_graph(run, os.path.join(run.rundir, out))
                elif not why and command == "evaluate":
                    why = check_evaluate(run, os.path.join(run.rundir, out), doc)[0] if doc else "no tree to evaluate"
                elif not why:
                    why = check_baseline(run, os.path.join(run.rundir, out))
                run.record(command, not why, why)
            per_rep.append(layer_metrics(run, tracer, mains, plain["wall_s"], doc))
    finally:
        tracer.restore()
        tracer.dump(os.path.join(run.rundir, "spans.jsonl"))
    if tracer.missing:
        print("trace targets absent: " + ", ".join(tracer.missing))
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [rep[name] for rep in per_rep if name in rep]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


PER_LAYER_UNITS = {
    "embedding_io.load_s": "s", "embedding_io.mb_per_s": "MB/s", "embedding_io.labels_s": "s",
    "simgraph.build_s": "s", "simgraph.pairs_per_s": "1/s", "simgraph.edges": "count",
    "simgraph.isolated": "count", "simgraph.write_s": "s", "simgraph.edges_written_per_s": "1/s",
    "simgraph.induced_calls": "count", "simgraph.induced_s": "s",
    "community.louvain_calls": "count", "community.louvain_s": "s", "community.root_louvain_s": "s",
    "community.sub_louvain_s": "s", "community.edges_per_s": "1/s", "community.root_communities": "count",
    "community.root_modularity": "1",
    "hierarchy.cluster_s": "s", "hierarchy.self_s": "s", "hierarchy.tree_nodes": "count",
    "hierarchy.leaves": "count", "hierarchy.depth": "count", "hierarchy.bucket_items": "count",
    "hierarchy.dumps_s": "s", "hierarchy.tree_kb": "KiB",
    "evaluation.kmedoids_s": "s", "evaluation.purity_s": "s",
    "cli.cluster_self_s": "s", "cli.graph_self_s": "s", "trace.overhead_frac": "1",
}


def _under(tracer: tracing.Tracer, top: tracing.Span, name: str) -> list[tracing.Span]:
    """Descendant spans of `top` called `name`, in start order."""
    ids = {top.id}
    found = []
    for s in tracer.spans[top.id + 1:]:
        if s.parent in ids:
            ids.add(s.id)
            if s.name == name:
                found.append(s)
    return found


def layer_metrics(run: Run, tracer: tracing.Tracer, mains: dict, untraced_s: float, doc) -> dict:
    m: dict[str, float] = {}
    have = tracer.installed
    cluster, graph = mains["cluster"], mains["graph"]

    def total(top, name):
        return sum(s.duration for s in _under(tracer, top, name))

    if "embedding_io.load" in have:
        m["embedding_io.load_s"] = total(cluster, "embedding_io.load")
        m["embedding_io.mb_per_s"] = os.path.getsize(run.prep.input) / 1e6 / m["embedding_io.load_s"]
    if "embedding_io.labels" in have:
        m["embedding_io.labels_s"] = total(mains["evaluate"], "embedding_io.labels")
    builds = _under(tracer, cluster, "simgraph.build")
    if builds:
        b = builds[0]
        m["simgraph.build_s"] = b.duration
        n = len(run.prep.corpus.ids)
        m["simgraph.pairs_per_s"] = n * (n - 1) / 2 / b.duration
        if "edges" in b.attrs:
            m["simgraph.edges"] = b.attrs["edges"]
            m["simgraph.isolated"] = b.attrs["isolated"]
    writes = _under(tracer, graph, "simgraph.write")
    if writes:
        m["simgraph.write_s"] = writes[0].duration
        if "edges" in writes[0].attrs:
            m["simgraph.edges_written_per_s"] = writes[0].attrs["edges"] / writes[0].duration
    if "simgraph.induced" in have:
        induced = _under(tracer, cluster, "simgraph.induced")
        m["simgraph.induced_calls"] = len(induced)
        m["simgraph.induced_s"] = sum(s.duration for s in induced)
    if "community.louvain" in have:
        calls = _under(tracer, cluster, "community.louvain")
        m["community.louvain_calls"] = len(calls)
        m["community.louvain_s"] = sum(s.duration for s in calls)
        if calls:
            m["community.root_louvain_s"] = calls[0].duration
            m["community.sub_louvain_s"] = m["community.louvain_s"] - calls[0].duration
            if all("edges" in s.attrs for s in calls):
                m["community.edges_per_s"] = sum(s.attrs["edges"] for s in calls) / m["community.louvain_s"]
                m["community.root_communities"] = calls[0].attrs["communities"]
                m["community.root_modularity"] = calls[0].attrs["modularity"]
    hier = _under(tracer, cluster, "hierarchy.cluster")
    if hier:
        m["hierarchy.cluster_s"] = hier[0].duration
        m["hierarchy.self_s"] = tracer.self_time(hier[0])
    if doc is not None:
        nodes = {node["id"]: node for node in doc["nodes"]}

        def depth(node):
            d = 0
            while node["parent"] is not None:
                node, d = nodes[node["parent"]], d + 1
            return d

        m["hierarchy.tree_nodes"] = len(nodes)
        m["hierarchy.leaves"] = sum(1 for node in nodes.values() if not node["children"])
        m["hierarchy.depth"] = max(depth(node) for node in nodes.values())
        m["hierarchy.bucket_items"] = len(doc["non_community"]["members"])
        m["hierarchy.tree_kb"] = os.path.getsize(os.path.join(run.rundir, "tree.json")) / 1024.0
    dumps = _under(tracer, cluster, "hierarchy.dumps")
    if dumps:
        m["hierarchy.dumps_s"] = dumps[0].duration
    if "evaluation.kmedoids" in have:
        m["evaluation.kmedoids_s"] = total(mains["baseline"], "evaluation.kmedoids")
    if "evaluation.purity" in have:
        m["evaluation.purity_s"] = total(mains["evaluate"], "evaluation.purity") + total(mains["baseline"], "evaluation.purity")
    m["cli.cluster_self_s"] = tracer.self_time(cluster)
    m["cli.graph_self_s"] = tracer.self_time(graph)
    m["trace.overhead_frac"] = (cluster.duration - untraced_s) / untraced_s
    return m


# ------------------------------------------------------------------- main


def prune_cache(cache_root: str, keep: str) -> None:
    entries = sorted(
        (os.path.join(cache_root, e) for e in os.listdir(cache_root)),
        key=os.path.getmtime, reverse=True,
    )
    for old in [e for e in entries if e != keep][CACHE_ENTRIES - 1:]:
        shutil.rmtree(old, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vec2gc", "cli.py")):
        print(f"no vec2gc sources under {os.path.join(root, 'src')}; run from the root of a checkout", file=sys.stderr)
        return 2
    w = corpora.WORKLOADS[args.workload]
    cache_root = os.path.join(root, WORK, "cache")
    cache = os.path.join(cache_root, f"{w.name}-seed{args.seed}-g{GENERATOR_VERSION}")
    prep = corpora.prepare(w, args.seed, cache)
    os.utime(cache)
    prune_cache(cache_root, cache)
    rundir = os.path.join(root, WORK, f"run-{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)

    run = Run(root, prep, args.seed, rundir)
    run.spawner = Spawner()
    try:
        metrics = (traced if args.trace else untraced)(run, args.seconds)
    finally:
        run.spawner.close()
    for problem in run.problems:
        print(f"FAILED {problem}")
    tree = sorted(run.tree_hashes)
    print(f"tree_sha256 {w.name} seed {args.seed}: {' '.join(tree) if tree else 'none'}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    with open(os.path.join(rundir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": w.name, "seed": args.seed, "tree_sha256": tree,
                   "problems": run.problems, "samples": run.samples}, fh, indent=2)
    for bulky in ("edges.tsv", "tree.json", "tree-untraced.json"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(rundir, bulky))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
