"""Command-line pipeline: graph export, clustering, evaluation, baseline.

Every run that involves randomness flows from one --seed; omitting it
generates a seed that is printed and written to the run manifest, so no
silent unreproducible run can occur. Exit codes: 0 success, 1 user or
input error (an input too large for memory included), 2 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .community import RESTARTS, SMALL_GRAPH_NODES, _available_cpus
from .embedding_io import EMBEDDING_FORMATS, FormatError, _utf8_error, load_embeddings, load_labels, open_utf8, rewrite_utf8
from .evaluation import DEFAULT_THRESHOLDS, format_report_table, kmedoids, purity_report, report_to_json_dict
from .hierarchy import _check_cluster_parameters, dumps_tree, leaf_clusters_from_document, vec2gc_cluster
from .simgraph import _check_theta, build_graph, write_edges_tsv


@dataclass(kw_only=True)
class RunConfig:
    """Everything a clustering run depends on; the manifest serializes it.

    The defaults are cluster's. Its parser leaves every option None, so
    beside --from-manifest a given one can be told from one left out.
    """

    input: str
    format: str = "jsonl"
    labels: str | None = None
    theta: float
    mod_threshold: float = 0.3
    max_size: int = 500
    min_community_size: int = 2
    seed: int
    restarts: int = RESTARTS
    output: str = "tree.json"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _resolve_seed(seed: int | None) -> tuple[int, bool]:
    if seed is not None:
        return int(seed), False
    generated = int.from_bytes(os.urandom(8), "little")
    return generated, True


def _environment() -> dict:
    """The numpy and BLAS build and the CPU count, kept for diagnosis.

    Since 0.4.0 no output bit depends on them: build_graph's weights come
    from a fixed-order recompute without BLAS. A rerun from the manifest
    does not read this; it records the run.
    """
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its configuration
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpus": _available_cpus(),
    }


def _write_json(path, document) -> None:
    with rewrite_utf8(path) as fh:
        fh.write(json.dumps(document, indent=2) + "\n")


# What a manifest parameter of each RunConfig annotation must be; a bool is
# not a number here, although JSON's true is an int to Python.
_PARAMETER_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in (int, float)),
}


def _read_json(path):
    with open_utf8(path) as fh:
        text = fh.read()
    if bad := _utf8_error(text):
        raise FormatError(path, 1 + bad[0], bad[1])
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: invalid JSON: nested too deeply") from None


def _load_manifest(path: str) -> tuple[RunConfig, bool, str]:
    """The run configuration a manifest of this version records, whether its seed was generated, and its input checksum."""
    manifest = _read_json(path)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("parameters"), dict):
        raise ValueError(f"{path}: a manifest is a JSON object whose 'parameters' field is an object")
    if (version := manifest.get("version")) != __version__:
        written = f"vec2gc {version}" if isinstance(version, str) else "a vec2gc version it does not record"
        raise ValueError(
            f"{path} was written by {written}, this is vec2gc {__version__}:"
            " run the version that wrote it, or give its parameters as options"
        )
    params = dict(manifest["parameters"])
    values = {}
    for field in fields(RunConfig):
        if field.name not in params:
            raise ValueError(f"{path}: parameters lack the field '{field.name}'")
        value = params.pop(field.name)
        kind, accepts = _PARAMETER_TYPES[field.type]
        if not accepts(value):
            raise ValueError(f"{path}: parameter '{field.name}' must be {kind}, got {json.dumps(value)}")
        if value == "" and field.name in ("input", "labels", "output"):
            raise ValueError(f"{path}: parameter '{field.name}' is empty; give a file path")
        values[field.name] = float(value) if field.type == "float" else value
    if params:
        raise ValueError(f"{path}: unknown parameter '{sorted(params)[0]}'")
    if values["format"] not in EMBEDDING_FORMATS:
        raise ValueError(
            f"{path}: parameter 'format' must be one of {', '.join(sorted(EMBEDDING_FORMATS))}, got {values['format']!r}"
        )
    # a rerun keeps the record of whether the run it repeats drew its seed
    if type(seed_generated := manifest.get("seed_generated", False)) is not bool:
        raise ValueError(f"{path}: field 'seed_generated' must be true or false, got {json.dumps(seed_generated)}")
    checksum = manifest.get("input_sha256")
    if not (isinstance(checksum, str) and len(checksum) == 64 and set(checksum) <= set("0123456789abcdef")):
        raise ValueError(f"{path}: field 'input_sha256' must be 64 lowercase hex digits, got {json.dumps(checksum)}")
    return RunConfig(**values), seed_generated, checksum


def _check_outputs(outputs: dict, inputs: dict) -> None:
    """Refuse an output path that cannot be written or names a data input or an earlier output; keys are the option names.

    An output cannot be written if it names a directory or its directory
    does not exist. Two paths name the same file if they resolve to one path
    or, when both exist, are links to one inode. A device such as
    /dev/null may take every output. A path that is None was not given; an
    empty one, input or output, is refused. This runs before any input is
    read, so a refused command changes no file.
    """
    for option, path in [*inputs.items(), *outputs.items()]:
        if path == "":
            raise ValueError(f"{option} is empty; give a file path")
    named = [(option, os.path.realpath(path)) for option, path in inputs.items() if path is not None]
    for option, path in outputs.items():
        if path is None:
            continue
        real = os.path.realpath(path)
        if os.path.isdir(path) or path.endswith(os.sep):
            raise ValueError(f"{option} names a directory, {path}")
        if not os.path.isdir(os.path.dirname(real)):
            raise ValueError(f"{option} names a file in a directory that does not exist, {path}")
        if os.path.exists(path) and not os.path.isfile(path):
            continue
        for other, seen in named:
            if real == seen or os.path.exists(real) and os.path.exists(seen) and os.path.samefile(real, seen):
                raise ValueError(f"{option} and {other} name the same file, {path}")
        named.append((option, real))


def cmd_graph(args) -> int:
    _check_theta(args.theta)  # before the input is read
    _check_outputs({"--output": args.output}, {"--input": args.input})
    emb = load_embeddings(args.input, args.format)
    g = build_graph(emb, args.theta)
    write_edges_tsv(g, emb.ids, args.output)
    print(f"wrote {g.edge_count} edges over {g.n} nodes to {args.output}")
    return 0


def cmd_cluster(args) -> int:
    _check_outputs({}, {"--from-manifest": args.from_manifest})  # "" is refused, not taken as left out
    if args.from_manifest is not None:
        for field in fields(RunConfig):
            if field.name != "output" and getattr(args, field.name) is not None:
                option = "--" + field.name.replace("_", "-")
                raise ValueError(f"{option} cannot be given with --from-manifest, which records it")
        config, seed_generated, recorded = _load_manifest(args.from_manifest)
        if args.output is not None:
            config.output = args.output
    else:
        if args.input is None or args.theta is None:
            raise ValueError("cluster requires --input and --theta (or --from-manifest)")
        seed, seed_generated = _resolve_seed(args.seed)
        # the option dests are the field names; an option left out takes the field's default
        given = {field.name: getattr(args, field.name) for field in fields(RunConfig)}
        config = RunConfig(**{name: v for name, v in given.items() if v is not None} | {"seed": seed})
        recorded = None

    try:  # before the input is read
        _check_theta(config.theta)
        _check_cluster_parameters(config.mod_threshold, config.max_size, config.min_community_size, config.restarts)
    except ValueError as exc:
        raise ValueError(f"{args.from_manifest}: parameter {exc}" if args.from_manifest is not None else str(exc)) from None
    if args.from_manifest is not None:  # --manifest may rewrite the manifest it reruns; the tree may not
        _check_outputs({"--output": config.output}, {"--from-manifest": args.from_manifest})
    manifest_path = args.manifest
    if manifest_path is None and Path(config.output).name:  # an output without a file name is refused below
        manifest_path = str(Path(config.output).with_suffix(".manifest.json"))
    _check_outputs(
        {"--output": config.output, "--manifest": manifest_path}, {"--input": config.input, "--labels": config.labels}
    )
    input_sha256 = _sha256(config.input)
    labels_sha256 = None if config.labels is None else _sha256(config.labels)
    if recorded and input_sha256 != recorded:
        raise ValueError(f"input file {config.input} does not match the manifest checksum")
    print(f"seed: {config.seed}" + (" (generated)" if seed_generated and args.from_manifest is None else ""))
    emb = load_embeddings(config.input, config.format)
    g = build_graph(emb, config.theta)
    tree, bucket = vec2gc_cluster(
        g,
        config.mod_threshold,
        config.max_size,
        config.seed,
        min_community_size=config.min_community_size,
        restarts=config.restarts,
    )
    text = dumps_tree(
        tree,
        bucket,
        emb.ids,
        theta=config.theta,
        mod_threshold=config.mod_threshold,
        max_size=config.max_size,
        seed=config.seed,
    )
    with rewrite_utf8(config.output) as fh:
        fh.write(text)

    manifest = {
        "tool": "vec2gc",
        "version": __version__,
        "command": "cluster",
        "parameters": asdict(config),
        "input_sha256": input_sha256,
        "labels_sha256": labels_sha256,
        "seed_generated": seed_generated,
        "environment": _environment(),
    }
    _write_json(manifest_path, manifest)
    leaves = sum(1 for node in tree.nodes if node.is_leaf)
    print(
        f"wrote {config.output} ({leaves} leaf clusters,"
        f" {len(bucket.members)} non-community items); manifest: {manifest_path}"
    )
    return 0


def _parse_thresholds(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"unparseable purity thresholds {text!r}") from None
    if not values:
        raise ValueError("no purity thresholds given")
    for t in values:
        if not (0.0 < t <= 1.0):
            raise ValueError(f"purity threshold out of (0, 1]: got {t!r}")
    return values


def _report(scored: str, clusters, labels, thresholds, noise_size: int, output) -> int:
    """Score clusters against labels, naming the scored files in an error; warn, write output if given, print the table."""
    try:  # an empty clustering, or one with no labeled member, is valid but has nothing to score
        report = purity_report(clusters, labels, thresholds=thresholds, noise_size=noise_size)
    except ValueError as exc:
        raise ValueError(f"{scored}: {exc}") from None
    if report.unlabeled_members or report.clusters_without_labels:
        lack = f"{report.unlabeled_members} members lack labels ({report.clusters_without_labels} clusters skipped entirely)"
        print(f"warning: {lack}; evaluated the rest", file=sys.stderr)
    if output:
        _write_json(output, report_to_json_dict(report))
    print(format_report_table(report))
    return 0


def cmd_evaluate(args) -> int:
    thresholds = _parse_thresholds(args.purity_thresholds)
    _check_outputs({"--output": args.output}, {"--tree": args.tree, "--labels": args.labels})
    doc = _read_json(args.tree)
    labels = load_labels(args.labels, has_header=args.labels_header)
    try:
        clusters, noise = leaf_clusters_from_document(doc)
    except ValueError as exc:
        raise ValueError(f"{args.tree}: {exc}") from None
    return _report(f"{args.tree} against {args.labels}", clusters, labels, thresholds, len(noise), args.output)


def cmd_baseline_kmedoids(args) -> int:
    if args.k < 1:  # settings first, before the input is read; k above the item count is found after
        raise ValueError(f"k must be at least 1, got {args.k}")
    if args.max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, got {args.max_iters}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"seed must be at least 0, got {args.seed}")
    thresholds = _parse_thresholds(args.purity_thresholds)
    _check_outputs({"--output": args.output}, {"--input": args.input, "--labels": args.labels})
    emb = load_embeddings(args.input, args.format)
    if args.labels is not None:
        labels = load_labels(args.labels, has_header=args.labels_header)
    elif emb.labels:
        labels = emb.labels
    else:
        raise ValueError("baseline evaluation needs labels (--labels or jsonl label fields)")
    seed, generated = _resolve_seed(args.seed)
    print(f"seed: {seed}" + (" (generated)" if generated else ""))
    clusters = kmedoids(emb, args.k, seed, max_iters=args.max_iters).clusters
    id_clusters = [[emb.ids[i] for i in members] for members in clusters]
    scored = args.input if args.labels is None else f"{args.input} against {args.labels}"
    return _report(scored, id_clusters, labels, thresholds, 0, args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vec2gc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vec2gc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_args(p, default=RunConfig.format):
        p.add_argument("--input", help="embedding file")
        p.add_argument("--format", choices=sorted(EMBEDDING_FORMATS), default=default, help="embedding file format")

    def add_report_args(p):
        p.add_argument("--labels-header", action="store_true", help="skip the first line of the label file")
        p.add_argument("--purity-thresholds", default=",".join(map(str, DEFAULT_THRESHOLDS)), help="comma-separated thresholds in (0, 1]")
        p.add_argument("--output", help="optional report JSON path")

    graph = sub.add_parser("graph", help="export the thresholded similarity graph as TSV edges")
    add_input_args(graph)
    graph.add_argument("--theta", type=float, required=True, help="cosine similarity threshold in [0, 1)")
    graph.add_argument("--output", required=True, help="edge TSV path")
    graph.set_defaults(func=cmd_graph)

    cluster = sub.add_parser("cluster", help="build the similarity graph and cluster it recursively")
    add_input_args(cluster, None)
    cluster.add_argument("--labels", help="optional id<TAB>label file recorded in the manifest")
    cluster.add_argument(
        "--theta", type=float,
        help="cosine similarity threshold in [0, 1); no default, 0.7 is a reasonable start for unit-normalized document embeddings",
    )
    cluster.add_argument("--mod-threshold", type=float, help="stop splitting below this modularity")
    cluster.add_argument("--max-size", type=int, help="communities above this size are split again")
    cluster.add_argument("--min-community-size", type=int, help="smaller communities become non-community items")
    cluster.add_argument("--seed", type=int, help="random seed; generated and printed when omitted")
    cluster.add_argument(
        "--restarts", type=int, metavar="N",
        help=f"seeded optimizer runs per split of more than {SMALL_GRAPH_NODES} items, 2N at or below (default {RESTARTS}); the best wins",
    )
    cluster.add_argument("--output", help="tree JSON path (default tree.json)")
    cluster.add_argument("--manifest", help="manifest path (default: output with .manifest.json suffix)")
    cluster.add_argument("--from-manifest", help="rerun byte-for-byte the configuration of a manifest written by this version")
    cluster.set_defaults(func=cmd_cluster)

    evaluate = sub.add_parser("evaluate", help="purity report for a tree JSON against gold labels")
    evaluate.add_argument("--tree", required=True, help="tree JSON produced by the cluster command")
    evaluate.add_argument("--labels", required=True, help="id<TAB>label file")
    add_report_args(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    baseline = sub.add_parser("baseline", help="reference clustering methods")
    baseline_sub = baseline.add_subparsers(dest="method", required=True)
    kmed = baseline_sub.add_parser("kmedoids", help="k-medoids on cosine distance with spread-out seeding")
    add_input_args(kmed)
    kmed.add_argument("--labels", help="id<TAB>label file (optional for jsonl with inline labels)")
    add_report_args(kmed)
    kmed.add_argument("--k", type=int, required=True, help="number of clusters")
    kmed.add_argument("--seed", type=int, help="random seed; generated and printed when omitted")
    kmed.add_argument("--max-iters", type=int, default=100, help="medoid update iterations")
    kmed.set_defaults(func=cmd_baseline_kmedoids)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 here means an internal error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input too large for this machine, not a bug
        command = " ".join(filter(None, (args.command, getattr(args, "method", None))))
        print(f"error: {command} ran out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a broken invariant, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
