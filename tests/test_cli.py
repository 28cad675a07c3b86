import collections
import inspect
import json
import os
import signal
import stat
import subprocess
import sys
from dataclasses import MISSING, fields

import numpy as np
import pytest

from oracles import planted_groups, write_jsonl
from vec2gc import EmbeddingSet, __version__, build_graph, cli, community, vec2gc_cluster
from vec2gc.evaluation import DEFAULT_THRESHOLDS
from vec2gc.cli import main


@pytest.fixture
def planted_files(tmp_path):
    emb, labels = planted_groups([10, 10, 10], intra_cs=0.95)
    emb_path = tmp_path / "emb.jsonl"
    write_jsonl(emb, emb_path)
    labels_path = tmp_path / "labels.tsv"
    labels_path.write_text("".join(f"{k}\t{v}\n" for k, v in labels.items()), encoding="utf-8")
    return emb, str(emb_path), str(labels_path)


def run_cluster(tmp_path, emb_path, extra=()):
    out = tmp_path / "tree.json"
    code = main(
        [
            "cluster",
            "--input", emb_path,
            "--format", "jsonl",
            "--theta", "0.5",
            "--seed", "420",
            "--output", str(out),
            *extra,
        ]
    )
    return code, out


# Every RunConfig field but output is refused beside --from-manifest, at its
# default value where it has one; a field without one takes a value of its type.
RECORDED_OPTIONS = [
    (
        "--" + f.name.replace("_", "-"),
        str(f.default) if f.default not in (MISSING, None) else {"float": "0.6", "int": "5"}.get(f.type, "emb.jsonl"),
    )
    for f in fields(cli.RunConfig)
    if f.name != "output"
]


class TestClusterCommand:
    def test_writes_tree_and_manifest(self, tmp_path, planted_files, capsys):
        emb, emb_path, _ = planted_files
        code, out = run_cluster(tmp_path, emb_path)
        assert code == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "tree.manifest.json").read_text())
        assert manifest["parameters"]["theta"] == 0.5
        assert manifest["parameters"]["seed"] == 420
        assert manifest["parameters"]["restarts"] == community.RESTARTS
        assert manifest["version"] == __version__
        assert manifest["seed_generated"] is False
        assert len(manifest["input_sha256"]) == 64
        assert "seed: 420" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        members = sorted(m for n in doc["nodes"] if not n["children"] for m in n["members"])
        assert members == sorted(emb.ids)

    def test_same_config_twice_is_byte_identical(self, tmp_path, planted_files):
        _, emb_path, _ = planted_files
        _, out1 = run_cluster(tmp_path, emb_path)
        first = out1.read_bytes()
        _, out2 = run_cluster(tmp_path, emb_path)
        assert out2.read_bytes() == first

    def test_bad_theta_names_valid_range(self, tmp_path, planted_files, capsys):
        _, emb_path, _ = planted_files
        code = main(
            ["cluster", "--input", emb_path, "--format", "jsonl", "--theta", "1.2", "--seed", "1"]
        )
        assert code == 1
        assert "[0, 1)" in capsys.readouterr().err

    def test_missing_required_arguments(self, tmp_path, capsys):
        code = main(["cluster", "--format", "jsonl"])
        assert code == 1
        assert "requires --input and --theta" in capsys.readouterr().err

    def test_generated_seed_is_printed_and_recorded(self, tmp_path, planted_files, capsys):
        _, emb_path, _ = planted_files
        out = tmp_path / "gen.json"
        code = main(
            ["cluster", "--input", emb_path, "--format", "jsonl", "--theta", "0.5", "--output", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "(generated)" in printed
        manifest = json.loads((tmp_path / "gen.manifest.json").read_text())
        assert manifest["seed_generated"] is True
        assert f"seed: {manifest['parameters']['seed']}" in printed

    def test_a_rerun_keeps_the_record_of_a_generated_seed(self, tmp_path, planted_files, capsys):
        _, emb_path, _ = planted_files
        out, manifest = tmp_path / "gen.json", tmp_path / "gen.manifest.json"
        assert main(["cluster", "--input", emb_path, "--format", "jsonl", "--theta", "0.5", "--output", str(out)]) == 0
        first = out.read_bytes()
        seed = json.loads(manifest.read_text())["parameters"]["seed"]
        capsys.readouterr()
        # the README's rerun: it rewrites the manifest it read
        assert main(["cluster", "--from-manifest", str(manifest)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"seed: {seed}"  # drawn by the first run, not this one
        assert out.read_bytes() == first
        assert json.loads(manifest.read_text())["seed_generated"] is True

    def test_a_manifest_without_the_seed_record_reruns_as_not_generated(self, tmp_path, planted_files):
        _, emb_path, _ = planted_files
        run_cluster(tmp_path, emb_path)
        manifest = tmp_path / "tree.manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["seed_generated"]
        manifest.write_text(json.dumps(doc))
        assert main(["cluster", "--from-manifest", str(manifest)]) == 0
        assert json.loads(manifest.read_text())["seed_generated"] is False

    def test_rerun_from_manifest_reproduces_bytes(self, tmp_path, planted_files):
        _, emb_path, _ = planted_files
        _, out = run_cluster(tmp_path, emb_path)
        original = out.read_bytes()
        rerun_out = tmp_path / "rerun.json"
        code = main(
            ["cluster", "--from-manifest", str(tmp_path / "tree.manifest.json"), "--output", str(rerun_out)]
        )
        assert code == 0
        assert rerun_out.read_bytes() == original

    def test_manifest_checksum_mismatch_rejected(self, tmp_path, planted_files, capsys):
        _, emb_path, _ = planted_files
        _, out = run_cluster(tmp_path, emb_path)
        with open(emb_path, "a", encoding="utf-8") as fh:
            fh.write('{"id": "extra", "vector": [1.0]}\n')
        code = main(["cluster", "--from-manifest", str(tmp_path / "tree.manifest.json")])
        assert code == 1
        assert "checksum" in capsys.readouterr().err

    def test_a_missing_labels_file_writes_no_tree(self, tmp_path, planted_files, capsys):
        # the labels are hashed with the input, before anything is read or written
        _, emb_path, _ = planted_files
        code, out = run_cluster(tmp_path, emb_path, ["--labels", str(tmp_path / "nope.tsv")])
        assert code == 1
        assert "nope.tsv" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "tree.manifest.json").exists()

    def test_a_rerun_hashes_each_input_once(self, tmp_path, planted_files, monkeypatch):
        _, emb_path, labels_path = planted_files
        run_cluster(tmp_path, emb_path, ["--labels", labels_path])
        calls = collections.Counter()
        real = cli._sha256

        def counting(path):
            calls[str(path)] += 1
            return real(path)

        monkeypatch.setattr(cli, "_sha256", counting)
        rerun = ["cluster", "--from-manifest", str(tmp_path / "tree.manifest.json"), "--output", str(tmp_path / "rerun.json")]
        assert main(rerun) == 0
        assert calls == {emb_path: 1, labels_path: 1}

    def test_optimizer_defaults_are_louvain_configs(self):
        # the parser leaves the option unset; cmd_cluster applies the default
        assert cli.build_parser().parse_args(["cluster"]).restarts is None
        assert cli.RunConfig.restarts == community.RESTARTS

    def test_omitted_options_take_their_defaults(self, tmp_path, planted_files, monkeypatch):
        _, emb_path, _ = planted_files
        monkeypatch.chdir(tmp_path)
        assert main(["cluster", "--input", emb_path, "--theta", "0.5", "--seed", "1"]) == 0
        parameters = json.loads((tmp_path / "tree.manifest.json").read_text())["parameters"]
        defaults = {f.name: f.default for f in fields(cli.RunConfig) if f.default is not MISSING}
        assert {name: parameters[name] for name in defaults} == defaults == {
            "format": "jsonl", "labels": None, "mod_threshold": 0.3, "max_size": 500, "min_community_size": 2,
            "restarts": community.RESTARTS, "output": "tree.json",
        }

    def test_every_optimizer_setting_is_a_run_parameter(self):
        # so the manifest records every setting of the graph and the tree
        settings = [*inspect.signature(build_graph).parameters][1:] + [*inspect.signature(vec2gc_cluster).parameters][1:]
        assert set(settings) <= {f.name for f in fields(cli.RunConfig)}

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--restarts", "0", "restarts must be at least 1, got 0"),
            ("--restarts", "-2", "restarts must be at least 1, got -2"),
        ],
    )
    def test_out_of_range_optimizer_settings_exit_1(self, tmp_path, capsys, option, value, message):
        # checked before the input is read: the input file does not exist
        out = tmp_path / "tree.json"
        argv = ["cluster", "--input", str(tmp_path / "nope.jsonl"), "--theta", "0.5", "--seed", "1"]
        assert main(argv + ["--output", str(out), option, value]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--theta", "2", "theta out of [0, 1): got 2.0"),
            ("--theta", "-0.1", "theta out of [0, 1): got -0.1"),
            ("--mod-threshold", "1.5", "mod_threshold out of [0, 1): got 1.5"),
            ("--mod-threshold", "-0.5", "mod_threshold out of [0, 1): got -0.5"),
            ("--max-size", "0", "max_size must be at least 1, got 0"),
            ("--min-community-size", "0", "min_community_size must be at least 1, got 0"),
        ],
    )
    def test_out_of_range_cluster_settings_exit_1(self, tmp_path, capsys, option, value, message):
        # checked before the input is read: the input file does not exist
        out = tmp_path / "tree.json"
        argv = ["cluster", "--input", str(tmp_path / "nope.jsonl"), "--theta", "0.5", "--seed", "1"]
        assert main(argv + ["--output", str(out), option, value]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_the_environment(self, tmp_path, planted_files):
        _, emb_path, _ = planted_files
        run_cluster(tmp_path, emb_path)
        environment = json.loads((tmp_path / "tree.manifest.json").read_text())["environment"]
        assert environment["numpy"] == np.__version__
        assert set(environment["blas"]) == {"name", "version"}
        assert environment["cpus"] == community._available_cpus() >= 1

    def test_manifest_without_environment_reruns_to_the_same_bytes(self, tmp_path, planted_files):
        _, emb_path, _ = planted_files
        _, out = run_cluster(tmp_path, emb_path)
        manifest = tmp_path / "tree.manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["environment"]
        manifest.write_text(json.dumps(doc))
        rerun = tmp_path / "rerun.json"
        assert main(["cluster", "--from-manifest", str(manifest), "--output", str(rerun)]) == 0
        assert rerun.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("version", ["0.3.1", "0.4.0", "0.4.2", None, 3])
    def test_a_manifest_of_another_version_is_refused(self, tmp_path, planted_files, capsys, version):
        # another version can write other bytes for the same parameters
        _, emb_path, _ = planted_files
        run_cluster(tmp_path, emb_path)
        manifest = tmp_path / "tree.manifest.json"
        doc = json.loads(manifest.read_text())
        if version is None:
            del doc["version"]
        else:
            doc["version"] = version
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        rerun = tmp_path / "rerun.json"
        assert main(["cluster", "--from-manifest", str(manifest), "--output", str(rerun)]) == 1
        printed = capsys.readouterr()
        written = f"vec2gc {version}" if isinstance(version, str) else "a vec2gc version it does not record"
        assert printed.err == (
            f"error: {manifest} was written by {written}, this is vec2gc {__version__}:"
            " run the version that wrote it, or give its parameters as options\n"
        )
        assert printed.out == ""
        assert not rerun.exists() and not (tmp_path / "rerun.manifest.json").exists()

    def test_a_leading_byte_order_mark_in_a_manifest_is_ignored(self, tmp_path, planted_files):
        _, emb_path, _ = planted_files
        _, out = run_cluster(tmp_path, emb_path)
        manifest = tmp_path / "tree.manifest.json"
        manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        rerun = tmp_path / "rerun.json"
        assert main(["cluster", "--from-manifest", str(manifest), "--output", str(rerun)]) == 0
        assert rerun.read_bytes() == out.read_bytes()

    def test_a_manifest_of_this_version_reruns_silently(self, tmp_path, planted_files, capsys):
        _, emb_path, _ = planted_files
        _, out = run_cluster(tmp_path, emb_path)
        capsys.readouterr()
        rerun = tmp_path / "rerun.json"
        assert main(["cluster", "--from-manifest", str(tmp_path / "tree.manifest.json"), "--output", str(rerun)]) == 0
        assert capsys.readouterr().err == ""
        assert rerun.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("option, value", [*RECORDED_OPTIONS, ("--format", "csv"), ("--max-size", "3")])
    def test_a_recorded_option_beside_from_manifest_is_refused(self, tmp_path, planted_files, capsys, monkeypatch, option, value):
        # the rerun would use the recorded value; refused before the manifest is read
        _, emb_path, _ = planted_files
        run_cluster(tmp_path, emb_path)
        capsys.readouterr()
        monkeypatch.setattr(cli, "_read_json", None)
        out = tmp_path / "rerun.json"
        argv = ["cluster", "--from-manifest", str(tmp_path / "tree.manifest.json"), "--output", str(out), option, value]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {option} cannot be given with --from-manifest, which records it\n"
        assert not out.exists() and not (tmp_path / "rerun.manifest.json").exists()

    def test_of_two_recorded_options_the_first_field_is_named(self, tmp_path, capsys):
        argv = ["cluster", "--from-manifest", str(tmp_path / "tree.manifest.json"), "--seed", "5", "--input", "emb.jsonl"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --input cannot be given with --from-manifest, which records it\n"

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(
            ["cluster", "--input", str(tmp_path / "nope.jsonl"), "--format", "jsonl", "--theta", "0.5"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestClusterWorkers:
    @pytest.fixture
    def noise_file(self, tmp_path):
        rng = np.random.default_rng(23)
        emb = EmbeddingSet(
            ids=[f"n{i}" for i in range(300)],
            vectors=rng.standard_normal((300, 6)).astype(np.float32),
        )
        path = tmp_path / "noise.jsonl"
        write_jsonl(emb, path)
        return str(path)

    def cluster_bytes(self, tmp_path, path, name):
        out = tmp_path / f"{name}.json"
        argv = ["cluster", "--input", path, "--format", "jsonl", "--theta", "0.6", "--max-size", "20"]
        assert main(argv + ["--seed", "8", "--output", str(out)]) == 0
        return out.read_bytes()

    def test_same_bytes_at_every_worker_count(self, tmp_path, noise_file, monkeypatch):
        monkeypatch.setattr(community, "POOL_MIN_WORK", float("inf"))
        expected = self.cluster_bytes(tmp_path, noise_file, "in-process")
        monkeypatch.setattr(community, "POOL_MIN_WORK", 0)
        for workers in (1, 2, 3):
            monkeypatch.setattr(community, "_available_cpus", lambda: workers)
            assert self.cluster_bytes(tmp_path, noise_file, f"workers{workers}") == expected

    def test_a_pooled_run_writes_nothing_after_main_returns(self, tmp_path, noise_file):
        # a caller that runs main in its own process, as a benchmark harness does, prints its
        # own result after it: nothing may follow from an exit hook, a finalizer or a worker
        src = os.path.dirname(os.path.dirname(community.__file__))
        code = """
import math, os, sys
sys.path.insert(0, sys.argv[1])
from vec2gc import cli, community, hierarchy
community.POOL_MIN_WORK = 0
community._available_cpus = lambda: 2
scores, pooled, forked = [], [], []
fork = community.RestartPool._fork
def forking(pool, graphs, *rest):
    forked.extend(graphs)
    return fork(pool, graphs, *rest)
community.RestartPool._fork = forking
louvain = hierarchy.louvain
def recorded(*args, **kwargs):
    part = louvain(*args, **kwargs)
    scores.append(part.modularity)
    pooled.append(any(g is args[0] for g in forked))
    return part
hierarchy.louvain = recorded
argv = ["cluster", "--input", sys.argv[2], "--format", "jsonl", "--theta", "0.6", "--max-size", "20"]
assert cli.main(argv + ["--seed", "8", "--output", sys.argv[3]]) == 0
assert len(scores) > 1 and all(pooled), pooled
assert all(type(q) is float and math.isfinite(q) for q in scores), scores
try:
    os.waitpid(-1, os.WNOHANG)
    raise AssertionError("a restart worker outlived the run")
except ChildProcessError:
    pass
print("end of caller output")
"""
        # a surviving child that holds the pipes open would run into the timeout
        run = subprocess.run(
            [sys.executable, "-c", code, src, noise_file, str(tmp_path / "tree.json")],
            capture_output=True, text=True, timeout=120,
        )
        assert run.stderr == ""
        assert run.returncode == 0
        lines = run.stdout.splitlines()
        assert lines[-1] == "end of caller output"
        # stdout is a pipe, so block-buffered: a worker that flushed the parent's buffer would repeat its lines
        assert [line.split()[0] for line in lines] == ["seed:", "wrote", "end"]

    def test_a_pooled_cluster_run_never_imports_numpy_ma(self, tmp_path, noise_file):
        # numpy 2's np.unique imports numpy.ma on its first call, which costs every run that reaches it
        src = os.path.dirname(os.path.dirname(community.__file__))
        code = """
import sys
sys.path.insert(0, sys.argv[1])
from vec2gc import cli, community, hierarchy
community.POOL_MIN_WORK = 0
community._available_cpus = lambda: 2
forks, induced = [], []
fork = community.RestartPool._fork
community.RestartPool._fork = lambda pool, *args: forks.append(args) or fork(pool, *args)
induced_subgraph = hierarchy.induced_subgraph
def recorded(g, nodes):
    induced.append((g.n, len(nodes)))
    return induced_subgraph(g, nodes)
hierarchy.induced_subgraph = recorded
argv = ["cluster", "--input", sys.argv[2], "--format", "jsonl", "--theta", "0.6", "--max-size", "20"]
assert cli.main(argv + ["--seed", "8", "--output", sys.argv[3]]) == 0
assert forks and len(induced) > 1, (forks, induced)
assert induced[0][0] == 300 > induced[0][1]  # the root drops isolated items
assert "numpy.ma" not in sys.modules
"""
        run = subprocess.run(
            [sys.executable, "-c", code, src, noise_file, str(tmp_path / "tree.json")],
            capture_output=True, text=True, timeout=120,
        )
        assert run.stderr == ""
        assert run.returncode == 0

    def test_ctrl_c_leaves_no_worker(self, tmp_path, noise_file):
        # Ctrl-C signals the whole process group: the workers ignore it and the parent kills them
        src = os.path.dirname(os.path.dirname(community.__file__))
        code = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
from vec2gc import cli, community
community.POOL_MIN_WORK = 0
community._available_cpus = lambda: 2
def stuck(*args):
    os.write(1, f"worker {os.getpid()}\\n".encode())  # unbuffered: the parent's buffer is not the worker's to flush
    time.sleep(120)
community._restart = stuck
argv = ["cluster", "--input", sys.argv[2], "--format", "jsonl", "--theta", "0.6", "--max-size", "20"]
cli.main(argv + ["--seed", "8", "--output", sys.argv[3]])
"""
        proc = subprocess.Popen(
            [sys.executable, "-c", code, src, noise_file, str(tmp_path / "tree.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            workers = []
            while len(workers) < 2:
                line = proc.stdout.readline()
                assert line, "the run ended before it forked two workers"
                if line.startswith("worker "):
                    workers.append(int(line.split()[1]))
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == -signal.SIGINT
        assert err.count("Traceback") == 1 and err.rstrip().endswith("KeyboardInterrupt")
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_threads_manifest_is_refused_by_version(self, tmp_path, noise_file, capsys):
        # 0.1.0 recorded the graph kernel's thread count and no restart count;
        # the version is compared before any parameter is read
        legacy = tmp_path / "legacy.manifest.json"
        legacy.write_text(json.dumps({
            "tool": "vec2gc",
            "version": "0.1.0",
            "command": "cluster",
            "parameters": {
                "input": noise_file, "format": "jsonl", "labels": None, "theta": 0.6,
                "mod_threshold": 0.3, "max_size": 20, "min_community_size": 2, "seed": 8,
                "gain_epsilon": 1e-9, "max_sweeps": 100, "threads": 2, "output": str(tmp_path / "old.json"),
            },
            "input_sha256": None,
            "labels_sha256": None,
            "seed_generated": False,
        }))
        rerun = tmp_path / "rerun.json"
        assert main(["cluster", "--from-manifest", str(legacy), "--output", str(rerun)]) == 1
        assert capsys.readouterr().err == (
            f"error: {legacy} was written by vec2gc 0.1.0, this is vec2gc {__version__}:"
            " run the version that wrote it, or give its parameters as options\n"
        )
        assert not rerun.exists()

    def test_manifest_without_restarts_is_refused(self, tmp_path, noise_file, capsys):
        # no default stands in for the restart count of a run this version wrote
        self.cluster_bytes(tmp_path, noise_file, "default")
        manifest = tmp_path / "default.manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["parameters"]["restarts"]
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        rerun = tmp_path / "rerun.json"
        assert main(["cluster", "--from-manifest", str(manifest), "--output", str(rerun)]) == 1
        assert capsys.readouterr().err == f"error: {manifest}: parameters lack the field 'restarts'\n"
        assert not rerun.exists()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["graph", "--input", "e.jsonl", "--output", "x.tsv"], "the following arguments are required: --theta"),
            (["cluster", "--input", "e.jsonl", "--theta", "0.5", "--max-size", "abc"], "invalid int value"),
            (["cluster", "--input", "e.jsonl", "--theta", "0.5", "--threads", "2"], "unrecognized arguments"),
            (["cluster", "--input", "e.jsonl", "--theta", "0.5", "--gain-epsilon", "0"], "unrecognized arguments"),
            (["cluster", "--input", "e.jsonl", "--theta", "0.5", "--max-sweeps", "5"], "unrecognized arguments"),
        ],
        ids=["missing-argument", "bad-int", "removed-threads", "removed-gain-epsilon", "removed-max-sweeps"],
    )
    def test_usage_errors_exit_1(self, capsys, argv, message):
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["cluster", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        assert main(argv) == 0

    def test_a_key_error_inside_a_command_is_internal(self, tmp_path, planted_files, monkeypatch, capsys):
        # inputs are validated before use, so a KeyError is a bug, not bad input
        def broken(*args, **kwargs):
            raise KeyError("members")

        monkeypatch.setattr(cli, "build_graph", broken)
        _, emb_path, _ = planted_files
        assert main(["graph", "--input", emb_path, "--theta", "0.5", "--output", str(tmp_path / "e.tsv")]) == 2
        assert "internal error: KeyError: 'members'" in capsys.readouterr().err


class TestOutOfMemory:
    """An input too large for the memory it may use exits 1 naming the command, not 2."""

    # the limit is set after the import, which takes about 110 MB of address space
    CHILD = (
        "import resource, sys; sys.path.insert(0, sys.argv[1]); import vec2gc.cli; "
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)); "
        "sys.exit(vec2gc.cli.main(sys.argv[2:]))"
    )

    @pytest.fixture(scope="class")
    def big_files(self, tmp_path_factory):
        # an n x n float64 matrix is 288 MB at 6,000 items, 648 MB at 9,000 and 3.2 GB at
        # 20,000; theta 0 keeps about 18 million edges at 6,000
        rng = np.random.default_rng(25)
        paths = {}
        for n in (6000, 9000, 20000):
            labels = {f"v{i}": f"L{i % 3}" for i in range(n)}
            emb = EmbeddingSet(ids=list(labels), vectors=rng.standard_normal((n, 8)).astype(np.float32), labels=labels)
            paths[n] = str(tmp_path_factory.mktemp("oom") / f"big{n}.jsonl")
            write_jsonl(emb, paths[n])
        return paths

    def run_limited(self, path, command, options):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        argv = [*command.split(), "--input", path, "--format", "jsonl", *options]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        return subprocess.run([sys.executable, "-c", self.CHILD, src, *argv], capture_output=True, text=True, env=env)

    @pytest.mark.parametrize(
        "command, options, items",
        [
            ("graph", ["--theta", "0", "--output", os.devnull], 6000),
            ("cluster", ["--theta", "0", "--seed", "1", "--output", os.devnull, "--manifest", os.devnull], 6000),
        ],
        ids=["graph", "cluster"],
    )
    def test_out_of_memory_exits_1_naming_the_command(self, big_files, command, options, items):
        run = self.run_limited(big_files[items], command, options)
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith(f"error: {command} ran out of memory")

    def test_kmedoids_on_6000_items_fits_the_limit(self, big_files):
        run = self.run_limited(big_files[6000], "baseline kmedoids", ["--k", "3", "--seed", "1"])
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("items", [9000, 20000])
    def test_kmedoids_memory_does_not_grow_with_n_squared(self, big_files, items):
        # k-medoids computes its distances in bounded blocks; one n x n matrix would not fit
        run = self.run_limited(big_files[items], "baseline kmedoids", ["--k", "3", "--seed", "1"])
        assert run.returncode == 0, run.stderr

    def test_kmedoids_out_of_memory_exits_1_naming_the_command(self, planted_files, monkeypatch, capsys):
        _, emb_path, labels_path = planted_files

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 763. MiB")

        monkeypatch.setattr(cli, "kmedoids", exhausted)
        argv = ["baseline", "kmedoids", "--input", emb_path, "--format", "jsonl", "--labels", labels_path]
        assert main([*argv, "--k", "3", "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: baseline kmedoids ran out of memory: Unable to allocate 763. MiB\n"


class TestManifestValidation:
    @pytest.fixture
    def manifest(self, tmp_path, planted_files):
        _, emb_path, _ = planted_files
        assert run_cluster(tmp_path, emb_path)[0] == 0
        return tmp_path / "tree.manifest.json"

    def rerun_error(self, manifest, capsys) -> str:
        capsys.readouterr()
        assert main(["cluster", "--from-manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert str(manifest) in err
        return err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_size", None, "parameter 'max_size' must be an integer, got null"),
            ("seed", True, "parameter 'seed' must be an integer, got true"),
            ("theta", "0.5", "parameter 'theta' must be a number"),
            ("labels", 3, "parameter 'labels' must be a string or null"),
            ("input", None, "parameter 'input' must be a string"),
            ("format", "xml", "parameter 'format' must be one of csv, jsonl, word2vec, got 'xml'"),
            ("colour", "red", "unknown parameter 'colour'"),
            # recorded by earlier versions, which this one refuses by version
            ("gain_epsilon", 1e-9, "unknown parameter 'gain_epsilon'"),
            ("max_sweeps", 100, "unknown parameter 'max_sweeps'"),
            ("threads", 2, "unknown parameter 'threads'"),
            ("restarts", 0, "parameter restarts must be at least 1, got 0"),
            ("restarts", "8", "parameter 'restarts' must be an integer, got \"8\""),
            ("theta", 2, "parameter theta out of [0, 1): got 2.0"),
            ("mod_threshold", 1.5, "parameter mod_threshold out of [0, 1): got 1.5"),
            ("max_size", 0, "parameter max_size must be at least 1, got 0"),
            ("min_community_size", 0, "parameter min_community_size must be at least 1, got 0"),
        ],
    )
    def test_bad_parameter_names_the_field(self, manifest, capsys, field, value, message):
        doc = json.loads(manifest.read_text())
        doc["parameters"][field] = value
        manifest.write_text(json.dumps(doc))
        assert message in self.rerun_error(manifest, capsys)

    @pytest.mark.parametrize("value", ["true", 1, None])
    def test_seed_generated_must_be_a_bool(self, manifest, capsys, value):
        doc = json.loads(manifest.read_text())
        doc["seed_generated"] = value
        manifest.write_text(json.dumps(doc))
        message = f"field 'seed_generated' must be true or false, got {json.dumps(value)}"
        assert message in self.rerun_error(manifest, capsys)

    @pytest.mark.parametrize(
        "value", [..., None, "", 5, "0" * 63, "F" * 64], ids=["missing", "null", "empty", "number", "63-digits", "uppercase"]
    )
    def test_input_checksum_must_be_a_sha256(self, manifest, capsys, value):
        # without one, a rerun could not tell a changed input
        doc = json.loads(manifest.read_text())
        if value is ...:
            del doc["input_sha256"]
        else:
            doc["input_sha256"] = value
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        rerun = manifest.parent / "rerun.json"
        assert main(["cluster", "--from-manifest", str(manifest), "--output", str(rerun)]) == 1
        got = "null" if value is ... else json.dumps(value)
        expected = f"error: {manifest}: field 'input_sha256' must be 64 lowercase hex digits, got {got}\n"
        assert capsys.readouterr().err == expected
        assert not rerun.exists()

    def test_missing_parameter_names_the_field(self, manifest, capsys):
        doc = json.loads(manifest.read_text())
        del doc["parameters"]["max_size"]
        manifest.write_text(json.dumps(doc))
        assert "parameters lack the field 'max_size'" in self.rerun_error(manifest, capsys)

    @pytest.mark.parametrize("doc", [[1, 2], {"tool": "vec2gc"}, {"parameters": [1]}], ids=["list", "no-parameters", "list-parameters"])
    def test_manifest_and_parameters_must_be_objects(self, manifest, capsys, doc):
        manifest.write_text(json.dumps(doc))
        assert "'parameters' field is an object" in self.rerun_error(manifest, capsys)

    def test_invalid_json_names_the_file(self, manifest, capsys):
        manifest.write_text('{"parameters": {,}}')
        assert "invalid JSON at line 1, column 17" in self.rerun_error(manifest, capsys)

    def test_integer_number_fields_rerun_as_floats(self, tmp_path, planted_files, manifest):
        _, emb_path, _ = planted_files
        direct = tmp_path / "direct.json"
        run_cluster(tmp_path, emb_path, ["--mod-threshold", "0", "--output", str(direct)])
        doc = json.loads(manifest.read_text())
        doc["parameters"]["mod_threshold"] = 0
        manifest.write_text(json.dumps(doc))
        rerun = tmp_path / "rerun.json"
        assert main(["cluster", "--from-manifest", str(manifest), "--output", str(rerun)]) == 0
        assert rerun.read_bytes() == direct.read_bytes()


class TestGraphCommand:
    def test_exports_tsv(self, tmp_path, planted_files):
        _, emb_path, _ = planted_files
        out = tmp_path / "edges.tsv"
        code = main(
            ["graph", "--input", emb_path, "--format", "jsonl", "--theta", "0.5", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        # 3 planted groups of 10: all intra pairs, no inter pairs
        assert len(lines) == 3 * 45
        for line in lines:
            src, dst, w = line.split("\t")
            assert float(w) > 0

    @pytest.mark.parametrize("theta, message", [("2", "theta out of [0, 1): got 2.0"), ("-0.1", "theta out of [0, 1): got -0.1")])
    def test_out_of_range_theta_is_refused_before_the_input_is_read(self, tmp_path, capsys, theta, message):
        # the input file does not exist
        out = tmp_path / "edges.tsv"
        assert main(["graph", "--input", str(tmp_path / "nope.jsonl"), "--theta", theta, "--output", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_id_with_a_tab_exits_1_without_writing(self, tmp_path, capsys):
        emb_path = tmp_path / "emb.jsonl"
        emb_path.write_text('{"id": "a\\tb", "vector": [1, 0]}\n{"id": "c", "vector": [1, 0.1]}\n', encoding="utf-8")
        out = tmp_path / "edges.tsv"
        assert main(["graph", "--input", str(emb_path), "--format", "jsonl", "--theta", "0.5", "--output", str(out)]) == 1
        assert "id 'a\\tb' has a tab or a line break" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluateCommand:
    def test_planted_tree_scores_perfectly(self, tmp_path, planted_files, capsys):
        _, emb_path, labels_path = planted_files
        _, out = run_cluster(tmp_path, emb_path)
        report_path = tmp_path / "report.json"
        code = main(
            ["evaluate", "--tree", str(out), "--labels", labels_path, "--output", str(report_path)]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "Fraction of clusters @ k% purity" in table
        report = json.loads(report_path.read_text())
        assert report["fractions"] == {"0.5": 1.0, "0.7": 1.0, "0.9": 1.0}

    def test_unknown_ids_warn_but_evaluate(self, tmp_path, planted_files, capsys):
        _, emb_path, labels_path = planted_files
        _, out = run_cluster(tmp_path, emb_path)
        trimmed = tmp_path / "some_labels.tsv"
        lines = open(labels_path).read().splitlines()[:-4]
        trimmed.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code = main(["evaluate", "--tree", str(out), "--labels", str(trimmed)])
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: 4 members lack labels" in captured.err

    def test_malformed_tree_reports_location(self, tmp_path, planted_files, capsys):
        _, _, labels_path = planted_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": [,]}', encoding="utf-8")
        code = main(["evaluate", "--tree", str(bad), "--labels", labels_path])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_a_leading_byte_order_mark_in_a_tree_is_ignored(self, tmp_path, planted_files, capsys):
        _, emb_path, labels_path = planted_files
        _, out = run_cluster(tmp_path, emb_path)
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
        capsys.readouterr()
        assert main(["evaluate", "--tree", str(out), "--labels", labels_path]) == 0
        plain = capsys.readouterr()
        assert main(["evaluate", "--tree", str(marked), "--labels", labels_path]) == 0
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("command", ["evaluate", "rerun"])
    def test_undecodable_json_names_file_and_line(self, tmp_path, planted_files, capsys, command):
        _, _, labels_path = planted_files
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"nodes": [' + b" " * 9000 + b'\n\n"\xff"]}')
        argv = ["evaluate", "--tree", str(bad), "--labels", labels_path]
        assert main(argv if command == "evaluate" else ["cluster", "--from-manifest", str(bad)]) == 1
        assert f"{bad}, line 3: not valid UTF-8: byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "rerun"])
    def test_deeply_nested_json_exits_1_naming_the_file(self, tmp_path, planted_files, capsys, command):
        _, _, labels_path = planted_files
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000, encoding="utf-8")
        argv = ["evaluate", "--tree", str(deep), "--labels", labels_path]
        assert main(argv if command == "evaluate" else ["cluster", "--from-manifest", str(deep)]) == 1
        assert f"{deep}: invalid JSON: nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "nodes, bucket, message",
        [
            (
                [
                    {"id": 0, "parent": None, "children": [1], "members": ["a"]},
                    {"id": 1, "parent": 0, "children": [0], "members": ["a"]},
                ],
                [],
                "tree node 0",
            ),
            ([{"id": 0, "parent": None, "children": [7], "members": ["a"]}], [], "tree node 0: child 7"),
            (
                [
                    {"id": 0, "parent": None, "children": [1], "members": ["a"]},
                    {"id": 1, "parent": 0, "children": [], "members": ["a"]},
                    {"id": 1, "parent": 0, "children": [], "members": ["a"]},
                ],
                [],
                "tree node 1: duplicate id",
            ),
            (
                [
                    {"id": 0, "parent": None, "children": [1, 2], "members": ["a", "b"]},
                    {"id": 1, "parent": 0, "children": [], "members": ["a"]},
                    {"id": 2, "parent": 1, "children": [], "members": ["b"]},
                ],
                [],
                "tree node 2",
            ),
            (
                [
                    {"id": 0, "parent": None, "children": [1, 2], "members": ["a", "b", "c"]},
                    {"id": 1, "parent": 0, "children": [], "members": ["a", "b"]},
                    {"id": 2, "parent": 0, "children": [], "members": ["a", "c"]},
                ],
                [],
                "tree node 2: member 'a' is also in tree node 1",
            ),
            (
                [
                    {"id": 0, "parent": None, "children": [1, 2], "members": ["a", "b", "c"]},
                    {"id": 1, "parent": 0, "children": [], "members": ["a", "b"]},
                    {"id": 2, "parent": 0, "children": [], "members": ["c"]},
                ],
                ["a"],
                "non_community: member 'a' is also in tree node 1",
            ),
            (
                [
                    {"id": 0, "parent": None, "children": [1, 1], "members": ["a"]},
                    {"id": 1, "parent": 0, "children": [], "members": ["a"]},
                ],
                [],
                "tree node 1: reached twice",
            ),
            (
                [
                    {"id": 0, "parent": None, "children": [], "members": ["a"]},
                    {"id": 1, "parent": 2, "children": [2], "members": ["b"]},
                    {"id": 2, "parent": 1, "children": [1], "members": ["b"]},
                ],
                [],
                "tree node 1: not reachable from the root",
            ),
            ([{"id": 0, "parent": None, "children": [], "members": ["a"]}, 7], [], 'entry 1 of "nodes" must be a JSON object'),
            (
                [{"id": 0, "parent": 0, "children": [], "members": ["a"]}],
                [],
                "tree document needs exactly one root node, found none",
            ),
            (
                [
                    {"id": 0, "parent": None, "children": [], "members": ["a"]},
                    {"id": 1, "parent": None, "children": [], "members": ["b"]},
                ],
                [],
                "tree document needs exactly one root node, found [0, 1]",
            ),
            *(
                (
                    [
                        {"id": root, "parent": None, "children": [2], "members": ["a"]},
                        {"id": 2, "parent": parent, "children": [], "members": ["a"]},
                    ],
                    [],
                    "tree node 2: parent must be an integer or null",
                )
                # each parent compares equal to the root's id
                for root, parent in ((1, True), (0, False), (1, 1.0))
            ),
        ],
        ids=[
            "cycle",
            "dangling-child",
            "duplicate-id",
            "parent-mismatch",
            "member-in-two-leaves",
            "leaf-member-in-bucket",
            "child-listed-twice",
            "cycle-beside-the-root",
            "node-not-an-object",
            "no-root",
            "two-roots",
            "parent-true",
            "parent-false",
            "parent-float",
        ],
    )
    def test_inconsistent_tree_fails_naming_the_node(self, tmp_path, planted_files, capsys, nodes, bucket, message):
        _, _, labels_path = planted_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nodes": nodes, "non_community": {"members": bucket}}), encoding="utf-8")
        code = main(["evaluate", "--tree", str(bad), "--labels", labels_path])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    def test_empty_labels_fail(self, tmp_path, planted_files, capsys):
        _, emb_path, _ = planted_files
        _, out = run_cluster(tmp_path, emb_path)
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        code = main(["evaluate", "--tree", str(out), "--labels", str(empty)])
        assert code == 1
        assert "no labels" in capsys.readouterr().err

    def test_bad_thresholds_rejected(self, tmp_path, planted_files, capsys):
        _, emb_path, labels_path = planted_files
        _, out = run_cluster(tmp_path, emb_path)
        code = main(
            ["evaluate", "--tree", str(out), "--labels", labels_path, "--purity-thresholds", "abc"]
        )
        assert code == 1
        assert "unparseable purity thresholds" in capsys.readouterr().err


class TestBaselineCommand:
    def test_kmedoids_scores_planted_data(self, tmp_path, planted_files, capsys):
        _, emb_path, labels_path = planted_files
        code = main(
            [
                "baseline", "kmedoids",
                "--input", emb_path,
                "--format", "jsonl",
                "--labels", labels_path,
                "--k", "3",
                "--seed", "11",
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "Fraction of clusters @ k% purity" in table

    def test_kmedoids_writes_the_printed_report(self, tmp_path, planted_files, capsys):
        _, emb_path, labels_path = planted_files
        out = tmp_path / "r.json"
        argv = ["baseline", "kmedoids", "--input", emb_path, "--format", "jsonl", "--labels", labels_path]
        assert main([*argv, "--k", "3", "--seed", "11", "--output", str(out)]) == 0
        seed, header, *rows, count = capsys.readouterr().out.splitlines()
        report = json.loads(out.read_text())
        assert report["n_clusters"] == 3 and count.startswith("N = 3 clusters")
        assert rows == [f"{round(float(t) * 100):>3d}%          {f:.2f}" for t, f in report["fractions"].items()]
        assert len(rows) == 3

    def test_inline_jsonl_labels_are_used(self, tmp_path, planted_files, capsys):
        _, emb_path, _ = planted_files
        code = main(
            ["baseline", "kmedoids", "--input", emb_path, "--format", "jsonl", "--k", "3", "--seed", "11"]
        )
        assert code == 0

    def test_k_larger_than_n_fails_cleanly(self, tmp_path, planted_files, capsys):
        _, emb_path, labels_path = planted_files
        code = main(
            [
                "baseline", "kmedoids",
                "--input", emb_path,
                "--format", "jsonl",
                "--labels", labels_path,
                "--k", "500",
                "--seed", "11",
            ]
        )
        assert code == 1
        assert "k must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--k", "0"], "error: k must be at least 1, got 0"),
            (["--k", "3", "--max-iters", "-3"], "error: max_iters must be at least 0, got -3"),
            (["--k", "3", "--purity-thresholds", "2"], "error: purity threshold out of (0, 1]: got 2.0"),
            (["--k", "3", "--purity-thresholds", "0.5,0"], "error: purity threshold out of (0, 1]: got 0.0"),
            (["--k", "3", "--seed", "-1"], "error: seed must be at least 0, got -1"),
        ],
        ids=["k-0", "max-iters-negative", "threshold-above-1", "threshold-0", "seed-negative"],
    )
    def test_settings_are_checked_before_the_input_is_read(self, tmp_path, options, message, capsys):
        missing = str(tmp_path / "missing.jsonl")
        assert main(["baseline", "kmedoids", "--input", missing, "--format", "jsonl", "--seed", "1", *options]) == 1
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""

    def test_csv_without_labels_is_refused(self, tmp_path, planted_files, capsys):
        emb, _, _ = planted_files
        csv = tmp_path / "emb.csv"
        csv.write_text("".join(",".join(map(str, [i, *v])) + "\n" for i, v in zip(emb.ids, emb.vectors.tolist())), encoding="utf-8")
        assert main(["baseline", "kmedoids", "--input", str(csv), "--format", "csv", "--k", "3", "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: baseline evaluation needs labels (--labels or jsonl label fields)\n"

    def test_zero_iterations_are_accepted(self, planted_files, capsys):
        _, emb_path, labels_path = planted_files
        argv = ["baseline", "kmedoids", "--input", emb_path, "--format", "jsonl", "--labels", labels_path]
        assert main([*argv, "--k", "3", "--seed", "11", "--max-iters", "0"]) == 0
        assert "Fraction of clusters @ k% purity" in capsys.readouterr().out

    def test_unlabeled_members_warn_as_in_evaluate(self, tmp_path, planted_files, capsys):
        _, emb_path, labels_path = planted_files
        some = tmp_path / "some_labels.tsv"
        some.write_text("".join(line + "\n" for line in open(labels_path).read().splitlines()[:4]), encoding="utf-8")
        argv = ["baseline", "kmedoids", "--input", emb_path, "--format", "jsonl", "--labels", str(some)]
        assert main([*argv, "--k", "3", "--seed", "11"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: 26 members lack labels (")
        assert captured.err.endswith(" clusters skipped entirely); evaluated the rest\n")
        assert "unlabeled members: 26," in captured.out

    def test_a_scoring_error_names_the_input_and_the_labels(self, tmp_path, planted_files, capsys):
        _, emb_path, _ = planted_files
        none = tmp_path / "none.tsv"
        none.write_text("unknown\tx\n", encoding="utf-8")
        argv = ["baseline", "kmedoids", "--input", emb_path, "--format", "jsonl", "--labels", str(none)]
        assert main([*argv, "--k", "3", "--seed", "11"]) == 1
        assert capsys.readouterr().err == f"error: {emb_path} against {none}: no cluster has labeled members\n"


class TestEvaluateSettings:
    @pytest.mark.parametrize("thresholds", ["2", "0", "0.5,1.5", "-0.1", "nan"])
    def test_thresholds_out_of_range_are_refused_before_the_tree_is_read(self, tmp_path, thresholds, capsys):
        missing = str(tmp_path / "missing.json")
        argv = ["evaluate", "--tree", missing, "--labels", missing, "--purity-thresholds", thresholds]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: purity threshold out of (0, 1]: got ")

    def test_an_empty_threshold_list_is_refused_before_the_tree_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["evaluate", "--tree", missing, "--labels", missing, "--purity-thresholds", ","]) == 1
        assert capsys.readouterr().err == "error: no purity thresholds given\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--tree", "t.json", "--labels", "l.tsv"],
            ["baseline", "kmedoids", "--input", "e.jsonl", "--k", "3"],
        ],
        ids=["evaluate", "baseline-kmedoids"],
    )
    def test_default_thresholds_are_the_library_default(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert cli._parse_thresholds(args.purity_thresholds) == list(DEFAULT_THRESHOLDS)


# Each command's output options.
OUTPUTS = {"graph": ["--output"], "cluster": ["--output", "--manifest"], "evaluate": ["--output"], "baseline": ["--output"]}
INPUTS = {"graph": ["--input"], "cluster": ["--input", "--labels"], "evaluate": ["--tree", "--labels"], "baseline": ["--input", "--labels"]}


def output_command_argv(emb_path, labels_path, tree_path):
    """argv(command, {output option: path}): the command run on these files, with those outputs."""
    commands = {
        "graph": ["graph", "--input", emb_path, "--theta", "0.5"],
        "cluster": ["cluster", "--input", emb_path, "--labels", labels_path, "--theta", "0.5", "--seed", "1"],
        "evaluate": ["evaluate", "--tree", tree_path, "--labels", labels_path],
        "baseline": ["baseline", "kmedoids", "--input", emb_path, "--labels", labels_path, "--k", "3", "--seed", "1"],
    }
    return lambda command, outputs: commands[command] + [arg for item in outputs.items() for arg in item]


class TestOutputPaths:
    """No command writes over a file it reads as data, or one of its outputs over the other."""

    @pytest.fixture
    def files(self, tmp_path, planted_files):
        _, emb_path, labels_path = planted_files
        tree = tmp_path / "tree.json"
        assert main(["cluster", "--input", emb_path, "--theta", "0.5", "--seed", "1", "--output", str(tree)]) == 0
        return {"--input": emb_path, "--labels": labels_path, "--tree": str(tree)}

    def refused(self, argv, capsys, files, out_option, in_option) -> None:
        before = {path: open(path, "rb").read() for path in files.values()}
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        path = argv[argv.index(out_option) + 1] if out_option in argv else files[in_option]
        assert captured.err == f"error: {out_option} and {in_option} name the same file, {path}\n"
        assert captured.out == ""  # refused before any input is read
        assert {path: open(path, "rb").read() for path in files.values()} == before

    @pytest.mark.parametrize(
        "out_option, in_option",
        [("--output", "--input"), ("--output", "--labels"), ("--manifest", "--input"), ("--manifest", "--labels")],
    )
    def test_cluster(self, tmp_path, files, capsys, out_option, in_option):
        argv = ["cluster", "--input", files["--input"], "--labels", files["--labels"], "--theta", "0.5", "--seed", "1"]
        others = {"--output": str(tmp_path / "new.json"), "--manifest": str(tmp_path / "new.manifest.json")}
        others[out_option] = files[in_option]
        self.refused(argv + [arg for option in others.items() for arg in option], capsys, files, out_option, in_option)

    def test_cluster_output_and_manifest(self, tmp_path, files, capsys):
        out = str(tmp_path / "t.json")
        argv = ["cluster", "--input", files["--input"], "--theta", "0.5", "--seed", "1", "--output", out, "--manifest", out]
        self.refused(argv, capsys, files, "--manifest", "--output")
        assert not os.path.exists(out)

    def test_cluster_default_manifest_path(self, tmp_path, files, capsys):
        # --output in.json would put its manifest at in.manifest.json, the input here
        data = tmp_path / "in.manifest.json"
        data.write_bytes(open(files["--input"], "rb").read())
        files = {**files, "--input": str(data)}
        argv = ["cluster", "--input", str(data), "--theta", "0.5", "--seed", "1", "--output", str(tmp_path / "in.json")]
        self.refused(argv, capsys, files, "--manifest", "--input")

    def test_cluster_rerun(self, tmp_path, files, capsys):
        manifest = str(tmp_path / "tree.manifest.json")
        self.refused(["cluster", "--from-manifest", manifest, "--output", files["--input"]], capsys, files, "--output", "--input")

    @pytest.mark.parametrize("link", [None, "symlink_to", "hardlink_to"])
    def test_a_rerun_tree_may_not_replace_its_manifest(self, tmp_path, files, capsys, link):
        manifest = tmp_path / "tree.manifest.json"
        output = manifest if link is None else tmp_path / "link.json"
        if link is not None:
            getattr(output, link)(manifest)
        files = {**files, "--from-manifest": str(manifest)}
        argv = ["cluster", "--from-manifest", str(manifest), "--output", str(output)]
        self.refused(argv, capsys, files, "--output", "--from-manifest")
        assert not os.path.exists(tmp_path / "tree.manifest.manifest.json")

    def test_a_symlink_is_the_file_it_names(self, tmp_path, files, capsys):
        link = tmp_path / "link.jsonl"
        link.symlink_to(files["--input"])
        argv = ["graph", "--input", files["--input"], "--theta", "0.5", "--output", str(link)]
        self.refused(argv, capsys, files, "--output", "--input")

    def test_graph(self, files, capsys):
        argv = ["graph", "--input", files["--input"], "--theta", "0.5", "--output", files["--input"]]
        self.refused(argv, capsys, files, "--output", "--input")

    @pytest.mark.parametrize("in_option", ["--tree", "--labels"])
    def test_evaluate(self, files, capsys, in_option):
        argv = ["evaluate", "--tree", files["--tree"], "--labels", files["--labels"], "--output", files[in_option]]
        self.refused(argv, capsys, files, "--output", in_option)

    @pytest.mark.parametrize("in_option", ["--input", "--labels"])
    def test_baseline_kmedoids(self, files, capsys, in_option):
        argv = ["baseline", "kmedoids", "--input", files["--input"], "--labels", files["--labels"], "--k", "3"]
        self.refused(argv + ["--seed", "1", "--output", files[in_option]], capsys, files, "--output", in_option)

    @pytest.mark.parametrize(
        "command, out_option, in_option",
        [
            ("cluster", "--output", "--input"),
            ("cluster", "--output", "--labels"),
            ("cluster", "--manifest", "--input"),
            ("cluster", "--manifest", "--labels"),
            ("graph", "--output", "--input"),
            ("evaluate", "--output", "--tree"),
            ("evaluate", "--output", "--labels"),
            ("baseline", "--output", "--input"),
            ("baseline", "--output", "--labels"),
        ],
    )
    def test_a_hard_link_is_the_file_it_names(self, tmp_path, files, capsys, command, out_option, in_option):
        link = tmp_path / "link"
        os.link(files[in_option], link)
        argv = output_command_argv(files["--input"], files["--labels"], files["--tree"])(
            command, {option: str(tmp_path / f"new{option}") for option in OUTPUTS[command]}
        )
        argv[argv.index(out_option) + 1] = str(link)
        self.refused(argv, capsys, files, out_option, in_option)

    @pytest.mark.parametrize("command", OUTPUTS)
    @pytest.mark.parametrize("unwritable", ["a directory", "a file in a directory that does not exist"])
    def test_an_unwritable_output_is_refused_before_any_input_is_read(self, tmp_path, capsys, command, unwritable):
        # every input is malformed, so a command that read one first would report it instead
        bad = tmp_path / "bad"
        bad.write_text("{not valid\n")
        argv = output_command_argv(str(bad), str(bad), str(bad))
        fresh = {option: str(tmp_path / f"new{option}") for option in OUTPUTS[command]}
        assert main(argv(command, fresh)) == 1
        assert not capsys.readouterr().err.startswith("error: --")
        for option in OUTPUTS[command]:
            path = str(tmp_path) if unwritable == "a directory" else str(tmp_path / "missing" / "out.json")
            assert main(argv(command, {**fresh, option: path})) == 1
            assert capsys.readouterr() == ("", f"error: {option} names {unwritable}, {path}\n")
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("command, option", [(c, o) for c, options in OUTPUTS.items() for o in options])
    def test_an_empty_output_is_refused_before_any_input_is_read(self, tmp_path, monkeypatch, capsys, command, option):
        # every input is missing, so a command that read one first would report it instead;
        # in the working directory, a command that took "" as absent would write its default there
        monkeypatch.chdir(tmp_path)
        argv = output_command_argv("missing.jsonl", "missing.tsv", "missing.json")
        assert main(argv(command, {option: ""})) == 1
        assert capsys.readouterr() == ("", f"error: {option} is empty; give a file path\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, option", [(c, o) for c, options in INPUTS.items() for o in options])
    def test_an_empty_input_is_refused_before_any_input_is_read(self, tmp_path, monkeypatch, capsys, command, option):
        # the other inputs are missing, so a command that read one first would report it instead
        monkeypatch.chdir(tmp_path)
        argv = output_command_argv("missing.jsonl", "missing.tsv", "missing.json")
        argv = argv(command, {output: f"new{output}" for output in OUTPUTS[command]})
        argv[argv.index(option) + 1] = ""
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {option} is empty; give a file path\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field", ["input", "labels", "output"])
    def test_a_rerun_refuses_an_empty_recorded_input(self, tmp_path, files, capsys, field):
        manifest = tmp_path / "tree.manifest.json"
        doc = json.loads(manifest.read_text())
        doc["parameters"][field] = ""
        manifest.write_text(json.dumps(doc))
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        assert main(["cluster", "--from-manifest", str(manifest), "--output", str(tmp_path / "new.json")]) == 1
        assert capsys.readouterr() == ("", f"error: {manifest}: parameter '{field}' is empty; give a file path\n")
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_an_output_without_a_file_name_is_refused_as_a_directory(self, tmp_path, monkeypatch, capsys):
        # cluster derives its default manifest path from --output, which has no file name here
        monkeypatch.chdir(tmp_path)
        assert main(["cluster", "--input", "missing.jsonl", "--theta", "0.5", "--output", "."]) == 1
        assert capsys.readouterr() == ("", "error: --output names a directory, .\n")

    def test_a_rerun_refuses_an_empty_output(self, tmp_path, files, monkeypatch, capsys):
        os.remove(files["--input"])
        before = sorted(tmp_path.iterdir())
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["cluster", "--from-manifest", "tree.manifest.json", "--output", ""]) == 1
        assert capsys.readouterr() == ("", "error: --output is empty; give a file path\n")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("fresh_options", [[], ["--input", "emb.jsonl", "--theta", "0.5"]])
    def test_an_empty_manifest_to_rerun_is_refused_before_any_input_is_read(self, tmp_path, files, monkeypatch, capsys, fresh_options):
        # with --input and --theta, a command that took "" as --from-manifest left out would cluster afresh
        monkeypatch.chdir(tmp_path)
        assert files["--input"] == str(tmp_path / "emb.jsonl")
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main(["cluster", "--from-manifest", "", *fresh_options, "--output", "x.json"]) == 1
        assert capsys.readouterr() == ("", "error: --from-manifest is empty; give a file path\n")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", OUTPUTS)
    def test_a_device_may_take_every_output(self, files, command):
        argv = output_command_argv(files["--input"], files["--labels"], files["--tree"])
        assert main(argv(command, dict.fromkeys(OUTPUTS[command], os.devnull))) == 0

    def test_a_rerun_may_rewrite_its_manifest(self, tmp_path, files):
        manifest = tmp_path / "tree.manifest.json"
        before = open(files["--tree"], "rb").read()
        assert main(["cluster", "--from-manifest", str(manifest), "--manifest", str(manifest)]) == 0
        assert open(files["--tree"], "rb").read() == before


class TestRewrittenOutputs:
    """An output is written over an existing file in place and cut to its new length."""

    @pytest.fixture
    def argv(self, tmp_path, planted_files):
        _, emb_path, labels_path = planted_files
        tree = tmp_path / "given-tree.json"
        assert main(["cluster", "--input", emb_path, "--theta", "0.5", "--seed", "1", "--output", str(tree)]) == 0
        return output_command_argv(emb_path, labels_path, str(tree))

    @staticmethod
    def read(paths) -> dict:
        return {path: open(path, "rb").read() for path in paths}

    @pytest.mark.parametrize("command", OUTPUTS)
    def test_a_longer_or_shorter_file_ends_as_a_fresh_path_does(self, tmp_path, argv, command):
        outputs = {option: str(tmp_path / f"out{option}") for option in OUTPUTS[command]}
        assert main(argv(command, outputs)) == 0
        fresh = self.read(outputs.values())
        for old_size in (lambda size: size + 4096, lambda size: size // 2):
            for path, new in fresh.items():
                with open(path, "wb") as fh:
                    fh.write(b"\xff" * old_size(len(new)))
            assert main(argv(command, outputs)) == 0
            assert self.read(outputs.values()) == fresh

    def test_an_existing_output_keeps_its_mode(self, tmp_path, argv):
        out = tmp_path / "edges.tsv"
        out.write_bytes(b"\xff" * 100_000)
        out.chmod(0o640)
        assert main(argv("graph", {"--output": str(out)})) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.stat().st_size < 100_000

    def test_a_symlinked_output_is_written_through_the_link(self, tmp_path, argv):
        fresh = tmp_path / "fresh.tsv"
        assert main(argv("graph", {"--output": str(fresh)})) == 0
        target, link = tmp_path / "target.tsv", tmp_path / "link.tsv"
        target.write_bytes(b"\xff" * 100_000)
        link.symlink_to(target)
        assert main(argv("graph", {"--output": str(link)})) == 0
        assert link.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()
