"""The command-line interface: every subcommand at miniature scale."""

import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import build_parser, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_cli(*argv):
    """Invoke the CLI in-process, capturing stdout; returns (exit_code, text)."""
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #

def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_knows_every_command():
    parser = build_parser()
    for command in ("figure2", "uniformity", "audit", "compare-io",
                    "workload", "attack", "snapshot", "rebalance", "serve",
                    "report"):
        args = parser.parse_args([command])
        assert args.command == command


# --------------------------------------------------------------------------- #
# figure2
# --------------------------------------------------------------------------- #

def test_figure2_prints_series_and_writes_csv(tmp_path):
    csv_path = str(tmp_path / "fig2.csv")
    code, output = run_cli("figure2", "--inserts", "400", "--checkpoints", "4",
                           "--seed", "1", "--csv", csv_path)
    assert code == 0
    assert "HI PMA" in output
    assert "classic PMA" in output
    assert os.path.exists(csv_path)
    with open(csv_path, encoding="utf-8") as handle:
        lines = handle.read().strip().splitlines()
    assert len(lines) >= 4


# --------------------------------------------------------------------------- #
# uniformity
# --------------------------------------------------------------------------- #

def test_uniformity_small_run_passes():
    code, output = run_cli("uniformity", "--keys", "300", "--trials", "40",
                           "--seed", "0")
    assert code == 0
    assert "p-value" in output
    assert "consistent with uniform" in output


# --------------------------------------------------------------------------- #
# audit
# --------------------------------------------------------------------------- #

def test_audit_hi_pma_passes():
    code, output = run_cli("audit", "--structure", "hi-pma", "--keys", "20",
                           "--trials", "60", "--seed", "0")
    assert code == 0
    assert "PASS" in output


def test_audit_btree_fails():
    code, output = run_cli("audit", "--structure", "btree", "--keys", "32",
                           "--trials", "5", "--seed", "0")
    assert code == 1
    assert "FAIL" in output


def test_audit_treap_passes():
    code, output = run_cli("audit", "--structure", "treap", "--keys", "20",
                           "--trials", "60", "--seed", "0")
    assert code == 0
    assert "PASS" in output


# --------------------------------------------------------------------------- #
# compare-io
# --------------------------------------------------------------------------- #

def test_compare_io_prints_all_structures():
    code, output = run_cli("compare-io", "--sizes", "400", "--block", "16",
                           "--searches", "30", "--seed", "0")
    assert code == 0
    for name in ("b-tree", "hi-skiplist", "b-skiplist", "b-treap"):
        assert name in output


def test_compare_io_rejects_bad_sizes():
    code, _output = run_cli("compare-io", "--sizes", "abc")
    assert code == 2


def test_compare_io_sharded():
    code, output = run_cli("compare-io", "--structure", "b-tree",
                           "--sizes", "300", "--block", "16",
                           "--searches", "20", "--shards", "3", "--seed", "0")
    assert code == 0
    assert "sharded[3]:b-tree" in output


@pytest.mark.parametrize("argv", [
    ("compare-io", "--sizes", "300", "--shards", "-1"),
    ("audit", "--structure", "treap", "--keys", "8", "--trials", "5",
     "--shards", "-1"),
    ("snapshot", "--structure", "b-tree", "--keys", "20", "--shards", "-1"),
])
def test_negative_shards_is_a_configuration_error(argv):
    code, _output = run_cli(*argv)
    assert code == 2


# --------------------------------------------------------------------------- #
# workload
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("kind", ["random", "sequential", "zipfian",
                                  "sliding-window", "trough", "redaction",
                                  "zipf-mixed"])
def test_workload_kinds(kind, tmp_path):
    csv_path = str(tmp_path / ("%s.csv" % kind))
    code, output = run_cli("workload", "--kind", kind, "--count", "50",
                           "--seed", "0", "--csv", csv_path)
    assert code == 0
    assert "generated" in output
    assert os.path.exists(csv_path)


# --------------------------------------------------------------------------- #
# attack
# --------------------------------------------------------------------------- #

def test_attack_classic_pma_leaks():
    code, output = run_cli("attack", "--structure", "classic-pma",
                           "--kind", "deletion", "--keys", "300",
                           "--trials", "8", "--seed", "0")
    assert code == 0
    assert "accuracy" in output
    assert "layout leaks the secret" in output


def test_attack_hi_pma_does_not_leak():
    code, output = run_cli("attack", "--structure", "hi-pma",
                           "--kind", "deletion", "--keys", "400",
                           "--trials", "12", "--seed", "1")
    assert code == 0
    assert "observer learns nothing useful" in output


# --------------------------------------------------------------------------- #
# snapshot
# --------------------------------------------------------------------------- #

def test_snapshot_hi_pma_in_memory():
    code, output = run_cli("snapshot", "--structure", "hi-pma", "--keys", "200",
                           "--seed", "0", "--buckets", "8")
    assert code == 0
    assert "occupancy profile" in output
    assert output.count("region") == 8


def test_snapshot_writes_image_file(tmp_path):
    path = str(tmp_path / "pma.img")
    code, output = run_cli("snapshot", "--structure", "classic-pma",
                           "--keys", "150", "--seed", "1", "--path", path)
    assert code == 0
    assert os.path.exists(path)
    assert os.path.getsize(path) > 0
    assert "image written" in output


def test_snapshot_sharded_writes_per_shard_images(tmp_path):
    directory = str(tmp_path / "shards")
    code, output = run_cli("snapshot", "--structure", "b-tree",
                           "--keys", "150", "--seed", "1",
                           "--shards", "3", "--path", directory)
    assert code == 0
    assert "sharded[3]:b-tree" in output
    assert "manifest written" in output
    assert os.path.exists(os.path.join(directory, "manifest.json"))
    images = [name for name in os.listdir(directory)
              if name.endswith(".img")]
    assert len(images) == 3


def test_snapshot_sharded_in_memory_prints_shard_sizes():
    code, output = run_cli("snapshot", "--structure", "hi-skiplist",
                           "--keys", "120", "--seed", "0", "--shards", "2",
                           "--buckets", "4")
    assert code == 0
    assert "shard sizes" in output
    assert "occupancy profile" in output


def test_audit_sharded_treap_passes():
    code, output = run_cli("audit", "--structure", "treap", "--keys", "16",
                           "--trials", "40", "--shards", "2", "--seed", "0")
    assert code == 0
    assert "sharded[2]:treap" in output
    assert "PASS" in output


def test_audit_sharded_consistent_router_passes():
    code, output = run_cli("audit", "--structure", "treap", "--keys", "16",
                           "--trials", "40", "--shards", "2", "--router",
                           "consistent", "--vnodes", "16", "--seed", "0")
    assert code == 0
    assert "PASS" in output


def test_router_flags_without_shards_are_rejected():
    for argv in (("compare-io", "--structure", "b-tree", "--sizes", "100",
                  "--router", "consistent"),
                 ("audit", "--structure", "treap", "--keys", "8",
                  "--vnodes", "16"),
                 ("snapshot", "--structure", "hi-pma", "--keys", "50",
                  "--router", "consistent")):
        code, _output = run_cli(*argv)
        assert code == 2  # silently ignoring the flags would mislead


def test_compare_io_sharded_consistent_router_labels_rows():
    code, output = run_cli("compare-io", "--structure", "b-tree", "--sizes",
                           "300", "--shards", "2", "--router", "consistent",
                           "--seed", "0")
    assert code == 0
    assert "sharded[2@consistent]:b-tree" in output


# --------------------------------------------------------------------------- #
# rebalance
# --------------------------------------------------------------------------- #

def test_rebalance_reports_each_migration_step():
    code, output = run_cli("rebalance", "--structure", "b-tree", "--shards",
                           "2", "--router", "consistent", "--keys", "400",
                           "--add", "2", "--remove", "1", "--seed", "1")
    assert code == 0
    assert "2 -> 3" in output and "3 -> 4" in output and "4 -> 3" in output
    assert "final shard sizes" in output
    assert output.count("add") >= 2 and "remove" in output


def test_rebalance_modulo_moves_more_than_consistent():
    def moved(router):
        code, output = run_cli("rebalance", "--structure", "b-tree",
                               "--shards", "4", "--router", router, "--keys",
                               "600", "--add", "1", "--seed", "3")
        assert code == 0
        row = next(line for line in output.splitlines()
                   if line.startswith("add"))
        return int(row.split()[4])  # "add  4 -> 5  <moved>  ..."

    assert moved("consistent") < moved("modulo")


def test_rebalance_rejects_impossible_plans():
    code, _output = run_cli("rebalance", "--shards", "1", "--add", "0",
                            "--remove", "1")
    assert code == 2
    code, _output = run_cli("rebalance", "--structure", "sharded")
    assert code == 2


def test_rebalance_parallel_backends_agree_with_sequential():
    """--parallel process rebalances like the sequential dispatch."""
    outputs = {}
    for mode in ("none", "process"):
        code, output = run_cli("rebalance", "--structure", "b-tree",
                               "--shards", "2", "--router", "consistent",
                               "--keys", "200", "--add", "1", "--seed", "4",
                               "--parallel", mode)
        assert code == 0
        assert "parallel=%s" % mode in output
        # Everything below the header (migration table, shard sizes) must be
        # identical across dispatch backends.
        outputs[mode] = output.splitlines()[1:]
    assert outputs["none"] == outputs["process"]


def test_rebalance_rejects_max_workers_without_parallel():
    code, _output = run_cli("rebalance", "--structure", "b-tree",
                            "--shards", "2", "--keys", "50",
                            "--max-workers", "2")
    assert code == 2


def test_rebalance_read_policy_requires_replication():
    code, _output = run_cli("rebalance", "--structure", "b-tree",
                            "--shards", "2", "--keys", "100",
                            "--parallel", "process",
                            "--read-policy", "round-robin")
    assert code == 2


def test_rebalance_read_policies_migrate_identically():
    """Replica-served reads may not change one byte of migration output."""
    outputs = {}
    for policy in ("primary", "round-robin"):
        code, output = run_cli("rebalance", "--structure", "b-tree",
                               "--shards", "2", "--router", "consistent",
                               "--keys", "200", "--add", "1", "--seed", "4",
                               "--parallel", "process",
                               "--replication", "2",
                               "--read-policy", policy)
        assert code == 0
        outputs[policy] = output.splitlines()[1:]
    assert outputs["primary"] == outputs["round-robin"]


# --------------------------------------------------------------------------- #
# recover
# --------------------------------------------------------------------------- #

def test_recover_reports_and_overrides_the_read_policy(tmp_path):
    from repro.api import EngineConfig, make_sharded_engine

    directory = str(tmp_path / "store")
    engine = make_sharded_engine(EngineConfig(
        inner="b-treap", shards=2, block_size=16, seed=1, router="consistent",
        parallel="process", replication=2, read_policy="round-robin",
        durability_dir=directory))
    try:
        engine.insert_many([(key, key) for key in range(64)])
        engine.checkpoint()
    finally:
        engine.close()
    code, output = run_cli("recover", "--dir", directory)
    assert code == 0
    assert "read policy     : round-robin" in output
    code, output = run_cli("recover", "--dir", directory,
                           "--read-policy", "primary")
    assert code == 0
    assert "read policy     : primary" in output


# --------------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------------- #

def test_serve_rejects_bad_flag_combinations():
    code, _output = run_cli("serve", "--structure", "sharded")
    assert code == 2
    code, _output = run_cli("serve", "--replication", "2")
    assert code == 2  # replication needs --parallel process
    code, _output = run_cli("serve", "--durability-mode", "secure",
                            "--parallel", "process")
    assert code == 2  # secure needs --durability-dir


def test_serve_subprocess_serves_and_drains_on_sigint():
    """`repro serve` prints its port, serves the wire protocol, and a
    SIGINT drains gracefully (exit 0, the drain line printed)."""
    import signal

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--shards", "2",
         "--seed", "5", "--structure", "b-tree"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=root)
    try:
        line = process.stdout.readline()
        assert line.startswith("listening on 127.0.0.1:")
        port = int(line.strip().rsplit(":", 1)[1])

        from repro.net import ReproClient

        with ReproClient("127.0.0.1", port) as client:
            assert client.insert_many([(key, key) for key in range(40)]) == 40
            assert len(client) == 40
            assert client.server_config()["shards"] == 2
        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=60)
    except BaseException:
        process.kill()
        process.wait()
        raise
    assert process.returncode == 0, stderr
    assert "drained 1 namespace(s)" in stdout


def test_serve_drains_a_sigterm_sent_as_soon_as_it_is_listening():
    """The `listening on` line is a promise that a signal drains: a SIGTERM
    sent the moment it appears still ends in a clean drain, exit 0."""
    import signal

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--shards", "2",
         "--seed", "5", "--structure", "b-treap", "--parallel", "process"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=root,
        start_new_session=True)
    try:
        # One raw read returns the line as soon as the server writes it.
        first = os.read(process.stdout.fileno(), 4096)
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=60)
    finally:
        # Whatever the server left running in its session (orphaned
        # workers hold its stdout open) goes down with it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    rest, stderr = process.communicate(timeout=60)
    assert first.startswith(b"listening on 127.0.0.1:")
    assert process.returncode == 0, stderr.decode()
    assert "drained 1 namespace(s)" in (first + rest).decode()


def test_serve_metrics_interval_prints_periodic_snapshots():
    """`--metrics-interval` emits `metrics: {...}` JSON lines while the
    server runs, and the ticker dies cleanly with the drain."""
    import signal

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--shards", "2",
         "--seed", "5", "--structure", "b-tree", "--telemetry",
         "--metrics-interval", "0.2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=root)
    try:
        line = process.stdout.readline()
        assert line.startswith("listening on 127.0.0.1:")
        port = int(line.strip().rsplit(":", 1)[1])

        from repro.net import ReproClient

        with ReproClient("127.0.0.1", port) as client:
            client.insert_many([(key, key) for key in range(16)])
        metrics_line = process.stdout.readline()
        assert metrics_line.startswith("metrics: ")
        snapshot = json.loads(metrics_line[len("metrics: "):])
        assert snapshot["engine.calls.insert_many"] >= 1
        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=60)
    except BaseException:
        process.kill()
        process.wait()
        raise
    assert process.returncode == 0, stderr
    assert "drained 1 namespace(s)" in stdout


# --------------------------------------------------------------------------- #
# stats
# --------------------------------------------------------------------------- #

def test_stats_requires_a_port():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["stats"])


def test_stats_scrapes_a_live_server_in_every_format():
    from repro.api import EngineConfig
    from repro.net import ReproClient, ThreadedServer

    config = EngineConfig(inner="b-treap", shards=2, seed=5, telemetry=True)
    with ThreadedServer(config) as server:
        port = str(server.port)
        with ReproClient("127.0.0.1", server.port) as client:
            client.tracer.enabled = True
            client.insert_many([(key, key) for key in range(32)])
            client.contains_many(list(range(32)))
        code, output = run_cli("stats", "--host", "127.0.0.1",
                               "--port", port)
        assert code == 0
        assert "engine.calls.insert_many" in output
        assert "engine_io.reads" in output
        code, output = run_cli("stats", "--host", "127.0.0.1",
                               "--port", port, "--format", "json")
        assert code == 0
        assert json.loads(output)["engine.calls.contains_many"] >= 1
        code, output = run_cli("stats", "--host", "127.0.0.1",
                               "--port", port, "--format", "prom")
        assert code == 0
        assert "# TYPE repro_engine_calls_insert_many untyped" in output
        code, output = run_cli("stats", "--host", "127.0.0.1",
                               "--port", port, "--traces")
        assert code == 0
        assert "recent traces" in output
        assert "server.contains_many" in output


def test_serve_rejects_a_negative_metrics_interval():
    code, _output = run_cli("serve", "--metrics-interval", "-1")
    assert code == 2


# --------------------------------------------------------------------------- #
# report
# --------------------------------------------------------------------------- #

def test_report_renders_results(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    with open(results / "demo.json", "w", encoding="utf-8") as handle:
        json.dump({"metric": 42}, handle)
    code, output = run_cli("report", "--results", str(results))
    assert code == 0
    assert "| demo | metric | 42 |" in output


def test_report_handles_missing_directory(tmp_path):
    code, output = run_cli("report", "--results", str(tmp_path / "missing"))
    assert code == 0
    assert "No benchmark results" in output


# --------------------------------------------------------------------------- #
# python -m repro
# --------------------------------------------------------------------------- #

def test_module_entry_point_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "workload", "--kind", "sequential",
         "--count", "5"],
        capture_output=True, text=True, check=False,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert completed.returncode == 0
    assert "generated 5 operations" in completed.stdout


# --------------------------------------------------------------------------- #
# What an entry point imports, and what a served request costs
# --------------------------------------------------------------------------- #

#: Packages a b-treap server on the process backend never runs.
NOT_SERVED = ("analysis", "history", "workloads", "core", "pma", "cobtree",
              "btree", "skiplist", "layout", "storage", "replication")

#: Packages holding the registry's built-in structures.
STRUCTURES = ("core", "pma", "cobtree", "btree", "btreap", "treap",
              "skiplist", "layout")


def loaded_under(packages, modules):
    """The ``repro.<package>...`` names in ``modules`` for any of ``packages``."""
    return sorted(name for name in modules
                  if name.startswith("repro.")
                  and name.split(".")[1] in packages)


def start_server(*argv):
    """Start a serve command in a subprocess; return it and its port."""
    process = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC))
    line = process.stdout.readline()
    if not line.startswith("listening on 127.0.0.1:"):
        process.kill()
        raise AssertionError("server did not start: %r %r"
                             % (line, process.communicate()[1]))
    return process, int(line.strip().rsplit(":", 1)[1])


def stop_server(process):
    """SIGTERM a started server; return its remaining stdout."""
    import signal

    process.send_signal(signal.SIGTERM)
    try:
        stdout, stderr = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    assert process.returncode == 0, stderr
    return stdout


SERVE_THEN_LIST_MODULES = textwrap.dedent("""
    import sys
    from repro.cli import main
    code = main(sys.argv[1:])
    print("modules:", *sorted(name for name in sys.modules
                              if name.startswith("repro")))
    sys.exit(code)
""")


@pytest.mark.fast
def test_a_b_treap_server_loads_only_the_code_it_serves():
    """Through start-up and a round of requests, a process-backend b-treap
    server imports no other structure and none of the analysis, audit,
    workload, storage or replication code."""
    from repro.net import ReproClient

    process, port = start_server(
        "-c", SERVE_THEN_LIST_MODULES, "serve", "--structure", "b-treap",
        "--shards", "2", "--parallel", "process", "--max-workers", "2",
        "--seed", "5")
    try:
        with ReproClient("127.0.0.1", port) as client:
            assert client.insert_many([(key, -key) for key in range(200)]) \
                == 200
            assert client.contains_many([0, 199, 200]) == [True, True, False]
            client.delete_many(range(0, 200, 2))
            assert len(client.items()) == 100
            assert client.stats()["engine.calls.delete_many"] == 1
    finally:
        stdout = stop_server(process)
    modules = stdout.split("modules:", 1)[1].split()
    assert "repro.btreap.btreap" in modules
    assert loaded_under(NOT_SERVED, modules) == []


CALL_THEN_LIST_MODULES = textwrap.dedent("""
    import sys
    from repro.net import AsyncReproClient, ReproClient
    with ReproClient("127.0.0.1", int(sys.argv[1])) as client:
        assert len(client) == 0
    print(*sorted(name for name in sys.modules
                  if name.startswith(("repro", "multiprocessing"))))
""")


@pytest.mark.fast
def test_a_client_loads_no_engine_code():
    """Importing both clients and calling a served b-treap loads no
    ``repro.api`` module and no ``multiprocessing``."""
    process, port = start_server(
        "-c", SERVE_THEN_LIST_MODULES, "serve", "--structure", "b-treap",
        "--shards", "2", "--parallel", "process", "--max-workers", "2",
        "--seed", "5")
    try:
        completed = subprocess.run(
            [sys.executable, "-c", CALL_THEN_LIST_MODULES, str(port)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    finally:
        stop_server(process)
    assert completed.returncode == 0, completed.stderr
    modules = completed.stdout.split()
    assert "repro.net.client" in modules
    assert [name for name in modules
            if name.startswith(("repro.api", "multiprocessing"))] == []


IN_PROCESS_ENGINE_THEN_LIST_MODULES = textwrap.dedent("""
    import sys
    from repro.api import EngineConfig, make_sharded_engine
    engine = make_sharded_engine(EngineConfig(inner="b-treap", shards=2,
                                              seed=3))
    engine.insert_many((key, -key) for key in range(300))
    assert engine.contains_many([0, 299, 300]) == [True, True, False]
    engine.delete_many(range(0, 300, 3))
    assert len(engine) == 200
    print(*sorted(name for name in sys.modules
                  if name.startswith(("repro", "multiprocessing"))))
""")


@pytest.mark.fast
def test_an_in_process_engine_loads_no_process_engine():
    """``repro.api`` resolves its exports on first access, so building
    and driving a ``parallel="none"`` engine never imports
    ``repro.api.process_engine`` or ``multiprocessing``."""
    completed = subprocess.run(
        [sys.executable, "-c", IN_PROCESS_ENGINE_THEN_LIST_MODULES],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert completed.returncode == 0, completed.stderr
    modules = completed.stdout.split()
    assert "repro.api.sharded" in modules
    assert [name for name in modules
            if name.startswith(("repro.api.process_engine",
                                "multiprocessing"))] == []


@pytest.mark.fast
def test_listing_resolving_and_describing_structures_imports_none():
    """``registry_names``, ``get_info``, ``resolve`` and the CLI's parser
    (``repro --help``) read registry metadata only; a structure's module
    is imported when one is first built."""
    code = textwrap.dedent("""
        import sys
        from repro.api import get_info, registry_names, resolve
        from repro.cli import build_parser

        for name in registry_names(include_aliases=True):
            assert get_info(name).name == resolve(name)
        build_parser().format_help()
        print(*sorted(name for name in sys.modules
                      if name.startswith("repro")))
    """)
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert loaded_under(STRUCTURES, completed.stdout.split()) == []


@pytest.mark.fast
@pytest.mark.parametrize("package", ["repro", "repro.api", "repro.memory",
                                     "repro.storage", "repro.net"])
def test_every_exported_name_resolves_on_first_access(package):
    """In a fresh interpreter each package's ``__all__`` is listed by
    ``dir()``, resolves by attribute and by star import, and an unknown
    name is still an ``AttributeError``."""
    code = textwrap.dedent("""
        import importlib
        import sys

        package = importlib.import_module(sys.argv[1])
        missing = sorted(set(package.__all__) - set(dir(package)))
        assert not missing, missing
        for name in package.__all__:
            assert getattr(package, name) is getattr(package, name)
        namespace = {}
        exec("from %s import *" % sys.argv[1], namespace)
        assert set(package.__all__) <= set(namespace)
        try:
            package.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("an unknown name resolved")
    """)
    completed = subprocess.run(
        [sys.executable, "-c", code, package], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert completed.returncode == 0, completed.stderr


def minor_faults(pid):
    """Field 10 of ``/proc/<pid>/stat``: the process's minor page faults."""
    with open("/proc/%d/stat" % pid, encoding="ascii") as handle:
        # Field 2, the command name, may hold spaces: count past its ")".
        return int(handle.read().rsplit(")", 1)[1].split()[7])


@pytest.mark.fast
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="needs /proc/<pid>/stat")
def test_a_served_point_request_takes_no_page_faults():
    """Each socket read is capped below glibc's 128 KiB mmap threshold, so
    the server's receive buffer comes from its heap: 1,000 point lookups
    against a 20k-key server average under 0.1 minor page faults each.
    (An uncapped 256 KiB read costs 2 whenever the heap has no free run
    that large.)"""
    from repro.net import ReproClient

    process, port = start_server(
        "-m", "repro", "serve", "--structure", "b-treap", "--shards", "2",
        "--parallel", "process", "--max-workers", "2", "--seed", "5")
    try:
        with ReproClient("127.0.0.1", port) as client:
            for start in range(1, 20_001, 2_000):
                client.insert_many([(key, -key)
                                    for key in range(start, start + 2_000)])
            before = minor_faults(process.pid)
            hits = sum(client.contains(1 + 40 * index)
                       for index in range(1_000))
            faults = minor_faults(process.pid) - before
    finally:
        stop_server(process)
    assert hits == 500
    assert faults / 1_000 < 0.1, faults


# --------------------------------------------------------------------------- #
# Where the default pool forks, and what a failed start leaves behind
# --------------------------------------------------------------------------- #

SERVE_THEN_LIST_FORKS = textwrap.dedent("""
    import json
    import os
    import sys
    import threading

    forks = []

    def before_fork():
        forks.append([threading.active_count(), "asyncio" in sys.modules,
                      "repro.net.server" in sys.modules])

    os.register_at_fork(before=before_fork)
    from repro.cli import main
    code = main(sys.argv[1:])
    print("forks:", json.dumps(forks))
    sys.exit(code)
""")


@pytest.mark.fast
@pytest.mark.skipif(os.environ.get("REPRO_START_METHOD", "fork") != "fork"
                    or not hasattr(os, "register_at_fork"),
                    reason="pins where the fork start method forks")
def test_serve_forks_its_default_pool_before_the_network_stack():
    """Each worker of the default pool forks from a process running one
    thread that has imported neither asyncio nor the server, so it copies
    no event loop, no socket and the smallest heap ``serve`` ever has."""
    process, _port = start_server(
        "-c", SERVE_THEN_LIST_FORKS, "serve", "--structure", "b-treap",
        "--shards", "2", "--parallel", "process", "--max-workers", "2",
        "--seed", "5")
    stdout = stop_server(process)
    forks = json.loads(stdout.split("forks:", 1)[1])
    assert forks == [[1, False, False], [1, False, False]]


SERVE_THEN_COUNT_CHILDREN = textwrap.dedent("""
    import multiprocessing
    import sys
    from repro.cli import main
    code = main(sys.argv[1:])
    print("children:", len(multiprocessing.active_children()))
    sys.exit(code)
""")


@pytest.mark.fast
def test_serve_on_a_busy_port_prints_one_error_and_leaves_no_worker():
    """A port that cannot be bound is a start-up refusal like the others:
    one ``error:`` line naming the address, exit 2, and the default pool
    built before the bind is shut down."""
    import socket

    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = busy.getsockname()[1]
        completed = subprocess.run(
            [sys.executable, "-c", SERVE_THEN_COUNT_CHILDREN, "serve",
             "--structure", "b-treap", "--shards", "2", "--parallel",
             "process", "--max-workers", "2", "--port", str(port)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert completed.returncode == 2, completed.stderr
    assert completed.stdout.split() == ["children:", "0"]
    assert "Traceback" not in completed.stderr
    errors = [line for line in completed.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: cannot listen on 127.0.0.1:%d"
                                % port)


@pytest.mark.fast
def test_a_durable_serve_checkpoints_default_in_its_own_subdirectory(
        tmp_path):
    """``serve`` builds ``default`` itself, before the server exists, and
    still derives its config as the server derives every namespace's: a
    durable ``default`` checkpoints under ``DIR/default``."""
    from repro.net import ReproClient

    directory = str(tmp_path / "store")
    process, port = start_server(
        "-m", "repro", "serve", "--structure", "b-treap", "--shards", "2",
        "--parallel", "process", "--max-workers", "2", "--seed", "5",
        "--durability-dir", directory)
    try:
        with ReproClient("127.0.0.1", port) as client:
            assert client.insert_many([(key, -key) for key in range(64)]) \
                == 64
    finally:
        stdout = stop_server(process)
    assert "drained 1 namespace(s)" in stdout
    assert os.path.isfile(os.path.join(directory, "default",
                                       "manifest.json"))
    assert not os.path.exists(os.path.join(directory, "manifest.json"))
