"""Smoke tier of the end-to-end benchmark (``run.py --smoke``).

Runs every workload at smoke size and checks the benchmark's contract:
each metric BENCHMARK.json names is emitted with its unit, the
deterministic counters repeat exactly under one seed, a planted oracle
error fails the run, and ``compare`` refuses runs of different sizes.
"""

from __future__ import annotations

import asyncio
import contextlib
import importlib.util
import io
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bulk", "serve", "durable", "churn")
DETERMINISTIC = ("structure.ios_per_op.reads", "structure.ios_per_op.writes",
                 "structure.ios_per_op.moves", "plane.bytes_per_op",
                 "oplog.fsyncs_per_op")


def _load_run_module():
    spec = importlib.util.spec_from_file_location(
        "e2e_bench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_run_module()
BENCHMARK = RUN.load_benchmark()


def _run(*argv):
    """``run.py`` in this process: (exit code, result line, full record,
    stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = RUN.main(list(argv))
    # serve's asyncio.run() leaves the main thread without an implicit
    # event loop; a fresh policy gives later tests the one they expect.
    asyncio.set_event_loop_policy(None)
    lines = out.getvalue().splitlines()
    records = [line[len(RUN.RECORD):] for line in lines
               if line.startswith(RUN.RECORD)]
    return code, json.loads(lines[-1]), json.loads(records[-1]), \
        out.getvalue()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Per workload: one untraced run and two traced runs, one seed."""
    RUN.WORKDIR = str(tmp_path_factory.mktemp("e2e"))
    runs = {}
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "3", "--smoke"]
        runs[workload] = {
            "e2e": _run(*base),
            "layers": [_run(*base, "--trace", "1") for _ in range(2)],
        }
    return runs


def _assert_contract(run, kind):
    code, result, _record, stdout = run
    assert code == 0, stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {spec["name"]: spec["unit"]
                                          for spec in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_registered_metric_is_emitted_with_its_unit(smoke, workload):
    _assert_contract(smoke[workload]["e2e"], "end_to_end")
    for run in smoke[workload]["layers"]:
        _assert_contract(run, "per_layer")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counters_repeat_under_one_seed(smoke, workload):
    first, second = (run[2]["metrics"] for run in smoke[workload]["layers"])
    for name in DETERMINISTIC:
        assert first[name] == second[name], name


def test_durable_disk_bytes_per_key_repeats_under_one_seed(smoke):
    first = smoke["durable"]["e2e"][2]["metrics"]["disk_bytes_per_key"]
    again = _run("--workload", "durable", "--seed", "3", "--smoke")
    assert again[2]["metrics"]["disk_bytes_per_key"] == first


def test_traced_run_writes_spans_and_attributes_them(smoke):
    with open(os.path.join(RUN.WORKDIR, "trace.json")) as handle:
        traces = json.load(handle)
    assert set(traces) == set(WORKLOADS)
    for workload in WORKLOADS:
        assert traces[workload]["spans"]
        metrics = smoke[workload]["layers"][0][1]["metrics"]
        assert 0.9 <= metrics["trace.coverage_frac"]["value"] <= 1.1


def test_a_corrupted_oracle_fails_the_run(smoke):
    code, result, _record, stdout = _run(
        "--workload", "churn", "--seed", "3", "--smoke", "--corrupt-oracle")
    assert code != 0
    assert result["correct"] is False
    assert "FAILED CHECK" in stdout


def test_compare_refuses_runs_of_different_sizes(smoke, tmp_path):
    record = smoke["churn"]["e2e"][2]
    resized = dict(record, sizes=dict(record["sizes"], live=1))
    paths = []
    for name, payload in (("parent", record), ("change", resized)):
        path = tmp_path / name
        path.write_text(RUN.RECORD + json.dumps(payload) + "\n")
        paths.append(str(path))
    with contextlib.redirect_stdout(io.StringIO()):
        assert RUN.main(["compare", paths[0], "--", paths[1]]) == 2
        assert RUN.main(["compare", paths[0], "--", paths[0]]) == 0
