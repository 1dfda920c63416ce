"""The telemetry plane end to end: registry, tracing, folding, the wire.

ISSUE 10's acceptance bar for :mod:`repro.obs`:

* **Registry** — counters, gauges and fixed-boundary histograms
  accumulate per-thread without locks, snapshot deterministically and
  merge additively (worker registries folding into the parent's).
* **Tracing** — spans nest through thread-local state, adopt foreign
  trace ids from pipe/wire headers, and graft finished worker span
  dicts into the local tree; the disabled path is a shared no-op.
* **One snapshot** — ``engine.telemetry()`` reads the registry, where
  the process engine keeps its ``plane.*``, ``erasure.*`` and
  ``replica_reads.*`` counters, plus ``engine_io.*`` from ``io_stats``,
  as one namespaced mapping.
* **The wire** — a traced bulk call against a running server yields one
  span tree crossing client → server → engine → worker, and the
  ``stats``/``traces`` verbs expose it; malformed trace headers are
  ignored, never an error.
* **Determinism** — the gated baseline counters stay bit-identical with
  telemetry enabled under both fork and spawn start methods.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.api import EngineConfig, make_sharded_engine
from repro.errors import ConfigurationError
from repro.net import AsyncReproClient, ReproClient, ThreadedServer
from repro.net.protocol import TRACE_KEY
from repro.obs import (
    DEFAULT_BUCKET_EDGES_MS,
    MetricsRegistry,
    NULL_SPAN,
    Tracer,
    child_span,
    current_span,
    render_trace,
    run_under,
    to_prometheus,
)
from repro.obs.tracing import HEADER_SPAN, HEADER_TRACE

pytestmark = pytest.mark.fast

SEED = 20160823
BLOCK_SIZE = 16

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "benchmarks", "baseline.py")
COMMITTED = os.path.join(REPO_ROOT, "benchmarks", "BENCH_smoke.json")


def run_async(coroutine):
    """Run ``coroutine`` on a private loop, leaving the thread's current
    event loop alone (``asyncio.run`` would unset it for later tests)."""
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


# --------------------------------------------------------------------------- #
# MetricsRegistry
# --------------------------------------------------------------------------- #

def test_counters_and_gauges_snapshot_flat():
    metrics = MetricsRegistry()
    metrics.inc("engine.calls.insert_many")
    metrics.inc("engine.calls.insert_many")
    metrics.inc("engine.keys.insert_many", 40)
    metrics.set_gauge("plane.bytes", 1024)
    metrics.set_gauge("plane.bytes", 2048)  # last write wins
    snap = metrics.snapshot()
    assert snap["engine.calls.insert_many"] == 2
    assert snap["engine.keys.insert_many"] == 40
    assert snap["plane.bytes"] == 2048


def test_histogram_expands_fixed_buckets():
    metrics = MetricsRegistry()
    metrics.observe_ms("engine.latency.insert_many", 0.01)   # first bucket
    metrics.observe_ms("engine.latency.insert_many", 3.0)    # le_5
    metrics.observe_ms("engine.latency.insert_many", 10**6)  # +Inf
    snap = metrics.snapshot()
    base = "engine.latency.insert_many"
    buckets = [snap["%s.le_%g" % (base, edge)]
               for edge in DEFAULT_BUCKET_EDGES_MS]
    assert sum(buckets) + snap[base + ".le_inf"] == 3
    assert snap[base + ".le_0.05"] == 1
    assert snap[base + ".le_5"] == 1
    assert snap[base + ".le_inf"] == 1
    assert snap[base + ".count"] == 3
    assert snap[base + ".sum_ms"] > 0.0


def _linear_bucket(edges, value_ms):
    """The reference placement: a scan for the first edge not exceeded."""
    index = 0
    for edge in edges:
        if value_ms <= edge:
            break
        index += 1
    return index


def test_histogram_buckets_match_the_linear_scan():
    edges = DEFAULT_BUCKET_EDGES_MS
    between = [(low + high) / 2 for low, high in zip(edges, edges[1:])]
    values = [*edges, *between, 0, 0.0, -1.0, edges[0] / 2, 1, 10,
              edges[-1] * 2, 10**6, float("inf"), float("-inf"),
              float("nan")]
    for value in values:
        metrics = MetricsRegistry()
        metrics.observe_ms("h", value)
        snap = metrics.snapshot()
        buckets = [snap["h.le_%g" % edge] for edge in edges]
        buckets.append(snap["h.le_inf"])
        expected = [0] * (len(edges) + 1)
        expected[_linear_bucket(edges, value)] = 1
        assert buckets == expected, value
    # NaN compares false against every edge: the scan leaves it in +Inf.
    assert _linear_bucket(edges, float("nan")) == len(edges)


def test_threads_accumulate_into_private_cells():
    metrics = MetricsRegistry()

    def bump():
        for _ in range(1000):
            metrics.inc("shared.counter")

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert metrics.snapshot()["shared.counter"] == 4000


def test_merge_folds_foreign_snapshots_additively():
    parent = MetricsRegistry()
    parent.inc("local", 1)
    worker = {"frames": 3, "bytes": 700}
    parent.merge(worker, prefix="worker0")
    parent.merge(worker, prefix="worker0")  # accumulates, not overwrites
    snap = parent.snapshot()
    assert snap["worker0.frames"] == 6
    assert snap["worker0.bytes"] == 1400
    assert snap["local"] == 1
    assert parent.merges == 2
    parent.reset()
    assert parent.snapshot() == {}
    assert parent.merges == 0


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #

def test_disabled_tracer_is_one_shared_noop():
    tracer = Tracer(enabled=False)
    span = tracer.span("engine.insert_many")
    assert span is NULL_SPAN
    assert tracer.adopt({"trace": "t1", "span": "s1"}, "x") is NULL_SPAN
    assert tracer.header() is None
    assert child_span("oplog.fsync") is NULL_SPAN  # no active parent
    with span:
        span.tag("anything", 1)  # all no-ops
    assert tracer.traces() == []
    assert tracer.snapshot()["spans"] == 0


def test_spans_nest_and_roots_carry_their_subtree():
    tracer = Tracer(enabled=True)
    with tracer.span("engine.contains_many", tags={"engine": "test"}):
        with child_span("worker.decode") as inner:
            inner.tag("bytes", 99)
        with child_span("worker.apply.contains"):
            pass
    assert current_span() is None
    (root,) = tracer.traces()
    assert root["name"] == "engine.contains_many"
    assert root["tags"] == {"engine": "test"}
    assert [child["name"] for child in root["children"]] == \
        ["worker.decode", "worker.apply.contains"]
    assert root["children"][0]["tags"]["bytes"] == 99
    assert root["children"][0]["trace"] == root["trace"]
    assert tracer.snapshot()["spans"] == 3


def test_adopt_continues_the_foreign_trace_id():
    upstream = Tracer(enabled=True)
    remote = upstream.span("client.insert_many")
    header = {HEADER_TRACE: remote.trace_id, HEADER_SPAN: remote.span_id}
    local = Tracer(enabled=True)
    span = local.adopt(header, "server.insert_many")
    assert span.trace_id == remote.trace_id
    assert span.parent_id == remote.span_id
    span.finish()
    remote.finish()
    (entry,) = local.traces()
    assert entry["trace"] == remote.trace_id
    counters = local.snapshot()
    assert counters["adopted"] == 1 and counters["spans"] == 1
    # No header: adopt degrades to a fresh local root.
    fallback = local.adopt(None, "server.orphan")
    assert fallback.parent_id is None
    fallback.finish()


def test_graft_attaches_worker_dicts_under_the_current_span():
    tracer = Tracer(enabled=True)
    shipped = [{"name": "worker.insert_batch", "ms": 0.5, "trace": "t9",
                "span": "9-1", "parent": None, "tags": {}, "children": []}]
    with tracer.span("engine.insert_many"):
        tracer.graft(shipped)
        tracer.note_crossing()
    (root,) = tracer.traces()
    assert root["children"] == shipped
    counters = tracer.snapshot()
    assert counters["worker_spans"] == 1 and counters["crossings"] == 1
    # With no active span the dicts land in the ring as their own roots.
    tracer.graft(shipped)
    assert tracer.traces()[-1] == shipped[0]


def test_zero_slow_threshold_logs_every_root():
    tracer = Tracer(enabled=True, slow_ms=0.0)
    with tracer.span("engine.delete_many"):
        with child_span("oplog.fsync"):
            pass
    assert tracer.snapshot()["slow_ops"] == 1
    (slow,) = tracer.slow_ops()
    assert slow["name"] == "engine.delete_many"  # children don't qualify


def test_run_under_bridges_the_span_to_another_thread():
    tracer = Tracer(enabled=True)
    span = tracer.span("server.contains_many")
    seen = {}

    def work():
        seen["active"] = current_span()
        with child_span("engine.contains_many"):
            pass
        return 42

    worker = threading.Thread(
        target=lambda: seen.setdefault("result", run_under(span, work)))
    worker.start()
    worker.join()
    span.finish()
    assert seen["result"] == 42
    assert seen["active"] is span
    (root,) = tracer.traces()
    assert [child["name"] for child in root["children"]] == \
        ["engine.contains_many"]
    assert run_under(NULL_SPAN, lambda: "fast-path") == "fast-path"


# --------------------------------------------------------------------------- #
# Exposition
# --------------------------------------------------------------------------- #

def test_prometheus_rendering_folds_histograms():
    snapshot = {
        "plane.bytes": 132375,
        "engine.latency.insert_many.le_0.05": 2,
        "engine.latency.insert_many.le_inf": 1,
        "engine.latency.insert_many.count": 3,
        "engine.latency.insert_many.sum_ms": 1.25,
        "meta.note": "not-a-number",   # skipped
        "meta.flag": True,             # bools are not metrics either
    }
    text = to_prometheus(snapshot)
    assert "# TYPE repro_plane_bytes untyped\nrepro_plane_bytes 132375" \
        in text
    assert 'repro_engine_latency_insert_many_bucket{le="0.05"} 2' in text
    assert 'repro_engine_latency_insert_many_bucket{le="+Inf"} 1' in text
    assert "# TYPE repro_engine_latency_insert_many histogram" in text
    assert "repro_engine_latency_insert_many_sum_ms 1.25" in text
    assert "not-a-number" not in text and "meta_flag" not in text
    assert text.endswith("\n")


def test_render_trace_is_an_indented_tree():
    entry = {"trace": "t1-2", "name": "server.insert_many", "ms": 4.2,
             "tags": {"namespace": "default"},
             "children": [{"name": "engine.insert_many", "ms": 3.9,
                           "tags": {}, "children": []}]}
    text = render_trace(entry)
    lines = text.splitlines()
    assert lines[0].startswith("trace t1-2: server.insert_many")
    assert "{namespace=default}" in lines[0]
    assert lines[1] == "  engine.insert_many 3.900ms"


# --------------------------------------------------------------------------- #
# One snapshot per engine: telemetry() reads the registry
# --------------------------------------------------------------------------- #

def replicated_config(**overrides):
    base = dict(inner="b-treap", shards=2, block_size=BLOCK_SIZE,
                seed=SEED, parallel="process", max_workers=2,
                replication=2, telemetry=True)
    base.update(overrides)
    return EngineConfig(**base)


def test_engine_telemetry_folds_all_four_surfaces():
    engine = make_sharded_engine(config=replicated_config())
    try:
        engine.insert_many((key, key * 3) for key in range(64))
        hits = engine.contains_many(list(range(96)))
        assert sum(hits) == 64
        snap = engine.telemetry()
    finally:
        engine.close()
    # The four counter families, namespaced side by side.
    assert snap["engine_io.reads"] >= 0
    assert snap["plane.coalesced"] > 0 and "plane.fsync_batches" in snap
    assert "plane.bytes" not in snap and "plane.frames" not in snap
    assert "erasure.erase_calls" in snap or any(
        name.startswith("erasure.") for name in snap)
    assert any(name.startswith("replica_reads.") for name in snap)
    # The registry's own counters from the instrumented bulk calls.
    assert snap["engine.calls.insert_many"] == 1
    assert snap["engine.calls.contains_many"] == 1
    assert snap["engine.keys.insert_many"] == 64
    assert snap["engine.latency.insert_many.count"] == 1
    # Tracing was on: spans crossed into the workers and came back.
    assert snap["telemetry.spans"] >= 2
    assert snap["telemetry.crossings"] > 0
    assert snap["telemetry.worker_spans"] > 0
    # Only the engine_io fold merges; the rest already is the registry.
    assert snap["telemetry.snapshot_merges"] == 1


def test_traced_bulk_call_crosses_into_the_workers():
    engine = make_sharded_engine(config=replicated_config())
    try:
        engine.insert_many((key, key) for key in range(32))
        engine.contains_many(list(range(32)))
        traces = engine.tracer.traces()
    finally:
        engine.close()
    root = traces[-1]
    assert root["name"] == "engine.contains_many"
    worker_names = {child["name"] for child in root["children"]}
    assert any(name.startswith("worker.contains") for name in worker_names)
    grand = [grandchild["name"] for child in root["children"]
             for grandchild in child["children"]]
    assert "worker.decode" in grand
    assert "worker.apply.contains" in grand
    # Every worker span continues the root's trace id across the pipe.
    assert {child["trace"] for child in root["children"]} == \
        {root["trace"]}


PROCESS_COUNTERS = {
    "plane.coalesced", "plane.fsync_batches",
    "erasure.barriers", "erasure.deletes_flushed", "erasure.frames_dropped",
    "erasure.redactions",
    "replica_reads.replica_reads", "replica_reads.demotions",
    "replica_reads.anti_entropy_reseeds",
}


def test_process_engine_counters_start_at_zero_in_the_registry():
    """A fresh process engine names its nine counters at zero (the key set
    the e2e counter helper and the server's ``stats`` verb read); a
    sequential engine names none of them; a closed one has no snapshot."""
    engine = make_sharded_engine(config=replicated_config(
        max_workers=None, replication=1, telemetry=False))
    try:
        snap = engine.telemetry()
        assert {name: snap[name] for name in PROCESS_COUNTERS} \
            == dict.fromkeys(PROCESS_COUNTERS, 0)
        assert set(engine.metrics.snapshot()) == PROCESS_COUNTERS
    finally:
        engine.close()
    with pytest.raises(ConfigurationError, match="closed"):
        engine.telemetry()
    sequential = make_sharded_engine(config=replicated_config(
        parallel="none", max_workers=None, replication=1, telemetry=False))
    assert not PROCESS_COUNTERS & set(sequential.telemetry())


def test_closed_replicated_engine_raises_clean_configuration_errors():
    """The bugfix satellite: after ``close()`` the stats surfaces raise a
    typed :class:`ConfigurationError`, not ``BrokenPipeError``/``OSError``
    from a dead worker pipe."""
    engine = make_sharded_engine(config=replicated_config(telemetry=False))
    engine.insert_many((key, key) for key in range(8))
    assert engine.telemetry()["replica_reads.replica_reads"] >= 0
    engine.close()
    with pytest.raises(ConfigurationError, match="closed"):
        engine.io_stats()
    with pytest.raises(ConfigurationError, match="closed"):
        engine.telemetry()


# --------------------------------------------------------------------------- #
# The wire: one trace across client -> server -> engine -> worker
# --------------------------------------------------------------------------- #

def test_server_stats_and_traces_expose_one_cross_process_tree():
    config = replicated_config()
    with ThreadedServer(config) as server:
        with ReproClient("127.0.0.1", server.port) as client:
            client.tracer.enabled = True
            client.insert_many([(key, key * 2) for key in range(64)])
            assert sum(client.contains_many(list(range(64)))) == 64
            client_roots = client.tracer.traces()
            stats = client.stats()
            traced = client.traces()
    contains_roots = [entry for entry in client_roots
                      if entry["name"] == "client.contains_many"]
    client_trace_ids = {entry["trace"] for entry in contains_roots}
    # The merged snapshot carries every surface through the wire.
    assert "plane.coalesced" in stats and "plane.fsync_batches" in stats
    assert stats["engine.calls.insert_many"] >= 1
    assert stats["server.telemetry.adopted"] >= 1
    assert stats["telemetry.worker_spans"] > 0
    # One tree: a server-side root continues a client trace id and bottoms
    # out in worker spans from another process.
    server_roots = [entry for entry in traced["traces"]
                    if entry["name"] == "server.contains_many"
                    and entry["trace"] in client_trace_ids]
    assert server_roots, "no server root continued a client trace id"
    tree = render_trace(server_roots[-1])
    assert "engine.contains_many" in tree
    assert "worker." in tree


def test_malformed_wire_trace_headers_are_ignored(monkeypatch):
    # Pin tracing off (the CI observability job exports REPRO_TRACE=1)
    # so the client does not overwrite the junk header with a real one.
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    config = EngineConfig(inner="b-treap", shards=2,
                          block_size=BLOCK_SIZE, seed=SEED)

    async def drive(port):
        async with AsyncReproClient("127.0.0.1", port) as client:
            await client.insert_many([(1, 1), (2, 2)])
            for junk in ("garbage", 17, ["t1"], {"weird": "keys"}):
                reply, _values = await client._request(
                    "len", header={TRACE_KEY: junk})
                assert reply["length"] == 2

    with ThreadedServer(config) as server:
        run_async(drive(server.port))


def test_untraced_requests_add_no_trace_field(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    config = EngineConfig(inner="b-treap", shards=2,
                          block_size=BLOCK_SIZE, seed=SEED)

    async def drive(port):
        async with AsyncReproClient("127.0.0.1", port) as client:
            assert client.tracer.enabled is False  # tracing pinned off
            await client.insert_many([(1, 1)])
            reply, _values = await client._request("len")
            assert TRACE_KEY not in reply  # nothing to echo

    with ThreadedServer(config) as server:
        run_async(drive(server.port))


# --------------------------------------------------------------------------- #
# Determinism: the gated counters survive telemetry under fork AND spawn
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_gated_counters_bit_identical_with_telemetry(start_method,
                                                     tmp_path):
    """The committed baseline (34 legacy + 5 telemetry counters) must
    reproduce bit-for-bit with tracing force-enabled, under both start
    methods — telemetry that perturbed a gated counter would be an
    observer effect on the history-independence evidence itself."""
    current = str(tmp_path / ("current-%s.json" % start_method))
    env = dict(os.environ, REPRO_BENCH_SMOKE="1",
               REPRO_BENCH_SMOKE_CAP="1000",
               REPRO_START_METHOD=start_method, REPRO_TRACE="1")
    env.pop("REPRO_BENCH_SCALE", None)
    completed = subprocess.run(
        [sys.executable, BASELINE, "run", "--output", current],
        capture_output=True, text=True, check=False, cwd=REPO_ROOT,
        env=env, timeout=300)
    assert completed.returncode == 0, completed.stderr
    with open(current, encoding="utf-8") as handle:
        produced = json.load(handle)["metrics"]
    with open(COMMITTED, encoding="utf-8") as handle:
        committed = json.load(handle)["metrics"]
    assert produced == committed, (
        "telemetry perturbed the gated counters under %s" % start_method)
    assert any(name.startswith("telemetry.") for name in committed)
    # The CLI gate agrees at zero tolerance (what CI actually runs).
    compared = subprocess.run(
        [sys.executable, BASELINE, "compare", COMMITTED, current,
         "--tolerance", "0"],
        capture_output=True, text=True, check=False, cwd=REPO_ROOT,
        env=env, timeout=300)
    assert compared.returncode == 0, compared.stderr
    assert "OK" in compared.stdout
