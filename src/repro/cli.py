"""Command-line interface: ``python -m repro <command>``.

The CLI packages the library's experiment and audit pipelines behind small
commands so the paper's measurements can be regenerated (at configurable
scale) without writing any code:

``figure2``
    Replay uniform random inserts on the HI PMA and the classic PMA and print
    the normalized-move series of Figure 2 (optionally to CSV).
``uniformity``
    Run the §4.3 balance-uniformity χ² experiment.
``audit``
    Run the weak-history-independence audit for a chosen structure over
    order-variant and detour histories.
``compare-io``
    Compare search/insert/range I/O costs of the external-memory dictionaries
    across a sweep of sizes.
``workload``
    Generate a reproducible operation trace and write it to CSV.
``rebalance``
    Grow and shrink a sharded store shard by shard and report how many keys
    each rebalancing step migrated (modulo vs. consistent-hash routing).
    ``--replication``/``--durability-dir`` run the store on the replicated
    durable backend; ``--durability-mode secure`` redacts deleted keys from
    every on-disk byte at barriers and checkpoints.
``recover``
    Cold-start a durable store from its durability directory (manifest +
    snapshots + op logs) and report keys, replicas and per-shard digests.
    ``--verify-erased KEYS`` then runs the byte-level forensics auditor
    against the directory and fails if any named key left a trace.
``snapshot``
    Build a structure, write its slot array to a (real or in-memory) disk
    image, and print the observer's occupancy profile.
``serve``
    Host a sharded store behind the TCP wire protocol; ``--telemetry``
    turns on request tracing and ``--metrics-interval N`` prints the
    unified telemetry snapshot every N seconds.
``stats``
    Fetch a running server's telemetry snapshot over the wire (text,
    JSON, or Prometheus exposition; ``--traces`` adds recent span trees).
``report``
    Aggregate ``benchmarks/results/*.json`` into a Markdown table.

Every command accepts ``--seed`` so its output is reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
from types import ModuleType
from typing import Callable, Dict, List, Optional, Sequence

from repro.api import (
    PARALLEL_MODES,
    DictionaryEngine,
    EngineConfig,
    audit_fingerprint_of,
    get_info,
    make_raw_structure,
    make_sharded_engine,
    registry_names,
    resolve,
)
from repro.api.routing import ROUTER_NAMES
from repro.errors import ConfigurationError

# Each command imports the rest of what it runs inside its own function,
# so a command (``serve`` above all) starts on only the code it uses.


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #

#: Structures compared by ``compare-io`` when no ``--structure`` is given.
_DEFAULT_COMPARE = ("b-tree", "hi-skiplist", "b-skiplist", "b-treap")


def _rank_addressed_names() -> List[str]:
    """Registry names whose underlying structure is rank-addressed (the PMAs)."""
    return [name for name in registry_names()
            if get_info(name).rank_addressed]


def _check_router_flags(args: argparse.Namespace) -> None:
    """Reject ``--router``/``--vnodes`` silently doing nothing without shards."""
    if args.shards == 0 and (args.router != "modulo"
                             or args.vnodes is not None):
        raise ConfigurationError(
            "--router/--vnodes only apply to sharded runs; pass --shards N")


def _add_router_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--router`` / ``--vnodes`` flags of the sharded commands."""
    parser.add_argument("--router", choices=ROUTER_NAMES, default="modulo",
                        help="shard routing strategy: fixed modulo hashing "
                             "or a consistent-hash ring (elastic resizes "
                             "move only ~1/shards of the keys)")
    parser.add_argument("--vnodes", type=int, default=None,
                        help="virtual nodes per shard for --router "
                             "consistent (default 64)")


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--parallel`` / ``--max-workers`` flags of sharded dispatch."""
    parser.add_argument("--parallel", choices=PARALLEL_MODES, default="none",
                        help="shard dispatch backend: sequential, or "
                             "long-lived worker processes (one per shard, "
                             "escapes the GIL)")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="cap the process pool (default: one worker "
                             "per shard)")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="History-independent sparse tables and dictionaries "
                    "(PODS 2016 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure2 = subparsers.add_parser(
        "figure2", help="normalized element moves vs. inserts (Figure 2)")
    figure2.add_argument("--inserts", type=int, default=5000)
    figure2.add_argument("--checkpoints", type=int, default=10)
    figure2.add_argument("--seed", type=int, default=0)
    figure2.add_argument("--csv", type=str, default=None,
                         help="optional path for a CSV copy of the series")

    uniformity = subparsers.add_parser(
        "uniformity", help="balance-element uniformity χ² experiment (§4.3)")
    uniformity.add_argument("--keys", type=int, default=500)
    uniformity.add_argument("--trials", type=int, default=60)
    uniformity.add_argument("--seed", type=int, default=0)

    audit = subparsers.add_parser(
        "audit", help="weak-history-independence audit for one structure")
    audit.add_argument("--structure",
                       choices=registry_names(include_aliases=True),
                       default="hi-pma")
    audit.add_argument("--keys", type=int, default=32)
    audit.add_argument("--trials", type=int, default=100)
    audit.add_argument("--block", type=int, default=8,
                       help="DAM block size for block-structured dictionaries "
                            "(b-tree, b-treap, the skip lists); structures "
                            "whose layout does not depend on B ignore it")
    audit.add_argument("--shards", type=int, default=0,
                       help="audit the structure behind a hash-partitioned "
                            "sharded router with this many shards "
                            "(0 = unsharded)")
    _add_router_arguments(audit)
    audit.add_argument("--seed", type=int, default=0)

    compare = subparsers.add_parser(
        "compare-io", help="search/insert/range I/O comparison of dictionaries")
    compare.add_argument("--structure", action="append",
                         choices=registry_names(include_aliases=True),
                         default=None,
                         help="structure to compare (repeatable; default: %s)"
                              % ", ".join(_DEFAULT_COMPARE))
    compare.add_argument("--sizes", type=str, default="1000,4000")
    compare.add_argument("--block", type=int, default=64)
    compare.add_argument("--searches", type=int, default=100)
    compare.add_argument("--shards", type=int, default=0,
                         help="measure each structure behind a sharded "
                              "router with this many shards (0 = unsharded)")
    _add_router_arguments(compare)
    compare.add_argument("--seed", type=int, default=0)

    workload = subparsers.add_parser(
        "workload", help="generate a reproducible operation trace")
    workload.add_argument("--kind", choices=sorted(_WORKLOADS), default="random")
    workload.add_argument("--count", type=int, default=1000)
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--csv", type=str, default=None)
    workload.add_argument("--preview", type=int, default=10,
                          help="number of operations to print")

    attack = subparsers.add_parser(
        "attack", help="observer attack accuracy against one structure")
    attack.add_argument("--structure", choices=_rank_addressed_names(),
                        default="classic-pma")
    attack.add_argument("--kind", choices=["recency", "deletion"], default="recency")
    attack.add_argument("--keys", type=int, default=500)
    attack.add_argument("--trials", type=int, default=15)
    attack.add_argument("--regions", type=int, default=8)
    attack.add_argument("--seed", type=int, default=0)

    snapshot = subparsers.add_parser(
        "snapshot", help="write a structure's slot-level layout to a disk image")
    snapshot.add_argument("--structure",
                          choices=registry_names(include_aliases=True),
                          default="hi-pma")
    snapshot.add_argument("--keys", type=int, default=1000)
    snapshot.add_argument("--seed", type=int, default=0)
    snapshot.add_argument("--path", type=str, default=None,
                          help="file to write the image to (default: "
                               "in-memory); with --shards, a directory "
                               "receiving one image per shard + manifest")
    snapshot.add_argument("--shards", type=int, default=0,
                          help="shard the structure this many ways and "
                               "snapshot per shard (0 = unsharded)")
    _add_router_arguments(snapshot)
    snapshot.add_argument("--buckets", type=int, default=16)

    rebalance = subparsers.add_parser(
        "rebalance", help="grow/shrink a sharded store and report how many "
                          "keys each rebalancing step migrated")
    rebalance.add_argument("--structure",
                           choices=registry_names(include_aliases=True),
                           default="hi-skiplist",
                           help="inner structure behind the sharded router")
    rebalance.add_argument("--shards", type=int, default=3,
                           help="initial shard count")
    _add_router_arguments(rebalance)
    rebalance.add_argument("--keys", type=int, default=2000,
                           help="keys loaded before the first resize")
    rebalance.add_argument("--add", type=int, default=1,
                           help="shards to add, one rebalancing step each")
    rebalance.add_argument("--remove", type=int, default=0,
                           help="shards to retire (last position first) "
                                "after the adds")
    rebalance.add_argument("--block", type=int, default=64)
    rebalance.add_argument("--seed", type=int, default=0)
    _add_parallel_arguments(rebalance)
    rebalance.add_argument("--replication", type=int, default=1,
                           help="copies per shard (primary included); "
                                "values above 1 require --parallel process")
    rebalance.add_argument("--read-policy",
                           choices=("primary", "round-robin",
                                    "any-after-barrier"),
                           default="primary",
                           help="where a replicated store serves reads: the "
                                "primary only, round-robin over live "
                                "copies, or any copy that acked the last "
                                "barrier (requires --replication >= 2)")
    rebalance.add_argument("--durability-dir", type=str, default=None,
                           help="directory for per-shard op logs and "
                                "checkpointed snapshots (requires "
                                "--parallel process); a store written here "
                                "can be reopened with 'repro recover'")
    rebalance.add_argument("--durability-mode", choices=("logged", "secure"),
                           default="logged",
                           help="'logged' keeps the full mutation history in "
                                "the op logs until a checkpoint; 'secure' "
                                "redacts deleted keys from every on-disk "
                                "byte at the next barrier/checkpoint "
                                "(requires --durability-dir)")

    recover = subparsers.add_parser(
        "recover", help="cold-start a durable sharded store from its "
                        "durability directory and report what came back")
    recover.add_argument("--dir", type=str, required=True,
                         help="durability directory (op logs + snapshots + "
                              "manifest) written by a durable engine")
    recover.add_argument("--replication", type=int, default=None,
                         help="override the manifest's replication factor")
    recover.add_argument("--read-policy",
                         choices=("primary", "round-robin",
                                  "any-after-barrier"),
                         default=None,
                         help="override the manifest's read policy")
    recover.add_argument("--max-workers", type=int, default=None)
    recover.add_argument("--verify-erased", type=str, default=None,
                         metavar="KEYS",
                         help="comma-separated integer keys that must have "
                              "no byte-level trace left in the durability "
                              "directory; runs the forensics auditor after "
                              "recovery and exits 1 if any trace is found")

    serve = subparsers.add_parser(
        "serve", help="host a sharded store behind the TCP wire protocol "
                      "(see repro.net); drains gracefully on SIGINT/SIGTERM")
    serve.add_argument("--structure",
                       choices=registry_names(include_aliases=True),
                       default="hi-skiplist",
                       help="inner structure behind the sharded router")
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument("--block", type=int, default=64)
    serve.add_argument("--seed", type=int, default=0)
    _add_router_arguments(serve)
    _add_parallel_arguments(serve)
    serve.add_argument("--replication", type=int, default=1,
                       help="copies per shard (primary included); values "
                            "above 1 require --parallel process")
    serve.add_argument("--read-policy",
                       choices=("primary", "round-robin",
                                "any-after-barrier"),
                       default="primary",
                       help="read routing over replica copies (see "
                            "'repro rebalance --help'); clients learn the "
                            "policy from the handshake")
    serve.add_argument("--durability-dir", type=str, default=None,
                       help="per-namespace durable state goes into "
                            "subdirectories of this directory (requires "
                            "--parallel process)")
    serve.add_argument("--durability-mode", choices=("logged", "secure"),
                       default="logged")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0: pick a free port and "
                            "print it)")
    serve.add_argument("--max-inflight", type=int, default=32,
                       help="per-connection in-flight request budget; "
                            "requests over budget are shed with a BUSY "
                            "reply instead of queueing without bound")
    serve.add_argument("--telemetry", action="store_true",
                       help="enable request tracing on the hosted engines "
                            "(spans cross the worker pipe and the wire; "
                            "same effect as REPRO_TRACE=1 for this store)")
    serve.add_argument("--metrics-interval", type=float, default=0.0,
                       help="print the default namespace's telemetry "
                            "snapshot every N seconds (0 disables)")

    stats = subparsers.add_parser(
        "stats", help="fetch a running server's unified telemetry snapshot "
                      "over the wire (counters, latency histograms, plane/"
                      "erasure/replica-read stats; optionally span trees)")
    stats.add_argument("--host", type=str, default="127.0.0.1")
    stats.add_argument("--port", type=int, required=True,
                       help="port of a running 'repro serve'")
    stats.add_argument("--namespace", type=str, default="default")
    stats.add_argument("--format", choices=("text", "json", "prom"),
                       default="text",
                       help="text: aligned name/value lines; json: one "
                            "sorted object; prom: Prometheus text "
                            "exposition")
    stats.add_argument("--traces", action="store_true",
                       help="also fetch and render the server's recent "
                            "span trees and slow-op log")

    report = subparsers.add_parser(
        "report", help="aggregate benchmark results into a Markdown table")
    report.add_argument("--results", type=str, default="benchmarks/results")

    return parser


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #

def cmd_figure2(args: argparse.Namespace, out) -> int:
    from repro.analysis.moves import normalized_moves_series
    from repro.analysis.reporting import format_table
    from repro.analysis.tables import write_csv
    from repro.workloads import random_insert_trace

    trace = random_insert_trace(args.inserts, seed=args.seed)
    hi_series = normalized_moves_series(
        make_raw_structure("hi-pma", seed=args.seed),
        trace, checkpoints=args.checkpoints)
    classic_series = normalized_moves_series(
        make_raw_structure("classic-pma"), trace,
        checkpoints=args.checkpoints)
    rows = []
    for hi_sample, classic_sample in zip(hi_series, classic_series):
        rows.append([hi_sample.inserts,
                     "%.4f" % hi_sample.normalized_moves,
                     "%.4f" % classic_sample.normalized_moves,
                     "%.2f" % hi_sample.space_per_element])
    headers = ["inserts", "HI PMA moves/(N log^2 N)",
               "classic PMA moves/(N log^2 N)", "HI slots/N"]
    print(format_table(rows, headers=headers), file=out)
    if args.csv:
        write_csv(args.csv, rows, headers=headers)
        print("wrote %s" % args.csv, file=out)
    return 0


def cmd_uniformity(args: argparse.Namespace, out) -> int:
    from repro.history.uniformity import balance_uniformity_experiment

    result = balance_uniformity_experiment(num_keys=args.keys,
                                           trials=args.trials,
                                           seed=args.seed)
    print("groups tested      : %d" % result.num_groups, file=out)
    print("overall p-value    : %.4f" % result.overall_p_value, file=out)
    print("uniformity verdict : %s"
          % ("consistent with uniform" if result.passes() else "REJECTED"),
          file=out)
    return 0 if result.passes() else 1


def cmd_audit(args: argparse.Namespace, out) -> int:
    from repro.history.audit import audit_weak_history_independence
    from repro.history.pairs import equivalent_histories, registry_builders

    if args.shards < 0:
        raise ConfigurationError("--shards must be non-negative, got %d"
                                 % args.shards)
    _check_router_flags(args)
    keys = list(range(1, args.keys + 1))
    detours = [args.keys + 10, args.keys + 20]
    histories = equivalent_histories(keys, detour_keys=detours, shuffles=2,
                                     seed=args.seed)
    if args.shards > 0:
        label = "sharded[%d]:%s" % (args.shards, resolve(args.structure))
        builders = registry_builders("sharded", histories,
                                     block_size=args.block,
                                     shards=args.shards,
                                     inner=resolve(args.structure),
                                     router=args.router, vnodes=args.vnodes)
    else:
        label = args.structure
        builders = registry_builders(args.structure, histories,
                                     block_size=args.block)
    result = audit_weak_history_independence(
        builders, trials=args.trials, fingerprint_of=audit_fingerprint_of)
    print("structure             : %s" % label, file=out)
    print("histories compared    : %d" % result.num_sequences, file=out)
    print("trials per history    : %d" % result.trials_per_sequence, file=out)
    print("distinct fingerprints : %d" % result.distinct_fingerprints, file=out)
    print("deterministic mismatch: %s" % result.deterministic_mismatch, file=out)
    print("homogeneity p-value   : %.4f" % result.p_value, file=out)
    verdict = "PASS (no evidence of history dependence)" if result.passes() \
        else "FAIL (representation depends on history)"
    print("verdict               : %s" % verdict, file=out)
    return 0 if result.passes() else 1


def cmd_compare_io(args: argparse.Namespace, out) -> int:
    from repro.analysis.reporting import format_table
    from repro.analysis.scaling import registry_io_series

    try:
        sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    except ValueError as error:
        raise ConfigurationError("--sizes must be a comma-separated list of "
                                 "integers, got %r" % (args.sizes,)) from error
    if not sizes:
        raise ConfigurationError("--sizes must name at least one size")
    requested = args.structure or list(_DEFAULT_COMPARE)
    names: List[str] = []
    for name in requested:
        canonical = resolve(name)
        if canonical not in names:
            names.append(canonical)
    if args.shards < 0:
        raise ConfigurationError("--shards must be non-negative, got %d"
                                 % args.shards)
    _check_router_flags(args)
    samples = registry_io_series(names, sizes, block_size=args.block,
                                 searches=args.searches, seed=args.seed,
                                 shards=args.shards, router=args.router,
                                 vnodes=args.vnodes)
    rows = [[sample.structure, sample.num_keys,
             "%.2f" % sample.search_ios, "%.2f" % sample.insert_ios,
             "%.1f" % sample.range_ios]
            for sample in samples]
    print(format_table(rows, headers=["structure", "N", "search I/Os",
                                      "insert I/Os", "range I/Os"]), file=out)
    return 0


#: ``workload --kind`` choices: each builds its trace with the
#: :mod:`repro.workloads` module it is handed, so listing them imports nothing.
_WORKLOADS: Dict[str, Callable[[ModuleType, argparse.Namespace], List[object]]] = {
    "random": lambda w, args: w.random_insert_trace(args.count, seed=args.seed),
    "sequential": lambda w, args: w.sequential_insert_trace(args.count),
    "zipfian": lambda w, args: w.zipfian_insert_trace(args.count, seed=args.seed),
    "sliding-window": lambda w, args: w.sliding_window_trace(
        args.count, window=max(1, args.count // 10)),
    "trough": lambda w, args: w.trough_trace(args.count, seed=args.seed),
    "redaction": lambda w, args: w.batch_redaction_trace(max(1, args.count), seed=args.seed),
    "zipf-mixed": lambda w, args: w.zipf_mixed_trace(args.count, seed=args.seed),
    "elastic": lambda w, args: w.elastic_churn_trace(args.count, seed=args.seed),
}


def cmd_workload(args: argparse.Namespace, out) -> int:
    from repro import workloads
    from repro.analysis.tables import write_csv

    trace = _WORKLOADS[args.kind](workloads, args)
    print("generated %d operations (%s)" % (len(trace), args.kind), file=out)
    for operation in trace[:max(0, args.preview)]:
        print("  %s" % operation, file=out)
    if len(trace) > args.preview > 0:
        print("  ... (%d more)" % (len(trace) - args.preview), file=out)
    if args.csv:
        rows = [[operation.kind.value, operation.key] for operation in trace]
        write_csv(args.csv, rows, headers=["operation", "key"])
        print("wrote %s" % args.csv, file=out)
    return 0


def cmd_attack(args: argparse.Namespace, out) -> int:
    from repro.history.observer import (
        DeletionAttack,
        RecencyAttack,
        deletion_victim_builder,
        evaluate_attack,
        recency_victim_builder,
    )

    factory = lambda seed: make_raw_structure(args.structure, seed=seed)
    if args.kind == "recency":
        attack = RecencyAttack(regions=args.regions)
        builder = recency_victim_builder(factory, base_keys=args.keys,
                                         burst_keys=max(10, args.keys // 6),
                                         regions=args.regions)
    else:
        attack = DeletionAttack(regions=args.regions)
        builder = deletion_victim_builder(factory, initial_keys=args.keys,
                                          regions=args.regions)
    report = evaluate_attack(attack, builder, trials=args.trials, seed=args.seed)
    print("victim structure : %s" % args.structure, file=out)
    print("attack           : %s (%d regions)" % (args.kind, args.regions), file=out)
    print("trials           : %d" % report.trials, file=out)
    print("accuracy         : %.2f (chance %.3f)" % (report.accuracy, report.chance),
          file=out)
    print("advantage        : %.2f" % report.advantage, file=out)
    verdict = "layout leaks the secret" if report.advantage > report.chance \
        else "observer learns nothing useful"
    print("verdict          : %s" % verdict, file=out)
    return 0


def cmd_snapshot(args: argparse.Namespace, out) -> int:
    from repro.storage.snapshot import MANIFEST_NAME, image_of
    from repro.workloads import random_insert_trace

    if args.shards < 0:
        raise ConfigurationError("--shards must be non-negative, got %d"
                                 % args.shards)
    _check_router_flags(args)
    if args.shards > 0:
        engine = DictionaryEngine.create("sharded", seed=args.seed,
                                         shards=args.shards,
                                         inner=resolve(args.structure),
                                         router=args.router,
                                         vnodes=args.vnodes)
    else:
        engine = DictionaryEngine.create(args.structure, seed=args.seed)
    engine.build_from_trace(random_insert_trace(args.keys, seed=args.seed))
    if args.shards > 0:
        print("structure        : sharded[%d]:%s"
              % (args.shards, resolve(args.structure)), file=out)
        print("shard sizes      : %s" % (engine.shard_sizes(),), file=out)
        if args.path:
            manifest = engine.snapshot_shards(args.path)
            for entry in manifest["shards"]:
                print("  %-16s %6d slots  %4d pages"
                      % (entry["file"], entry["num_slots"],
                         entry["num_pages"]), file=out)
            print("manifest written to %s"
                  % os.path.join(args.path, MANIFEST_NAME), file=out)
            return 0
    paged_file, metadata = engine.snapshot(args.path)
    image = image_of(paged_file, metadata)
    if args.shards <= 0:
        print("structure        : %s" % metadata.kind, file=out)
    print("slots            : %d" % metadata.num_slots, file=out)
    print("pages            : %d (%d bytes)"
          % (len(image), image.size_in_bytes), file=out)
    print("image fingerprint: %s" % image.fingerprint()[:16], file=out)
    profile = image.occupancy_profile(buckets=args.buckets)
    print("occupancy profile:", file=out)
    for index, density in enumerate(profile):
        bar = "#" * int(round(40 * density))
        print("  region %2d  %5.1f%%  %s" % (index, 100 * density, bar), file=out)
    if args.path:
        print("image written to %s" % args.path, file=out)
    return 0


def _engine_config_from_args(args: argparse.Namespace) -> EngineConfig:
    """The :class:`EngineConfig` described by the shared sharded flags."""
    from repro.api.routing import make_router

    inner = resolve(args.structure)
    if inner == "sharded":
        raise ConfigurationError(
            "--structure names the inner structure; it cannot be 'sharded'")
    return EngineConfig(
        inner=inner, shards=args.shards, block_size=args.block,
        seed=args.seed,
        router=make_router(args.router, vnodes=args.vnodes).spec(),
        parallel=args.parallel, max_workers=args.max_workers,
        replication=args.replication,
        read_policy=getattr(args, "read_policy", "primary"),
        durability_dir=args.durability_dir,
        durability_mode=args.durability_mode,
        telemetry=getattr(args, "telemetry", False)).validate()


def cmd_rebalance(args: argparse.Namespace, out) -> int:
    from repro.analysis.reporting import format_table
    from repro.workloads import random_insert_trace

    if args.shards < 1:
        raise ConfigurationError("--shards must be at least 1, got %d"
                                 % args.shards)
    if args.add < 0 or args.remove < 0:
        raise ConfigurationError("--add and --remove must be non-negative")
    if args.remove >= args.shards + args.add:
        raise ConfigurationError(
            "cannot remove %d shard(s) from a store that only ever has %d"
            % (args.remove, args.shards + args.add))
    config = _engine_config_from_args(args)
    inner = config.inner
    engine = make_sharded_engine(config=config)
    try:
        engine.build_from_trace(random_insert_trace(args.keys, seed=args.seed))
        print("store   : %d x %s (router=%s%s, parallel=%s, replication=%d)"
              % (args.shards, inner, args.router,
                 "" if args.vnodes is None else ", vnodes=%d" % args.vnodes,
                 args.parallel, args.replication),
              file=out)
        print("keys    : %d" % len(engine), file=out)
        reports = []
        for _step in range(args.add):
            reports.append(("add", engine.add_shard()))
        for _step in range(args.remove):
            reports.append(("remove",
                            engine.remove_shard(engine.num_shards - 1)))
        rows = []
        for action, report in reports:
            rows.append([
                action,
                "%d -> %d" % (report.old_shards, report.new_shards),
                report.moved_keys,
                "%.3f" % report.moved_fraction,
                "%.3f" % report.ideal_fraction,
            ])
        print(format_table(rows, headers=["step", "shards", "keys moved",
                                          "moved frac", "ideal frac"]),
              file=out)
        print("final shard sizes: %s" % (engine.shard_sizes(),), file=out)
        engine.check()
        if args.durability_dir:
            engine.checkpoint()
            print("durable state checkpointed to %s (mode=%s; reopen with "
                  "'repro recover --dir %s')"
                  % (args.durability_dir, args.durability_mode,
                     args.durability_dir), file=out)
    finally:
        engine.close()
    return 0


def cmd_recover(args: argparse.Namespace, out) -> int:
    from repro.api.protocol import shard_digest
    from repro.replication import open_durable_engine

    with open_durable_engine(args.dir, replication=args.replication,
                             read_policy=args.read_policy,
                             max_workers=args.max_workers) as engine:
        engine.check()
        print("recovered store : %d x shard (replication=%d) from %s"
              % (engine.num_shards, engine.replication, args.dir), file=out)
        print("durability mode : %s" % engine.durability_mode, file=out)
        print("read policy     : %s" % engine.read_policy, file=out)
        config = engine.engine_config
        print("engine config   : inner=%s shards=%d seed=%s router=%s"
              % (config.inner, config.shards, config.seed,
                 config.router.get("name")), file=out)
        print("keys            : %d" % len(engine), file=out)
        print("shard sizes     : %s" % (engine.shard_sizes(),), file=out)
        print("live replicas   : %s" % (engine.replica_counts(),), file=out)
        for index, shard in enumerate(engine.structure.shards):
            # The full layout observable (audit fingerprint + slot array),
            # hashed: comparable across runs, machines, and recoveries.
            print("  shard %2d digest: %s"
                  % (index, shard_digest(shard)[:16]), file=out)
        print("integrity       : check() passed", file=out)
    if args.verify_erased is not None:
        from repro.history.forensics import audit_durability_dir

        try:
            keys = [int(part) for part in args.verify_erased.split(",")
                    if part.strip()]
        except ValueError as error:
            raise ConfigurationError(
                "--verify-erased takes comma-separated integer keys, got %r"
                % (args.verify_erased,)) from error
        if not keys:
            raise ConfigurationError(
                "--verify-erased needs at least one key")
        report = audit_durability_dir(args.dir, keys, payload_size=64)
        if report.clean:
            print("erasure audit   : clean — no trace of %d key(s) in "
                  "%d file(s), %d bytes"
                  % (len(keys), len(report.files_scanned),
                     report.bytes_scanned), file=out)
            return 0
        print("erasure audit   : TRACES FOUND — %d finding(s) across %s"
              % (len(report.findings),
                 sorted({finding.file for finding in report.findings})),
              file=out)
        return 1
    return 0


def cmd_serve(args: argparse.Namespace, out) -> int:
    if args.metrics_interval < 0:
        raise ConfigurationError(
            "--metrics-interval must be non-negative, got %r"
            % (args.metrics_interval,))
    config = _engine_config_from_args(args)
    # The default pool forks here, on the only thread and before asyncio
    # or the server is imported, so each worker copies the smallest heap
    # this command ever has.  The server owns the engine once it starts.
    engine = make_sharded_engine(config.for_namespace("default"))
    import asyncio
    import json
    import signal

    from repro.net.server import ReproServer

    try:
        server = ReproServer(config, host=args.host, port=args.port,
                             max_inflight=args.max_inflight)
    except ConfigurationError:
        engine.close()
        raise

    async def dump_metrics() -> None:
        while True:
            await asyncio.sleep(args.metrics_interval)
            snapshot = await server.telemetry_snapshot()
            print("metrics: %s" % json.dumps(snapshot, sort_keys=True),
                  file=out)
            out.flush()

    async def run() -> None:
        try:
            await server.start(engine)
        except OSError as error:
            raise ConfigurationError("cannot listen on %s:%d: %s" % (
                args.host, args.port, error)) from error
        loop = asyncio.get_running_loop()
        drained = loop.create_future()

        def request_drain() -> None:
            if not drained.done():
                drained.set_result(None)

        # Readiness is announced only once a signal can drain the server.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, request_drain)
            except (NotImplementedError, RuntimeError):
                pass
        print("listening on %s:%d" % (server.host, server.port), file=out)
        out.flush()
        ticker = None
        if args.metrics_interval > 0:
            ticker = asyncio.ensure_future(dump_metrics())
        try:
            await drained
        finally:
            if ticker is not None:
                ticker.cancel()
        report = await server.drain()
        print("drained %d namespace(s); bye" % len(report), file=out)
        out.flush()

    asyncio.run(run())
    return 0


def cmd_stats(args: argparse.Namespace, out) -> int:
    import json

    from repro.net.client import ReproClient
    from repro.obs import render_trace, to_prometheus

    with ReproClient(args.host, args.port,
                     namespace=args.namespace) as client:
        snapshot = client.stats()
        if args.traces:
            bundles = client.traces()
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True), file=out)
    elif args.format == "prom":
        out.write(to_prometheus(snapshot))
    else:
        for name in sorted(snapshot):
            print("%-44s %s" % (name, snapshot[name]), file=out)
    if args.traces:
        print("recent traces (%d):" % len(bundles["traces"]), file=out)
        for entry in bundles["traces"]:
            print(render_trace(entry), file=out)
        if bundles["slow"]:
            print("slow ops (%d):" % len(bundles["slow"]), file=out)
            for entry in bundles["slow"]:
                print(render_trace(entry), file=out)
    return 0


def cmd_report(args: argparse.Namespace, out) -> int:
    from repro.analysis.tables import render_results_markdown

    print(render_results_markdown(args.results), file=out)
    return 0


_COMMANDS = {
    "figure2": cmd_figure2,
    "uniformity": cmd_uniformity,
    "audit": cmd_audit,
    "compare-io": cmd_compare_io,
    "workload": cmd_workload,
    "attack": cmd_attack,
    "snapshot": cmd_snapshot,
    "rebalance": cmd_rebalance,
    "recover": cmd_recover,
    "serve": cmd_serve,
    "stats": cmd_stats,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        return command(args, out)
    except ConfigurationError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
