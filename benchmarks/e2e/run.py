"""End-to-end benchmark of the HI store, with per-layer attribution.

Run one workload (the last stdout line is the JSON result)::

    python3 benchmarks/e2e/run.py --workload churn --seed 1 --seconds 10
    python3 benchmarks/e2e/run.py --workload serve --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --smoke            # every workload, tiny

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones (and writes the span trees to
``benchmarks/e2e/out/trace.json``).  Every other measured number is
printed above the result and kept in its ``E2E-RECORD`` line.

Compare two commits from saved outputs (one run per file or more)::

    python3 benchmarks/e2e/run.py compare parent-*.txt -- change-*.txt
    python3 benchmarks/e2e/run.py spread runs-*.txt

See README.md in this directory for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
BENCHMARK_JSON = os.path.join(REPO, "BENCHMARK.json")
WORKDIR = os.path.join(HERE, "out")
RECORD = "E2E-RECORD "
WORKLOAD_NAMES = ("bulk", "serve", "durable", "churn")


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def registered(benchmark: dict) -> Dict[str, dict]:
    """Every BENCHMARK.json metric by name (with its ``set``)."""
    specs = {}
    for kind in ("end_to_end", "per_layer"):
        for spec in benchmark[kind]:
            specs[spec["name"]] = dict(spec, set=kind)
    return specs


# --------------------------------------------------------------------------- #
# Run environment
# --------------------------------------------------------------------------- #

def filesystem_of(path: str) -> str:
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as handle:
        for line in handle:
            fields = line.split()
            mount = fields[1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, fields[2]
    return kind


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(REPO, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> Dict[str, object]:
    methods = multiprocessing.get_all_start_methods()
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "start_method": os.environ.get("REPRO_START_METHOD")
            or ("fork" if "fork" in methods else "spawn"),
            "filesystem": filesystem_of(WORKDIR),
            "revision": git_revision(),
            "seed": seed}


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #

def write_trace(workload: str, seed: int, spans: List[dict]) -> str:
    path = os.path.join(WORKDIR, "trace.json")
    traces = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                traces = json.load(handle)
        except ValueError:
            traces = {}
    traces[workload] = {"seed": seed, "spans": spans}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(traces, handle)
    return path


def run_one(args: argparse.Namespace) -> int:
    from e2e_layers import become_subreaper, stop_children

    become_subreaper()
    try:
        return measure_one(args)
    finally:
        stop_children()


def measure_one(args: argparse.Namespace) -> int:
    import e2e_workloads

    os.makedirs(WORKDIR, exist_ok=True)
    settings = e2e_workloads.Settings(
        seed=args.seed, seconds=args.seconds, smoke=args.smoke,
        trace=bool(args.trace), corrupt_oracle=args.corrupt_oracle,
        workdir=WORKDIR, src=SRC)
    report = e2e_workloads.Report(args.workload, settings)
    e2e_workloads.WORKLOADS[args.workload](settings, report)
    specs = registered(load_benchmark())
    wanted = [name for name, spec in specs.items()
              if spec["set"] == ("per_layer" if args.trace
                                 else "end_to_end")]
    problems = list(report.mismatches)
    for name in wanted:
        if name not in report.metrics:
            problems.append("metric %s was not measured" % name)
        elif report.metrics[name][1] != specs[name]["unit"]:
            problems.append("metric %s measured in %s, registered in %s"
                            % (name, report.metrics[name][1],
                               specs[name]["unit"]))
    env = environment(args.seed)
    print("== %s  seed=%d  trace=%d  %s" % (
        args.workload, args.seed, args.trace,
        "smoke" if args.smoke else "%gs" % args.seconds))
    print("env   : " + " ".join("%s=%s" % item for item in env.items()))
    print("sizes : " + " ".join("%s=%s" % item
                                for item in report.sizes.items()))
    for note in report.notes:
        print("note  : " + note)
    for name in sorted(report.metrics):
        value, unit = report.metrics[name]
        mark = "*" if name in wanted else " "
        print("%s %-44s %16.6g %s" % (mark, name, value, unit))
    print("(* = reported to the driver; attempted %d, failed %d, "
          "error_frac %.6g)" % (report.attempted, report.failed,
                                report.failed / max(1, report.attempted)))
    for problem in problems:
        print("FAILED CHECK: " + problem)
    if args.trace:
        print("spans : %s" % write_trace(args.workload, args.seed,
                                         report.spans))
    correct = not problems
    print(RECORD + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "env": env, "sizes": report.sizes,
        "correct": correct, "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()}},
        sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name][0],
                           "unit": report.metrics[name][1]}
                    for name in wanted if name in report.metrics}}))
    sys.stdout.flush()
    return 0 if correct else 1


def run_all(args: argparse.Namespace, argv: Sequence[str]) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    status = 0
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__)] + list(argv) \
            + ["--workload", workload]
        status = max(status, subprocess.call(command))
    return status


# --------------------------------------------------------------------------- #
# compare / spread
# --------------------------------------------------------------------------- #

def read_records(paths: Sequence[str]) -> List[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(RECORD):
                    records.append(json.loads(line[len(RECORD):]))
    return records


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def direction(name: str, unit: str, specs: Dict[str, dict]) -> Optional[str]:
    if name in specs:
        return specs[name]["better"]
    if unit in ("keys/s", "1/s"):
        return "higher"
    if unit in ("ms", "us", "s", "MB", "B"):
        return "lower"
    return None


def verdict(parent: List[float], change: List[float],
            better: Optional[str], bound: Optional[float]) -> Dict[str, object]:
    """The rule of choosing-metrics section 8, plus the regression bound."""
    p_q1, p_med, p_q3 = quartiles(parent)
    _c_q1, c_med, _c_q3 = quartiles(change)
    row = {"won": None, "verdict": "-"}
    if better is None:
        return row
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    losses = sum(1 for old, new in pairs if sign * (new - old) < 0)
    row["won"] = wins / len(pairs)
    gain = sign * (c_med - p_med)
    iqr = p_q3 - p_q1
    if row["won"] >= 0.9 and gain > 0 and abs(c_med - p_med) > iqr:
        row["verdict"] = "improved"
    elif bound is not None and -gain > bound * abs(p_med):
        row["verdict"] = "regressed"
    elif bound is None and losses / len(pairs) >= 0.9 and gain < 0 \
            and abs(c_med - p_med) > iqr:
        row["verdict"] = "regressed"
    elif bound is not None and iqr > bound * abs(p_med) and not (
            min(sign * value for value in change)
            > max(sign * value for value in parent)):
        row["verdict"] = "unresolved"
    elif bound is not None:
        row["verdict"] = "no worse"
    else:
        row["verdict"] = "unresolved"
    return row


def group(records: List[dict]) -> Dict[tuple, List[dict]]:
    groups = defaultdict(list)
    for record in records:
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def cmd_compare(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print("usage: run.py compare PARENT_RUNS... -- CHANGE_RUNS...",
              file=sys.stderr)
        return 2
    cut = list(argv).index("--")
    parent, change = (group(read_records(argv[:cut])),
                      group(read_records(argv[cut + 1:])))
    specs = registered(load_benchmark())
    print("%-8s %-40s %24s %24s %6s  %s" % (
        "workload", "metric", "parent median [q1,q3]",
        "change median [q1,q3]", "won", "verdict"))
    for key in sorted(set(parent) & set(change)):
        sizes = {json.dumps(record["sizes"], sort_keys=True)
                 for record in parent[key] + change[key]}
        if len(sizes) > 1:
            print("refusing to compare %s: workload sizes differ between "
                  "runs: %s" % (key[0], sorted(sizes)), file=sys.stderr)
            return 2
        names = sorted(set.intersection(*(
            set(record["metrics"]) for record in parent[key] + change[key])))
        for name in names:
            olds = [r["metrics"][name]["value"] for r in parent[key]]
            news = [r["metrics"][name]["value"] for r in change[key]]
            unit = parent[key][0]["metrics"][name]["unit"]
            spec = specs.get(name, {})
            row = verdict(olds, news, direction(name, unit, specs),
                          spec.get("bound"))
            p_q1, p_med, p_q3 = quartiles(olds)
            c_q1, c_med, c_q3 = quartiles(news)
            print("%-8s %-40s %10.4g [%.4g,%.4g] %10.4g [%.4g,%.4g] %6s  %s"
                  % (key[0], name, p_med, p_q1, p_q3, c_med, c_q1, c_q3,
                     "-" if row["won"] is None else "%.2f" % row["won"],
                     row["verdict"]))
    return 0


def cmd_spread(argv: Sequence[str]) -> int:
    """Per metric and workload: runs, median, IQR as a share of the median
    and, for bounded metrics, whether that spread is under a third of the
    bound."""
    specs = registered(load_benchmark())
    for key, records in sorted(group(read_records(argv)).items()):
        names = sorted(set.intersection(*(set(record["metrics"])
                                          for record in records)))
        for name in names:
            values = [record["metrics"][name]["value"] for record in records]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / abs(med) if med else float("inf")
            bound = specs.get(name, {}).get("bound")
            print("%-8s %-40s n=%-3d median %-12.5g iqr/median %.4f%s" % (
                key[0], name, len(values), med, share,
                "" if bound is None else "  bound %.2f %s" % (
                    bound, "ok" if share < bound / 3 else "TOO WIDE")))
    return 0


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with per-layer attribution "
                    "(subcommands: compare, spread; see the module doc)")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report the per-layer metrics instead of "
                             "the end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and fixed round counts (the test "
                             "suite's mode)")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="test hook: plant a wrong oracle entry, which "
                             "must make the run fail")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("run.py: no repro package under %s; run from a full checkout"
              % SRC, file=sys.stderr)
        return 2
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    if argv[:1] == ["compare"]:
        return cmd_compare(argv[1:])
    if argv[:1] == ["spread"]:
        return cmd_spread(argv[1:])
    args = build_parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    if args.workload == "all":
        return run_all(args, argv)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
