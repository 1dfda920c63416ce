"""Workload-size scaling, and the engine counter reader, shared by the
benchmark files.

Kept in its own module (rather than ``conftest.py``) so the benches can import
it explicitly without relying on pytest's conftest import mechanics.

Two environment variables control workload sizes:

``REPRO_BENCH_SCALE``
    A float (default 1.0) multiplying every workload size; use values above 1
    for longer, closer-to-the-paper runs.
``REPRO_BENCH_SMOKE``
    When set to a non-empty value other than ``0``, caps every scaled size at
    ``REPRO_BENCH_SMOKE_CAP`` (default 1000) so the whole ``benchmarks/``
    directory finishes in seconds — the CI smoke mode.
"""

from __future__ import annotations

import os


def smoke_mode() -> bool:
    """Whether the CI smoke mode is active."""
    flag = os.environ.get("REPRO_BENCH_SMOKE", "")
    return bool(flag) and flag != "0"


def scaled(value: int, minimum: int = 1) -> int:
    """Scale a workload size by ``REPRO_BENCH_SCALE`` (capped in smoke mode)."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    size = max(minimum, int(value * scale))
    if smoke_mode():
        cap = int(os.environ.get("REPRO_BENCH_SMOKE_CAP", "1000"))
        size = min(size, max(minimum, cap))
    return size


def scaled_sweep(*values: int, minimum: int = 1) -> list:
    """Scale a size sweep, deduplicating collapsed entries.

    In smoke mode several sweep sizes can hit the cap and collapse to the
    same value; running the identical workload more than once would only
    burn CI time, so duplicates are dropped (order preserved, ascending
    inputs stay ascending).
    """
    sweep = []
    for value in values:
        size = scaled(value, minimum=minimum)
        if size not in sweep:
            sweep.append(size)
    return sweep


def counters(engine, family: str) -> dict:
    """An engine's ``family.*`` counters (``plane``, ``erasure``,
    ``replica_reads``) from one ``telemetry()`` snapshot, keyed by the
    name after the family prefix."""
    prefix = family + "."
    return {name[len(prefix):]: value
            for name, value in engine.telemetry().items()
            if name.startswith(prefix)}
