"""Deterministic crash injection for the durability test suite.

Real crash-recovery code is only trustworthy when crashes can be placed
*exactly* — "kill the worker before it logs the 7th insert of this batch"
(a batch is applied first, then its applied prefix is logged with one
``worker.insert`` trip per insert, counted down at once by :func:`passes`
so the frames that pass reach the log in one write) — which neither timed
``os.kill`` from the parent nor poisoned key objects can do reliably
(timing races, and poisoned keys cannot pass the storage codec the op log
depends on).  This
module is the standard fail-point escape hatch: named trip wires compiled
into the worker hot paths that do nothing unless armed through the
environment.

Arm them with::

    REPRO_FAILPOINTS="worker.insert:7,worker.checkpoint:2"

Each worker process parses its own inherited environment once, keeps its own
countdown per name, and calls ``os._exit(17)`` when a countdown hits zero —
an abrupt exit indistinguishable from SIGKILL as far as the parent, the
pipes, and the op log are concerned.  Fork/spawn children inherit the
environment at spawn time, so tests arm the variable *before* building the
engine and disarm it before recovery respawns workers.

The module imports nothing but :mod:`os`, so the process engine imports it
at load time and a forked worker starts with it already in memory.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

#: Environment variable holding the ``name:count[,name:count...]`` spec.
ENV_VAR = "REPRO_FAILPOINTS"

#: Exit code of a tripped fail point (distinct from crashes under test).
EXIT_CODE = 17

_armed: Optional[Dict[str, int]] = None


def _parse(spec: str) -> Dict[str, int]:
    armed: Dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _sep, count = part.partition(":")
        try:
            armed[name] = max(1, int(count))
        except ValueError:
            armed[name] = 1
    return armed


def passes(name: str, count: int) -> int:
    """Count down the next ``count`` trips of ``name`` at once; return how
    many of them pass.

    That is ``count`` unless one of them would exit.  Then it is the
    number before that one, and the countdown is left on it, so the
    caller's next :func:`trip` of ``name`` exits where ``count`` single
    trips would have.  The unarmed fast path is one global load and a
    falsy check.
    """
    global _armed
    if _armed is None:
        _armed = _parse(os.environ.get(ENV_VAR, ""))
    if not _armed or name not in _armed:
        return count
    left = _armed[name]
    if count < left:
        _armed[name] = left - count
        return count
    _armed[name] = 1
    return left - 1


def trip(name: str) -> None:
    """Count down the fail point ``name``; exit the process at zero."""
    if not passes(name, 1):
        os._exit(EXIT_CODE)


def reset() -> None:
    """Re-read the environment on next :func:`trip` (test hook)."""
    global _armed
    _armed = None
