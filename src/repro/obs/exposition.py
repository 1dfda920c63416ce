"""Prometheus-style text exposition, dependency-free.

Renders a flat telemetry snapshot (``{"plane.fsync_batches": 132, ...}``)
into the text format scrapers expect::

    # TYPE repro_plane_fsync_batches untyped
    repro_plane_fsync_batches 132

Metric names are sanitised to ``[a-zA-Z0-9_]`` (dots become
underscores); histogram bucket entries (``*.le_<edge>``) are folded
into proper ``_bucket{le="<edge>"}`` series so a real Prometheus can
ingest the latency histograms as histograms.
"""

from __future__ import annotations

import re
from typing import Dict, Union

Number = Union[int, float]

_SANITISE = re.compile(r"[^a-zA-Z0-9_]")
_BUCKET = re.compile(r"^(?P<base>.+)\.le_(?P<edge>inf|[0-9.]+)$")


def _name(raw: str, prefix: str) -> str:
    cleaned = _SANITISE.sub("_", raw)
    if prefix:
        cleaned = "%s_%s" % (prefix, cleaned)
    return cleaned


def _value(value: Number) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_prometheus(snapshot: Dict[str, Number], prefix: str = "repro") -> str:
    """Render ``snapshot`` as Prometheus text exposition."""
    lines = []
    typed = set()
    for raw in sorted(snapshot):
        value = snapshot[raw]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue  # snapshots may carry stray non-numeric metadata
        bucket = _BUCKET.match(raw)
        if bucket:
            base = _name(bucket.group("base"), prefix)
            series = base + "_bucket"
            if series not in typed:
                lines.append("# TYPE %s histogram" % base)
                typed.add(series)
            edge = bucket.group("edge")
            label = "+Inf" if edge == "inf" else edge
            lines.append('%s{le="%s"} %s' % (series, label, _value(value)))
            continue
        name = _name(raw, prefix)
        if name not in typed:
            lines.append("# TYPE %s untyped" % name)
            typed.add(name)
        lines.append("%s %s" % (name, _value(value)))
    return "\n".join(lines) + "\n"
