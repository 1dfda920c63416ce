"""Network front-end: serve HI dictionary engines over TCP.

The wire stays as history-independent as the structures behind it — see
:mod:`repro.net.protocol` for the frame discipline, :mod:`repro.net.server`
for the asyncio server (namespaces, admission control, graceful drain),
and :mod:`repro.net.client` for the routed asyncio client and its
blocking facade.
"""

from repro.net.client import AsyncReproClient, ReproClient
from repro.net.protocol import PROTOCOL_VERSION, WireCodec
from repro.net.server import ReproServer, ThreadedServer, engine_digest

__all__ = [
    "AsyncReproClient",
    "PROTOCOL_VERSION",
    "ReproClient",
    "ReproServer",
    "ThreadedServer",
    "WireCodec",
    "engine_digest",
]
