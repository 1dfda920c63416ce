"""Network front-end: serve HI dictionary engines over TCP.

The wire stays as history-independent as the structures behind it — see
:mod:`repro.net.protocol` for the frame discipline, :mod:`repro.net.server`
for the asyncio server (namespaces, admission control, graceful drain),
and :mod:`repro.net.client` for the asyncio client, which routes nothing,
and its blocking facade.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AsyncReproClient",
    "PROTOCOL_VERSION",
    "ReproClient",
    "ReproServer",
    "ThreadedServer",
    "WireCodec",
    "engine_digest",
]

# Names import their module on first access, so a server never loads the
# client and a client never loads the server and its engines.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.client": ("AsyncReproClient", "ReproClient"),
    "repro.net.protocol": ("PROTOCOL_VERSION", "WireCodec"),
    "repro.net.server": ("ReproServer", "ThreadedServer", "engine_digest"),
})
