"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures without also swallowing built-in exceptions raised
by their own code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InvariantViolation(ReproError):
    """An internal structural invariant was found to be violated.

    These indicate bugs in the library (or corruption of internal state via
    direct mutation), never user error.  They are raised by the ``check()``
    methods that most structures expose for testing.
    """


class RankError(ReproError, IndexError):
    """A rank passed to a rank-addressed operation is out of range."""


class KeyNotFound(ReproError, KeyError):
    """A key-addressed operation referenced a key that is not stored."""


class DuplicateKey(ReproError, ValueError):
    """An insert would create a duplicate key in a structure that forbids it."""


class CapacityError(ReproError):
    """A fixed-capacity structure was asked to hold more items than it can."""


class ConfigurationError(ReproError, ValueError):
    """A structure was configured with invalid or inconsistent parameters."""


class AllocationError(ReproError, KeyError):
    """A block address was used before allocation or after being freed.

    Raised by :class:`~repro.memory.block_device.BlockDevice` for reads,
    writes and frees of unallocated addresses (including double frees and
    read-after-free).  Subclasses ``KeyError`` so callers that treated the
    historical bare ``KeyError`` as the failure signal keep working.
    """

    def __str__(self) -> str:  # KeyError.__str__ repr()s the message
        return Exception.__str__(self)


class WorkerCrashError(ReproError, RuntimeError):
    """A shard worker process died or broke protocol mid-conversation.

    Raised by :class:`~repro.api.process_engine.ProcessShardedDictionaryEngine`
    when a command cannot be delivered to (or answered by) the long-lived
    worker that hosts a shard.  The worker's in-memory shard state is lost;
    ``recover()`` (or ``restart_workers()``) brings the shard back from a
    replica or durable state when the engine has one, else empty.
    """


class ReplicationError(ReproError, RuntimeError):
    """The durability/replication subsystem could not honour its contract.

    Raised by :mod:`repro.replication` when recovery is impossible or the
    durable artifacts disagree with each other — e.g. an op-log replay that
    diverges from its snapshot, or a shard with no live replica and no
    durable state to rebuild from.  Plain misconfiguration (bad replication
    factors, malformed manifests, corrupt snapshot files) stays
    :class:`ConfigurationError`.
    """


class ProtocolError(ReproError):
    """A wire frame or message failed its structural checks.

    A truncated, oversized or CRC-failing frame, a malformed message
    header or value body, or a connection that dropped mid-frame.  The stream past the failure cannot be trusted, so
    the peer that raises this closes the connection after (at most) one
    final typed error reply.
    """


class ServerBusyError(ReproError):
    """The server shed a request under admission control.

    The wire protocol's distinct BUSY status: nothing was executed — the
    connection exceeded its in-flight budget and the request was rejected
    before touching any engine, so retrying after a backoff is always
    safe.
    """


class RemoteError(ReproError):
    """A server-side failure of a class the client does not know.

    Carries the original exception's class name and message (the same
    contract the process backend's unpicklable-reply shim established), so
    nothing about the failure is lost even when the class itself cannot be
    reconstructed on the client.
    """

    def __init__(self, type_name: str, message: str) -> None:
        super().__init__("%s: %s" % (type_name, message))
        self.type_name = type_name
        self.message = message
