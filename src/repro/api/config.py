"""One typed, serializable description of a sharded engine deployment.

:class:`EngineConfig` is the only way to configure a sharded engine, and
every consumer (CLI commands, the durability manifest, the network server
handshake) passes the same object:

* ``make_sharded_engine(config)`` takes one config and nothing else, and
  :class:`~repro.api.process_engine.ProcessShardedDictionaryEngine` takes
  ``(structure, config)``.
* :meth:`EngineConfig.to_dict` / :meth:`EngineConfig.from_dict` round-trip
  through plain JSON-safe dicts, so the durability manifest embeds the
  config it was built from and the server hands it to clients at
  handshake.
* :meth:`EngineConfig.validate` owns the deployment rules (worker caps,
  replication/durability require the process backend, secure mode
  requires a durability directory, ...); the engines do not repeat them.

The config is *frozen*: derive variants with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Mapping, Optional

from repro.api.routing import make_router
from repro.errors import ConfigurationError

#: Parallel dispatch backends a config may name (re-exported from
#: :mod:`repro.api.sharded` for backward compatibility).
PARALLEL_MODES = ("none", "process")

#: Read routing policies for a process engine with replicas.  ``"primary"``
#: serves every read from the shard's primary copy (replicas are failover-only);
#: ``"round-robin"`` rotates point reads across live copies and fans bulk
#: sub-batches over them; ``"any-after-barrier"`` does the same but only
#: admits a replica once it has acked the engine's latest barrier — the
#: instant history independence guarantees it is byte-identical to the
#: primary.
READ_POLICIES = ("primary", "round-robin", "any-after-barrier")

#: Durability modes of a process engine with a durability directory.
#: ``"logged"`` keeps the full mutation history in the op logs until the
#: next checkpoint compacts them; ``"secure"`` additionally redacts history
#: at every barrier that flushed deletes, so a deleted key's encoding
#: survives nowhere in the durability directory once the barrier returns
#: (the paper's anti-persistence guarantee, extended to the durable
#: artifacts).
DURABILITY_MODES = ("logged", "secure")


#: Keys older durability manifests carry that no longer configure anything
#: (``plane`` chose the removed shared-memory data plane,
#: ``sample_operations`` the removed per-operation I/O sampling, and
#: ``backend`` the removed accounting option: a tracker is attached exactly
#: when the structure supports one); ``from_dict`` accepts and drops them
#: so those stores still open.
_RETIRED_KEYS = frozenset(("plane", "sample_operations", "backend"))


def _parallel_mode(parallel: object) -> str:
    """Normalise the ``parallel`` flag to a mode name.

    Strings must name a known mode.  A falsy non-string (the older boolean
    spelling's ``False``, ``0``, ``None``) still means ``"none"``; a truthy
    one selected the removed thread backend, so it is refused rather than
    silently remapped.
    """
    if parallel in PARALLEL_MODES:
        return parallel
    if not isinstance(parallel, str) and not parallel:
        return "none"
    raise ConfigurationError(
        "parallel must be one of %s (the thread backend is gone: pass "
        "parallel='process' for parallel dispatch), got %r"
        % (", ".join(repr(mode) for mode in PARALLEL_MODES), parallel))


@dataclass(frozen=True)
class EngineConfig:
    """A validated, serializable sharded-engine deployment description.

    Construction normalises the polymorphic fields so two configs that
    mean the same deployment compare equal: ``inner`` sequences become
    tuples, ``router`` becomes its canonical
    :meth:`~repro.api.routing.Router.spec` dict (whatever the caller
    passed — a name, a spec mapping, or a built router), and ``parallel``
    becomes a mode name.  ``vnodes``/``weights`` fold into the router
    spec; pass them inside the ``router`` mapping (or a built router).

    ``inner`` (one registry name, or one per shard), ``shards``,
    ``block_size``, ``cache_blocks``, ``seed`` and ``inner_params``
    build the shards through the registry (shard ``i``'s seed is draw
    ``i`` of ``random.Random(seed)``); ``router`` routes keys to them.
    ``parallel`` picks the dispatch backend and ``max_workers`` caps the
    process pool.  ``replication``, ``read_policy``
    (:data:`READ_POLICIES`), ``durability_dir`` and ``durability_mode``
    (:data:`DURABILITY_MODES`) make the process backend a replicated,
    durable store; ``fsync=False`` trades machine-crash durability for
    speed (process crashes stay covered).
    ``telemetry`` turns request tracing on.
    """

    inner: object = "hi-skiplist"
    shards: int = 4
    block_size: int = 64
    cache_blocks: int = 0
    seed: object = None
    inner_params: Mapping[str, object] = field(default_factory=dict)
    router: object = "modulo"
    parallel: object = "none"
    max_workers: Optional[int] = None
    replication: int = 1
    read_policy: str = "primary"
    durability_dir: Optional[str] = None
    durability_mode: str = "logged"
    fsync: bool = True
    telemetry: bool = False

    def __post_init__(self) -> None:
        inner = self.inner
        if isinstance(inner, (list, tuple)):
            inner = tuple(inner)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "inner_params",
                           dict(self.inner_params or {}))
        object.__setattr__(self, "router", make_router(self.router).spec())
        object.__setattr__(self, "parallel", _parallel_mode(self.parallel))

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> "EngineConfig":
        """Check the cross-field deployment rules; return ``self``.

        Structure-level validation (block sizes, registry names, router
        shapes) still happens in the registry, so a config that passes
        here can still be rejected there; this method owns the
        *deployment* fields (workers, copies, durability, tracing) and
        the rules that relate them to each other.
        """
        if not isinstance(self.shards, int) or isinstance(self.shards, bool) \
                or self.shards < 1:
            raise ConfigurationError(
                "shards must be an integer >= 1, got %r" % (self.shards,))
        if self.parallel == "none" and self.max_workers is not None:
            raise ConfigurationError(
                "max_workers only applies to the process backend; "
                "pass parallel='process'")
        if self.max_workers is not None and (
                not isinstance(self.max_workers, int)
                or isinstance(self.max_workers, bool)
                or self.max_workers < 1):
            raise ConfigurationError(
                "max_workers must be an integer >= 1 (or None for one "
                "worker per shard), got %r" % (self.max_workers,))
        if not isinstance(self.replication, int) \
                or isinstance(self.replication, bool) \
                or self.replication < 1:
            raise ConfigurationError(
                "replication must be an integer >= 1, got %r"
                % (self.replication,))
        if (self.replication > 1 or self.durability_dir is not None) \
                and self.parallel != "process":
            raise ConfigurationError(
                "replication and durability require the process backend "
                "(shards must live in workers that can crash "
                "independently); pass parallel='process'")
        if self.read_policy not in READ_POLICIES:
            raise ConfigurationError(
                "read_policy must be one of %s, got %r"
                % (", ".join(repr(policy) for policy in READ_POLICIES),
                   self.read_policy))
        if self.read_policy != "primary" and self.replication < 2:
            raise ConfigurationError(
                "read_policy=%r balances reads across replica copies; it "
                "needs replication >= 2 (which implies parallel='process')"
                % (self.read_policy,))
        if self.durability_mode not in DURABILITY_MODES:
            raise ConfigurationError(
                "durability_mode must be one of %s, got %r"
                % (", ".join(repr(mode) for mode in DURABILITY_MODES),
                   self.durability_mode))
        if self.durability_mode != "logged" and self.durability_dir is None:
            raise ConfigurationError(
                "durability_mode='secure' redacts the on-disk op logs at "
                "barriers; it needs durability_dir=... (and "
                "parallel='process')")
        if not isinstance(self.telemetry, bool):
            raise ConfigurationError(
                "telemetry is a boolean switch (request tracing on the "
                "engine), got %r" % (self.telemetry,))
        return self

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """The config as a plain JSON-safe dict (see :meth:`from_dict`).

        ``seed`` must be an integer or ``None`` — a live ``random.Random``
        cannot be serialized, and a config that names one is rejected here
        rather than silently dropped.
        """
        if self.seed is not None and (not isinstance(self.seed, int)
                                      or isinstance(self.seed, bool)):
            raise ConfigurationError(
                "only integer (or None) seeds serialize; this config "
                "carries %r" % (self.seed,))
        inner = self.inner
        if isinstance(inner, tuple):
            inner = list(inner)
        return {
            "inner": inner,
            "shards": self.shards,
            "block_size": self.block_size,
            "cache_blocks": self.cache_blocks,
            "seed": self.seed,
            "inner_params": dict(self.inner_params),
            "router": dict(self.router),
            "parallel": self.parallel,
            "max_workers": self.max_workers,
            "replication": self.replication,
            "read_policy": self.read_policy,
            "durability_dir": self.durability_dir,
            "durability_mode": self.durability_mode,
            "fsync": self.fsync,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EngineConfig":
        """Rebuild a config from :meth:`to_dict` output (strict keys).

        Missing keys take the field defaults (forward compatibility for
        manifests written before a field existed) and retired keys are
        dropped (manifests written before a setting was removed); unknown
        keys are rejected so a typo cannot silently configure nothing.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                "EngineConfig.from_dict takes a mapping, got %r"
                % (payload,))
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known - _RETIRED_KEYS
        if unknown:
            raise ConfigurationError(
                "unknown EngineConfig key(s): %s"
                % ", ".join(sorted(map(str, unknown))))
        return cls(**{name: value for name, value in payload.items()
                      if name in known})

    def replace(self, **changes: object) -> "EngineConfig":
        """A copy with ``changes`` applied (:func:`dataclasses.replace`)."""
        return replace(self, **changes)

    def for_namespace(self, name: str) -> "EngineConfig":
        """The config a server's namespace ``name`` is built from.

        A durable namespace checkpoints into its own subdirectory,
        ``durability_dir/name``; ``name`` must already have passed the
        server's namespace check (it becomes a path component).  The
        server and ``repro serve``, which builds ``default`` before it
        loads the server, both derive it here.
        """
        if self.durability_dir is None:
            return self
        return self.replace(
            durability_dir=os.path.join(self.durability_dir, name))
