"""Pluggable shard routers: modulo hashing and consistent hashing.

PR 2's sharded dictionary routed with one fixed function (``hash % shards``),
which is perfect for a static deployment and catastrophic for an elastic one:
changing the shard count remaps almost every key, so a resize is a full
rebuild.  This module makes routing a *strategy*:

* :class:`ModuloRouter` — the original routing, bit-for-bit: a splitmix64 /
  CRC-32 mix of the key reduced modulo the shard count.  Cheapest possible
  lookup; a resize moves ``1 - 1/lcm(n, n+1)``-ish of the keys (nearly all).
* :class:`ConsistentHashRouter` — a hash ring with ``vnodes`` virtual nodes
  per shard.  Every shard owns the arcs that precede its virtual nodes; a key
  routes to the owner of the first virtual node at or after the key's ring
  position.  Adding a shard only claims the arcs its new virtual nodes carve
  out, so an ``n → n+1`` resize moves ``≈ keys/(n+1)`` keys and *only* onto
  the new shard; removing a shard moves only that shard's keys.
* :class:`WeightedConsistentHashRouter` — the same ring with per-shard
  capacity weights mapped to vnode counts, so a shard hosted on weaker
  hardware can own a proportionally smaller arc share instead of dragging
  every parallel bulk call down to its pace.

Every router is a pure function of ``(key, shard ids)`` — no
process-salted ``hash()``, no internal mutability observable from routing —
so a sharded dictionary over history-independent shards stays history
independent, and snapshot/restore keeps every key on the shard its image
came from.

Each router writes its rule once, in :meth:`Router.route_many`, which
routes a whole batch in one call: a bulk call's grouping, a resize's
migration plan and :meth:`~repro.api.sharded.ShardedDictionary.check` make
one call per batch, and :meth:`Router.route` is the one-key case.  A batch
sends a plain ``int`` key straight to the splitmix64 mix, which is where
:func:`hash_key` sends it, and every other key through :func:`hash_key`; a
ring router looks its ring up once per batch and bisects per key.

Routers route over *stable shard ids*, not bare positions: when shard 1 of
``[0, 1, 2]`` is removed, shards 2's virtual nodes (keyed by the id ``2``)
stay exactly where they were, which is what limits migration to the removed
shard's keys.  :class:`ModuloRouter` ignores the ids (it only sees the count),
which is precisely why it cannot resize cheaply.
"""

from __future__ import annotations

import bisect
import zlib
from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError

_MASK64 = (1 << 64) - 1

#: Default number of virtual nodes per shard for consistent hashing.  Enough
#: to keep the per-shard arc share within a few percent of 1/n for small n
#: without making ring rebuilds noticeable.
DEFAULT_VNODES = 64

#: Router names accepted by the ``sharded`` registry entry's ``router`` extra.
ROUTER_NAMES = ("modulo", "consistent", "weighted")


def _mix64(value: int) -> int:
    """splitmix64-style avalanche of a 64-bit integer."""
    value &= _MASK64
    value = (value * 0x9E3779B97F4A7C15) & _MASK64
    value ^= value >> 29
    value = (value * 0xBF58476D1CE4E5B9) & _MASK64
    value ^= value >> 32
    return value


def hash_key(key: object) -> int:
    """A fixed, process-independent 64-bit hash of a dictionary key.

    Integers go through a splitmix64-style avalanche (consecutive keys land
    far apart); everything else is hashed by CRC-32 of its ``repr``.
    Python's built-in ``hash`` is deliberately avoided: it is salted per
    process for strings, which would break cross-run routing determinism and
    with it snapshot/restore.

    Keys that compare equal must hash identically (``True == 1``,
    ``2.0 == 2``), so bools and integer-valued floats are normalised to the
    integer they equal before mixing — mirroring how the inner structures'
    ordered key comparisons already treat them as the same key.
    """
    if isinstance(key, (bool, int)) or \
            (isinstance(key, float) and key.is_integer()):
        return _mix64(int(key))
    return zlib.crc32(repr(key).encode("utf-8"))


class Router(ABC):
    """Strategy mapping a key to a position in the current shard list.

    ``shard_ids`` is the sequence of *stable* shard identifiers, one per
    shard position; :meth:`route_many` returns a position index into it per
    key.  Ids are assigned by :class:`~repro.api.sharded.ShardedDictionary`
    (``0..n-1`` at construction, fresh ids for shards added later) and
    survive removals, so ring-based routers keep their virtual nodes pinned
    across resizes.  A subclass writes its rule once, in
    :meth:`route_many`; an empty shard list raises
    :class:`~repro.errors.ConfigurationError`.
    """

    #: Registry-style name (``"modulo"`` / ``"consistent"``).
    name: str = ""

    @abstractmethod
    def route_many(self, keys: Iterable[object],
                   shard_ids: Sequence[int]) -> List[int]:
        """The position (index into ``shard_ids``) each of ``keys`` routes
        to, in input order."""

    def route(self, key: object, shard_ids: Sequence[int]) -> int:
        """The position (index into ``shard_ids``) ``key`` routes to: the
        one-key case of :meth:`route_many`."""
        return self.route_many((key,), shard_ids)[0]

    def spec(self) -> Dict[str, object]:
        """JSON-serialisable description, consumed by :func:`make_router`.

        Snapshot manifests persist this so a restore routes exactly like the
        engine the images were written from.
        """
        return {"name": self.name}

    def __repr__(self) -> str:
        return "%s()" % type(self).__name__


class ModuloRouter(Router):
    """The PR 2 routing, unchanged: mixed key hash modulo shard count.

    Ignores the stable shard ids — it only sees how many shards there are —
    so any resize reshuffles nearly every key.  Kept as the default for
    backward compatibility (existing snapshots and tests route identically)
    and as the baseline the resharding bench compares against.
    """

    name = "modulo"

    def route_many(self, keys: Iterable[object],
                   shard_ids: Sequence[int]) -> List[int]:
        num_shards = len(shard_ids)
        if num_shards < 1:
            raise ConfigurationError("cannot route over an empty shard list")
        # A plain int goes straight to _mix64, as hash_key sends it.
        return [(_mix64(key) if type(key) is int else hash_key(key))
                % num_shards for key in keys]


class ConsistentHashRouter(Router):
    """Hash-ring routing with ``vnodes`` virtual nodes per shard.

    Each shard id owns ``vnodes`` pseudo-random ring positions (a pure
    function of ``(id, replica)``, independent of how many shards exist).  A
    key routes to the shard owning the first virtual node at or after
    ``hash_key(key)`` on the 64-bit ring, wrapping at the top.

    Rings are cached per shard-id tuple, so steady-state routing is one
    ring lookup per batch and one binary search per key; a resize costs one
    ring rebuild (``O(n · vnodes log)``).
    """

    name = "consistent"

    def __init__(self, vnodes: int = DEFAULT_VNODES) -> None:
        if not isinstance(vnodes, int) or isinstance(vnodes, bool) \
                or vnodes < 1:
            raise ConfigurationError(
                "vnodes must be an integer >= 1, got %r" % (vnodes,))
        self.vnodes = vnodes
        self._rings: Dict[Tuple[int, ...],
                          Tuple[List[int], List[int]]] = {}

    def _vnode_position(self, shard_id: int, replica: int) -> int:
        # Independent of the shard *count*: the ring position of a virtual
        # node never moves once its shard exists, which is the whole trick.
        return _mix64(((shard_id & 0xFFFFFFFF) << 32)
                      ^ _mix64(replica) ^ 0xE7F1DEAD5C0FFEE5)

    #: Rings kept cached per shard-id tuple; a long-lived elastic store only
    #: ever routes over its current tuple (plus the previous one during a
    #: migration), so anything beyond a few is dead weight.
    MAX_CACHED_RINGS = 8

    def _vnode_count(self, shard_id: int) -> int:
        """Virtual nodes ``shard_id`` places on the ring (subclass hook)."""
        return self.vnodes

    def _ring(self, shard_ids: Tuple[int, ...]) -> Tuple[List[int], List[int]]:
        cached = self._rings.get(shard_ids)
        if cached is not None:
            return cached
        if len(set(shard_ids)) != len(shard_ids):
            raise ConfigurationError(
                "shard ids must be unique, got %r" % (shard_ids,))
        points = []
        for position_index, shard_id in enumerate(shard_ids):
            for replica in range(self._vnode_count(shard_id)):
                # Ties broken by shard id so the ring order is deterministic
                # even in the (astronomically unlikely) position collision.
                points.append((self._vnode_position(shard_id, replica),
                               shard_id, position_index))
        points.sort()
        ring = ([position for position, _shard, _index in points],
                [index for _position, _shard, index in points])
        while len(self._rings) >= self.MAX_CACHED_RINGS:
            self._rings.pop(next(iter(self._rings)))  # oldest insertion first
        self._rings[shard_ids] = ring
        return ring

    def route_many(self, keys: Iterable[object],
                   shard_ids: Sequence[int]) -> List[int]:
        if len(shard_ids) < 1:
            raise ConfigurationError("cannot route over an empty shard list")
        positions, owners = self._ring(tuple(shard_ids))
        search, size = bisect.bisect_left, len(positions)
        # Re-avalanche the key hash onto the full 64-bit ring: non-integer
        # keys hash to a 32-bit CRC, which would otherwise sit below
        # essentially every vnode position and collapse onto one shard.
        # ``% size`` wraps a search past the top of the ring to index 0.
        return [owners[search(positions, _mix64(
            _mix64(key) if type(key) is int else hash_key(key))) % size]
            for key in keys]

    def successors(self, shard_id: int, shard_ids: Sequence[int],
                   count: int) -> List[int]:
        """The next ``count`` distinct shard ids after ``shard_id``'s first
        virtual node on the ring (``shard_id`` itself excluded).

        A pure function of the shard-id tuple — no key, no state — which is
        what the replication layer wants from a placement rule: replica
        placements survive restarts and resizes exactly like key routing
        does, and removing an unrelated shard never moves an existing
        replica chain (its vnodes simply vanish from the walk).
        """
        ids = tuple(shard_ids)
        if shard_id not in ids:
            raise ConfigurationError(
                "shard id %r is not in the ring %r" % (shard_id, ids))
        positions, owners = self._ring(ids)
        start = bisect.bisect_left(positions,
                                   self._vnode_position(shard_id, 0))
        found: List[int] = []
        for step in range(len(positions)):
            owner = ids[owners[(start + step) % len(positions)]]
            if owner != shard_id and owner not in found:
                found.append(owner)
                if len(found) >= count:
                    break
        return found

    def spec(self) -> Dict[str, object]:
        return {"name": self.name, "vnodes": self.vnodes}

    def __repr__(self) -> str:
        return "ConsistentHashRouter(vnodes=%d)" % self.vnodes


class WeightedConsistentHashRouter(ConsistentHashRouter):
    """Consistent hashing with per-shard capacity weights.

    ``weights`` maps stable shard ids to positive relative capacities; a
    shard places ``max(1, round(vnodes * weight))`` virtual nodes, so its
    expected key share scales with its weight.  Shards absent from the
    mapping weigh ``1.0`` (exactly the unweighted ring), which is what
    makes the weighted router a drop-in: an empty mapping routes
    bit-for-bit like :class:`ConsistentHashRouter`.

    The point is heterogeneous worker pools: a half-capacity host stops
    being the straggler every parallel bulk call waits on when its shard's
    arc share is halved to match.  Weights are fixed at construction (they
    describe hardware, not load) and persist through :meth:`spec`, so
    snapshot manifests restore the same skew they were written under.
    """

    name = "weighted"

    def __init__(self, weights: object = None,
                 vnodes: int = DEFAULT_VNODES) -> None:
        super().__init__(vnodes)
        self.weights = self._validated_weights(weights)

    @staticmethod
    def _validated_weights(weights: object) -> Dict[int, float]:
        if weights is None:
            return {}
        if not isinstance(weights, dict):
            raise ConfigurationError(
                "weights must be a mapping of shard id -> positive weight, "
                "got %r" % (weights,))
        validated: Dict[int, float] = {}
        for shard_id, weight in weights.items():
            # Manifest round-trip: JSON object keys come back as strings.
            if isinstance(shard_id, str) and shard_id.lstrip("-").isdigit():
                shard_id = int(shard_id)
            if not isinstance(shard_id, int) or isinstance(shard_id, bool):
                raise ConfigurationError(
                    "weight keys must be integer shard ids, got %r"
                    % (shard_id,))
            if isinstance(weight, bool) \
                    or not isinstance(weight, (int, float)) \
                    or not weight > 0:
                raise ConfigurationError(
                    "shard %d weight must be a positive number, got %r"
                    % (shard_id, weight))
            validated[shard_id] = float(weight)
        return validated

    def _vnode_count(self, shard_id: int) -> int:
        return max(1, round(self.vnodes * self.weights.get(shard_id, 1.0)))

    def spec(self) -> Dict[str, object]:
        # String keys so the spec is identical before and after a JSON
        # round-trip through a snapshot manifest.
        return {"name": self.name, "vnodes": self.vnodes,
                "weights": {str(shard_id): weight for shard_id, weight
                            in sorted(self.weights.items())}}

    def __repr__(self) -> str:
        return ("WeightedConsistentHashRouter(vnodes=%d, weights=%r)"
                % (self.vnodes, self.weights))


def make_router(router: object = "modulo", *,
                vnodes: object = None,
                weights: object = None) -> Router:
    """Build a router from a name, a spec mapping, or a :class:`Router`.

    ``router`` may be one of :data:`ROUTER_NAMES`, a mapping with a ``name``
    key (the :meth:`Router.spec` form snapshot manifests persist), or an
    already-built :class:`Router` (returned as-is; combining it with an
    explicit ``vnodes`` or ``weights`` is rejected as ambiguous).
    ``vnodes`` applies to both ring routers; ``weights`` only to
    ``"weighted"``.
    """
    if isinstance(router, Router):
        if vnodes is not None or weights is not None:
            raise ConfigurationError(
                "vnodes/weights cannot be combined with an already-built "
                "router; construct the router with them directly")
        return router
    if isinstance(router, dict):
        spec = dict(router)
        name = spec.pop("name", None)
        for option, value in (("vnodes", vnodes), ("weights", weights)):
            spec_value = spec.pop(option, None)
            if value is not None and spec_value is not None:
                raise ConfigurationError(
                    "%s given twice: %r in the router spec and %r as an "
                    "argument" % (option, spec_value, value))
            if option == "vnodes":
                vnodes = value if value is not None else spec_value
            else:
                weights = value if value is not None else spec_value
        if spec:
            raise ConfigurationError(
                "unknown router spec key(s): %s"
                % ", ".join(sorted(map(str, spec))))
        router = name
    if not isinstance(router, str) or router not in ROUTER_NAMES:
        raise ConfigurationError(
            "router must be one of %s, got %r"
            % (", ".join(ROUTER_NAMES), router))
    if router == "weighted":
        return WeightedConsistentHashRouter(
            weights=weights,
            vnodes=DEFAULT_VNODES if vnodes is None else vnodes)
    if weights is not None:
        raise ConfigurationError(
            "weights only apply to the weighted router, not %r" % (router,))
    if router == "consistent":
        return ConsistentHashRouter(
            vnodes=DEFAULT_VNODES if vnodes is None else vnodes)
    if vnodes is not None:
        raise ConfigurationError(
            "vnodes only applies to the consistent-hash router, "
            "not %r" % (router,))
    return ModuloRouter()
