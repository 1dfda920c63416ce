"""Hash-partitioned sharding over the registry's dictionary backends.

This is the first scaling layer on top of the unified API: a
:class:`ShardedDictionary` hash-partitions the key space across ``N``
independently built registry backends (homogeneous or heterogeneous per
shard), and a :class:`ShardedDictionaryEngine` adds the orchestration a
sharded deployment needs on top of the plain
:class:`~repro.api.engine.DictionaryEngine`:

* **Deterministic routing** — :func:`shard_index` is a fixed mixing function
  of the key (no process-salted ``hash()``), so the shard a key lives on is a
  pure function of the key: reproducible across runs, machines, and restore.
  Because routing ignores operation order, a sharded dictionary built from
  history-independent shards is itself history independent.
* **Batched bulk operations** — :meth:`ShardedDictionaryEngine.insert_many`
  and :meth:`~ShardedDictionaryEngine.delete_many` group keys by shard before
  dispatch, so each shard sees one contiguous batch instead of an
  interleaving.  Each shard's batch runs until its own first failure, and
  the call raises the failure of the lowest shard position — the rule every
  bulk path follows, the process engine and the network clients included.
* **One merged stats view** — :meth:`ShardedDictionary.io_stats` aggregates
  every shard's counters; :meth:`ShardedDictionaryEngine.per_shard_io_stats`
  keeps the per-shard breakdown for imbalance analysis.
* **Shard-aware cost probes** — :meth:`ShardedDictionaryEngine.search_io_cost`
  routes to the single owning shard; ``range_io_cost`` fans out to every
  shard and merges the sorted per-shard results.
* **Per-shard snapshots** — :meth:`ShardedDictionaryEngine.snapshot_shards`
  writes one image per shard plus a JSON manifest, and
  :meth:`ShardedDictionaryEngine.restore_shards` rebuilds an engine from the
  manifest (routing determinism puts every key back on its original shard).
* **One build record** — a registry-built store keeps one
  :class:`BuildRecord` and builds every shard through it.  Shard ``i`` of
  a store seeded with an integer gets draw ``i`` of ``random.Random(seed)``,
  so a grown, restored or recovered shard gets the seed a fresh build
  gives its id.

Construction goes through the registry like everything else::

    from repro.api import DictionaryEngine

    engine = DictionaryEngine.create("sharded", shards=4, inner="hi-skiplist",
                                     block_size=32, seed=7)
    engine.insert_many((key, key) for key in range(10_000))
    engine.per_shard_io_stats()
"""

from __future__ import annotations

import heapq
import os
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro._rng import RandomLike
from repro.api.config import PARALLEL_MODES as PARALLEL_MODES  # re-export
from repro.api.config import EngineConfig
from repro.api.engine import DictionaryEngine
from repro.api.protocol import HIDictionary, Pair, insert_pairs
from repro.api.routing import Router, hash_key, make_router
from repro.errors import ConfigurationError
from repro.memory.stats import IOStats

#: Default number of shards when the registry entry is built without one.
DEFAULT_SHARDS = 4
#: Default inner structure (history independent, so the default sharded
#: dictionary keeps the paper's property).
DEFAULT_INNER = "hi-skiplist"


def shard_index(key: object, num_shards: int) -> int:
    """The shard ``key`` modulo-routes to — a fixed, process-independent map.

    Kept as the module-level convenience the PR 2 consumers import; it is
    exactly what :class:`~repro.api.routing.ModuloRouter` computes (see
    :func:`~repro.api.routing.hash_key` for the mixing function and the
    equal-keys-route-identically contract).
    """
    if num_shards < 1:
        raise ConfigurationError("num_shards must be at least 1, got %r"
                                 % (num_shards,))
    return hash_key(key) % num_shards


@dataclass(frozen=True)
class MigrationReport:
    """What one :meth:`ShardedDictionary.add_shard` / ``remove_shard`` moved.

    ``moved_keys`` counts keys that changed shard (for a shard removal this
    includes everything the departing shard held); ``moved_per_source`` /
    ``received_per_target`` break the flow down by *new* shard position.
    Because the vectors are indexed by new position, a removed shard's
    outflow appears only in ``moved_keys`` and ``received_per_target`` —
    the departing shard has no new position, so on a ``remove_shard`` the
    per-source vector covers the survivors alone and
    ``sum(moved_per_source)`` can be less than ``moved_keys``.
    ``ideal_fraction`` is the consistent-hashing prediction — ``1/n_new``
    of the keys on a grow, ``1/n_old`` on a shrink — against which the
    resharding bench and the acceptance tests compare ``moved_fraction``.
    """

    old_shards: int
    new_shards: int
    router: str
    total_keys: int
    moved_keys: int
    moved_per_source: Tuple[int, ...] = field(default=())
    received_per_target: Tuple[int, ...] = field(default=())

    @property
    def moved_fraction(self) -> float:
        """Fraction of the key population that changed shard."""
        return self.moved_keys / self.total_keys if self.total_keys else 0.0

    @property
    def ideal_fraction(self) -> float:
        """What consistent hashing predicts the resize should move."""
        return 1.0 / max(self.old_shards, self.new_shards)


def _config_for_shards(config: EngineConfig,
                      inner_names: Sequence[str]) -> EngineConfig:
    """``config`` with ``shards`` and ``inner`` describing ``inner_names``:
    unchanged when it already does (so a never-resized store keeps its
    config), else one ``inner`` name if all shards share it, else one each."""
    from repro.api.registry import resolve

    names = list(inner_names)
    inner = config.inner
    described = [inner] * config.shards if isinstance(inner, str) \
        else list(inner)
    if [resolve(name) for name in described] == names:
        return config
    return config.replace(shards=len(names), inner=names[0]
                          if len(set(names)) == 1 else tuple(names))


def _validated_shard_spec(extra: Mapping[str, object]
                          ) -> Tuple[int, List[str], Dict[str, object], Router]:
    """Validate the ``shards``/``inner``/``inner_params``/``router`` extras.

    Returns ``(num_shards, inner_names, inner_params, router)`` with
    ``inner_names`` expanded to one canonical registry name per shard.  Every
    invalid combination — zero shards, an unknown inner structure, a nested
    sharded inner, a per-shard list of the wrong length, an unknown router,
    non-positive vnodes — raises
    :class:`~repro.errors.ConfigurationError`, never ``KeyError`` or
    ``AttributeError``.
    """
    from repro.api.registry import resolve

    num_shards = extra.get("shards", DEFAULT_SHARDS)
    if not isinstance(num_shards, int) or isinstance(num_shards, bool) \
            or num_shards < 1:
        raise ConfigurationError(
            "shards must be an integer >= 1, got %r (an empty-shard "
            "configuration cannot store anything)" % (num_shards,))

    inner = extra.get("inner", DEFAULT_INNER)
    if isinstance(inner, str):
        inner_names = [inner] * num_shards
    elif isinstance(inner, (list, tuple)):
        inner_names = list(inner)
        if len(inner_names) != num_shards:
            raise ConfigurationError(
                "inner names one per shard: got %d name(s) for %d shard(s)"
                % (len(inner_names), num_shards))
    else:
        raise ConfigurationError(
            "inner must be a registry name or a per-shard sequence of names, "
            "got %r" % (inner,))
    resolved = []
    for name in inner_names:
        if not isinstance(name, str):
            raise ConfigurationError("inner shard name must be a string, "
                                     "got %r" % (name,))
        canonical = resolve(name)  # ConfigurationError on unknown structures
        if canonical == "sharded":
            raise ConfigurationError("sharded dictionaries cannot nest: "
                                     "inner structure must not be 'sharded'")
        resolved.append(canonical)

    inner_params = extra.get("inner_params", None)
    if inner_params is None:
        inner_params = {}
    elif isinstance(inner_params, Mapping):
        inner_params = dict(inner_params)
    else:
        raise ConfigurationError(
            "inner_params must be a mapping of structure-specific parameters "
            "applied to every shard, got %r" % (inner_params,))
    router = make_router(extra.get("router", "modulo"),
                         vnodes=extra.get("vnodes", None),
                         weights=extra.get("weights", None))
    return num_shards, resolved, inner_params, router


def _validated_shard_ids(shard_ids: Sequence[int],
                         num_shards: int) -> List[int]:
    """Distinct non-negative integer ids, one per shard — or a config error.

    Shared by the constructor and :meth:`ShardedDictionary.from_manifest`
    so the id contract cannot drift between building and restoring.
    """
    validated = list(shard_ids)
    if len(validated) != num_shards \
            or len(set(validated)) != len(validated) \
            or not all(isinstance(shard_id, int)
                       and not isinstance(shard_id, bool)
                       and shard_id >= 0
                       for shard_id in validated):
        raise ConfigurationError(
            "shard_ids must be distinct non-negative integers, one per "
            "shard, got %r" % (shard_ids,))
    return validated


def shard_seed(store_seed: object, shard_id: int) -> int:
    """Shard ``shard_id``'s seed in a store seeded with ``store_seed``:
    draw number ``shard_id`` of ``random.Random(store_seed)``, or fresh OS
    entropy when the store is unseeded (``None``)."""
    rng = random.Random(store_seed)
    if store_seed is not None:
        for _draw in range(shard_id):
            rng.getrandbits(64)
    return rng.getrandbits(64)


@dataclass
class BuildRecord:
    """How a registry-built sharded store builds its shards.

    The registry parameters every shard shares, the store seed (an integer,
    or ``None`` for OS entropy) and the seed each live shard was built with,
    by shard id.  A shard with no recorded seed gets :func:`shard_seed`.
    The manifests persist the record (:meth:`to_manifest`), so a restore,
    a recovery or a cold start rebuilds every shard with its own seed.
    """

    block_size: int = 64
    cache_blocks: int = 0
    inner_params: Dict[str, object] = field(default_factory=dict)
    seed: object = None
    shard_seeds: Dict[int, int] = field(default_factory=dict)

    def build_shard(self, inner: str, shard_id: int) -> HIDictionary:
        """Build (empty) shard ``shard_id`` of registry structure ``inner``
        and record its seed."""
        from repro.api.registry import make_dictionary

        seed = self.shard_seeds.get(shard_id)
        if seed is None:
            seed = shard_seed(self.seed, shard_id)
        shard = make_dictionary(inner, block_size=self.block_size,
                                cache_blocks=self.cache_blocks, seed=seed,
                                **self.inner_params)
        self.shard_seeds[shard_id] = seed
        return shard

    def to_manifest(self, shard_ids: Sequence[int]) -> Dict[str, object]:
        """The manifest's ``build`` record, seeds listed in shard order
        (``None`` for a shard that was handed in pre-built)."""
        return {"block_size": self.block_size,
                "cache_blocks": self.cache_blocks,
                "inner_params": dict(self.inner_params),
                "seed": self.seed,
                "shard_seeds": [self.shard_seeds.get(shard_id)
                                for shard_id in shard_ids]}


def _store_seed(seed: RandomLike) -> object:
    """The store seed a build records: one draw from a ``random.Random``
    (which does not serialize), any other seed as given."""
    if isinstance(seed, random.Random):
        return seed.getrandbits(64)
    return seed


class ShardedDictionary(HIDictionary):
    """A key-addressed dictionary hash-partitioned across independent shards.

    Each shard is a complete :class:`~repro.api.protocol.HIDictionary` built
    through the registry; this class only routes, merges, and aggregates.
    Build one through ``make_dictionary("sharded", shards=..., inner=...)``
    or directly from pre-built shards (the shard list must be non-empty).
    """

    def __init__(self, shards: Sequence[HIDictionary],
                 inner_names: Optional[Sequence[str]] = None,
                 router: Optional[Router] = None,
                 shard_ids: Optional[Sequence[int]] = None) -> None:
        shards = list(shards)
        if not shards:
            raise ConfigurationError(
                "a sharded dictionary needs at least one shard")
        self._shards: List[HIDictionary] = shards
        self.inner_names: List[str] = list(
            inner_names if inner_names is not None
            else [getattr(shard, "registry_name", type(shard).__name__)
                  for shard in shards])
        self._router: Router = router if router is not None else make_router()
        if shard_ids is None:
            shard_ids = range(len(shards))
        # A tuple so the per-key router cache lookup needs no copy: routers
        # key their rings on tuple(shard_ids), and tuple() of a tuple is
        # the same object.  Resizes (rare) rebuild it wholesale.
        self._shard_ids: Tuple[int, ...] = tuple(
            _validated_shard_ids(shard_ids, len(shards)))
        #: How the shards were built; ``None`` for hand-assembled shards,
        #: which a resize or a recovery cannot rebuild.
        self.build_record: Optional[BuildRecord] = None

    @classmethod
    def _built(cls, record: BuildRecord, inner_names: Sequence[str],
               router: Router, shard_ids: Sequence[int]
               ) -> "ShardedDictionary":
        """An empty store whose shard ``shard_ids[i]`` is ``inner_names[i]``
        built through ``record``."""
        shards = [record.build_shard(name, shard_id)
                  for name, shard_id in zip(inner_names, shard_ids)]
        sharded = cls(shards, inner_names=inner_names, router=router,
                      shard_ids=shard_ids)
        sharded.build_record = record
        return sharded

    @classmethod
    def from_config(cls, config: "DictionaryConfig") -> "ShardedDictionary":
        """Registry factory: build shards from the validated extras.

        Each shard is built through :meth:`BuildRecord.build_shard`, that
        is through :func:`~repro.api.registry.make_dictionary` with the
        seed its id gives (:func:`shard_seed`), so tracker wiring and
        per-structure validation are identical to an unsharded build, and
        a store grown from ``n`` to ``n+1`` shards gives its new shard
        exactly the seed a fresh ``n+1``-shard build gives shard ``n`` —
        which is what lets the migration tests demand byte-identical
        layouts for strongly-HI inners.
        """
        _num_shards, inner_names, inner_params, router = \
            _validated_shard_spec(config.extra)
        record = BuildRecord(block_size=config.block_size,
                             cache_blocks=config.cache_blocks,
                             inner_params=inner_params,
                             seed=_store_seed(config.seed))
        return cls._built(record, inner_names, router,
                          range(len(inner_names)))

    @classmethod
    def from_manifest(cls, manifest: Mapping[str, object], path: str, *,
                      block_size: Optional[int] = None,
                      cache_blocks: Optional[int] = None,
                      seed: RandomLike = None,
                      inner_params: Optional[Mapping[str, object]] = None
                      ) -> "ShardedDictionary":
        """An empty store built like the one the manifest at ``path``
        records: its shard count, inner names, router, shard ids and build
        record, every shard with its recorded seed.

        The keywords override the build record; a ``seed`` replaces the
        recorded shard seeds with the ones it gives.  A manifest without
        a ``build`` record (older snapshots) builds with the registry
        defaults, and one without shard seeds derives them from its
        seed.  A manifest that describes no valid store raises
        :class:`~repro.errors.ConfigurationError`.
        """
        build = manifest.get("build", {})
        try:
            if not isinstance(build, dict):
                raise ConfigurationError("the build record is not a mapping")
            num_shards, inner_names, params, router = _validated_shard_spec({
                "shards": manifest.get("num_shards"),
                "inner": manifest.get("inner"),
                "router": manifest.get("router", {"name": "modulo"}),
                "inner_params": build.get("inner_params")
                if inner_params is None else inner_params})
            shard_ids = _validated_shard_ids(
                manifest.get("shard_ids", range(num_shards)), num_shards)
            seeds = build.get("shard_seeds") or [None] * num_shards
            if len(seeds) != num_shards:
                raise ConfigurationError(
                    "%d shard seed(s) for %d shard(s)"
                    % (len(seeds), num_shards))
        except (ConfigurationError, TypeError) as error:
            raise ConfigurationError(
                "manifest %r does not describe a loadable sharded "
                "dictionary: %s" % (path, error)) from error
        if seed is None:
            seed = build.get("seed")
        else:
            seed, seeds = _store_seed(seed), [None] * num_shards
        record = BuildRecord(
            block_size=build.get("block_size", 64)
            if block_size is None else block_size,
            cache_blocks=build.get("cache_blocks", 0)
            if cache_blocks is None else cache_blocks,
            inner_params=params, seed=seed,
            shard_seeds={shard_id: recorded for shard_id, recorded
                         in zip(shard_ids, seeds) if recorded is not None})
        return cls._built(record, inner_names, router, shard_ids)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    @property
    def shards(self) -> Tuple[HIDictionary, ...]:
        """The inner dictionaries, indexed by shard number."""
        return tuple(self._shards)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def router(self) -> Router:
        """The routing strategy (modulo by default)."""
        return self._router

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        """Stable per-shard identifiers the ring routers pin vnodes to."""
        return self._shard_ids

    def shard_of(self, key: object) -> int:
        """The shard index ``key`` routes to."""
        return self._router.route(key, self._shard_ids)

    def shards_of(self, keys: Iterable[object]) -> List[int]:
        """The shard index each of ``keys`` routes to, in one router call."""
        return self._router.route_many(keys, self._shard_ids)

    def _shard_for(self, key: object) -> HIDictionary:
        return self._shards[self.shard_of(key)]

    # ------------------------------------------------------------------ #
    # Elastic resizing
    # ------------------------------------------------------------------ #

    def _migrate(self, new_ids: Sequence[int],
                 new_position_of: Dict[int, int],
                 leaving: Optional[int] = None) -> Tuple[int, List[int], List[int]]:
        """Move every key whose new routing disagrees with where it lives.

        ``new_position_of`` maps an old shard position to its position in the
        shard list *after* the resize (``leaving``, if given, is the old
        position being removed and must not appear in it).  Keys are
        re-inserted into their target shards in ascending key order — the
        canonical rebuild order — so weakly-HI inners receive the same
        insertion pattern a fresh build of their final key set would, and
        strongly-HI inners end in their (unique) canonical state.

        The plan (which keys move where, values included) is computed with
        pure reads before any shard is touched, and the mutation phase keeps
        an undo log: if an inner structure fails mid-migration, every delete
        is re-inserted and every insert deleted again, so the dictionary is
        back in its pre-resize state when the error propagates.

        Returns ``(moved, moved_per_source, received_per_target)`` with the
        per-shard vectors indexed by *new* position.
        """
        departing = self._shards[leaving] if leaving is not None else None
        moves: List[Tuple[object, object, HIDictionary, int]] = []
        moved_per_source = [0] * len(new_ids)
        route_many = self._router.route_many
        for position, shard in enumerate(self._shards):
            pairs = shard.items()
            targets = route_many([key for key, _value in pairs], new_ids)
            if position == leaving:
                moves.extend((key, value, shard, target) for (key, value),
                             target in zip(pairs, targets))
                continue
            new_position = new_position_of[position]
            for (key, value), target in zip(pairs, targets):
                if target != new_position:
                    moves.append((key, value, shard, target))
                    moved_per_source[new_position] += 1
        received_per_target = [0] * len(new_ids)
        new_shards = [shard for position, shard in enumerate(self._shards)
                      if position != leaving]
        # Canonical order: deletions drain sources smallest-key first, then
        # insertions refill targets smallest-key first — both passes are pure
        # functions of the key sets involved, never of arrival order.  (The
        # departing shard is dropped wholesale, so its keys are not deleted
        # one by one.)
        moves.sort(key=lambda move: move[0])
        deleted: List[Tuple[HIDictionary, object, object]] = []
        inserted: List[Tuple[HIDictionary, object]] = []
        try:
            for key, value, source, _target in moves:
                if source is not departing:
                    source.delete(key)
                    deleted.append((source, key, value))
            for key, value, _source, target in moves:
                new_shards[target].insert(key, value)
                inserted.append((new_shards[target], key))
                received_per_target[target] += 1
        except Exception:
            for shard, key in reversed(inserted):
                shard.delete(key)
            for shard, key, value in reversed(deleted):
                shard.insert(key, value)
            raise
        return len(moves), moved_per_source, received_per_target

    def add_shard(self, shard: Optional[HIDictionary] = None,
                  inner: Optional[str] = None) -> MigrationReport:
        """Grow by one shard, migrating only the keys that re-route to it.

        The new shard's id is the largest live id plus one, a function of
        the live ids alone.  With no arguments the new shard is built
        exactly like the existing ones (same registry wiring, the seed its
        new id gives); pass ``inner`` to grow with a different registry
        structure, or a pre-built ``shard`` when the dictionary was
        assembled by hand.  Under consistent hashing the migration touches
        ``≈ n/(shards+1)`` keys, all flowing to the new shard; under modulo
        routing nearly every key moves (which is why the modulo router
        cannot scale elastically).
        """
        if shard is not None and inner is not None:
            raise ConfigurationError(
                "pass either a pre-built shard or an inner name, not both")
        new_id = max(self._shard_ids) + 1
        if shard is None:
            if self.build_record is None:
                raise ConfigurationError(
                    "this sharded dictionary was assembled from pre-built "
                    "shards; add_shard needs an explicit shard object")
            from repro.api.registry import resolve

            if inner is None:
                inner_name = self.inner_names[-1]
            else:
                inner_name = resolve(inner)
                if inner_name == "sharded":
                    raise ConfigurationError(
                        "sharded dictionaries cannot nest: inner structure "
                        "must not be 'sharded'")
            shard = self.build_record.build_shard(inner_name, new_id)
        else:
            inner_name = getattr(shard, "registry_name",
                                 type(shard).__name__)
        if len(shard) != 0:
            raise ConfigurationError(
                "a shard added during rebalancing must start empty; "
                "got one holding %d key(s)" % (len(shard),))
        old_shards = len(self._shards)
        old_ids = self._shard_ids
        new_ids = old_ids + (new_id,)
        new_position_of = {position: position
                           for position in range(old_shards + 1)}
        total = len(self)
        # Stage the new shard before migrating so routing targets (including
        # the new last position) resolve against the final shard list.
        self._shards.append(shard)
        self.inner_names.append(inner_name)
        self._shard_ids = new_ids
        try:
            moved, per_source, per_target = self._migrate(
                new_ids, new_position_of)
        except Exception:
            # Restore everything a fresh-build comparison can see: the
            # shard list, the ids and the build record, so a later grow is
            # indistinguishable from one with no failed attempt.
            self._shards.pop()
            self.inner_names.pop()
            self._shard_ids = old_ids
            self._forget_seed(new_id)
            raise
        return MigrationReport(
            old_shards=old_shards, new_shards=old_shards + 1,
            router=self._router.name, total_keys=total, moved_keys=moved,
            moved_per_source=tuple(per_source),
            received_per_target=tuple(per_target))

    def _forget_seed(self, shard_id: int) -> None:
        """Drop a shard that is gone from the build record."""
        if self.build_record is not None:
            self.build_record.shard_seeds.pop(shard_id, None)

    def remove_shard(self, position: int) -> MigrationReport:
        """Shrink by one shard, redistributing (at least) its keys.

        ``position`` is the shard index to retire.  Under consistent hashing
        only the departing shard's keys move (its vnodes vanish, everyone
        else's arcs are untouched); under modulo routing the whole key
        population reshuffles.  The surviving shards keep their stable ids,
        so a later :meth:`add_shard` does not disturb them either.
        """
        num_shards = len(self._shards)
        if num_shards <= 1:
            raise ConfigurationError(
                "cannot remove the last shard of a sharded dictionary")
        if not isinstance(position, int) or isinstance(position, bool) \
                or not 0 <= position < num_shards:
            raise ConfigurationError(
                "shard position must be an integer in [0, %d), got %r"
                % (num_shards, position))
        new_ids = tuple(shard_id for index, shard_id
                        in enumerate(self._shard_ids) if index != position)
        new_position_of = {
            old: old - (1 if old > position else 0)
            for old in range(num_shards) if old != position
        }
        total = len(self)
        moved, per_source, per_target = self._migrate(
            new_ids, new_position_of, leaving=position)
        self._forget_seed(self._shard_ids[position])
        self._shards.pop(position)
        self.inner_names.pop(position)
        self._shard_ids = new_ids
        return MigrationReport(
            old_shards=num_shards, new_shards=num_shards - 1,
            router=self._router.name, total_keys=total, moved_keys=moved,
            moved_per_source=tuple(per_source),
            received_per_target=tuple(per_target))

    # ------------------------------------------------------------------ #
    # Dictionary operations (routed)
    # ------------------------------------------------------------------ #

    def insert(self, key: object, value: object = None) -> None:
        self._shard_for(key).insert(key, value)

    def upsert(self, key: object, value: object = None) -> bool:
        return self._shard_for(key).upsert(key, value)

    def delete(self, key: object) -> object:
        return self._shard_for(key).delete(key)

    def search(self, key: object) -> object:
        return self._shard_for(key).search(key)

    def contains(self, key: object) -> bool:
        return self._shard_for(key).contains(key)

    def range_query(self, low: object, high: object) -> List[Pair]:
        """Fan out to every shard and merge the sorted per-shard results."""
        per_shard = [shard.range_items(low, high) for shard in self._shards]
        return list(heapq.merge(*per_shard, key=lambda pair: pair[0]))

    # ------------------------------------------------------------------ #
    # Container protocol / merged views
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __iter__(self):
        return iter(heapq.merge(*[list(shard) for shard in self._shards]))

    def items(self) -> List[Pair]:
        return list(heapq.merge(*[shard.items() for shard in self._shards],
                                key=lambda pair: pair[0]))

    def shard_sizes(self) -> List[int]:
        """Number of keys on each shard (the imbalance view)."""
        return [len(shard) for shard in self._shards]

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def io_stats(self) -> IOStats:
        """Aggregate counters across every shard (one merged stats view)."""
        merged = IOStats()
        for stats in self.per_shard_io_stats():
            merged.reads += stats.reads
            merged.writes += stats.writes
            merged.cache_hits += stats.cache_hits
            merged.element_moves += stats.element_moves
            merged.operations += stats.operations
            for name, amount in stats.counters.items():
                merged.counters[name] = merged.counters.get(name, 0) + amount
        return merged

    def per_shard_io_stats(self) -> List[IOStats]:
        """Each shard's merged :meth:`~HIDictionary.io_stats` view, in order."""
        return [shard.io_stats() for shard in self._shards]

    def stats_objects(self) -> List[IOStats]:
        """The live counter objects behind every shard (engine probe hook).

        :class:`~repro.api.engine.DictionaryEngine` snapshots and restores
        these around its cold-cache cost probes, so sharded measurements are
        rolled back exactly like unsharded ones.
        """
        objects: List[IOStats] = []
        for shard in self._shards:
            own = getattr(shard, "stats", None)
            if own is not None:
                objects.append(own)
            tracker = getattr(shard, "io_tracker", None)
            if tracker is not None:
                objects.append(tracker.stats)
        return objects

    def clear_caches(self) -> None:
        """Clear every shard's simulated cache (engine probe hook)."""
        for shard in self._shards:
            tracker = getattr(shard, "io_tracker", None)
            if tracker is not None and tracker.cache is not None:
                tracker.cache.clear()

    # ------------------------------------------------------------------ #
    # Serialisation / auditing
    # ------------------------------------------------------------------ #

    def snapshot_slots(self) -> Sequence[object]:
        """Per-shard slot arrays concatenated in shard order.

        Shard boundaries are a deterministic function of the key set (routing
        is content-only), so the concatenation preserves whatever layout
        guarantees the inner structures give.
        """
        slots: List[object] = []
        for shard in self._shards:
            slots.extend(shard.snapshot_slots())
        return slots

    def audit_fingerprint(self) -> object:
        """Per-shard fingerprints, in shard order.

        Shard membership depends only on the key set, so two equivalent
        histories split into per-shard histories that are equivalent shard by
        shard; the tuple of shard fingerprints is the right observable for
        the weak-history-independence audit.
        """
        return tuple(shard.audit_fingerprint() for shard in self._shards)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def check(self) -> None:
        from repro.errors import InvariantViolation

        for index, shard in enumerate(self._shards):
            shard.check()
            keys = list(shard)
            for key, target in zip(keys, self.shards_of(keys)):
                if target != index:
                    raise InvariantViolation(
                        "key %r lives on shard %d but routes to shard %d"
                        % (key, index, target))


class ShardedDictionaryEngine(DictionaryEngine):
    """Engine facade for a :class:`ShardedDictionary`: batched, shard-aware.

    Everything a plain :class:`~repro.api.engine.DictionaryEngine` does works
    unchanged (point operations route through the sharded structure, the
    uniform single-file ``snapshot`` persists the concatenated slot arrays);
    on top of that the bulk operations group keys by shard before dispatch,
    cost probes are shard-aware, and snapshots can be taken one file per
    shard with a manifest for restore.
    """

    #: The config the engine runs under (``None`` if built without one).
    engine_config: Optional[EngineConfig] = None

    def __init__(self, structure: ShardedDictionary, *,
                 name: Optional[str] = None) -> None:
        if not isinstance(structure, ShardedDictionary):
            raise ConfigurationError(
                "ShardedDictionaryEngine requires a ShardedDictionary; build "
                "one with make_dictionary('sharded', shards=..., inner=...) "
                "or wrap %r in a plain DictionaryEngine instead"
                % (type(structure).__name__,))
        super().__init__(structure, name=name)

    def _adopt_config(self, config: EngineConfig) -> None:
        """Carry ``config`` as :attr:`engine_config` and honour its
        ``telemetry`` switch (``REPRO_TRACE=1`` enables tracing without
        one; the tracer is already live in that case)."""
        self.engine_config = config
        if config.telemetry:
            self.tracer.enabled = True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def _engines(self) -> List[DictionaryEngine]:
        """One plain engine wrapper per shard, built from the live shard list.

        The wrapped :class:`ShardedDictionary` can be resized behind the
        engine's back — ``engine.structure.add_shard()`` is public API —
        so the wrappers are built on every call, never kept.
        """
        return [self._shard_engine_for(position)
                for position in range(self._structure.num_shards)]

    @property
    def shard_engines(self) -> Tuple[DictionaryEngine, ...]:
        """One plain engine per shard (for per-shard probes and snapshots)."""
        return tuple(self._engines())

    @property
    def num_shards(self) -> int:
        return self._structure.num_shards

    @property
    def router(self) -> Router:
        return self._structure.router

    def shard_sizes(self) -> List[int]:
        return self._structure.shard_sizes()

    def per_shard_io_stats(self) -> List[IOStats]:
        """Per-shard counters; their sum is :meth:`io_stats`."""
        return self._structure.per_shard_io_stats()

    # ------------------------------------------------------------------ #
    # Elastic resizing
    # ------------------------------------------------------------------ #

    def _shard_engine_for(self, position: int) -> DictionaryEngine:
        shard = self._structure.shards[position]
        inner = self._structure.inner_names[position]
        return DictionaryEngine(shard, name="%s[%d]" % (inner, position))

    def add_shard(self, shard: Optional[HIDictionary] = None,
                  inner: Optional[str] = None) -> MigrationReport:
        """Grow by one shard (see :meth:`ShardedDictionary.add_shard`)."""
        return self._resized(self._structure.add_shard(shard=shard,
                                                       inner=inner))

    def remove_shard(self, position: int) -> MigrationReport:
        """Retire one shard (see :meth:`ShardedDictionary.remove_shard`)."""
        return self._resized(self._structure.remove_shard(position))

    def _resized(self, report: MigrationReport) -> MigrationReport:
        """Keep :attr:`engine_config` describing the shard list."""
        if self.engine_config is not None:
            self.engine_config = _config_for_shards(
                self.engine_config, self._structure.inner_names)
        return report

    # ------------------------------------------------------------------ #
    # Batched bulk operations
    # ------------------------------------------------------------------ #

    def _grouped_entries(self, entries: Iterable[object]
                         ) -> Tuple[List[List[Pair]], int]:
        """Shard-grouped ``(key, value)`` batches plus the total entry count.

        The single source of routing truth for both the sequential and the
        parallel bulk paths: the whole call is routed with one
        :meth:`~repro.api.routing.Router.route_many`, and relative input
        order is preserved within each per-shard batch.
        """
        pairs = list(map(self._as_pair, entries))
        batches: List[List[Pair]] = [[] for _ in self._structure.shards]
        appends = [batch.append for batch in batches]
        for pair, target in zip(pairs, self._structure.shards_of(
                [pair[0] for pair in pairs])):
            appends[target](pair)
        return batches, len(pairs)

    def _grouped_positions(self, keys: Iterable[object]
                           ) -> Tuple[List[object], List[List[int]],
                                      List[List[object]]]:
        """The key list, then per shard the input positions of its keys and
        those keys, both in input order (one ``route_many`` call)."""
        keys = list(keys)
        positions: List[List[int]] = [[] for _ in self._structure.shards]
        batches: List[List[object]] = [[] for _ in self._structure.shards]
        at_appends = [indexes.append for indexes in positions]
        key_appends = [batch.append for batch in batches]
        for position, (key, target) in enumerate(
                zip(keys, self._structure.shards_of(keys))):
            at_appends[target](position)
            key_appends[target](key)
        return keys, positions, batches

    def _apply_batches(self, apply, batches: Sequence[list]) -> None:
        """Run ``apply(shard, batch)`` for every shard's non-empty batch,
        then raise the failure of the lowest failing shard position: each
        batch runs until its own first failure, whatever the others do."""
        failure: Optional[Exception] = None
        for shard, batch in zip(self._structure.shards, batches):
            if not batch:
                continue
            try:
                apply(shard, batch)
            except Exception as error:
                if failure is None:
                    failure = error
        if failure is not None:
            raise failure

    def insert_many(self, entries: Iterable[object]) -> int:
        """Insert keys or pairs, grouped by shard before dispatch.

        Each shard receives its keys as one contiguous batch (relative input
        order preserved within the batch), which is what gives sharding its
        locality win over interleaved routing, and applies it with one
        structure-level ``insert_many``.  Returns the number inserted.
        """
        with self._bulk_op("insert_many"):
            batches, count = self._grouped_entries(entries)
            self._apply_batches(insert_pairs, batches)
        self.metrics.inc("engine.keys.insert_many", count)
        return count

    def delete_many(self, keys: Iterable[object]) -> List[object]:
        """Delete keys grouped by shard; values return in the input order."""
        with self._bulk_op("delete_many"):
            keys, positions, _batches = self._grouped_positions(keys)
            values: List[object] = [None] * len(keys)

            def delete_batch(shard: HIDictionary, at: List[int]) -> None:
                delete = shard.delete
                for position in at:
                    values[position] = delete(keys[position])

            self._apply_batches(delete_batch, positions)
        self.metrics.inc("engine.keys.delete_many", len(values))
        return values

    def contains_many(self, keys: Iterable[object]) -> List[bool]:
        """Membership for every key, grouped by shard; input order preserved."""
        with self._bulk_op("contains_many"):
            keys, positions, batches = self._grouped_positions(keys)
            found: List[bool] = [False] * len(keys)
            for shard, at, batch in zip(self._structure.shards, positions,
                                        batches):
                contains = shard.contains
                for position, key in zip(at, batch):
                    found[position] = contains(key)
        self.metrics.inc("engine.keys.contains_many", len(found))
        return found

    # ------------------------------------------------------------------ #
    # Shard-aware cost probes
    # ------------------------------------------------------------------ #

    def search_io_cost(self, key: object) -> int:
        """Cold-cache search cost on the single shard that owns ``key``."""
        return self._shard_engine_for(self._structure.shard_of(key)) \
            .search_io_cost(key)

    def _require_range_support(self) -> None:
        """Fail fast — naming the shard — when an inner cannot range-query.

        The fan-out must never silently skip a shard (the merged result
        would be quietly missing that shard's keys), and a failure halfway
        through the loop would leave the caller with no idea which inner is
        at fault; so every shard is checked before any is probed.
        """
        for position, shard in enumerate(self._structure.shards):
            if not callable(getattr(shard, "range_query", None)):
                raise ConfigurationError(
                    "shard %d (%s) does not implement range_query(); the "
                    "sharded range fan-out cannot skip a shard without "
                    "returning incomplete results"
                    % (position, self._structure.inner_names[position]))

    def range_io_cost_breakdown(self, low: object, high: object
                                ) -> Tuple[List[Pair], List[int]]:
        """Fan the range out to every shard; merge results, keep the costs.

        Returns the merged sorted pairs plus one cold-cache cost per shard,
        in shard order — the imbalance view of a fan-out query.  Every shard
        must support range queries; a shard that does not raises
        :class:`~repro.errors.ConfigurationError` up front (a skipped shard
        would silently drop its part of the interval).  Like the base probe,
        each per-shard measurement is rolled back afterwards.
        """
        self._require_range_support()
        merged: List[List[Pair]] = []
        costs: List[int] = []
        for engine in self._engines():
            pairs, cost = engine.range_io_cost(low, high)
            merged.append(pairs)
            costs.append(cost)
        pairs = list(heapq.merge(*merged, key=lambda pair: pair[0]))
        return pairs, costs

    def range_io_cost(self, low: object, high: object) -> Tuple[List[Pair], int]:
        """Fan the range out to every shard; merge results, sum the costs.

        A range query cannot be routed — every shard may own keys inside the
        interval — so its cost is inherently the sum over shards; use
        :meth:`range_io_cost_breakdown` for the per-shard cost vector.
        """
        pairs, costs = self.range_io_cost_breakdown(low, high)
        return pairs, sum(costs)

    # ------------------------------------------------------------------ #
    # Per-shard snapshots
    # ------------------------------------------------------------------ #

    def _manifest_header(self) -> Dict[str, object]:
        """The fields both shard-image manifests share: version, structure,
        topology, router, shard ids and — for registry-built dictionaries,
        so a restore does not drift to the defaults — the build record."""
        from repro.storage.snapshot import MANIFEST_VERSION

        structure = self._structure
        header: Dict[str, object] = {
            "version": MANIFEST_VERSION,
            "structure": self.name,
            "num_shards": structure.num_shards,
            "inner": list(structure.inner_names),
            "router": structure.router.spec(),
            "shard_ids": list(structure.shard_ids),
        }
        if structure.build_record is not None:
            header["build"] = structure.build_record.to_manifest(
                structure.shard_ids)
        return header

    def snapshot_shards(self, directory: str) -> Dict[str, object]:
        """Write one image per shard into ``directory`` plus a JSON manifest.

        Returns the manifest (also written to ``manifest.json`` inside the
        directory): the :meth:`_manifest_header` fields plus, per shard, the
        image file name, its checksum and the snapshot metadata needed to
        decode it.  This is the one shard-image format of
        :mod:`repro.storage.snapshot`: images are rewritten from empty and
        the manifest is replaced atomically with a directory fsync.
        :meth:`restore_shards` consumes exactly this layout.
        """
        from repro.storage.snapshot import write_image, write_manifest

        os.makedirs(directory, exist_ok=True)
        manifest = self._manifest_header()
        manifest["shards"] = [
            write_image(directory, "shard-%04d.img" % index,
                        engine.structure.snapshot_slots(), kind=engine.name)
            for index, engine in enumerate(self._engines())]
        write_manifest(directory, manifest)
        return manifest

    @classmethod
    def restore_shards(cls, directory: str, *,
                       block_size: Optional[int] = None,
                       cache_blocks: Optional[int] = None,
                       seed: RandomLike = None,
                       inner_params: Optional[Mapping[str, object]] = None
                       ) -> "ShardedDictionaryEngine":
        """Rebuild a sharded engine from a :meth:`snapshot_shards` directory.

        Shard count, inner names, the router, the shard ids and the build
        record (every shard's seed included) come from the manifest
        (:meth:`ShardedDictionary.from_manifest`), so the restored engine
        is built like the one the images were written from; the keyword
        arguments override the manifest, and manifests without a ``build``
        record fall back to the registry defaults.  (Structures that draw
        randomness per operation lay out by the restore's insertion order:
        history independence at work, not configuration drift.)  Image
        ``i`` is loaded into shard ``i``, where routing sends its keys,
        before the engine is built, so a process engine ships each loaded
        shard to its worker in one crossing
        (:func:`~repro.storage.snapshot.load_image`: checksums verified,
        errors naming the shard entry, bare-key slots restoring with a
        ``None`` value).
        """
        from repro.storage.snapshot import (MANIFEST_NAME, load_image,
                                            read_manifest)

        manifest = read_manifest(directory)
        structure = ShardedDictionary.from_manifest(
            manifest, os.path.join(directory, MANIFEST_NAME),
            block_size=block_size, cache_blocks=cache_blocks, seed=seed,
            inner_params=inner_params)
        for index, shard in enumerate(structure.shards):
            load_image(shard, directory, manifest["shards"][index], index)
        return cls(structure)


def make_sharded_engine(config: EngineConfig) -> ShardedDictionaryEngine:
    """Build the sharded engine one :class:`~repro.api.config.EngineConfig`
    describes — the only constructor spelling.

    ``config.inner`` names the shards' registry structure (or one name per
    shard), ``router`` the key routing, and ``parallel`` the dispatch
    backend: ``"none"`` builds the sequential
    :class:`ShardedDictionaryEngine`, ``"process"`` the worker-process
    :class:`~repro.api.process_engine.ProcessShardedDictionaryEngine`, whose
    ``replication``, ``read_policy`` and ``durability_*`` settings turn it
    into a replicated, durable store (see :mod:`repro.replication`).  The
    config is validated first, and the engine carries it as
    ``engine_config`` (the durability manifest and the server handshake
    serialize it from there).
    """
    from repro.api.registry import make_dictionary

    if not isinstance(config, EngineConfig):
        raise ConfigurationError(
            "make_sharded_engine takes one EngineConfig, got %r; build one "
            "with EngineConfig(inner=..., shards=..., ...)" % (config,))
    config.validate()
    structure = make_dictionary("sharded", block_size=config.block_size,
                                cache_blocks=config.cache_blocks,
                                seed=config.seed,
                                shards=config.shards, inner=config.inner,
                                router=dict(config.router),
                                inner_params=dict(config.inner_params))
    if config.parallel == "process":
        from repro.api.process_engine import ProcessShardedDictionaryEngine

        return ProcessShardedDictionaryEngine(structure, config)
    engine = ShardedDictionaryEngine(structure)
    engine._adopt_config(config)
    return engine
