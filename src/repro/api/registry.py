"""Central registry of the library's dictionary structures.

Every consumer layer (CLI, audits, benchmark series, examples) resolves
structures by *name* here instead of importing concrete classes:

>>> from repro.api import make_dictionary
>>> index = make_dictionary("hi-skiplist", block_size=32, seed=7)
>>> index.insert(41, "answer-adjacent")

Each entry records, besides the factory, the metadata the consumers used to
hard-code per structure: whether the structure is history independent,
whether the underlying implementation is rank-addressed (so the audit can
drive it through the rank replay), and whether it counts I/Os through a
shared :class:`~repro.memory.tracker.IOTracker`.

Third-party backends register through :func:`register`; the built-in
structures self-register on first lookup, and each imports its module only
when it is first built, which keeps this module import-light and
cycle-free.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro._rng import RandomLike
from repro.api.protocol import HIDictionary
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DictionaryConfig:
    """Validated construction parameters handed to structure factories.

    ``extra`` carries structure-specific parameters (e.g. the HI skip list's
    ``epsilon``); :func:`make_dictionary` only accepts keys the structure
    declared in its :attr:`StructureInfo.extra_params`.
    """

    block_size: int = 64
    cache_blocks: int = 0
    seed: RandomLike = None
    tracker: Optional[object] = None
    extra: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class StructureInfo:
    """One registry entry: a factory plus the metadata consumers dispatch on."""

    name: str
    factory: Callable[[DictionaryConfig], HIDictionary]
    summary: str = ""
    history_independent: bool = False
    rank_addressed: bool = False
    supports_tracker: bool = False
    aliases: Tuple[str, ...] = ()
    extra_params: Tuple[str, ...] = ()
    raw_factory: Optional[Callable[[DictionaryConfig], object]] = field(
        default=None, compare=False)


_REGISTRY: Dict[str, StructureInfo] = {}
_ALIASES: Dict[str, str] = {}
_builtin_loaded = False


def register(name: str,
             factory: Callable[[DictionaryConfig], HIDictionary],
             *,
             summary: str = "",
             history_independent: bool = False,
             rank_addressed: bool = False,
             supports_tracker: bool = False,
             aliases: Tuple[str, ...] = (),
             extra_params: Tuple[str, ...] = (),
             raw_factory: Optional[Callable[[DictionaryConfig], object]] = None
             ) -> StructureInfo:
    """Register a dictionary factory under ``name`` (plus optional aliases).

    ``factory`` receives a validated :class:`DictionaryConfig` and must return
    an :class:`~repro.api.protocol.HIDictionary`.  ``raw_factory`` (optional)
    returns the underlying structure for consumers that need the native
    surface — e.g. the rank-addressed PMA behind the ``hi-pma`` adapter.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError("structure name must be a non-empty string, "
                                 "got %r" % (name,))
    _ensure_builtin()  # so early registrations collide with builtin names now
    taken = set(_REGISTRY) | set(_ALIASES)
    for candidate in (name,) + tuple(aliases):
        if candidate in taken:
            raise ConfigurationError(
                "structure name %r is already registered" % (candidate,))
    info = StructureInfo(name=name, factory=factory, summary=summary,
                         history_independent=history_independent,
                         rank_addressed=rank_addressed,
                         supports_tracker=supports_tracker,
                         aliases=tuple(aliases),
                         extra_params=tuple(extra_params),
                         raw_factory=raw_factory)
    _REGISTRY[name] = info
    for alias in info.aliases:
        _ALIASES[alias] = name
    return info


def resolve(name: str) -> str:
    """Canonical registry name for ``name`` (which may be an alias)."""
    _ensure_builtin()
    if name in _REGISTRY:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    raise ConfigurationError(
        "unknown structure %r; known structures: %s"
        % (name, ", ".join(sorted(_REGISTRY))))


def get_info(name: str) -> StructureInfo:
    """The :class:`StructureInfo` registered under ``name`` (or an alias)."""
    return _REGISTRY[resolve(name)]


def registry_names(include_aliases: bool = False) -> List[str]:
    """Sorted canonical names (optionally with aliases) of every structure."""
    _ensure_builtin()
    names = set(_REGISTRY)
    if include_aliases:
        names |= set(_ALIASES)
    return sorted(names)


def _check_extra_params(info: StructureInfo,
                        extra: Mapping[str, object]) -> None:
    """Reject extra parameters the structure's entry does not declare."""
    unknown = set(extra) - set(info.extra_params)
    if unknown:
        raise ConfigurationError(
            "structure %r does not accept parameter(s) %s%s"
            % (info.name, ", ".join(sorted(unknown)),
               "; accepted: " + ", ".join(info.extra_params)
               if info.extra_params else ""))


def _validated_config(info: StructureInfo, block_size: int, cache_blocks: int,
                      seed: RandomLike,
                      extra: Mapping[str, object]) -> DictionaryConfig:
    if not isinstance(block_size, int) or isinstance(block_size, bool) \
            or block_size < 2:
        raise ConfigurationError(
            "block_size must be an integer >= 2, got %r" % (block_size,))
    if not isinstance(cache_blocks, int) or isinstance(cache_blocks, bool) \
            or cache_blocks < 0:
        raise ConfigurationError(
            "cache_blocks must be a non-negative integer, got %r"
            % (cache_blocks,))
    _check_extra_params(info, extra)
    tracker = None
    if info.supports_tracker:
        from repro.memory.tracker import IOTracker
        tracker = IOTracker(block_size=block_size, cache_blocks=cache_blocks)
    return DictionaryConfig(block_size=block_size, cache_blocks=cache_blocks,
                            seed=seed, tracker=tracker, extra=dict(extra))


def make_dictionary(name: str, *,
                    block_size: int = 64,
                    cache_blocks: int = 0,
                    seed: RandomLike = None,
                    **extra: object) -> HIDictionary:
    """Build the structure registered under ``name`` with uniform validation.

    Parameters
    ----------
    name:
        A canonical registry name or alias; see :func:`registry_names`.
    block_size:
        The DAM block size ``B`` (ignored by purely in-memory structures).
    cache_blocks:
        Simulated cache size ``M/B`` for tracker-backed structures.
    seed:
        Seed (or ``random.Random``) for the structure's internal randomness.
    extra:
        Structure-specific parameters declared by the registry entry, e.g.
        ``epsilon`` for ``hi-skiplist``; unknown keys raise
        :class:`~repro.errors.ConfigurationError`.

    The returned structure carries two extra attributes: ``registry_name``
    (the canonical name it was built from) and, when the structure supports
    one, ``io_tracker`` (the attached tracker, merged into ``io_stats()``).
    """
    info = get_info(name)
    config = _validated_config(info, block_size, cache_blocks, seed, extra)
    structure = info.factory(config)
    structure.registry_name = info.name
    if config.tracker is not None:
        structure.io_tracker = config.tracker
    return structure


def make_raw_structure(name: str, *,
                       block_size: int = 64,
                       cache_blocks: int = 0,
                       seed: RandomLike = None,
                       tracker: Optional[object] = None,
                       **extra: object) -> object:
    """Build the *underlying* structure registered under ``name``.

    For the PMA entries this is the bare rank-addressed structure (what the
    ``figure2``/``attack`` pipelines and the ranked audit replay drive); for
    everything else it is the same object :func:`make_dictionary` returns,
    minus the tracker wiring.  ``extra`` carries the structure-specific
    parameters the entry declares (e.g. ``shards``/``inner`` for the sharded
    router), validated like :func:`make_dictionary` validates them.
    """
    info = get_info(name)
    _check_extra_params(info, extra)
    config = DictionaryConfig(block_size=block_size, cache_blocks=cache_blocks,
                              seed=seed, tracker=tracker, extra=dict(extra))
    if info.raw_factory is not None:
        return info.raw_factory(config)
    return info.factory(config)


def reset_registry(keep_builtin: bool = True) -> None:
    """Forget every registration (test hook).

    With ``keep_builtin`` the built-in structures re-register on next lookup;
    without it the registry stays empty until :func:`register` is called.
    """
    global _builtin_loaded
    _REGISTRY.clear()
    _ALIASES.clear()
    _builtin_loaded = not keep_builtin


# --------------------------------------------------------------------------- #
# Built-in structures
# --------------------------------------------------------------------------- #

def _class(module: str, name: str) -> type:
    """A built-in structure class; its module is imported on first build."""
    return getattr(importlib.import_module(module), name)


def _ensure_builtin() -> None:
    """Register the library's own structures on first lookup.

    Only their metadata is recorded here: each factory imports its
    structure's module when it first builds one, so listing, resolving or
    describing structures imports none of them.
    """
    global _builtin_loaded
    if _builtin_loaded:
        return
    _builtin_loaded = True

    from repro.api.adapters import RankKeyedDictionary

    def _hi_pma(config: DictionaryConfig) -> object:
        return _class("repro.core.hi_pma", "HistoryIndependentPMA")(
            seed=config.seed, tracker=config.tracker)

    def _classic_pma(config: DictionaryConfig) -> object:
        return _class("repro.pma.classic", "ClassicPMA")(
            tracker=config.tracker)

    def _adaptive_pma(config: DictionaryConfig) -> object:
        return _class("repro.pma.adaptive", "AdaptivePMA")(
            tracker=config.tracker)

    register(
        "hi-pma",
        lambda config: RankKeyedDictionary(_hi_pma(config)),
        raw_factory=_hi_pma,
        summary="weakly HI packed-memory array (Theorem 1), key-adapted",
        history_independent=True, rank_addressed=True, supports_tracker=True)
    register(
        "classic-pma",
        lambda config: RankKeyedDictionary(_classic_pma(config)),
        raw_factory=_classic_pma,
        summary="density-threshold PMA baseline (history dependent)",
        rank_addressed=True, supports_tracker=True)
    register(
        "adaptive-pma",
        lambda config: RankKeyedDictionary(_adaptive_pma(config)),
        raw_factory=_adaptive_pma,
        summary="classic PMA with adaptive rebalance markers",
        rank_addressed=True, supports_tracker=True)
    register(
        "hi-cobtree",
        lambda config: _class("repro.cobtree.hi_cob_tree",
                              "HistoryIndependentCOBTree")(
            seed=config.seed, tracker=config.tracker),
        aliases=("cobtree",),
        summary="HI cache-oblivious B-tree on the augmented PMA (Theorem 2)",
        history_independent=True, supports_tracker=True)
    register(
        "hi-skiplist",
        lambda config: _class("repro.skiplist.external",
                              "HistoryIndependentSkipList")(
            block_size=config.block_size, seed=config.seed, **config.extra),
        aliases=("skiplist",),
        extra_params=("epsilon", "max_level"),
        summary="HI external-memory skip list (Theorem 3)",
        history_independent=True)
    register(
        "b-skiplist",
        lambda config: _class("repro.skiplist.folklore", "FolkloreBSkipList")(
            block_size=config.block_size, seed=config.seed, **config.extra),
        extra_params=("max_level",),
        summary="folklore B-skip list (promotion 1/B; Lemma 15 baseline)",
        history_independent=True)
    register(
        "b-treap",
        lambda config: _class("repro.btreap.btreap", "BTreap")(
            block_size=config.block_size, seed=config.seed),
        aliases=("btreap",),
        summary="strongly HI blocked treap (Golovin-style)",
        history_independent=True)
    register(
        "b-tree",
        lambda config: _class("repro.btree.btree", "BTree")(
            block_size=config.block_size),
        aliases=("btree",),
        summary="classic B-tree baseline (history dependent)")
    register(
        "treap",
        lambda config: _class("repro.treap.treap", "Treap")(seed=config.seed),
        summary="in-memory treap with salted-hash priorities (strongly HI)",
        history_independent=True)
    register(
        "memory-skiplist",
        lambda config: _class("repro.skiplist.memory", "MemorySkipList")(
            seed=config.seed, **config.extra),
        extra_params=("promote_probability", "max_level"),
        summary="Pugh's in-memory skip list run on disk (baseline)",
        history_independent=True)

    from repro.api.sharded import ShardedDictionary

    # History independent whenever the inner structures are: routing is a
    # fixed function of the key, so equivalent histories split into
    # equivalent per-shard histories (the default inner is HI).
    register(
        "sharded",
        ShardedDictionary.from_config,
        extra_params=("shards", "inner", "inner_params", "router", "vnodes",
                      "weights"),
        summary="hash-partitioned router over N independent registry "
                "backends (modulo, consistent-hash, or weighted routing)",
        history_independent=True)
