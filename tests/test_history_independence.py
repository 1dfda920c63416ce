"""Paper-core regression: layouts must not remember the insertion order.

Two tiers, matching what each implementation actually guarantees:

* **Canonical layouts** — the strongly history-independent structures
  (``b-treap``, ``treap``) derive all randomness from per-key salted draws
  against a fixed seed, so for a fixed seed the physical layout is a
  *function* of the key set: building from any permutation of the same
  keys — or through a detour that inserts extra keys and deletes them
  again — must produce an identical layout digest (memory representation
  plus snapshot bytes).

* **Distributional layouts** — the weakly history-independent structures
  (``hi-pma``, ``hi-cobtree``, and both external skip lists,
  ``hi-skiplist`` and ``b-skiplist``) consume randomness in operation
  order, so equal seeds do not mean equal layouts; the paper's guarantee
  (Definition 4) is that the layout *distribution* depends only on the
  final key set.  For those, each permutation is rebuilt many times with
  fresh randomness and the fingerprint distributions are compared by the
  §4.3 homogeneity test.  The history-*dependent* baselines must fail the
  same test — a detector that never fires proves nothing.

The sharded router preserves whichever tier its inner structures have,
because routing is a fixed function of the key; both tiers re-check that
on top of the single-structure assertions.
"""

from __future__ import annotations

import random

import pytest

from repro.api import audit_fingerprint_of, make_dictionary
from repro.history.audit import audit_weak_history_independence
from repro.history.pairs import equivalent_histories, registry_builders
from repro.storage import image_of
from repro.workloads.generators import Operation, OperationKind, apply_to_dictionary

pytestmark = pytest.mark.fast

SEED = 2016
BLOCK_SIZE = 8

#: Structures whose layout is a deterministic function of (key set, seed).
CANONICAL = ("b-treap", "treap")
#: Weakly HI structures: the layout *distribution* is order-independent.
#: ``b-skiplist`` keys its fingerprint on promotion levels and leaf-array
#: sizes — its physical layout — because its ``items()`` view is trivially
#: order-independent and would make the audit vacuous.
DISTRIBUTIONAL = ("hi-pma", "hi-cobtree", "hi-skiplist", "b-skiplist")
#: History-dependent baselines the audit must flag.
DEPENDENT = ("classic-pma", "b-tree")


def permuted_traces(keys, shuffles=2, detour=True, seed=0):
    """Equivalent histories over ``keys``: order variants plus a detour."""
    detours = [max(keys) + 10, max(keys) + 20] if detour else []
    return equivalent_histories(sorted(keys), detour_keys=detours,
                                shuffles=shuffles, seed=seed)


def snapshot_fingerprint(structure) -> str:
    """Fingerprint of the structure's snapshot bytes (slot-level layout)."""
    from repro.storage.snapshot import snapshot_records

    paged, metadata = snapshot_records(list(structure.snapshot_slots()),
                                       page_size=512, payload_size=64)
    return image_of(paged, metadata).fingerprint()


def layout_digest(structure):
    """The full physical observable: audit fingerprint + snapshot bytes.

    ``audit_fingerprint_of`` sees the memory representation (block map,
    node structure) where the structure exposes one; the snapshot
    fingerprint sees the persisted slot bytes.  A canonical structure must
    agree on both across equivalent histories.
    """
    return audit_fingerprint_of(structure), snapshot_fingerprint(structure)


def fingerprint_of(structure):
    """Audit observable, specialised for level-structured skip lists."""
    level_of = getattr(structure, "level_of", None)
    if callable(level_of):
        return (tuple(level_of(key) for key in structure),
                tuple(structure.leaf_array_sizes()))
    return audit_fingerprint_of(structure)


def build_from(name, trace, seed=SEED, **extra):
    structure = make_dictionary(name, block_size=BLOCK_SIZE, seed=seed,
                                **extra)
    apply_to_dictionary(structure, trace)
    return structure


# --------------------------------------------------------------------------- #
# Tier 1: canonical layouts (exact equality)
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("name", CANONICAL)
def test_canonical_layout_is_identical_across_histories(name):
    rng = random.Random(11)
    keys = rng.sample(range(100_000), 150)
    traces = permuted_traces(keys, shuffles=3, seed=5)
    digests = {layout_digest(build_from(name, trace)) for trace in traces}
    assert len(digests) == 1, (
        "%s produced %d distinct layouts from %d equivalent histories"
        % (name, len(digests), len(traces)))


@pytest.mark.parametrize("inner", CANONICAL)
def test_sharded_canonical_layout_is_identical_across_histories(inner):
    rng = random.Random(12)
    keys = rng.sample(range(100_000), 120)
    traces = permuted_traces(keys, shuffles=2, seed=6)
    digests = {
        layout_digest(build_from("sharded", trace, shards=3, inner=inner))
        for trace in traces
    }
    assert len(digests) == 1


def test_canonical_layout_depends_on_the_key_set():
    """Sanity: the digest detects *different* states (it is not constant)."""
    keys = list(range(0, 300, 3))
    base = layout_digest(build_from("b-treap",
                                    [Operation(OperationKind.INSERT, key)
                                     for key in keys]))
    other = layout_digest(build_from("b-treap",
                                     [Operation(OperationKind.INSERT, key)
                                      for key in keys[:-1]]))
    assert base != other


def test_btree_layout_is_history_dependent():
    """The baseline control: permuted inserts leave different B-tree layouts."""
    rng = random.Random(13)
    keys = rng.sample(range(100_000), 150)
    traces = permuted_traces(keys, shuffles=2, seed=7)
    digests = {layout_digest(build_from("b-tree", trace)) for trace in traces}
    assert len(digests) > 1


# --------------------------------------------------------------------------- #
# Tier 2: distributional layouts (the paper's weak HI, Definition 4)
# --------------------------------------------------------------------------- #

def audit_result(name, num_keys=24, trials=40, **extra):
    keys = list(range(1, num_keys + 1))
    histories = equivalent_histories(keys,
                                     detour_keys=[num_keys + 10, num_keys + 20],
                                     shuffles=2, seed=SEED)
    builders = registry_builders(name, histories, block_size=BLOCK_SIZE,
                                 **extra)
    return audit_weak_history_independence(
        builders, trials=trials, fingerprint_of=fingerprint_of)


@pytest.mark.parametrize("name", DISTRIBUTIONAL)
def test_weak_hi_fingerprint_distributions_match(name):
    result = audit_result(name)
    assert not result.deterministic_mismatch
    assert result.passes(), (
        "%s: homogeneity p-value %.5f across %d equivalent histories"
        % (name, result.p_value, result.num_sequences))


def test_sharded_weak_hi_fingerprint_distributions_match():
    result = audit_result("sharded", shards=2, inner="hi-pma")
    assert not result.deterministic_mismatch
    assert result.passes()


@pytest.mark.parametrize("name", DEPENDENT)
def test_history_dependent_baselines_fail_the_audit(name):
    result = audit_result(name, trials=5)
    assert not result.passes(), (
        "%s is history dependent but the audit did not flag it" % name)


# --------------------------------------------------------------------------- #
# The process-parallel backend must preserve both tiers
# --------------------------------------------------------------------------- #

def build_process_pair(inner, trace, seed):
    """The same history through a sequential and a process-backed engine."""
    from repro.api import EngineConfig, make_sharded_engine

    engines = []
    for parallel in ("none", "process"):
        engine = make_sharded_engine(EngineConfig(
            inner=inner, shards=2, block_size=BLOCK_SIZE, seed=seed,
            parallel=parallel))
        engine.build_from_trace(trace)
        engines.append(engine)
    return engines


@pytest.mark.parametrize("inner", CANONICAL)
def test_process_engine_canonical_layouts_identical_across_histories(inner):
    """Tier 1 behind worker processes: one layout per key set, exactly.

    The digests must agree across equivalent histories *and* with the
    sequential engine — hosting shards out of process must not perturb a
    single byte of a canonical layout.
    """
    rng = random.Random(21)
    keys = rng.sample(range(100_000), 60)
    traces = permuted_traces(keys, shuffles=1, seed=8)
    digests = set()
    for trace in traces:
        sequential, process = build_process_pair(inner, trace, seed=SEED)
        try:
            process_digest = layout_digest(process.structure)
            assert process_digest == layout_digest(sequential.structure)
            digests.add(process_digest)
        finally:
            process.close()
    assert len(digests) == 1


@pytest.mark.parametrize("inner", ["hi-pma", "hi-skiplist"])
def test_process_engine_preserves_distributional_layouts(inner):
    """Tier 2 behind worker processes: the layout *distribution* transfers.

    For every (seed, history) pair the process engine's physical layout is
    byte-identical to the sequential engine's, so the two backends induce
    the *same* layout distribution over fresh randomness — and the
    sequential sharded distribution is exactly what
    ``test_sharded_weak_hi_fingerprint_distributions_match`` audits against
    Definition 4.  Checking the pointwise identity over several seeds and
    all equivalent histories transfers that audit to the process backend
    without rebuilding hundreds of engines behind worker pipes.
    """
    keys = list(range(1, 17))
    traces = permuted_traces(keys, shuffles=1, seed=9)
    for trace in traces:
        for seed in (SEED, SEED + 1, SEED + 2):
            sequential, process = build_process_pair(inner, trace, seed=seed)
            try:
                assert audit_fingerprint_of(process.structure) \
                    == audit_fingerprint_of(sequential.structure)
                assert process.structure.snapshot_slots() \
                    == sequential.structure.snapshot_slots()
            finally:
                process.close()
