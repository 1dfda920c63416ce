"""Forensic heuristics: they should bite on history-dependent layouts only."""

import bisect
import hashlib
import os

import pytest

from repro.core.hi_pma import HistoryIndependentPMA
from repro.errors import ConfigurationError
from repro.history.forensics import (DurabilityAuditReport, audit_durability_dir,
                                     detect_density_anomaly, key_trace_patterns,
                                     occupancy_profile, redaction_signal,
                                     scan_bytes_for_keys)
from repro.pma.classic import ClassicPMA

pytestmark = pytest.mark.fast


def _build_sorted(structure, keys):
    shadow = []
    for key in keys:
        rank = bisect.bisect_left(shadow, key)
        structure.insert(rank, key)
        shadow.insert(rank, key)
    return structure


def test_occupancy_profile_shape_and_values():
    slots = [1, None, 2, None, 3, 4, None, None]
    profile = occupancy_profile(slots, buckets=4)
    assert len(profile) == 4
    assert profile == [0.5, 0.5, 1.0, 0.0]
    assert occupancy_profile([], buckets=3) == [0.0, 0.0, 0.0]
    with pytest.raises(ConfigurationError):
        occupancy_profile(slots, buckets=0)


def test_detect_density_anomaly_simple_cases():
    uniform = [1, None] * 40
    assert not detect_density_anomaly(uniform, buckets=4)
    lopsided = [1] * 40 + [None] * 38 + [1, 1]
    assert detect_density_anomaly(lopsided, buckets=4)
    assert not detect_density_anomaly([None] * 16, buckets=4)


def test_redaction_signal_requires_trials():
    with pytest.raises(ConfigurationError):
        redaction_signal([1, None], lambda: [1, None], trials=1)


def test_classic_pma_redaction_is_detectable_hi_pma_is_not():
    """The end-to-end forensic story from the paper's motivation."""
    keys = list(range(512))
    redacted = set(range(100, 220))  # a contiguous block of the key space
    surviving = [key for key in keys if key not in redacted]

    # Observed layouts: built with all keys, then the block deleted.
    classic_observed = _build_sorted(ClassicPMA(), keys)
    for key in sorted(redacted, reverse=True):
        rank = classic_observed.to_list().index(key)
        classic_observed.delete(rank)

    hi_observed = _build_sorted(HistoryIndependentPMA(seed=None), keys)
    while True:
        contents = hi_observed.to_list()
        target = next((key for key in contents if key in redacted), None)
        if target is None:
            break
        hi_observed.delete(contents.index(target))

    # Reference distribution: fresh builds of the surviving contents only.
    def rebuild_classic():
        return _build_sorted(ClassicPMA(), surviving).slots()

    def rebuild_hi():
        return _build_sorted(HistoryIndependentPMA(seed=None), surviving).slots()

    classic_signal = redaction_signal(classic_observed.slots(), rebuild_classic,
                                      trials=15)
    hi_signal = redaction_signal(hi_observed.slots(), rebuild_hi, trials=15)

    # The classic PMA's post-redaction layout is wildly implausible as a fresh
    # build; the HI PMA's is ordinary sampling noise.
    assert classic_signal > hi_signal
    assert hi_signal < 8.0


# --------------------------------------------------------------------------- #
# The durability-directory auditor (the stolen-disk attack, op-log era)
# --------------------------------------------------------------------------- #

def _durable_store(directory, mode, entries, doomed):
    """Build a durable store, delete ``doomed``, reach a barrier, close."""
    from repro.api import EngineConfig, make_sharded_engine

    engine = make_sharded_engine(EngineConfig(
        inner="b-treap", shards=2, block_size=16, seed=20160626,
        router="consistent", parallel="process", replication=1,
        durability_dir=str(directory), durability_mode=mode))
    try:
        engine.insert_many(entries)
        engine.delete_many(doomed)
        engine.barrier()
    finally:
        engine.close()


def _dir_fingerprint(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        digest.update(name.encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def test_key_trace_patterns_are_framed_not_bare_payloads():
    record_pattern, nested_pattern = key_trace_patterns(7)
    # The record pattern carries the codec header (tag + u32 length)...
    assert record_pattern[0] != 0 and len(record_pattern) > 16
    # ...and the nested pattern is anchored by the pair codec's u16 key-blob
    # length, so a short key's mostly-zero payload cannot match a record's
    # trailing zero padding.
    assert nested_pattern[:2] == len(nested_pattern[2:]).to_bytes(2, "big")
    blob = b"\x00" * 64 + record_pattern + b"\x00" * 64
    assert scan_bytes_for_keys(blob, [7]) == [(7, 64)]
    assert scan_bytes_for_keys(blob, [8]) == []


def test_audit_rejects_a_missing_directory(tmp_path):
    with pytest.raises(ConfigurationError):
        audit_durability_dir(str(tmp_path / "nope"), [1])


def test_audit_finds_history_in_a_logged_directory(tmp_path):
    entries = [(key, 10 ** 9 + key) for key in range(50)]
    doomed = [key for key, _value in entries[::5]]
    _durable_store(tmp_path, "logged", entries, doomed)
    report = audit_durability_dir(str(tmp_path), doomed, payload_size=64)
    assert isinstance(report, DurabilityAuditReport)
    assert not report.clean
    assert report.bytes_scanned > 0
    kinds = {finding.kind for finding in report.findings}
    assert "raw-bytes" in kinds and "oplog-frame" in kinds
    assert {finding.key for finding in report.findings} == set(doomed)


def test_audit_reports_a_secure_directory_clean(tmp_path):
    entries = [(key, 10 ** 9 + key) for key in range(50)]
    doomed = [key for key, _value in entries[::5]]
    _durable_store(tmp_path, "secure", entries, doomed)
    report = audit_durability_dir(str(tmp_path), doomed, payload_size=64)
    assert report.clean
    assert report.findings == ()
    # Surviving keys are still found — the auditor is not vacuously clean.
    survivor = next(key for key, _value in entries if key not in set(doomed))
    assert not audit_durability_dir(str(tmp_path), [survivor],
                                    payload_size=64).clean


def test_audit_never_mutates_the_evidence(tmp_path):
    """Forensics must be read-only: auditing twice, byte-identical dir."""
    entries = [(key, 10 ** 9 + key) for key in range(30)]
    doomed = [key for key, _value in entries[::4]]
    _durable_store(tmp_path, "logged", entries, doomed)
    before = _dir_fingerprint(str(tmp_path))
    first = audit_durability_dir(str(tmp_path), doomed, payload_size=64)
    second = audit_durability_dir(str(tmp_path), doomed, payload_size=64)
    assert _dir_fingerprint(str(tmp_path)) == before
    assert first == second


def test_audit_decodes_checkpoint_images_even_when_their_padding_changed(
        tmp_path):
    """The image-slot pass decodes the manifest's images without enforcing
    checksums: a logged store checkpointed before two deletes still shows
    both keys in its image slots after the last byte of every image (page
    padding, not a record) is flipped."""
    from repro.api import EngineConfig, make_sharded_engine

    engine = make_sharded_engine(EngineConfig(
        inner="b-tree", shards=2, seed=3, parallel="process",
        durability_dir=str(tmp_path), fsync=False))
    try:
        engine.insert_many((key, 10 ** 9 + key) for key in range(50))
        engine.checkpoint()
        engine.delete_many([5, 10])
    finally:
        engine.close()
    expected = {("shard-000000.gen000002.img", 5),
                ("shard-000000.gen000002.img", 10)}
    for flip_padding in (False, True):
        if flip_padding:
            for name in os.listdir(tmp_path):
                if name.endswith(".img"):
                    blob = bytearray((tmp_path / name).read_bytes())
                    blob[-1] ^= 0xFF
                    (tmp_path / name).write_bytes(bytes(blob))
        report = audit_durability_dir(str(tmp_path), [5, 10])
        assert {(finding.file, finding.key) for finding in report.findings
                if finding.kind == "image-slot"} == expected
