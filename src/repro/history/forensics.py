"""Forensic heuristics an observer could run against a stolen layout.

History independence is motivated by what an *observer* of the raw disk can
infer.  This module implements the simple, practical inference heuristics the
paper's motivation sections allude to, so that examples and tests can show
them succeeding against history-dependent layouts and failing against the
history-independent ones:

* :func:`occupancy_profile` — the local-density fingerprint of a slot array.
  In a classic PMA, regions that absorbed many recent inserts are denser and
  regions that suffered deletions are sparser, so the profile betrays *where*
  in the key space activity happened.
* :func:`detect_density_anomaly` — flags whether a profile contains a region
  whose density deviates from the array's mean by more than a threshold,
  i.e. whether the naive attack finds anything to point at.
* :func:`redaction_signal` — compares the profile of an observed layout with
  the profile distribution of freshly built layouts holding the same
  contents; the result is a z-score-like statistic that is large when the
  observed layout could not plausibly have been built from scratch (the
  classic-PMA-after-redaction case).
* :func:`audit_durability_dir` — the stolen-*directory* attack against the
  replication layer's durable artifacts: scan every byte of a durability
  directory (op logs — structurally via read-only frame replay *and* as raw
  bytes — checkpoint images, manifests, compaction scratch files) for
  encodings of a provided "deleted key" set, and profile the images for
  density anomalies.  Against ``durability_mode="logged"`` the audit finds
  the delete frames verbatim; against ``durability_mode="secure"`` — after
  a barrier — it must find nothing, which is exactly what the erasure test
  tier asserts.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.storage.encoding import RecordCodec, encoded_record_size
from repro.storage.snapshot import decode_slot, read_image, read_manifest


def occupancy_profile(slots: Sequence[object], buckets: int = 16) -> List[float]:
    """Fraction of occupied slots in each of ``buckets`` equal regions."""
    if buckets < 1:
        raise ConfigurationError("buckets must be positive")
    if not slots:
        return [0.0] * buckets
    chunk = max(1, len(slots) // buckets)
    profile = []
    for index in range(buckets):
        start = index * chunk
        stop = len(slots) if index == buckets - 1 else (index + 1) * chunk
        window = slots[start:stop]
        occupied = sum(1 for value in window if value is not None)
        profile.append(occupied / max(1, len(window)))
    return profile


def detect_density_anomaly(slots: Sequence[object], buckets: int = 16,
                           threshold: float = 0.25) -> bool:
    """Whether some region's density deviates from the mean by ``threshold``.

    This is the crudest possible forensic test; it already distinguishes a
    classic PMA that was hammered at one end from one built by random
    inserts, and it never finds anything in an HI PMA beyond its sampling
    noise.
    """
    profile = occupancy_profile(slots, buckets=buckets)
    occupied_buckets = [density for density in profile if density > 0]
    if not occupied_buckets:
        return False
    mean = sum(occupied_buckets) / len(occupied_buckets)
    return any(abs(density - mean) > threshold for density in occupied_buckets)


def redaction_signal(observed_slots: Sequence[object],
                     rebuild: Callable[[], Sequence[object]],
                     trials: int = 30,
                     buckets: int = 16) -> float:
    """How implausible the observed layout is among fresh layouts of the same state.

    ``rebuild`` must build a fresh structure holding the same logical contents
    and return its slot array.  The statistic is the maximum over buckets of
    ``|observed − mean| / (std + ε)``; values around 1–3 are ordinary sampling
    noise, values well above that mean the observed layout carries information
    a fresh build would not (e.g. the hole left by a redacted key block in a
    classic PMA).
    """
    if trials < 2:
        raise ConfigurationError("need at least two trials to estimate variability")
    observed = occupancy_profile(observed_slots, buckets=buckets)
    samples = [occupancy_profile(rebuild(), buckets=buckets) for _ in range(trials)]
    worst = 0.0
    for bucket in range(buckets):
        values = [sample[bucket] for sample in samples]
        mean = sum(values) / len(values)
        variance = sum((value - mean) ** 2 for value in values) / max(1, len(values) - 1)
        std = math.sqrt(variance)
        score = abs(observed[bucket] - mean) / (std + 1e-6)
        worst = max(worst, min(score, 1e6))
    return worst


# --------------------------------------------------------------------------- #
# Durability-directory forensics (the stolen-directory attack)
# --------------------------------------------------------------------------- #

#: Header bytes of one encoded record: tag byte plus the u32 payload length.
_RECORD_HEADER_SIZE = encoded_record_size(0)


def _patterns_for(codec: RecordCodec, key: object) -> Tuple[bytes, bytes]:
    """The two byte patterns whose presence betrays ``key`` on disk.

    The *record* pattern — tag, length, payload, exactly as
    :meth:`RecordCodec.encode` lays them out — matches a bare-key record
    (an op-log delete frame, a key-only snapshot slot).  The *nested*
    pattern — the pair codec's u16 key-blob length, then the key's tag
    byte and payload — matches the key half of a ``(key, value)`` pair
    record (op-log insert/upsert frames, pair snapshot slots).  Both are
    padding-independent prefixes, so they match regardless of the zero
    fill that follows them in a fixed-width record; the u16 anchor keeps
    short keys (whose payloads are mostly zero bytes) from colliding with
    a record's trailing zero padding.
    """
    record = codec.encode(key)
    length = int.from_bytes(record[1:_RECORD_HEADER_SIZE], "big")
    nested = record[:1] + record[_RECORD_HEADER_SIZE:
                                 _RECORD_HEADER_SIZE + length]
    return (record[:_RECORD_HEADER_SIZE + length],
            struct.pack(">H", len(nested)) + nested)


def key_trace_patterns(key: object,
                       payload_size: int = 64) -> Tuple[bytes, bytes]:
    """Byte patterns an observer greps a durable artifact for (see
    :func:`_patterns_for`); ``payload_size`` must match the artifact's
    codec geometry (the replication layer uses 64)."""
    return _patterns_for(RecordCodec(payload_size=payload_size), key)


def scan_bytes_for_keys(blob: bytes, keys: Iterable[object],
                        payload_size: int = 64
                        ) -> List[Tuple[object, int]]:
    """Every ``(key, byte offset)`` where a key's encoding occurs in ``blob``.

    A raw substring scan — no framing assumptions, so it also catches
    encodings inside torn frames, orphaned scratch files, or any other
    byte-level residue a structured replay would skip.  A nested-pair hit
    counts only right after a pair record's header, which is where every
    pair record keeps its key: unanchored, key 0's nested pattern
    (``00 11 01`` then zeros) matches the zero-padded tail of key 4,353's
    bare record.  Short keys can in principle still collide with
    unrelated payload bytes (the patterns carry the codec's tag and
    length framing, so false positives need those too); the erasure tests
    pick disjoint key/value spaces for exactness.
    """
    codec = RecordCodec(payload_size=payload_size)
    hits: List[Tuple[object, int]] = []
    for key in keys:
        record, nested = _patterns_for(codec, key)
        for pattern, in_pair in ((record, False), (nested, True)):
            at = blob.find(pattern)
            while at != -1:
                if not in_pair or codec.is_pair_header(
                        blob, at - _RECORD_HEADER_SIZE):
                    hits.append((key, at))
                at = blob.find(pattern, at + 1)
    return hits


@dataclass(frozen=True)
class ErasureFinding:
    """One trace of a deleted key inside a durable artifact."""

    file: str      #: file name within the audited directory
    kind: str      #: ``"oplog-frame"`` | ``"image-slot"`` | ``"raw-bytes"``
    key: object    #: the deleted key whose encoding was found
    detail: str    #: human-readable locator (frame op, slot index, offset)


@dataclass(frozen=True)
class DurabilityAuditReport:
    """What the stolen-directory attack concluded.

    ``findings`` are hard evidence — byte-level or structural encodings of
    keys the caller asserts were deleted; :attr:`clean` is their absence.
    ``density_anomalies`` lists checkpoint images whose decoded slot
    arrays show a local-density deviation (the :func:`detect_density_anomaly`
    heuristic) — reported separately because a legitimate layout can trip
    the heuristic, while a finding cannot be legitimate.
    """

    directory: str
    files_scanned: Tuple[str, ...] = field(default=())
    bytes_scanned: int = 0
    findings: Tuple[ErasureFinding, ...] = field(default=())
    density_anomalies: Tuple[str, ...] = field(default=())

    @property
    def clean(self) -> bool:
        return not self.findings


def _audit_oplog_frames(directory: str, name: str, deleted: list,
                        payload_size: int) -> List[ErasureFinding]:
    """Structured pass over one op-log file (read-only frame replay)."""
    from repro.replication.oplog import read_ops

    findings: List[ErasureFinding] = []
    try:
        for index, (op, key, _value) in enumerate(
                read_ops(os.path.join(directory, name),
                         payload_size=payload_size)):
            if key in deleted:
                findings.append(ErasureFinding(
                    file=name, kind="oplog-frame", key=key,
                    detail="%s frame %d" % (op, index)))
    except ConfigurationError:
        # Not a parseable log (foreign file, corrupt interior): the raw
        # byte scan already covered whatever it holds.
        pass
    return findings


def _audit_image_slots(directory: str, manifest: dict, deleted: list,
                       buckets: int, threshold: float
                       ) -> Tuple[List[ErasureFinding], List[str]]:
    """Decode every shard image the manifest references, checksums
    unchecked (an observer reads whatever is on disk)."""
    findings: List[ErasureFinding] = []
    anomalies: List[str] = []
    for index, entry in enumerate(manifest["shards"]):
        try:
            slots = read_image(directory, entry, index, verify=False)
        except ConfigurationError:
            continue  # the raw scan already covered the bytes
        for position, slot in enumerate(slots):
            if slot is None:
                continue
            key = decode_slot(slot)[0]
            if key in deleted:
                findings.append(ErasureFinding(
                    file=entry["file"], kind="image-slot", key=key,
                    detail="slot %d" % position))
        if detect_density_anomaly(slots, buckets=buckets,
                                  threshold=threshold):
            anomalies.append(entry["file"])
    return findings, anomalies


def audit_durability_dir(directory: str, deleted_keys: Iterable[object] = (),
                         payload_size: int = 64, buckets: int = 16,
                         threshold: float = 0.25) -> DurabilityAuditReport:
    """Run the stolen-directory attack against a durability directory.

    Three passes, none of which touches the engine APIs (the observer only
    has the bytes) and none of which mutates the directory:

    1. **Raw bytes** — every file is scanned for the record and nested-pair
       encodings of every key in ``deleted_keys``
       (:func:`scan_bytes_for_keys`), catching residue in torn frames and
       orphaned ``.compact`` scratch files that no structured reader would
       visit.
    2. **Op-log frames** — files that parse as op logs are replayed
       read-only (:func:`repro.replication.oplog.read_ops`) and every
       frame naming a deleted key is reported with its operation.
    3. **Shard images** — the images of any shard-image manifest (a
       checkpoint or a ``snapshot_shards`` directory) are decoded back
       into slot arrays; slots holding a deleted key are reported, and
       each image's occupancy profile is checked for density anomalies.

    ``payload_size`` must match the store's codec geometry (the
    replication layer's checkpoint/op-log codec uses 64).
    """
    if not os.path.isdir(directory):
        raise ConfigurationError(
            "cannot audit %r: not a directory" % (directory,))
    deleted = list(deleted_keys)
    findings: List[ErasureFinding] = []
    anomalies: List[str] = []
    scanned: List[str] = []
    bytes_scanned = 0
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, "rb") as handle:
            blob = handle.read()
        scanned.append(name)
        bytes_scanned += len(blob)
        findings.extend(
            ErasureFinding(file=name, kind="raw-bytes", key=key,
                           detail="byte offset %d" % at)
            for key, at in scan_bytes_for_keys(blob, deleted, payload_size))
        if blob.startswith(b"REPROLOG"):
            findings.extend(_audit_oplog_frames(directory, name, deleted,
                                                payload_size))
    try:
        manifest = read_manifest(directory)
    except ConfigurationError:
        pass  # no readable manifest, so no images to decode
    else:
        image_findings, anomalies = _audit_image_slots(
            directory, manifest, deleted, buckets, threshold)
        findings.extend(image_findings)
    return DurabilityAuditReport(
        directory=directory, files_scanned=tuple(scanned),
        bytes_scanned=bytes_scanned, findings=tuple(findings),
        density_anomalies=tuple(anomalies))
