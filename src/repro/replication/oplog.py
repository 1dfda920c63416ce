"""Per-shard append-only operation log with CRC framing and barriers.

The op log is the redo half of the durability story: every acknowledged
mutation of a worker-hosted primary shard is appended here *by the worker
that applied it*, so after a crash the log holds exactly the operations the
dead structure had applied (commands that were never acknowledged may have
their tail records missing — that is the torn-tail case replay tolerates).

Format
------

A log file is a fixed header followed by fixed-width frames::

    header:  magic "REPROLOG" | version u32 | base u64
    frame:   op u8 | record (RecordCodec, fixed width) | crc32 u32

The record body reuses :class:`repro.storage.encoding.RecordCodec` — the
same canonical fixed-width union the snapshots persist — encoding the key
for deletes and the ``(key, value)`` pair for inserts/upserts; barrier
frames carry a gap record.  The CRC covers the op byte plus the record, so
a flipped bit anywhere in a frame is detected on replay.

Encoding.  The common frames skip the codec's dispatch: the op byte and
the record of an ``(int, int)`` insert or upsert, or of an ``int`` delete,
are packed with one precompiled struct each
(:func:`~repro.storage.encoding.int_record_structs`, an int's 16 record
bytes as ``>qQ`` of ``key >> 64`` and ``key & (2**64 - 1)``), with the
bytes the codec writes.  Any other payload — a ``bool``, a ``str``, an int
outside the 16-byte record range — is the op byte before
:meth:`RecordCodec.encode`'s record, and the codec refuses what a record
cannot hold.  ``tests/test_replication.py`` pins the two paths to each
other byte for byte.

Because frames are fixed width, a *logical offset* (``base`` plus the byte
position past the header) addresses a frame boundary exactly.  Snapshot
manifests persist the logical offset returned by :meth:`OpLog.barrier`;
:meth:`OpLog.compact` drops every frame before a barrier and advances
``base`` so logical offsets remain stable across compactions.

Durability levels: a command's frames reach the OS in one write before the
command is acknowledged (:meth:`encode` then :meth:`write`; :meth:`append`
is the one-frame case), so records survive a killed *process*; a kill
during that write leaves all of them or none, or, on a machine crash, a
torn tail that replay and reopening cut back to the last whole frame.
:meth:`commit` fsyncs, one sync per engine command, so acknowledged
commands also survive a killed *machine* (when ``fsync=True``).
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CapacityError, ConfigurationError
from repro.obs import child_span
from repro.storage.encoding import (INT_HEAD, INT_PAIR_HEAD, INT_TAG, LOW64,
                                    RecordCodec, int_record_structs)
from repro.storage.snapshot import PAYLOAD_SIZE, release_files, replace_file

#: Log file magic; a file that does not start with it is rejected.
MAGIC = b"REPROLOG"
#: On-disk format version written into the header.
VERSION = 1

_HEADER = struct.Struct(">8sIQ")  # magic, version, base logical offset
_CRC = struct.Struct(">I")

#: Operation bytes.  ``OP_NAMES`` maps them to the structure-method names
#: replay applies (barriers are replay no-ops).
OP_INSERT = 1
OP_DELETE = 2
OP_UPSERT = 3
OP_BARRIER = 4

OP_NAMES = {OP_INSERT: "insert", OP_DELETE: "delete", OP_UPSERT: "upsert"}
_OP_CODES = {name: code for code, name in OP_NAMES.items()}

#: One replayable log entry: ``(op name, key, value)``.
LoggedOp = Tuple[str, object, object]


def _frame(op_code: int, record: bytes) -> bytes:
    """One frame: the op byte, the record, and the CRC of both."""
    body = bytes([op_code]) + record
    return body + _CRC.pack(zlib.crc32(body))


def _intact(frame: bytes) -> bool:
    """Whether ``frame``'s CRC matches its op byte and record."""
    return _CRC.pack(zlib.crc32(frame[:-_CRC.size])) == frame[-_CRC.size:]


def _torn_tail(frames: List[bytes], torn: int) -> Optional[int]:
    """How many of ``frames`` replay keeps when the log ends in a torn
    tail (``torn`` partial bytes after an intact last frame, or a bad last
    frame with nothing after it), else ``None``."""
    last_intact = not frames or _intact(frames[-1])
    if torn:
        return len(frames) if last_intact else None
    return None if last_intact else len(frames) - 1


def _read_frames(path: str, frame_size: int) -> Tuple[int, List[bytes], int]:
    """Check the header of the log at ``path`` and split its body.

    Returns ``(base, frames, torn)``: the header's base logical offset,
    every complete frame (unchecked), and the count of torn trailing
    bytes.  Reads only — it never creates, writes or sweeps a file.  A
    file with a short header, a foreign magic or a newer format version
    raises :class:`~repro.errors.ConfigurationError`.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < _HEADER.size:
        raise ConfigurationError(
            "op log %r is truncated below its header" % (path,))
    magic, version, base = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ConfigurationError("%r is not an op log (bad magic)" % (path,))
    if version > VERSION:
        raise ConfigurationError(
            "op log %r has format version %d; this build reads up to %d"
            % (path, version, VERSION))
    complete = (len(blob) - _HEADER.size) // frame_size
    frames = [blob[at:at + frame_size] for at
              in range(_HEADER.size, _HEADER.size + complete * frame_size,
                       frame_size)]
    return base, frames, len(blob) - _HEADER.size - complete * frame_size


def _decoded(path: str, codec: RecordCodec, frames: List[bytes], torn: int,
             first: int = 0) -> Iterator[LoggedOp]:
    """Check and decode ``frames[first:]`` into ``(op, key, value)``.

    A torn tail — a final frame whose bytes were cut short or whose CRC
    does not check out (the writer died mid-append) — ends the iteration
    silently: those operations were never acknowledged.  A corrupt frame
    *followed by valid data* is a real integrity failure and raises
    :class:`~repro.errors.ConfigurationError`, as does an unknown op byte.
    Barrier frames yield nothing.
    """
    kept = _torn_tail(frames, torn)
    for index in range(first, len(frames) if kept is None else kept):
        frame = frames[index]
        if not _intact(frame):
            raise ConfigurationError(
                "op log %r is corrupt at frame %d (CRC mismatch)"
                % (path, index))
        body = frame[:-_CRC.size]
        op = body[0]
        if op == OP_BARRIER:
            continue
        if op not in OP_NAMES:
            raise ConfigurationError(
                "op log %r holds unknown operation byte %d at frame %d"
                % (path, op, index))
        payload = codec.decode(body[1:])
        if op == OP_DELETE:
            yield OP_NAMES[op], payload, None
        else:
            key, value = payload
            yield OP_NAMES[op], key, value


class OpLog:
    """An append-only, CRC-framed redo log for one shard.

    Parameters
    ----------
    path:
        Log file location; created (with its header) when missing.
    payload_size:
        Payload budget of the embedded :class:`RecordCodec` — bounds the
        encoded size of one key/value pair exactly like the snapshot codec.
    fsync:
        When ``False``, :meth:`commit` only flushes to the OS (faster, still
        survives a killed process; machine-crash durability is waived).
    truncate:
        Start from an empty log (used when a promoted replica becomes the
        new authoritative copy and the old log no longer describes it).

    Opening a log with a torn tail cuts the file to the frames replay
    keeps, so the first append after a reopen lands on the frame grid.
    """

    def __init__(self, path: str, *, payload_size: int = PAYLOAD_SIZE,
                 fsync: bool = True, truncate: bool = False) -> None:
        self.path = path
        self.codec = RecordCodec(payload_size=payload_size)
        #: Whole frame width: op byte + fixed record + CRC.
        self.frame_size = 1 + self.codec.record_size + _CRC.size
        # The op byte and an int's record, and the op byte and an
        # (int, int) pair's (None when the budget cannot hold a pair).
        self._int_frame, self._pair_frame = int_record_structs(
            payload_size, prefix="B")
        #: Whether commits (and the shard's checkpoint images) reach disk.
        self.fsync = fsync
        self._base = 0
        #: Delete frames appended since the last barrier — what secure
        #: durability mode consults to decide whether a barrier must
        #: escalate into a history-redacting compaction.
        self.deletes_since_barrier = 0
        # A compaction that died before its rename leaves its scratch; the
        # original file is still authoritative, and the orphaned scratch
        # must not linger (its frames duplicate ours, and in secure mode
        # lingering bytes are exactly the leak to prevent).
        release_files(([path] if truncate else []) + [path + ".compact"],
                      fsync=fsync)
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        frames: List[bytes] = []
        if not fresh:
            # Checked before the append handle opens, so a file that is not
            # an op log raises without leaking a handle.
            self._base, frames, torn = _read_frames(path, self.frame_size)
            kept = _torn_tail(frames, torn)
            if kept is not None:
                del frames[kept:]
                release_files([path], fsync=fsync,
                              size=_HEADER.size + kept * self.frame_size)
        #: Logical offset just past the last complete frame.
        self._end = self._base + len(frames) * self.frame_size
        # A reopened log (recovery, cold start) must make the same
        # secure-mode redaction decision a never-restarted worker would:
        # deletes whose barrier never landed still demand a redacting
        # compaction.
        for frame in frames:
            if frame[0] == OP_BARRIER:
                self.deletes_since_barrier = 0
            elif frame[0] == OP_DELETE:
                self.deletes_since_barrier += 1
        # Unbuffered append handle: a command's frames reach the OS in one
        # write before the command is acknowledged, so records survive a
        # SIGKILLed worker without per-record fsyncs.
        self._handle = open(path, "ab", buffering=0)
        if fresh:
            self._handle.write(_HEADER.pack(MAGIC, VERSION, 0))

    # ------------------------------------------------------------------ #
    # Offsets
    # ------------------------------------------------------------------ #

    @property
    def end_offset(self) -> int:
        """Logical offset just past the last *complete* frame.

        Tracked in memory and advanced per append — the worker logging hot
        path must not pay a ``stat`` per mutation just to learn an offset
        it already knows.
        """
        return self._end

    @property
    def base_offset(self) -> int:
        """Logical offset of the first frame still present in the file."""
        return self._base

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def encode(self, op: str, payloads: Iterable[object]
               ) -> Tuple[List[bytes], Optional[Exception]]:
        """Encode one ``op`` frame per payload (the key of a delete, the
        ``(key, value)`` pair of an insert or upsert), stopping at the
        first payload the record codec refuses; return the frames and that
        refusal (a :class:`~repro.errors.CapacityError` or
        :class:`~repro.errors.ConfigurationError`), ``None`` when every
        payload encoded.  Nothing is written.

        An ``int`` key, or an ``(int, int)`` pair, in a record's range is
        one struct pack (see the module doc); the codec takes the rest.
        """
        if op not in _OP_CODES:
            raise ConfigurationError("unknown op log operation %r" % (op,))
        code, record = _OP_CODES[op], self.codec.encode
        frames: List[bytes] = []
        append, crc, seal = frames.append, zlib.crc32, _CRC.pack
        try:
            if op == "delete":
                pack = self._int_frame.pack
                for key in payloads:
                    body = None
                    if type(key) is int:
                        try:
                            body = pack(code, INT_HEAD, key >> 64, key & LOW64)
                        except struct.error:
                            pass  # outside a record's range: the codec refuses
                    if body is None:
                        body = bytes((code,)) + record(key)
                    append(body + seal(crc(body)))
            else:
                pack = self._pair_frame.pack if self._pair_frame else None
                for pair in payloads:
                    body = None
                    if type(pair) is tuple and len(pair) == 2 and pack:
                        key, value = pair
                        if type(key) is int and type(value) is int:
                            try:
                                body = pack(code, INT_PAIR_HEAD, key >> 64,
                                            key & LOW64, INT_TAG, value >> 64,
                                            value & LOW64)
                            except struct.error:
                                pass  # outside a record's range
                    if body is None:
                        body = bytes((code,)) + record(pair)
                    append(body + seal(crc(body)))
        except (CapacityError, ConfigurationError) as refusal:
            return frames, refusal
        return frames, None

    def write(self, op: str, frames: Sequence[bytes]) -> int:
        """Hand frames of ``op`` (from :meth:`encode`) to the OS in one
        write; returns the offset *after* them.

        No userspace buffering, but no fsync either: call :meth:`commit`
        at a command boundary to batch one sync over every frame written
        since the last one.
        """
        if frames:
            self._handle.write(b"".join(frames))
            self._end += len(frames) * self.frame_size
            if op == "delete":
                self.deletes_since_barrier += len(frames)
        return self._end

    def append(self, op: str, key: object = None,
               value: object = None) -> int:
        """Write one operation frame (:meth:`write` of one :meth:`encode`d
        frame); returns the offset *after* it.  A payload the codec
        refuses raises, and nothing is written."""
        frames, refusal = self.encode(
            op, [key if op == "delete" else (key, value)])
        if refusal is not None:
            raise refusal
        return self.write(op, frames)

    def commit(self) -> None:
        """Make every appended frame durable (one fsync for the batch)."""
        if self.fsync:
            with child_span("oplog.fsync") as span:
                span.tag("path", os.path.basename(self.path))
                os.fsync(self._handle.fileno())

    def barrier(self) -> int:
        """Append a snapshot barrier, commit, return the offset after it.

        The returned logical offset is what a snapshot manifest records:
        replaying from it applies exactly the operations that post-date the
        snapshot, and :meth:`compact` may drop everything before it.
        """
        self.write("barrier", [_frame(OP_BARRIER, self.codec.encode(None))])
        self.commit()
        self.deletes_since_barrier = 0
        return self._end

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def replay(self, start: int = 0) -> Iterator[LoggedOp]:
        """Yield ``(op, key, value)`` from logical offset ``start``.

        A torn tail (the worker died mid-append) ends the replay silently:
        those operations were never acknowledged.  A corrupt frame
        *followed by valid data* is a real integrity failure and raises
        :class:`~repro.errors.ConfigurationError` (see :func:`_decoded`).
        """
        if start < self._base:
            raise ConfigurationError(
                "op log %r was compacted past offset %d (base is %d); "
                "recover from a newer snapshot" % (self.path, start,
                                                   self._base))
        if start > self._end:
            # A manifest recorded this offset against a log that has since
            # been truncated (e.g. a promotion interrupted before its
            # checkpoint landed).  Yielding nothing here would silently
            # drop acknowledged operations; fail loudly instead.
            raise ConfigurationError(
                "op log %r ends at offset %d but replay was asked to start "
                "at %d — the log was truncated after that offset was "
                "recorded; the durable state is inconsistent"
                % (self.path, self._end, start))
        if (start - self._base) % self.frame_size != 0:
            raise ConfigurationError(
                "offset %d does not sit on a frame boundary of %r"
                % (start, self.path))
        _base, frames, torn = _read_frames(self.path, self.frame_size)
        yield from _decoded(self.path, self.codec, frames, torn,
                            (start - self._base) // self.frame_size)

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #

    def compact(self, keep_from: Optional[int] = None) -> int:
        """Drop frames before ``keep_from`` (default: the latest barrier).

        Rewrites the file with ``base`` advanced to ``keep_from``, so every
        logical offset at or after it stays valid.  Returns the new base.
        Compaction is what keeps a long-lived shard's log proportional to
        the work since its last snapshot rather than to its whole history.

        The rewrite is write-new-then-atomic-rename with the *directory*
        fsynced after the rename: until the rename lands the old file is
        intact (a crash in the window loses nothing — the orphaned scratch
        is swept on the next open), and after the directory sync the old
        frames cannot resurface on a machine crash — which is what secure
        durability mode's history redaction relies on.
        """
        _base, frames, _torn = _read_frames(self.path, self.frame_size)
        if keep_from is None:
            keep_from = self._base
            for index, frame in enumerate(frames):
                if frame[0] == OP_BARRIER:
                    keep_from = self._base + (index + 1) * self.frame_size
        if keep_from < self._base or keep_from > self.end_offset:
            raise ConfigurationError(
                "compaction offset %d outside the log's [%d, %d] range"
                % (keep_from, self._base, self.end_offset))
        first = (keep_from - self._base) // self.frame_size
        kept = b"".join(frames[first:])
        self._handle.close()
        # The crash window the fault suite pins sits between the scratch's
        # fsync and the rename: the pre-compaction frames are still the
        # file the next open reads.
        replace_file(self.path, _HEADER.pack(MAGIC, VERSION, keep_from) + kept,
                     scratch=self.path + ".compact", fsync=self.fsync,
                     failpoint="oplog.compact.rename")
        self._base = keep_from
        self._handle = open(self.path, "ab", buffering=0)
        self._end = keep_from + len(kept)
        return self._base

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if not self._handle.closed:
            self.commit()
            self._handle.close()

    def __enter__(self) -> "OpLog":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return "OpLog(path=%r, base=%d, end=%d)" % (self.path, self._base,
                                                    self.end_offset)


def read_ops(path: str, payload_size: int = 64) -> Iterator[LoggedOp]:
    """Read-only replay of a log file (the forensics / audit path).

    Unlike constructing an :class:`OpLog`, this never writes: no append
    handle, no header creation, no scratch sweep — an auditor must not
    mutate the evidence it is examining.  Torn tails end the iteration
    silently exactly like :meth:`OpLog.replay`; a corrupt interior frame
    or a foreign file raises :class:`~repro.errors.ConfigurationError`.
    """
    codec = RecordCodec(payload_size=payload_size)
    _base, frames, torn = _read_frames(path,
                                       1 + codec.record_size + _CRC.size)
    yield from _decoded(path, codec, frames, torn)


def replay_into(structure: object, log: OpLog, start: int = 0) -> int:
    """Apply a log tail to ``structure``; returns the operation count.

    Used by recovery after the snapshot records are loaded: the log holds
    exactly the acknowledged post-snapshot mutations, so applying them in
    order reproduces the crashed shard's last acknowledged state.  Any
    structure-level failure here means log and snapshot disagree — that is
    corruption, not user error, and surfaces as
    :class:`~repro.errors.ReplicationError`.
    """
    from repro.errors import ReplicationError

    applied = 0
    for op, key, value in log.replay(start):
        try:
            if op == "insert":
                structure.insert(key, value)
            elif op == "upsert":
                structure.upsert(key, value)
            else:
                structure.delete(key)
        except Exception as error:
            raise ReplicationError(
                "op log %r replay diverged at operation %d (%s %r): %s"
                % (log.path, applied, op, key, error)) from error
        applied += 1
    return applied
