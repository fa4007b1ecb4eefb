"""Shared-memory result transport for chunk-granular process-pool sweeps.

The historical process-pool fan-out returned every grid point's
measurement by pickling it through the executor's result pipe.  That is
fine for five scalar counts — and hopeless once a result carries its
per-packet error vector (a million-packet point is an 8 MB array *per
point*).  This module gives the sweep engine a zero-copy return path:

* the parent allocates one :class:`ChunkResultBlock` sized for every
  chunk's result record plus (optionally) its per-packet error vector;
* each worker attaches by name, simulates its chunk, writes the result
  record in place — *payload first, status word last* — and detaches;
* the parent harvests by **slot status**, not by future success: every
  chunk whose status word says complete is read back even when another
  chunk's worker raised or was killed mid-run, and the segment is torn
  down deterministically (``close`` + ``unlink`` in a ``finally``), so
  no segment outlives the sweep even on error paths.

Chunk *inputs* do not travel through here: the engine hands each pool
worker the per-point task prototypes once, through the pool initializer,
and a chunk submission carries only the block name and a few integers.

Records are fixed-width ``int64`` rows — ``[status, ebn0 bit-pattern,
bit_errors, total_bits, packets_sent, packets_failed, errors_len,
errors...]`` — so a block is pure flat memory: no pickling, no
serialization, bit-identical round trips.  The status word makes chunk
failure isolation possible: a slot still at :data:`SLOT_EMPTY` after the
pool drained marks a chunk whose worker died or raised, and its record
is reported as ``None`` — never garbage — while every completed sibling
is harvested.  Used by :meth:`repro.sim.SweepEngine.run`,
:meth:`repro.sim.SweepEngine.measure_points` and
:class:`repro.runs.RunDriver` whenever ``max_workers`` fans chunks out
over processes — the only process fan-out transport the engine has.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

from repro.core.metrics import BERPoint
from repro.obs.recorder import active
from repro.utils.validation import require_int

__all__ = [
    "BLOCK_HEADER_WORDS",
    "RECORD_WORDS",
    "SLOT_EMPTY",
    "SLOT_OK",
    "ChunkResultBlock",
]

#: int64 words of block header (``num_slots``, ``max_packets``) written at
#: allocation time so workers can :meth:`ChunkResultBlock.attach` by name
#: alone.
BLOCK_HEADER_WORDS = 2

#: int64 words of fixed header per result slot (before the error vector):
#: status, ebn0 bit-pattern, bit_errors, total_bits, packets_sent,
#: packets_failed, errors_len.
RECORD_WORDS = 7

#: Slot status: never written (worker still running, crashed, or raised).
SLOT_EMPTY = 0
#: Slot status: record complete (written payload-first, status last).
SLOT_OK = 1

_WORD_BYTES = 8


def _float_to_word(value: float) -> int:
    """The IEEE-754 bit pattern of ``value`` as an ``int64`` (lossless)."""
    return int(np.asarray(float(value), dtype=np.float64).view(np.int64))


def _word_to_float(word: int) -> float:
    """Inverse of :func:`_float_to_word`."""
    return float(np.asarray(int(word), dtype=np.int64).view(np.float64))


class ChunkResultBlock:
    """A shared-memory segment holding a fan-out's chunk result records.

    One block carries ``num_slots`` fixed-width rows of ``RECORD_WORDS +
    max_packets`` ``int64`` words behind a two-word header, so workers
    can attach by name alone.  The parent :meth:`allocate`\\ s it and is
    the only party that may :meth:`unlink`; workers :meth:`attach`,
    :meth:`write_result` into their slots, and :meth:`close`.  Each
    record's status word is written *last*, so :meth:`slot_status` ==
    :data:`SLOT_OK` guarantees a complete record even when the writer
    was killed mid-run.  Usable as a context manager (owner context
    unlinks on exit).
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._closed = False
        header = self._words(BLOCK_HEADER_WORDS)
        self.num_slots = int(header[0])
        self.max_packets = int(header[1])
        del header

    # -- lifecycle ------------------------------------------------------
    @property
    def name(self) -> str:
        """The segment name workers attach with."""
        return self._shm.name

    @property
    def size_bytes(self) -> int:
        """Allocated segment size (the OS may round up to a page)."""
        return self._shm.size

    def close(self) -> None:
        """Drop this process's mapping (idempotent; data stays shared)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner only; call after every reader closed)."""
        if not self._owner:
            raise RuntimeError("only the allocating process may unlink a "
                               "ChunkResultBlock")
        self._shm.unlink()

    def __enter__(self):
        """Context-manager entry: the block itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Deterministic teardown: close, and unlink when owner."""
        self.close()
        if self._owner:
            self.unlink()

    @classmethod
    def allocate(cls, num_slots: int, max_packets: int) -> "ChunkResultBlock":
        """Create a block sized for ``num_slots`` results of up to
        ``max_packets`` packets each (parent side; owns the segment)."""
        require_int(num_slots, "num_slots", minimum=1)
        require_int(max_packets, "max_packets", minimum=0)
        size = (BLOCK_HEADER_WORDS
                + num_slots * (RECORD_WORDS + max_packets)) * _WORD_BYTES
        shm = shared_memory.SharedMemory(create=True, size=size)
        header = np.frombuffer(shm.buf, dtype=np.int64,
                               count=BLOCK_HEADER_WORDS)
        header[0] = num_slots
        header[1] = max_packets
        del header
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ChunkResultBlock":
        """Map an existing block by name (worker side; never unlinks).

        Slot count and packet capacity are read from the block header, so
        a worker needs nothing beyond the name.
        """
        return cls(shared_memory.SharedMemory(name=name), owner=False)

    # -- record access --------------------------------------------------
    def _words(self, count: int, offset_words: int = 0) -> np.ndarray:
        """A transient ``int64`` view of ``count`` words of the segment.

        Views are created per call and must not be retained by callers —
        a live view keeps the mapping referenced and would turn
        :meth:`close` into a ``BufferError``.
        """
        if self._closed:
            raise ValueError("block is closed")
        return np.frombuffer(self._shm.buf, dtype=np.int64, count=count,
                             offset=offset_words * _WORD_BYTES)

    def _rows(self) -> np.ndarray:
        """A transient ``(num_slots, RECORD_WORDS + max_packets)`` view
        (same lifetime rule as :meth:`_words`)."""
        count = self.num_slots * (RECORD_WORDS + self.max_packets)
        return self._words(count, BLOCK_HEADER_WORDS).reshape(
            self.num_slots, RECORD_WORDS + self.max_packets)

    def _check_slot(self, slot: int) -> None:
        require_int(slot, "slot", minimum=0)
        if slot >= self.num_slots:
            raise ValueError(f"slot {slot} out of range for "
                             f"{self.num_slots} slot(s)")

    def slot_status(self, slot: int) -> int:
        """``SLOT_OK`` when the slot holds a complete record, else
        ``SLOT_EMPTY`` (never written: its worker is still running, raised,
        or died)."""
        self._check_slot(slot)
        rows = self._rows()
        status = int(rows[slot, 0])
        del rows
        return status

    def write_result(self, slot: int, measurement: BERPoint,
                     errors_per_packet=None) -> None:
        """Serialize one measurement (and its per-packet error vector)
        into ``slot``'s record row, flipping the status word last."""
        self._check_slot(slot)
        if errors_per_packet is None:
            errors = np.zeros(0, dtype=np.int64)
        else:
            errors = np.asarray(errors_per_packet, dtype=np.int64).ravel()
        if errors.size > self.max_packets:
            raise ValueError(
                f"errors_per_packet has {errors.size} entries but the "
                f"block was sized for {self.max_packets} packet(s)")
        rows = self._rows()
        rows[slot, 1] = _float_to_word(measurement.ebn0_db)
        rows[slot, 2] = int(measurement.bit_errors)
        rows[slot, 3] = int(measurement.total_bits)
        rows[slot, 4] = int(measurement.packets_sent)
        rows[slot, 5] = int(measurement.packets_failed)
        rows[slot, 6] = errors.size
        rows[slot, RECORD_WORDS:RECORD_WORDS + errors.size] = errors
        # Status is written last: a reader seeing SLOT_OK is guaranteed a
        # complete payload even if this writer is killed mid-record.
        rows[slot, 0] = SLOT_OK
        del rows
        active().counter("shm.result_bytes_written",
                         (RECORD_WORDS + errors.size) * _WORD_BYTES)

    def read_result(self, slot: int) -> tuple[BERPoint, np.ndarray]:
        """Deserialize ``slot``'s record: ``(measurement, errors_per_packet)``.

        Raises ``ValueError`` when the slot holds no completed record
        (status still :data:`SLOT_EMPTY`) — callers harvesting after a
        worker failure should gate on :meth:`slot_status` instead of
        reading blind.  The error vector is a copy, safe to keep after
        the block is torn down; it is empty when the writer recorded no
        per-packet detail.
        """
        self._check_slot(slot)
        rows = self._rows()
        try:
            header = rows[slot, :RECORD_WORDS]
            if int(header[0]) != SLOT_OK:
                raise ValueError(f"slot {slot} holds no completed record "
                                 "(its worker raised, died, or never ran)")
            measurement = BERPoint(
                ebn0_db=_word_to_float(header[1]),
                bit_errors=int(header[2]),
                total_bits=int(header[3]),
                packets_sent=int(header[4]),
                packets_failed=int(header[5]))
            errors_len = int(header[6])
            if errors_len > self.max_packets:
                raise ValueError(
                    f"corrupt record in slot {slot}: errors_len "
                    f"{errors_len} exceeds {self.max_packets}")
            errors = np.array(
                rows[slot, RECORD_WORDS:RECORD_WORDS + errors_len],
                dtype=np.int64)
        finally:
            del rows
        active().counter("shm.result_bytes_read",
                         (RECORD_WORDS + errors.size) * _WORD_BYTES)
        return measurement, errors
