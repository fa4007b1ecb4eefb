"""Time-limited chunk leases: who is working on what, until when.

A lease is the broker's claim ticket for one chunk task: it names the
task, the worker holding it, and a deadline.  Workers extend the
deadline by heartbeating; a worker that dies (or loses the network)
simply stops renewing, the deadline passes, and :meth:`LeaseTable.reap`
returns the lease so the broker can hand the chunk to someone else.
The table is pure bookkeeping — no threads, no timers — driven entirely
by an injectable monotonic clock, which is what makes lease-expiry
behaviour unit-testable without sleeping.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from repro.utils.validation import require_positive

__all__ = ["Lease", "LeaseError", "LeaseExpiredError", "LeaseTable",
           "UnknownLeaseError"]


class LeaseError(ValueError):
    """Base class for lease bookkeeping errors."""


class UnknownLeaseError(LeaseError):
    """The lease id names no live lease (never granted, or already
    released/reaped — e.g. a commit arriving after the lease expired and
    the chunk was handed to another worker)."""


class LeaseExpiredError(LeaseError):
    """The lease exists but its deadline has passed; the holder must not
    act on it any further."""


@dataclass(frozen=True)
class Lease:
    """One worker's time-limited claim on one chunk task."""

    lease_id: str
    task_id: str
    worker_id: str
    granted_at: float
    deadline: float
    attempt: int

    def expired(self, now: float) -> bool:
        """Whether the deadline has passed at monotonic time ``now``."""
        return now > self.deadline

    def to_dict(self) -> dict:
        """The JSON-safe serialized claim (journal ``grant`` records)."""
        return {"lease_id": self.lease_id, "task_id": self.task_id,
                "worker_id": self.worker_id,
                "granted_at": self.granted_at, "deadline": self.deadline,
                "attempt": self.attempt}

    @classmethod
    def from_dict(cls, data: dict) -> "Lease":
        """Rebuild a lease from :meth:`to_dict` output (raises
        ``ValueError``/``KeyError``/``TypeError`` on malformed data)."""
        return cls(lease_id=str(data["lease_id"]),
                   task_id=str(data["task_id"]),
                   worker_id=str(data["worker_id"]),
                   granted_at=float(data["granted_at"]),
                   deadline=float(data["deadline"]),
                   attempt=int(data["attempt"]))


class LeaseTable:
    """Live leases, keyed by lease id, with deadline bookkeeping.

    Parameters
    ----------
    timeout_s:
        Seconds a lease stays valid without a renewal (positive and
        finite: a NaN deadline would never expire).  Workers should
        heartbeat at a small fraction of this.
    clock:
        Monotonic time source (default :func:`time.monotonic`); tests
        inject a fake to step time deterministically.
    """

    def __init__(self, timeout_s: float = 30.0, clock=time.monotonic) -> None:
        self.timeout_s = require_positive(timeout_s, "timeout_s")
        self._clock = clock
        self._leases: dict[str, Lease] = {}
        self._by_task: dict[str, str] = {}
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        return len(self._leases)

    def __contains__(self, lease_id: str) -> bool:
        return lease_id in self._leases

    def grant(self, task_id: str, worker_id: str, attempt: int = 1) -> Lease:
        """Grant a fresh lease on ``task_id`` to ``worker_id``.

        Raises :class:`LeaseError` while another unexpired lease holds
        the task — the broker must reap before re-leasing.
        """
        now = self._clock()
        holder_id = self._by_task.get(task_id)
        if holder_id is not None:
            holder = self._leases[holder_id]
            if not holder.expired(now):
                raise LeaseError(
                    f"task {task_id} is already leased to worker "
                    f"{holder.worker_id} (lease {holder.lease_id})")
            self._drop(holder)
        lease = Lease(lease_id=f"lease-{next(self._ids):06d}",
                      task_id=task_id, worker_id=worker_id,
                      granted_at=now, deadline=now + self.timeout_s,
                      attempt=int(attempt))
        self._leases[lease.lease_id] = lease
        self._by_task[task_id] = lease.lease_id
        return lease

    def get(self, lease_id: str) -> Lease:
        """The live lease named ``lease_id``; raises if unknown."""
        lease = self._leases.get(lease_id)
        if lease is None:
            raise UnknownLeaseError(
                f"unknown lease {lease_id!r} (expired and reaped, or "
                "never granted)")
        return lease

    def renew(self, lease_id: str) -> Lease:
        """Extend a lease's deadline (the heartbeat).

        An expired-but-not-yet-reaped lease cannot be revived: raising
        :class:`LeaseExpiredError` tells the worker to abandon the chunk
        — the broker may already have promised it elsewhere.
        """
        lease = self.get(lease_id)
        now = self._clock()
        if lease.expired(now):
            self._drop(lease)
            raise LeaseExpiredError(
                f"lease {lease_id} on task {lease.task_id} expired "
                f"{now - lease.deadline:.1f}s ago; stop working on it")
        renewed = Lease(lease_id=lease.lease_id, task_id=lease.task_id,
                        worker_id=lease.worker_id,
                        granted_at=lease.granted_at,
                        deadline=now + self.timeout_s,
                        attempt=lease.attempt)
        self._leases[lease_id] = renewed
        return renewed

    def release(self, lease_id: str) -> Lease:
        """Remove and return a live lease (the commit path).

        The caller decides what an expired-but-present lease means; the
        lease is removed and returned either way, with its recorded
        deadline intact for the caller to inspect.
        """
        lease = self.get(lease_id)
        self._drop(lease)
        return lease

    def reap(self) -> list[Lease]:
        """Remove and return every lease whose deadline has passed.

        The broker calls this before granting work: each reaped lease's
        task goes back to the pending queue (with its attempt count
        bumped), which is the entire worker-death recovery mechanism.
        """
        now = self._clock()
        expired = [lease for lease in self._leases.values()
                   if lease.expired(now)]
        for lease in expired:
            self._drop(lease)
        return expired

    def active(self) -> tuple[Lease, ...]:
        """Every live (granted, unreaped) lease."""
        return tuple(self._leases.values())

    def advance_ids(self, past: int) -> None:
        """Ensure the next granted lease id is greater than ``past``.

        Recovery replays the journal's grant records through this so a
        restarted broker never reissues a lease id a pre-crash worker
        might still present — an old id must resolve to *unknown*
        (ingested as a stale commit), never to someone else's lease.
        """
        past = int(past)
        current = next(self._ids)
        self._ids = itertools.count(max(current, past + 1))

    def _drop(self, lease: Lease) -> None:
        self._leases.pop(lease.lease_id, None)
        if self._by_task.get(lease.task_id) == lease.lease_id:
            del self._by_task[lease.task_id]
