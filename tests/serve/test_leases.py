"""Lease-table bookkeeping under a fake, manually-stepped clock."""

import pytest

from repro.serve.leases import (Lease, LeaseError, LeaseExpiredError,
                                LeaseTable, UnknownLeaseError)


class FakeClock:
    """Monotonic clock the test advances by hand."""

    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += float(seconds)


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def table(clock):
    return LeaseTable(timeout_s=10.0, clock=clock)


class TestGrant:
    def test_grant_returns_live_lease(self, table, clock):
        lease = table.grant("task-a", "worker-1")
        assert isinstance(lease, Lease)
        assert lease.task_id == "task-a"
        assert lease.worker_id == "worker-1"
        assert lease.deadline == clock.now + 10.0
        assert lease.lease_id in table
        assert len(table) == 1

    def test_double_grant_on_live_lease_rejected(self, table):
        table.grant("task-a", "worker-1")
        with pytest.raises(LeaseError, match="already leased"):
            table.grant("task-a", "worker-2")

    def test_grant_after_expiry_drops_old_holder(self, table, clock):
        first = table.grant("task-a", "worker-1")
        clock.advance(10.1)
        second = table.grant("task-a", "worker-2", attempt=2)
        assert second.lease_id != first.lease_id
        assert first.lease_id not in table
        assert second.attempt == 2
        assert len(table) == 1

    def test_distinct_tasks_lease_independently(self, table):
        a = table.grant("task-a", "worker-1")
        b = table.grant("task-b", "worker-1")
        assert a.lease_id != b.lease_id
        assert len(table) == 2

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("nan"),
                                           float("inf")])
    def test_invalid_timeout_rejected(self, timeout_s):
        # A NaN deadline compares false against every clock reading, so
        # its lease would never expire and never be reaped.
        with pytest.raises(ValueError, match="timeout_s"):
            LeaseTable(timeout_s=timeout_s)


class TestRenew:
    def test_renew_extends_deadline(self, table, clock):
        lease = table.grant("task-a", "worker-1")
        clock.advance(8.0)
        renewed = table.renew(lease.lease_id)
        assert renewed.deadline == clock.now + 10.0
        assert renewed.granted_at == lease.granted_at
        # Heartbeats keep a lease alive indefinitely.
        clock.advance(8.0)
        assert not table.get(lease.lease_id).expired(clock.now)

    def test_renew_after_expiry_raises_and_drops(self, table, clock):
        lease = table.grant("task-a", "worker-1")
        clock.advance(10.5)
        with pytest.raises(LeaseExpiredError, match="expired"):
            table.renew(lease.lease_id)
        assert lease.lease_id not in table
        # The task is free again.
        table.grant("task-a", "worker-2")

    def test_renew_unknown_lease_raises(self, table):
        with pytest.raises(UnknownLeaseError):
            table.renew("lease-999999")


class TestReleaseAndReap:
    def test_release_removes_and_returns(self, table):
        lease = table.grant("task-a", "worker-1")
        released = table.release(lease.lease_id)
        assert released.task_id == "task-a"
        assert len(table) == 0
        with pytest.raises(UnknownLeaseError):
            table.release(lease.lease_id)

    def test_release_frees_the_task(self, table):
        lease = table.grant("task-a", "worker-1")
        table.release(lease.lease_id)
        table.grant("task-a", "worker-2")

    def test_release_keeps_recorded_deadline(self, table, clock):
        lease = table.grant("task-a", "worker-1")
        clock.advance(11.0)
        released = table.release(lease.lease_id)
        # The caller (the broker's commit path) inspects staleness.
        assert released.expired(clock.now)

    def test_reap_returns_only_expired(self, table, clock):
        old = table.grant("task-a", "worker-1")
        clock.advance(6.0)
        fresh = table.grant("task-b", "worker-2")
        clock.advance(6.0)  # old at 12s (dead), fresh at 6s (alive)
        reaped = table.reap()
        assert [lease.lease_id for lease in reaped] == [old.lease_id]
        assert fresh.lease_id in table
        assert len(table) == 1

    def test_reap_empty_table_is_noop(self, table):
        assert table.reap() == []

    def test_active_lists_live_leases(self, table, clock):
        a = table.grant("task-a", "worker-1")
        table.grant("task-b", "worker-2")
        assert len(table.active()) == 2
        clock.advance(10.1)
        table.reap()
        assert table.active() == ()
        assert a.lease_id not in table
