"""Unit tests for the asynchronous write-propagation mode."""

import pytest

from repro.cluster.replica import Replica
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.query import QueryClass


class _ScriptedPattern(AccessPattern):
    def pages_for_execution(self):
        return ExecutionAccess(demand=[1])

    def footprint_pages(self):
        return 1


def make_class(name="q", write=False):
    return QueryClass(
        name, "app", 1, f"select {name}", _ScriptedPattern(), is_write=write,
        cpu_cost=0.01,
    )


def make_scheduler(replicas=3, delay=0.05):
    scheduler = Scheduler("app", async_replication=True, propagation_delay=delay)
    for index in range(replicas):
        scheduler.add_replica(
            Replica.create(f"r{index}", "app", PhysicalServer(f"s{index}"))
        )
    return scheduler


class TestAsyncWrites:
    def test_write_executes_on_one_replica_immediately(self):
        scheduler = make_scheduler()
        scheduler.submit(make_class(write=True), 0.0)
        executions = [
            scheduler.replicas[name].engine.executor.executions
            for name in scheduler.replica_names()
        ]
        assert sorted(executions) == [0, 0, 1]

    def test_pending_writes_queued_for_others(self):
        scheduler = make_scheduler(replicas=3)
        scheduler.submit(make_class(write=True), 0.0)
        assert scheduler.pending_writes == 2

    def test_lagging_replicas_leave_the_read_set(self):
        scheduler = make_scheduler(replicas=2)
        scheduler.submit(make_class(write=True), 0.0)
        assert len(scheduler.replication.current_replicas()) == 1

    def test_drain_applies_due_writes(self):
        scheduler = make_scheduler(replicas=2, delay=0.05)
        scheduler.submit(make_class(write=True), 0.0)
        applied = scheduler.drain_pending(now=10.0)
        assert applied == 1
        assert scheduler.replication.fully_consistent

    def test_drain_respects_apply_time(self):
        scheduler = make_scheduler(replicas=2, delay=100.0)
        scheduler.submit(make_class(write=True), 0.0)
        assert scheduler.drain_pending(now=1.0) == 0
        assert scheduler.pending_writes == 1

    def test_drain_applies_in_sequence(self):
        scheduler = make_scheduler(replicas=2, delay=0.01)
        for _ in range(3):
            scheduler.submit(make_class(write=True), 0.0)
        scheduler.drain_pending(now=10.0)
        for name in scheduler.replica_names():
            assert scheduler.replicas[name].applied_writes == 3

    def test_reads_never_see_stale_replicas(self):
        scheduler = make_scheduler(replicas=2, delay=1000.0)
        write = make_class("w", write=True)
        read = make_class("r")
        scheduler.submit(write, 0.0)
        # The lagging replica must not serve this read.
        lagging = [
            name
            for name in scheduler.replica_names()
            if not scheduler.replication.is_current(name)
        ]
        for _ in range(4):
            scheduler.submit(read, 0.5)
        for name in lagging:
            # Only the pending write will ever run there, nothing else yet.
            assert scheduler.replicas[name].engine.executor.executions == 0

    def test_async_write_latency_below_sync(self):
        sync = Scheduler("app")
        for index in range(3):
            sync.add_replica(
                Replica.create(f"r{index}", "app", PhysicalServer(f"x{index}"))
            )
        async_sched = make_scheduler(replicas=3)
        w_sync = sync.submit(make_class(write=True), 0.0)
        w_async = async_sched.submit(make_class(write=True), 0.0)
        # Sync pays max over replicas (here: equal), async pays one replica;
        # crucially async is never slower.
        assert w_async.latency <= w_sync.latency

    def test_submitting_reads_drains_due_writes(self):
        scheduler = make_scheduler(replicas=2, delay=0.01)
        scheduler.submit(make_class(write=True), 0.0)
        scheduler.submit(make_class("r"), 5.0)  # triggers the drain
        assert scheduler.pending_writes == 0
        assert scheduler.replication.fully_consistent

    def test_primary_rotates_with_forced_catch_up(self):
        scheduler = make_scheduler(replicas=3, delay=1000.0)
        for step in range(3):
            scheduler.submit(make_class(write=True), float(step))
        executions = [
            scheduler.replicas[name].engine.executor.executions
            for name in scheduler.replica_names()
        ]
        # Each replica takes one write as primary; becoming primary forces
        # it to apply its propagation backlog first, hence the staircase.
        assert executions == [1, 2, 3]
        assert [
            scheduler.replicas[name].applied_writes
            for name in scheduler.replica_names()
        ] == [1, 2, 3]

    def test_removed_replica_pending_discarded(self):
        scheduler = make_scheduler(replicas=2, delay=1000.0)
        scheduler.submit(make_class(write=True), 0.0)
        lagging = [
            name
            for name in scheduler.replica_names()
            if not scheduler.replication.is_current(name)
        ][0]
        scheduler.remove_replica(lagging)
        assert scheduler.pending_writes == 0

    def test_read_promotes_a_survivor_when_the_current_replica_fails(self):
        scheduler = make_scheduler(replicas=3, delay=0.05)
        scheduler.stall_propagation(until=1000.0)
        scheduler.submit(make_class(write=True), 0.0)  # r0 is primary
        scheduler.submit(make_class(write=True), 0.0)  # r1 catches up, primary
        scheduler.replicas["r1"].fail()
        # r1 was the only current replica and the stall holds the others'
        # backlogs: the read finds r1 dead, then promotes r0, which lags by
        # one write (r2 lags by two), instead of failing the read.
        scheduler.submit(make_class("r"), 1.0)
        executions = {
            name: scheduler.replicas[name].engine.executor.executions
            for name in scheduler.replica_names()
        }
        # r0: its first write, the promoted backlog write, then the read.
        assert executions == {"r0": 3, "r1": 2, "r2": 0}
        assert scheduler.replication.is_current("r0")
        assert scheduler.replication.lag_of("r2") == 2
        assert not scheduler.health.is_up("r1")

    def test_read_still_fails_with_no_survivor(self):
        scheduler = make_scheduler(replicas=2, delay=0.05)
        scheduler.stall_propagation(until=1000.0)
        scheduler.submit(make_class(write=True), 0.0)
        for name in scheduler.replica_names():
            scheduler.replicas[name].fail()
        with pytest.raises(RuntimeError, match="no current online replica"):
            scheduler.submit(make_class("r"), 1.0)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Scheduler("app", async_replication=True, propagation_delay=-1.0)
