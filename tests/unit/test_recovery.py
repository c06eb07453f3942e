"""Unit tests for the control-plane recovery subsystem.

Coverage map: the epoch fence (admit/reject/bump), the action journal
(write-ahead semantics, open intents, duplicate detection), the
checkpoint store (digest validation, corruption fallback, ring trim),
cluster-state export/restore round-trips, the journaled-and-fenced
actuation path on the controller/scheduler/resource-manager, reconcile
repair, and the supervisor's crash/watchdog/restart lifecycle.
"""

import json

import pytest

from repro.core.controller import ControllerConfig
from repro.core.diagnosis import Action, ActionKind
from repro.experiments.runner import ClusterHarness
from repro.faults import FaultPlan
from repro.recovery import (
    ActionJournal,
    CheckpointStore,
    ControlPlaneSupervisor,
    EpochFence,
    RecoveryConfig,
    StaleEpochError,
)
from repro.workloads import build_tpcw


def make_harness(clients=8, servers=2, recovery=None):
    workload = build_tpcw(seed=7)
    harness = ClusterHarness.single_app(
        workload, servers=servers, clients=clients,
        config=ControllerConfig(),
    )
    supervisor = harness.enable_recovery(recovery)
    return harness, supervisor, workload


def quota_action(app="tpcw", pages=2000, epoch=0):
    return Action(
        kind=ActionKind.APPLY_QUOTAS,
        app=app,
        reason="test quota",
        replica=f"{app}-r1",
        quotas=((f"{app}/best_seller", pages),),
        epoch=epoch,
    )


class TestEpochFence:
    def test_starts_at_epoch_one(self):
        assert EpochFence().epoch == 1

    def test_bump_advances_and_returns(self):
        fence = EpochFence()
        assert fence.bump() == 2
        assert fence.epoch == 2

    def test_admits_current_and_future_epochs(self):
        fence = EpochFence()
        fence.bump()
        assert fence.admits(2)
        assert fence.admits(3)
        assert not fence.admits(1)

    def test_check_passes_non_epoch_aware_callers(self):
        fence = EpochFence()
        fence.bump()
        fence.check(None, "legacy path")  # must not raise

    def test_check_raises_and_counts_on_stale(self):
        fence = EpochFence()
        fence.bump()
        with pytest.raises(StaleEpochError) as excinfo:
            fence.check(1, "placement of 'x'")
        assert fence.rejections == 1
        assert excinfo.value.stale_epoch == 1
        assert excinfo.value.current_epoch == 2


class TestActionJournal:
    def test_intent_then_applied_closes_the_intent(self):
        journal = ActionJournal()
        action = quota_action(epoch=1)
        journal.record_intent(action, 1, 3, 30.0)
        journal.record_applied(action, 1, 3, 30.0, applied=True)
        assert journal.counts() == {"applied": 1, "intent": 1}
        assert journal.open_intents() == []

    def test_unconfirmed_intent_stays_open(self):
        journal = ActionJournal()
        journal.record_intent(quota_action(epoch=1), 1, 3, 30.0)
        [open_record] = journal.open_intents()
        assert open_record.action_kind == "apply_quotas"

    def test_duplicate_applied_detection(self):
        journal = ActionJournal()
        action = quota_action(epoch=1)
        for _ in range(2):
            journal.record_intent(action, 1, 3, 30.0)
            journal.record_applied(action, 1, 3, 30.0, applied=True)
        assert len(journal.duplicate_applied()) == 1

    def test_applied_false_is_not_a_duplicate(self):
        journal = ActionJournal()
        action = quota_action(epoch=1)
        journal.record_applied(action, 1, 3, 30.0, applied=True)
        journal.record_applied(action, 1, 4, 40.0, applied=False)
        assert journal.duplicate_applied() == []

    def test_applied_after_is_strictly_after(self):
        journal = ActionJournal()
        action = quota_action(epoch=1)
        journal.record_applied(action, 1, 1, 10.0, applied=True)
        journal.record_applied(action, 1, 2, 20.0, applied=False)
        records = journal.applied_after(0)
        assert [r.seq for r in records] == [1]

    def test_to_jsonl_round_trips(self):
        journal = ActionJournal()
        journal.record_intent(quota_action(epoch=1), 1, 3, 30.0)
        journal.record_control("checkpoint#0", 1, 3, 30.0)
        lines = journal.to_jsonl().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "intent"
        assert parsed[1]["note"] == "checkpoint#0"


class TestCheckpointStore:
    def test_latest_valid_parses_payload(self):
        store = CheckpointStore()
        store.save({"a": 1}, interval_index=2, epoch=1,
                   timestamp=20.0, journal_seq=0)
        checkpoint, state = store.latest_valid()
        assert checkpoint.interval_index == 2
        assert state == {"a": 1}

    def test_corruption_falls_back_to_previous(self):
        store = CheckpointStore()
        store.save({"n": 1}, 2, 1, 20.0, 0)
        store.save({"n": 2}, 4, 1, 40.0, 0)
        assert store.corrupt_latest()
        checkpoint, state = store.latest_valid()
        assert state == {"n": 1}
        assert store.corrupt_skipped == 1

    def test_all_corrupt_means_none(self):
        store = CheckpointStore()
        store.save({"n": 1}, 2, 1, 20.0, 0)
        store.corrupt_latest()
        assert store.latest_valid() is None

    def test_corrupt_latest_with_no_checkpoints(self):
        assert not CheckpointStore().corrupt_latest()

    def test_ring_keeps_newest(self):
        store = CheckpointStore(max_checkpoints=2)
        for index in range(4):
            store.save({"n": index}, index * 2, 1, float(index), 0)
        assert len(store.checkpoints) == 2
        assert store.taken == 4
        _, state = store.latest_valid()
        assert state == {"n": 3}


class TestStateRoundTrip:
    def test_snapshot_wipe_restore_is_identity(self):
        harness, supervisor, _ = make_harness()
        harness.run(intervals=4)
        before = supervisor.snapshot()
        supervisor.wipe()
        assert supervisor.snapshot() != before  # the wipe really wiped
        # JSON round-trip mirrors what a persisted checkpoint would hold.
        supervisor.restore_state(json.loads(json.dumps(before)))
        assert supervisor.snapshot() == before

    def test_wipe_gives_analyzers_amnesia(self):
        harness, supervisor, _ = make_harness()
        harness.run(intervals=4)
        analyzers = list(harness.controller.analyzers())
        assert any(len(a.signatures) for a in analyzers)
        supervisor.wipe()
        assert all(len(a.signatures) == 0 for a in analyzers)
        assert harness.controller.interval_index == 0

    def test_version_mismatch_rejected(self):
        harness, supervisor, _ = make_harness()
        state = supervisor.snapshot()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            supervisor.restore_state(state)


class TestFencedActuation:
    def test_apply_action_stamps_current_epoch(self):
        harness, supervisor, _ = make_harness()
        harness.run(intervals=1)
        assert harness.controller.apply_action(quota_action(), 10.0)
        [applied] = supervisor.journal.entries("applied")
        assert applied.epoch == 1

    def test_stale_action_is_fenced_not_actuated(self):
        harness, supervisor, workload = make_harness()
        harness.run(intervals=1)
        supervisor.down = True
        supervisor.restart(10.0)  # epoch 1 -> 2
        stale = quota_action(epoch=1)
        assert not harness.controller.apply_action(stale, 20.0)
        assert supervisor.fence.rejections == 1
        assert supervisor.journal.counts().get("fenced") == 1
        replica = harness.replicas_of(workload.app)[0]
        assert replica.engine.quotas == {}

    def test_scheduler_placement_fenced(self):
        harness, supervisor, workload = make_harness()
        scheduler = harness.scheduler(workload.app)
        supervisor.down = True
        supervisor.restart(0.0)
        with pytest.raises(StaleEpochError):
            scheduler.place_class(
                f"{workload.app}/best_seller", ["tpcw-r1"], epoch=1
            )
        # Epoch-unaware callers stay unconstrained.
        scheduler.place_class(f"{workload.app}/best_seller", ["tpcw-r1"])

    def test_resource_manager_provisioning_fenced(self):
        harness, supervisor, workload = make_harness()
        scheduler = harness.scheduler(workload.app)
        supervisor.down = True
        supervisor.restart(0.0)
        with pytest.raises(StaleEpochError):
            harness.resource_manager.allocate_replica(
                scheduler, timestamp=1.0, epoch=1
            )

    def test_no_fence_means_plain_actuation(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(workload, servers=2, clients=8)
        assert harness.controller.fence is None
        assert harness.controller.apply_action(quota_action(), 10.0)


class TestSupervisorLifecycle:
    def test_enable_twice_raises(self):
        harness, _, _ = make_harness()
        with pytest.raises(RuntimeError, match="already enabled"):
            harness.enable_recovery()

    def test_crash_while_down_raises(self):
        harness, supervisor, _ = make_harness()
        supervisor.crash(5.0)
        with pytest.raises(RuntimeError, match="already down"):
            supervisor.crash(6.0)

    def test_restart_when_up_is_a_no_op(self):
        _, supervisor, _ = make_harness()
        assert not supervisor.restart(5.0)
        assert supervisor.epoch == 1

    def test_checkpoint_cadence(self):
        harness, supervisor, _ = make_harness(
            recovery=RecoveryConfig(checkpoint_every_intervals=2)
        )
        harness.run(intervals=6)
        assert supervisor.checkpoints.taken == 3
        assert [c.interval_index for c in supervisor.checkpoints.checkpoints] \
            == [2, 4, 6]

    def test_watchdog_restarts_after_delay(self):
        harness, supervisor, _ = make_harness(
            recovery=RecoveryConfig(watchdog_restart_delay=15.0)
        )
        harness.run(intervals=2)
        supervisor.crash(harness.clock.now)
        assert supervisor.down
        harness.run(intervals=2)  # watchdog fires at t=35, inside here
        assert not supervisor.down
        assert supervisor.epoch == 2
        assert supervisor.missed_intervals == 1
        assert supervisor.restarts == 1

    def test_cold_start_without_checkpoint(self):
        harness, supervisor, _ = make_harness(
            recovery=RecoveryConfig(checkpoint_every_intervals=100)
        )
        harness.run(intervals=2)
        supervisor.crash(harness.clock.now)
        supervisor.restart(harness.clock.now + 1.0)
        assert supervisor.cold_starts == 1
        assert supervisor.restored_interval is None
        assert supervisor.epoch == 2

    def test_restore_falls_back_past_corruption(self):
        harness, supervisor, _ = make_harness()
        harness.run(intervals=6)  # checkpoints at intervals 2, 4, 6
        supervisor.corrupt_latest_checkpoint()
        supervisor.crash(harness.clock.now)
        supervisor.restart(harness.clock.now + 1.0)
        assert supervisor.restored_interval == 4
        assert supervisor.checkpoints.corrupt_skipped == 1

    def test_forecaster_dies_with_the_process(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(
            workload, servers=2, clients=8,
            config=ControllerConfig(use_forecast=True),
        )
        supervisor = harness.enable_recovery()
        harness.run(intervals=4)
        before = harness.controller.forecaster
        assert before.apps["tpcw"].latency.observations == 4
        # Pre-crash act-ahead bookkeeping: a cooldown and a spent token.
        before.policy.decide("tpcw", 4, 1, 9.0, 1.0, 1.0)
        before.policy.decide("tpcw", 4, 1, 9.0, 1.0, 1.0)
        assert before.policy._apps["tpcw"].last_act == 4
        assert before.policy.budget < before.policy.config.false_positive_budget
        supervisor.crash(harness.clock.now)
        assert harness.controller.forecaster is None
        supervisor.restart(harness.clock.now + 1.0)
        harness.run(intervals=1)
        after = harness.controller.forecaster
        assert after is not before
        assert after.apps["tpcw"].latency.observations == 1
        assert after.policy.budget == after.policy.config.false_positive_budget
        assert after.policy._apps.get("tpcw") is None or (
            after.policy._apps["tpcw"].last_act is None
        )
        assert len(before.records) >= 1
        assert len(after.records) <= 1  # the post-restart interval only

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(checkpoint_every_intervals=0)
        with pytest.raises(ValueError):
            RecoveryConfig(watchdog_restart_delay=0.0)
        with pytest.raises(ValueError):
            RecoveryConfig(max_checkpoints=0)


class TestReconcile:
    def test_divergent_quota_repaired_on_restart(self):
        harness, supervisor, workload = make_harness()
        harness.run(intervals=2)
        assert harness.controller.apply_action(
            quota_action(pages=2000), harness.clock.now
        )
        replica = harness.replicas_of(workload.app)[0]
        supervisor.checkpoint_now(harness.clock.now)
        # The engine-side quota vanishes behind the controller's back.
        replica.engine.clear_quota(f"{workload.app}/best_seller")
        supervisor.crash(harness.clock.now)
        supervisor.restart(harness.clock.now + 1.0)
        assert replica.engine.quotas == {f"{workload.app}/best_seller": 2000}
        assert any(
            "repaired" not in line and "quota" in line
            for line in supervisor.last_reconcile.repaired
        )

    def test_intact_quota_confirmed_not_reapplied(self):
        harness, supervisor, workload = make_harness()
        harness.run(intervals=2)
        harness.controller.apply_action(
            quota_action(pages=2000), harness.clock.now
        )
        supervisor.crash(harness.clock.now)
        supervisor.restart(harness.clock.now + 1.0)
        report = supervisor.last_reconcile
        assert report.counts() == {
            "confirmed": 1, "repaired": 0, "abandoned": 0,
        }

    def test_open_intent_abandoned_never_reissued(self):
        harness, supervisor, workload = make_harness()
        harness.run(intervals=2)
        # An intent journaled but never confirmed: the crash hit between
        # the write-ahead record and the actuation.
        supervisor.journal.record_intent(
            quota_action(pages=3000, epoch=1), 1,
            harness.controller.interval_index, harness.clock.now,
        )
        supervisor.crash(harness.clock.now)
        supervisor.restart(harness.clock.now + 1.0)
        report = supervisor.last_reconcile
        assert any("never confirmed" in line for line in report.abandoned)
        replica = harness.replicas_of(workload.app)[0]
        assert replica.engine.quotas == {}


class TestFaultPlanIntegration:
    def test_controller_crash_without_recovery_is_unmatched(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(workload, servers=2, clients=8)
        injector = harness.install_faults(FaultPlan().controller_crash(5.0))
        harness.run(intervals=1)
        assert len(injector.unmatched) == 1
        assert injector.applied == []

    def test_scheduled_crash_and_watchdog_restart(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(workload, servers=2, clients=8)
        supervisor = harness.enable_recovery(
            RecoveryConfig(watchdog_restart_delay=12.0)
        )
        injector = harness.install_faults(FaultPlan().controller_crash(15.0))
        harness.run(intervals=4)
        assert injector.applied_kinds() == {"controller_crash": 1}
        assert supervisor.crashes == 1
        assert supervisor.restarts == 1  # watchdog at t=27
        assert not supervisor.down

    def test_explicit_restart_beats_watchdog(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(workload, servers=2, clients=8)
        supervisor = harness.enable_recovery(
            RecoveryConfig(watchdog_restart_delay=100.0)
        )
        plan = FaultPlan().controller_crash(15.0).controller_restart(22.0)
        injector = harness.install_faults(plan)
        harness.run(intervals=4)
        assert injector.applied_kinds() == {
            "controller_crash": 1, "controller_restart": 1,
        }
        assert not supervisor.down
        assert supervisor.restarts == 1  # the late watchdog was a no-op

    def test_checkpoint_corruption_event_corrupts_latest(self):
        workload = build_tpcw(seed=7)
        harness = ClusterHarness.single_app(workload, servers=2, clients=8)
        supervisor = harness.enable_recovery(
            RecoveryConfig(checkpoint_every_intervals=1)
        )
        injector = harness.install_faults(
            FaultPlan().checkpoint_corruption(25.0)
        )
        harness.run(intervals=3)
        assert injector.applied_kinds() == {"checkpoint_corruption": 1}
        # The event at t=25 hit the interval-2 checkpoint; interval 3 then
        # wrote a fresh valid one on top.
        by_interval = {
            c.interval_index: c.valid
            for c in supervisor.checkpoints.checkpoints
        }
        assert by_interval == {1: True, 2: False, 3: True}
