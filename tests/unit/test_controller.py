"""Unit tests for the cluster controller's feedback loop."""

import pytest

from repro.cluster.replica import Replica
from repro.cluster.resource_manager import ResourceManager
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer, ServerSpec
from repro.core.controller import ClusterController, ControllerConfig
from repro.core.diagnosis import Action, ActionKind
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.query import QueryClass
from repro.obs import Observability


class _ScriptedPattern(AccessPattern):
    def __init__(self, demand=(1,)):
        self.demand = list(demand)

    def pages_for_execution(self):
        return ExecutionAccess(demand=list(self.demand))

    def footprint_pages(self):
        return len(set(self.demand))


def make_class(name="q", app="app", cpu=5.0):
    # Huge cpu cost: a handful of queries saturates a small server.
    return QueryClass(name, app, 1, f"select {name}", _ScriptedPattern(), cpu_cost=cpu)


def make_cluster(servers=3, config=None, cores=1, obs=None):
    manager = ResourceManager()
    for index in range(servers):
        manager.add_server(PhysicalServer(f"s{index}", ServerSpec(cores=cores)))
    controller = ClusterController(manager, config=config, obs=obs)
    scheduler = Scheduler("app")
    controller.add_scheduler(scheduler)
    manager.allocate_replica(scheduler, 0.0)
    for replica in scheduler.replicas.values():
        controller.track_replica(replica)
    return manager, controller, scheduler


def saturate(scheduler, queries=10, cpu=5.0):
    qc = make_class(cpu=cpu)
    for _ in range(queries):
        scheduler.submit(qc, 0.0)


class TestWiring:
    def test_duplicate_scheduler_rejected(self):
        _, controller, _ = make_cluster()
        with pytest.raises(ValueError):
            controller.add_scheduler(Scheduler("app"))

    def test_track_replica_creates_analyzer(self):
        _, controller, scheduler = make_cluster()
        replica = next(iter(scheduler.replicas.values()))
        analyzer = controller.analyzer_of(replica)
        assert analyzer.engine is replica.engine


class TestIntervalLoop:
    def test_reports_emitted_per_app(self):
        _, controller, scheduler = make_cluster()
        scheduler.submit(make_class(cpu=0.01), 0.0)
        reports = controller.close_interval(10.0)
        assert len(reports) == 1
        assert reports[0].app == "app"
        assert reports[0].throughput == pytest.approx(0.1)

    def test_idle_interval_meets_sla(self):
        _, controller, _ = make_cluster()
        report = controller.close_interval(10.0)[0]
        assert report.sla_met

    def test_interval_index_advances(self):
        _, controller, _ = make_cluster()
        controller.close_interval(10.0)
        reports = controller.close_interval(20.0)
        assert reports[0].interval_index == 1


class TestCpuProvisioning:
    def test_sustained_saturation_provisions_replica(self):
        _, controller, scheduler = make_cluster(
            config=ControllerConfig(startup_grace_intervals=0)
        )
        for boundary in range(1, 6):
            saturate(scheduler)
            controller.close_interval(boundary * 10.0)
            if len(scheduler.replicas) > 1:
                break
        assert len(scheduler.replicas) >= 2

    def test_startup_grace_suppresses_reaction(self):
        _, controller, scheduler = make_cluster(
            config=ControllerConfig(startup_grace_intervals=10)
        )
        for boundary in range(1, 6):
            saturate(scheduler)
            controller.close_interval(boundary * 10.0)
        assert len(scheduler.replicas) == 1

    def test_action_grace_limits_reaction_rate(self):
        _, controller, scheduler = make_cluster(
            servers=5,
            config=ControllerConfig(
                startup_grace_intervals=0, action_grace_intervals=10
            ),
        )
        for boundary in range(1, 8):
            saturate(scheduler, queries=20)
            controller.close_interval(boundary * 10.0)
        # One provisioning burst, then grace blocks further reactions.
        assert len(scheduler.replicas) == 2


class TestDecisionPipeline:
    """The contract of the gates -> proposer -> escalation -> actuation
    pipeline that the committed goldens depend on."""

    def degraded_round(self, violating):
        obs = Observability()
        _, controller, scheduler = make_cluster(
            config=ControllerConfig(
                use_forecast=True, startup_grace_intervals=0
            ),
            obs=obs,
        )
        replica = next(iter(scheduler.replicas.values()))
        controller.analyzer_of(replica).inject_stats_gap()
        if violating:
            saturate(scheduler)
        else:
            scheduler.submit(make_class(cpu=0.01), 0.0)
        (report,) = controller.close_interval(10.0)
        assert report.sla_met is not violating
        assert report.actions == []
        return obs.registry.value(
            "controller.degraded_skips", app="app", reason="stats-gap"
        )

    def test_degraded_evidence_skip_counted_once_when_violating(self):
        assert self.degraded_round(violating=True) == 1

    def test_degraded_evidence_not_counted_when_sla_met(self):
        assert self.degraded_round(violating=False) == 0

    def test_coarse_only_provisions_on_consecutive_violations(self):
        # The coarse-only path arms no action grace: it provisions on every
        # violating interval.  The committed ablations golden
        # (BENCH_ablations, coarse_vs_fine) depends on this; arming the
        # grace moves its coarse-only recovered latency.
        _, controller, scheduler = make_cluster(
            servers=5,
            config=ControllerConfig(
                fine_grained=False,
                startup_grace_intervals=0,
                action_grace_intervals=2,
            ),
        )
        for boundary in range(1, 4):
            saturate(scheduler)
            (report,) = controller.close_interval(boundary * 10.0)
            assert [a.kind for a in report.actions] == [
                ActionKind.COARSE_FALLBACK
            ]
            assert len(scheduler.replicas) == 1 + boundary


class TestScaleDown:
    def test_idle_overprovisioned_app_shrinks(self):
        manager, controller, scheduler = make_cluster(
            servers=3,
            config=ControllerConfig(
                scale_down=True, scale_down_patience=2, startup_grace_intervals=0
            ),
        )
        manager.allocate_replica(scheduler, 0.0)
        for replica in scheduler.replicas.values():
            controller.track_replica(replica)
        assert len(scheduler.replicas) == 2
        for boundary in range(1, 6):
            scheduler.submit(make_class(cpu=0.001), 0.0)
            controller.close_interval(boundary * 10.0)
        assert len(scheduler.replicas) == 1

    def test_scale_down_never_below_one(self):
        _, controller, scheduler = make_cluster(
            config=ControllerConfig(scale_down=True, startup_grace_intervals=0)
        )
        for boundary in range(1, 8):
            controller.close_interval(boundary * 10.0)
        assert len(scheduler.replicas) == 1

    def test_scale_down_disabled_by_default(self):
        manager, controller, scheduler = make_cluster(servers=3)
        manager.allocate_replica(scheduler, 0.0)
        for replica in scheduler.replicas.values():
            controller.track_replica(replica)
        for boundary in range(1, 8):
            controller.close_interval(boundary * 10.0)
        assert len(scheduler.replicas) == 2


class TestApplyActions:
    def test_apply_quotas_sets_engine_quota(self):
        _, controller, scheduler = make_cluster()
        replica = next(iter(scheduler.replicas.values()))
        action = Action(
            kind=ActionKind.APPLY_QUOTAS,
            app="app",
            reason="test",
            replica=replica.name,
            quotas=(("app/q", 512),),
        )
        assert controller.apply_action(action, 0.0)
        assert replica.engine.quotas == {"app/q": 512}

    def test_reapplying_similar_quota_is_noop(self):
        _, controller, scheduler = make_cluster()
        replica = next(iter(scheduler.replicas.values()))
        first = Action(
            kind=ActionKind.APPLY_QUOTAS,
            app="app",
            reason="t",
            replica=replica.name,
            quotas=(("app/q", 512),),
        )
        controller.apply_action(first, 0.0)
        similar = Action(
            kind=ActionKind.APPLY_QUOTAS,
            app="app",
            reason="t",
            replica=replica.name,
            quotas=(("app/q", 540),),
        )
        assert not controller.apply_action(similar, 0.0)
        assert replica.engine.quotas == {"app/q": 512}

    def test_reschedule_provisions_when_no_alternative(self):
        _, controller, scheduler = make_cluster(servers=2)
        replica = next(iter(scheduler.replicas.values()))
        action = Action(
            kind=ActionKind.RESCHEDULE_CLASS,
            app="app",
            reason="t",
            replica=replica.name,
            context_key="app/q",
        )
        assert controller.apply_action(action, 0.0)
        assert len(scheduler.replicas) == 2
        placement = scheduler.placement_of("app/q")
        assert len(placement) == 1 and placement[0] != replica.name

    def test_reschedule_cross_app_moves_in_owner_scheduler(self):
        manager, controller, scheduler = make_cluster(servers=3)
        victim_replica = next(iter(scheduler.replicas.values()))
        other = Scheduler("other")
        controller.add_scheduler(other)
        # Co-locate `other` on the same host as the victim so a move away
        # from that host is actually required.
        colocated = Replica.create("other-r1", "other", victim_replica.host)
        other.add_replica(colocated)
        controller.track_replica(colocated)
        action = Action(
            kind=ActionKind.RESCHEDULE_CLASS,
            app="app",  # the violated app...
            reason="t",
            replica=victim_replica.name,
            context_key="other/hog",  # ...but the context belongs to `other`
        )
        controller.apply_action(action, 0.0)
        assert "other/hog" in other.pinned_contexts()

    def test_coarse_fallback_provisions_exclusive(self):
        _, controller, scheduler = make_cluster(servers=2)
        action = Action(kind=ActionKind.COARSE_FALLBACK, app="app", reason="t")
        assert controller.apply_action(action, 0.0)
        assert len(scheduler.replicas) == 2

    def test_no_action_applies_nothing(self):
        _, controller, scheduler = make_cluster()
        action = Action(kind=ActionKind.NO_ACTION, app="app", reason="t")
        assert not controller.apply_action(action, 0.0)


class TestReporting:
    def test_app_timeline_filters(self):
        _, controller, _ = make_cluster()
        controller.close_interval(10.0)
        controller.close_interval(20.0)
        assert len(controller.app_timeline("app")) == 2
        assert controller.app_timeline("ghost") == []

    def test_actions_taken_aggregates(self):
        _, controller, scheduler = make_cluster(
            config=ControllerConfig(startup_grace_intervals=0)
        )
        for boundary in range(1, 6):
            saturate(scheduler)
            controller.close_interval(boundary * 10.0)
        assert any(
            action.kind is ActionKind.PROVISION_REPLICA
            for action in controller.actions_taken("app")
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(interval_length=0)
        with pytest.raises(ValueError):
            ControllerConfig(fallback_patience=0)
        with pytest.raises(ValueError):
            ControllerConfig(scale_down_cpu_threshold=1.5)


class TestApplyPlan:
    """Actuating hand-built capacity plans (the planner's output side)."""

    def make_plan(self, *steps):
        from repro.planner.plan import CapacityPlan

        return CapacityPlan(
            seed=0,
            interval_index=0,
            score_before=1.0,
            score_after=0.0,
            steps=tuple(steps),
        )

    def test_add_replica_then_migrate_resolves_placeholder(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        manager, controller, scheduler = make_cluster(servers=3)
        plan = self.make_plan(
            PlanStep(
                kind=PlanStepKind.ADD_REPLICA,
                app="app",
                pool="new:app:s1",
                server="s1",
            ),
            PlanStep(
                kind=PlanStepKind.MIGRATE_CLASS,
                app="app",
                context_key="app/q",
                pool="new:app:s1",
            ),
        )
        actions = controller.apply_plan(plan, timestamp=50.0)
        assert [a.kind for a in actions] == [
            ActionKind.PROVISION_REPLICA,
            ActionKind.RESCHEDULE_CLASS,
        ]
        assert len(scheduler.replicas) == 2
        new_replica = actions[0].replica
        assert scheduler.placement_of("app/q") == [new_replica]
        assert scheduler.replicas[new_replica].host.name == "s1"
        assert manager.history[-1].action == "allocate"

    def test_unavailable_server_skips_the_whole_branch(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        _, controller, scheduler = make_cluster(servers=1)
        # s0 already hosts the app: the ADD_REPLICA step cannot land, so
        # the migration targeting its placeholder is skipped too.
        plan = self.make_plan(
            PlanStep(
                kind=PlanStepKind.ADD_REPLICA,
                app="app",
                pool="new:app:s0",
                server="s0",
            ),
            PlanStep(
                kind=PlanStepKind.MIGRATE_CLASS,
                app="app",
                context_key="app/q",
                pool="new:app:s0",
            ),
        )
        assert controller.apply_plan(plan, timestamp=50.0) == []
        assert len(scheduler.replicas) == 1
        assert scheduler.placement_of("app/q") == scheduler.replica_names()

    def test_set_quota_applies_with_thrash_guard(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        _, controller, scheduler = make_cluster()
        replica = next(iter(scheduler.replicas.values()))
        engine = replica.engine

        def quota_step(pages):
            return PlanStep(
                kind=PlanStepKind.SET_QUOTA,
                app="app",
                context_key="app/q",
                pool=engine.name,
                pages=pages,
            )

        actions = controller.apply_plan(
            self.make_plan(quota_step(1000)), timestamp=10.0
        )
        assert [a.kind for a in actions] == [ActionKind.APPLY_QUOTAS]
        assert actions[0].quotas == (("app/q", 1000),)
        assert engine.quotas["app/q"] == 1000
        # Within 15% of the standing quota: re-imposing it would only
        # cold-restart the partition, so the step is a no-op.
        assert controller.apply_plan(
            self.make_plan(quota_step(1100)), timestamp=20.0
        ) == []
        assert engine.quotas["app/q"] == 1000
        # A materially different quota goes through.
        actions = controller.apply_plan(
            self.make_plan(quota_step(2000)), timestamp=30.0
        )
        assert len(actions) == 1
        assert engine.quotas["app/q"] == 2000

    def test_clear_quota_only_when_present(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        _, controller, scheduler = make_cluster()
        replica = next(iter(scheduler.replicas.values()))
        engine = replica.engine
        step = PlanStep(
            kind=PlanStepKind.CLEAR_QUOTA,
            app="app",
            context_key="app/q",
            pool=engine.name,
        )
        assert controller.apply_plan(self.make_plan(step), 10.0) == []
        engine.set_quota("app/q", 500)
        actions = controller.apply_plan(self.make_plan(step), 20.0)
        assert [a.kind for a in actions] == [ActionKind.APPLY_QUOTAS]
        assert "app/q" not in engine.quotas

    def test_release_emits_no_action_but_updates_history(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        manager, controller, scheduler = make_cluster(servers=2)
        second = manager.allocate_replica(scheduler, 5.0)
        controller.track_replica(second)
        step = PlanStep(
            kind=PlanStepKind.RELEASE_REPLICA,
            app="app",
            pool=second.engine.name,
        )
        assert controller.apply_plan(self.make_plan(step), 50.0) == []
        assert len(scheduler.replicas) == 1
        assert manager.history[-1].action == "release"

    def test_release_never_removes_the_last_replica(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        manager, controller, scheduler = make_cluster()
        (replica_name,) = scheduler.replica_names()
        step = PlanStep(
            kind=PlanStepKind.RELEASE_REPLICA,
            app="app",
            pool=scheduler.replicas[replica_name].engine.name,
        )
        assert controller.apply_plan(self.make_plan(step), 50.0) == []
        assert scheduler.replica_names() == [replica_name]
        assert all(event.action == "allocate" for event in manager.history)

    def test_migrate_is_idempotent_once_placed(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        manager, controller, scheduler = make_cluster(servers=2)
        second = manager.allocate_replica(scheduler, 5.0)
        controller.track_replica(second)
        step = PlanStep(
            kind=PlanStepKind.MIGRATE_CLASS,
            app="app",
            context_key="app/q",
            pool=second.engine.name,
        )
        first = controller.apply_plan(self.make_plan(step), 10.0)
        assert [a.kind for a in first] == [ActionKind.RESCHEDULE_CLASS]
        assert scheduler.placement_of("app/q") == [second.name]
        # Re-applying the same migration is a no-op, not a new action.
        assert controller.apply_plan(self.make_plan(step), 20.0) == []

    def test_single_replica_migration_is_already_placed(self):
        from repro.planner.plan import PlanStep, PlanStepKind

        # With one replica the default placement already equals the
        # target, so the guard treats the migration as done.
        _, controller, scheduler = make_cluster()
        (replica_name,) = scheduler.replica_names()
        step = PlanStep(
            kind=PlanStepKind.MIGRATE_CLASS,
            app="app",
            context_key="app/q",
            pool=scheduler.replicas[replica_name].engine.name,
        )
        assert controller.apply_plan(self.make_plan(step), 10.0) == []
