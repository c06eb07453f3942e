"""The cluster controller: monitoring loop + action application.

The controller closes the paper's feedback loop.  Once per measurement
interval it:

1. closes every scheduler's SLA accounting and every host's load model,
2. lets every decision manager drain its engines' statistics logs
   (refreshing stable-state signatures for applications that met their SLA),
3. runs one decision pipeline per violating application (with
   ``use_forecast``, per application): gates (grace windows, degraded
   evidence) → proposer (act-ahead, else diagnosis or the capacity planner)
   → escalation to COARSE_FALLBACK → actuation, which provisions replicas,
   enforces buffer-pool quotas or reschedules query classes through the
   fenced, journaled apply path.

Fine-grained retuning can be disabled (``fine_grained=False``) to obtain the
coarse-only baseline the ablation benches compare against: every violation
then goes straight to replica provisioning / application isolation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial

from .analyzer import DecisionManager, LogAnalyzer
from ..cluster.replica import Replica
from ..cluster.resource_manager import ResourceManager
from ..cluster.scheduler import AppIntervalMetrics, Scheduler
from ..obs import NULL_OBS, Observability
from .diagnosis import (
    Action,
    ActionKind,
    Diagnosis,
    DiagnosisConfig,
    ReplicaView,
    diagnose,
)

__all__ = ["ControllerConfig", "AppIntervalReport", "ClusterController"]

# Fine-grained retuning kinds: proposing one arms the escalation ladder.
_FINE_KINDS = frozenset({
    ActionKind.APPLY_QUOTAS, ActionKind.RESCHEDULE_CLASS,
    ActionKind.REMOVE_CLASS_FOR_IO, ActionKind.REPORT_LOCK_CONTENTION,
})

# Prefix of the degraded-evidence gate reason; the quarantine reason follows.
_DEGRADED = "degraded:"


def _set_quotas(engine, quotas: dict[str, int]) -> bool:
    """Impose ``quotas`` on ``engine``; returns whether any changed.  A
    near-identical quota only cold-restarts the partition, so a proposal
    within 15% of the standing quota counts as already applied."""
    changed = False
    for context, pages in quotas.items():
        current = engine.quotas.get(context)
        if current is not None and abs(pages - current) <= 0.15 * current:
            continue
        engine.set_quota(context, pages)
        changed = True
    return changed


@dataclass(frozen=True)
class ControllerConfig:
    """Controller tunables."""

    interval_length: float = 10.0
    fine_grained: bool = True
    fallback_patience: int = 3
    action_grace_intervals: int = 2
    startup_grace_intervals: int = 2
    scale_down: bool = False
    scale_down_cpu_threshold: float = 0.25
    scale_down_patience: int = 2
    mrc_sampling_rate: float = 1.0
    """SHARDS-style spatial sampling rate for MRC recomputation during
    diagnosis: 1.0 (default) runs the exact stack-distance analysis, lower
    rates analyse only the hashed subset of pages and rescale distances
    (see :mod:`repro.core.mrc_sampling`), cutting the recompute cost by
    roughly the same factor."""
    use_planner: bool = False
    """Route violations through the global capacity planner
    (:mod:`repro.planner`) instead of the single-server quota path.  Off by
    default: the flag must not change a byte of the classic behaviour."""
    planner_seed: int = 0
    use_forecast: bool = False
    """Predictive SLA enforcement (:mod:`repro.forecast`): learn per-class
    and per-app dynamics online and fire the capacity planner against a
    *predicted* snapshot before the forecast violation lands.  Off by
    default, same byte-identical contract as ``use_planner``; the reactive
    path stays armed behind the forecast either way."""
    forecast_horizon: int = 2
    """Intervals ahead the forecaster projects (and the window within which
    a predicted violation must materialise to count as a hit)."""
    forecast_seed: int = 0
    """Seed for planner searches fired by the forecaster (and stamped on
    every forecast record)."""
    forecast_margin: float = 1.0
    """Predicted latency must exceed ``forecast_margin * sla_latency``
    before the act-ahead policy may fire (below 1.0 = act earlier)."""
    diagnosis: DiagnosisConfig = field(default_factory=DiagnosisConfig)

    def __post_init__(self) -> None:
        if self.interval_length <= 0:
            raise ValueError("interval length must be positive")
        if self.fallback_patience < 1:
            raise ValueError("fallback patience must be at least 1")
        if self.action_grace_intervals < 0:
            raise ValueError("action grace must be non-negative")
        if self.startup_grace_intervals < 0:
            raise ValueError("startup grace must be non-negative")
        if not 0 < self.scale_down_cpu_threshold < 1:
            raise ValueError("scale-down threshold must be in (0, 1)")
        if self.scale_down_patience < 1:
            raise ValueError("scale-down patience must be at least 1")
        if not 0 < self.mrc_sampling_rate <= 1:
            raise ValueError("MRC sampling rate must be in (0, 1]")
        if self.forecast_horizon < 1:
            raise ValueError("forecast horizon must be at least 1")
        if self.forecast_margin <= 0:
            raise ValueError("forecast margin must be positive")


@dataclass
class AppIntervalReport:
    """What happened to one application during one interval."""

    app: str
    interval_index: int
    timestamp: float
    mean_latency: float
    throughput: float
    sla_met: bool
    actions: list[Action] = field(default_factory=list)


@dataclass
class _Proposal:
    """What one proposer wants actuated: explicit actions or a plan."""

    actions: list[Action] = field(default_factory=list)
    plan: object = None  # a repro.planner CapacityPlan
    arms_grace: bool = True


class ClusterController:
    """Owns the monitoring/diagnosis/actuation loop of one cluster."""

    def __init__(
        self,
        resource_manager: ResourceManager,
        config: ControllerConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.resource_manager = resource_manager
        self.config = config if config is not None else ControllerConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.schedulers: dict[str, Scheduler] = {}
        self._hosts: dict[str, object] = {}
        self._decision_managers: dict[str, DecisionManager] = {}
        self._violation_streak: dict[str, int] = {}
        self._low_util_streak: dict[str, int] = {}
        self._last_action_interval: dict[str, int] = {}
        self._fine_action_tried: dict[str, bool] = {}
        self.reports: list[AppIntervalReport] = []
        self.diagnoses: list[Diagnosis] = []
        self.plans: list = []  # CapacityPlans, when use_planner is on
        self.forecaster = None  # ForecastEngine, when use_forecast is on
        self._interval_index = 0
        # Recovery hooks, installed by the ControlPlaneSupervisor when the
        # harness enables recovery.  Both None by default: the classic
        # actuation path then runs with zero extra work or telemetry.
        self.fence = None  # EpochFence shared with schedulers/ResourceManager
        self.journal = None  # ActionJournal (write-ahead action log)

    @property
    def interval_index(self) -> int:
        """Index of the next measurement interval to close."""
        return self._interval_index

    def violation_streak(self, app: str) -> int:
        """Consecutive intervals ``app`` has violated its SLA (0 = met)."""
        return self._violation_streak.get(app, 0)

    # ------------------------------------------------------------------ #
    # Wiring                                                             #
    # ------------------------------------------------------------------ #

    def add_scheduler(self, scheduler: Scheduler) -> None:
        if scheduler.app in self.schedulers:
            raise ValueError(f"app {scheduler.app!r} already has a scheduler")
        scheduler.interval_length = self.config.interval_length
        scheduler.obs = self.obs
        if self.fence is not None:
            scheduler.fence = self.fence
        self.schedulers[scheduler.app] = scheduler
        for replica in scheduler.replicas.values():
            self.track_replica(replica)

    def register_host(self, host) -> None:
        """Track a host whose load model must be closed each interval.

        ``host`` is anything with ``close_interval(interval_length)`` — a
        :class:`PhysicalServer` or a :class:`XenHost` (which closes its VMs).
        """
        self._hosts.setdefault(self._host_key(host), host)

    @staticmethod
    def _host_key(host) -> str:
        name = getattr(host, "name", None)
        if name is None:  # XenHost exposes its server's name
            name = host.server.name
        return str(name)

    def track_replica(self, replica: Replica) -> LogAnalyzer:
        """Attach a replica's engine to its server's decision manager."""
        host_name = replica.host.name
        manager = self._decision_managers.get(host_name)
        if manager is None:
            manager = DecisionManager(
                server_name=host_name,
                obs=self.obs,
                mrc_sampling_rate=self.config.mrc_sampling_rate,
            )
            self._decision_managers[host_name] = manager
        self.register_host(replica.host)
        self.resource_manager.register_existing(replica)
        return manager.attach_engine(replica.engine)

    def analyzer_of(self, replica: Replica) -> LogAnalyzer:
        manager = self._decision_managers[replica.host.name]
        return manager.analyzer_for(replica.engine.name)

    def analyzers(self) -> list[LogAnalyzer]:
        """Every log analyzer in the cluster, sorted by server then engine.

        The fault injector uses this to find the analyzers monitoring a
        target engine; tests and dashboards use it to inspect quarantine
        state without knowing the replica topology.
        """
        return [
            analyzer
            for server in sorted(self._decision_managers)
            for analyzer in self._decision_managers[server].analyzers()
        ]

    # ------------------------------------------------------------------ #
    # The interval loop                                                  #
    # ------------------------------------------------------------------ #

    def close_interval(self, timestamp: float) -> list[AppIntervalReport]:
        """Process one measurement-interval boundary; returns app reports."""
        length = self.config.interval_length
        tracer = self.obs.tracer
        registry = self.obs.registry
        with tracer.span(
            "controller.interval",
            attrs={"interval": self._interval_index},
            start=max(timestamp - length, 0.0),
        ):
            app_metrics: dict[str, AppIntervalMetrics] = {}
            sla_met: dict[str, bool] = {}
            for app, scheduler in self.schedulers.items():
                if scheduler.async_replication:
                    scheduler.drain_pending(timestamp)
                metrics = scheduler.close_interval()
                app_metrics[app] = metrics
                sla_met[app] = metrics.sla_met(scheduler.sla_latency)

            for host in self._hosts.values():
                host.close_interval(length)

            for manager in self._decision_managers.values():
                manager.close_interval(length, sla_met, timestamp)

            if self.config.use_forecast:
                self._observe_forecasts(app_metrics, sla_met)

            reports: list[AppIntervalReport] = []
            for app in sorted(self.schedulers):
                metrics = app_metrics[app]
                report = AppIntervalReport(
                    app=app,
                    interval_index=self._interval_index,
                    timestamp=timestamp,
                    mean_latency=metrics.mean_latency,
                    throughput=metrics.throughput,
                    sla_met=sla_met[app],
                )
                if sla_met[app]:
                    self._violation_streak[app] = 0
                    if self.config.use_forecast:
                        report.actions = self._decide(
                            app, timestamp, violating=False
                        )
                    if self.config.scale_down:
                        self._maybe_scale_down(app, timestamp)
                elif metrics.queries > 0:
                    self._violation_streak[app] = (
                        self._violation_streak.get(app, 0) + 1
                    )
                    report.actions = self._decide(
                        app, timestamp, violating=True
                    )
                for action in report.actions:
                    registry.counter(
                        "controller.actions", app=app, kind=action.kind.value
                    ).inc()
                reports.append(report)
            registry.counter("controller.intervals").inc()
        self.reports.extend(reports)
        self._interval_index += 1
        return reports

    # ------------------------------------------------------------------ #
    # Scale-down (release replicas when the load recedes)                #
    # ------------------------------------------------------------------ #

    def _maybe_scale_down(self, app: str, timestamp: float) -> None:
        """Release the newest replica after sustained low CPU utilisation.

        Mirrors the provisioning direction of the paper's Figure 3: the
        machine allocation tracks the sinusoid load both up and down.
        """
        scheduler = self.schedulers[app]
        if len(scheduler.replicas) <= 1:
            self._low_util_streak[app] = 0
            return
        utilisations = [
            getattr(replica.host, "cpu_utilisation", 1.0)
            for replica in scheduler.replicas.values()
        ]
        if max(utilisations) < self.config.scale_down_cpu_threshold:
            self._low_util_streak[app] = self._low_util_streak.get(app, 0) + 1
        else:
            self._low_util_streak[app] = 0
            return
        if self._low_util_streak[app] >= self.config.scale_down_patience:
            newest = list(scheduler.replicas)[-1]  # insertion order = age
            self.resource_manager.release_replica(scheduler, newest, timestamp)
            self._low_util_streak[app] = 0

    # ------------------------------------------------------------------ #
    # Decision pipeline: gates -> proposer -> escalation -> actuation    #
    # ------------------------------------------------------------------ #

    def _decide(self, app: str, timestamp: float, violating: bool) -> list[Action]:
        """One app's round.  An app meeting its SLA only gets here with
        ``use_forecast`` on; a violating app falls back to the reactive
        proposer whenever act-ahead declines."""
        gate = self._gate(app)
        if gate is not None:
            registry = self.obs.registry
            if violating and gate.startswith(_DEGRADED) and registry.enabled:
                registry.counter(
                    "controller.degraded_skips", app=app,
                    reason=gate[len(_DEGRADED):],
                ).inc()
            return []
        if self.config.use_forecast and self._ahead_gate(app) is None:
            actions = self._act_ahead(app, timestamp)
            if actions:
                return actions
        if not violating:
            return []
        proposal = self._escalate(app, self._propose(app))
        if proposal is None:
            return []
        return self._actuate_proposal(app, proposal, timestamp)[0]

    def _gate(self, app: str) -> str | None:
        """Why no proposer may act for ``app`` this round (None = go)."""
        # Cold-start grace: violations in the first intervals after launch
        # come from an empty buffer pool, not from a real change.
        if self._interval_index < self.config.startup_grace_intervals:
            return "startup_grace"
        # Grace period: the previous action needs a warm-up window before
        # its effect is measurable; reacting every interval causes thrashing
        # (each pool rebuild restarts cold and re-violates the SLA).
        last_action = self._last_action_interval.get(app)
        if (
            last_action is not None
            and self._interval_index - last_action
            <= self.config.action_grace_intervals
        ):
            return "action_grace"
        # Degraded evidence: a quarantined statistics window means the
        # interval's vectors are missing or corrupt.  Acting on them would
        # retune the cluster off garbage, so the controller sits the round
        # out and retries next interval with (hopefully) clean evidence.
        degraded = self._degraded_evidence(app)
        return None if degraded is None else _DEGRADED + degraded

    def _ahead_gate(self, app: str) -> str | None:
        """Why the act-ahead proposer may not fire (None = go)."""
        if self.forecaster is None:
            return "forecaster_cold"
        if self.schedulers[app].health.any_down:
            # Mid-failover the topology the forecaster learned no longer
            # exists; planning against it only thrashes the survivors.
            return "failover"
        return None

    def _act_ahead(self, app: str, timestamp: float) -> list[Action]:
        """Act ahead of a *predicted* violation (``[]`` = declined): plan
        against the predicted snapshot so the fix lands before the breach,
        or, for a violation forecast to persist, before the reactive
        patience ladder would.  An act that changed nothing declines too."""
        decision, forecast = self.forecaster.consider(
            app, self._interval_index
        )
        if not decision.act or forecast is None:
            return []
        plan = self._plan(app, forecast)
        if plan.empty:
            # No fine-grained move improves the predicted snapshot, but the
            # violation forecast stands: scale out ahead of the breach (the
            # PerfEnforce move).  The predicted latency comes from the whole
            # app, not one class, so added capacity is the remaining lever.
            proposal = _Proposal(actions=[Action(
                kind=ActionKind.PROVISION_REPLICA,
                app=app,
                reason=(
                    f"forecast: predicted latency "
                    f"{decision.predicted_latency:.3f} > threshold "
                    f"{decision.threshold:.3f}, no fine-grained move"
                ),
            )])
        else:
            proposal = _Proposal(plan=plan)
        actions, applied = self._actuate_proposal(app, proposal, timestamp)
        if not applied:
            # Server pool exhausted, or every step no-opped (quota within
            # the thrash guard, class already placed): refund the token.
            self.forecaster.note_empty_plan(app, self._interval_index)
            return []
        if plan.empty:
            self.forecaster.note_scale_out()
        else:
            self.forecaster.note_plan_applied()
        return actions

    def _propose(self, app: str) -> _Proposal:
        """The reactive proposer: coarse-only, planner or diagnosis."""
        if not self.config.fine_grained:
            # The coarse-only baseline arms no action grace: it provisions
            # on every violating interval.
            reason = "fine-grained retuning disabled (coarse-only baseline)"
            return _Proposal(
                actions=[self._coarse_fallback(app, reason)], arms_grace=False
            )
        if self.config.use_planner:
            return _Proposal(plan=self._plan(app))
        diagnosis = diagnose(
            app, self.schedulers[app], self._views_of(app),
            self.config.diagnosis, obs=self.obs,
        )
        self.diagnoses.append(diagnosis)
        return _Proposal(actions=list(diagnosis.actions))

    def _plan(self, app: str, forecast=None):
        """Search a capacity plan against the live snapshot, or against the
        one ``forecast`` predicts at its horizon."""
        # Imported lazily: the planner depends on core, so a module-level
        # import would be a cycle — and the default path never needs it.
        from ..planner import PlannerConfig, build_snapshot, search_plan

        if forecast is None:
            name, attrs, seed = "planner", {"app": app}, self.config.planner_seed
        else:
            name, seed = "forecast", self.config.forecast_seed
            attrs = {"app": app, "horizon": forecast.horizon}
        with self.obs.tracer.span(f"{name}.plan", attrs=attrs) as span:
            snapshot = build_snapshot(self, app=app, obs=self.obs)
            if forecast is not None:
                from ..forecast import predicted_snapshot

                snapshot = predicted_snapshot(
                    snapshot, forecast.horizon,
                    self.forecaster.app_forecasts(),
                    self.forecaster.class_forecasts(),
                )
            plan = search_plan(snapshot, PlannerConfig(seed=seed), obs=self.obs)
            span.set_attr("steps", len(plan.steps))
        self.plans.append(plan)
        if self.obs.registry.enabled:
            self.obs.registry.counter(f"{name}.plans", app=app).inc()
        return plan

    def _exhausted(self, app: str) -> bool:
        """Fine-grained retuning was *tried* and the SLA is still violated
        past the patience budget, or the proposer has been inconclusive for
        much longer (diagnosis may legitimately wait for window coverage)."""
        streak = self._violation_streak.get(app, 0)
        patience = self.config.fallback_patience
        tried_fine = self._fine_action_tried.get(app, False)
        return (streak > patience and tried_fine) or streak > 2 * patience + 2

    @staticmethod
    def _coarse_fallback(app: str, reason: str) -> Action:
        return Action(kind=ActionKind.COARSE_FALLBACK, app=app, reason=reason)

    def _escalate(self, app: str, proposal: _Proposal) -> _Proposal | None:
        """Swap an exhausted fine-grained proposal for COARSE_FALLBACK;
        ``None`` = nothing to actuate (an empty plan, patience left)."""
        streak = self._violation_streak.get(app, 0)
        if proposal.plan is not None:
            if not proposal.plan.empty:
                return proposal
            if not self._exhausted(app):
                return None
            reason = (
                f"planner found no improving move after {streak} "
                "intervals of violation"
            )
        elif self._exhausted(app) and all(
            a.kind in _FINE_KINDS or a.kind is ActionKind.NO_ACTION
            for a in proposal.actions
        ):
            reason = (
                f"SLA still violated after {streak} intervals of "
                "fine-grained retuning"
            )
        else:
            return proposal
        return _Proposal(actions=[self._coarse_fallback(app, reason)])

    def _actuate_proposal(
        self, app: str, proposal: _Proposal, timestamp: float
    ) -> tuple[list[Action], int]:
        """Apply ``proposal``: (actions to report, how many applied).

        Explicit actions are reported as proposed, under one ``actions.apply``
        span; a plan reports the actions its steps applied.  Proposing a fine
        kind, or applying a plan step, arms the escalation ladder; applying
        anything arms the action grace unless the proposal opts out."""
        if proposal.plan is not None:
            actions = self.apply_plan(proposal.plan, timestamp, app=app)
            applied = len(actions)
            tried_fine = applied > 0
        else:
            actions = proposal.actions
            tried_fine = any(a.kind in _FINE_KINDS for a in actions)
            kinds = ",".join(sorted({a.kind.value for a in actions}))
            with self.obs.tracer.span(
                "actions.apply", attrs={"app": app, "kinds": kinds}
            ) as span:
                applied = sum(self.apply_action(a, timestamp) for a in actions)
                span.set_attr("applied", applied)
                span.add_cost(len(actions))
        if tried_fine:
            self._fine_action_tried[app] = True
        if applied and proposal.arms_grace:
            self._last_action_interval[app] = self._interval_index
        return actions, applied

    # ------------------------------------------------------------------ #
    # Forecast observation (ControllerConfig.use_forecast)               #
    # ------------------------------------------------------------------ #

    def _observe_forecasts(
        self,
        app_metrics: dict[str, AppIntervalMetrics],
        sla_met: dict[str, bool],
    ) -> None:
        """Feed the closed interval to the forecast engine.

        Called once per interval, before the report loop, so the engine's
        forecasts already include this interval's measurements when the
        act-ahead proposer consults them.  Also resolves any act-ahead
        predictions whose windows this interval closes.
        """
        # Lazy for the same reason as the planner: forecast depends on the
        # planner's model, and the default path never needs either.
        from ..forecast import (
            AppObservation,
            ClassObservation,
            ForecastConfig,
            ForecastEngine,
            PolicyConfig,
        )
        from .metrics import Metric

        if self.forecaster is None:
            self.forecaster = ForecastEngine(
                ForecastConfig(
                    horizon=self.config.forecast_horizon,
                    seed=self.config.forecast_seed,
                ),
                PolicyConfig(margin=self.config.forecast_margin),
            )
        apps = [
            AppObservation(
                app=app,
                mean_latency=app_metrics[app].mean_latency,
                throughput=app_metrics[app].throughput,
                sla_latency=self.schedulers[app].sla_latency,
                violated=not sla_met[app],
            )
            for app in sorted(app_metrics)
        ]
        # Cluster-wide per-class counters: one class may span engines, so
        # sum its accesses/misses/readaheads/throughput across analyzers.
        sums: dict[str, list[float]] = {}
        for analyzer in self.analyzers():
            for key, vector in analyzer.effective_vectors().items():
                total = sums.setdefault(key, [0.0, 0.0, 0.0, 0.0])
                total[0] += vector.get(Metric.PAGE_ACCESSES)
                total[1] += vector.get(Metric.MISSES)
                total[2] += vector.get(Metric.READAHEADS)
                total[3] += vector.get(Metric.THROUGHPUT)
        classes = []
        for key in sorted(sums):
            accesses, misses, readaheads, throughput = sums[key]
            # Same semantics as the what-if validator: readaheads are
            # demand I/O the pool failed to absorb.
            ratio = (misses + readaheads) / accesses if accesses > 0 else 0.0
            classes.append(
                ClassObservation(
                    context_key=key,
                    miss_ratio=min(ratio, 1.0),
                    pressure=accesses,
                    arrival_rate=throughput,
                )
            )
        with self.obs.tracer.span(
            "forecast.tick",
            attrs={"interval": self._interval_index, "classes": len(classes)},
        ):
            self.forecaster.observe_interval(
                self._interval_index, apps, classes
            )
        registry = self.obs.registry
        if registry.enabled:
            for app, forecast in self.forecaster.app_forecasts().items():
                registry.gauge("forecast.predicted_latency", app=app).set(
                    forecast.mean_latency
                )
                registry.gauge("forecast.confidence", app=app).set(
                    forecast.confidence
                )
            registry.gauge("forecast.budget_remaining").set(
                self.forecaster.policy.budget
            )

    # ------------------------------------------------------------------ #
    # Capacity plans                                                     #
    # ------------------------------------------------------------------ #

    def apply_plan(
        self, plan, timestamp: float, app: str | None = None
    ) -> list[Action]:
        """Actuate a :class:`~repro.planner.plan.CapacityPlan`.

        Steps are applied in plan order, each through :meth:`apply_action`;
        ADD_REPLICA steps materialise the plan's placeholder pools and later
        steps resolve against the engines they created.  Returns the actions
        actually applied (releases emit none, as in scale-down).  Actions
        carry ``app``, the app whose round the plan answers (default: each
        step's own), so the journal replays the action grace onto it.
        """
        from ..planner.plan import PlanStepKind

        placeholder_engines: dict[str, str] = {}
        actions: list[Action] = []
        with self.obs.tracer.span(
            "planner.apply", attrs={"steps": len(plan.steps)}
        ) as span:
            for step in plan.steps:
                action = self._apply_plan_step(
                    step, PlanStepKind, app or step.app, placeholder_engines,
                    timestamp,
                )
                if action is not None:
                    actions.append(action)
            span.set_attr("applied", len(actions))
            span.add_cost(len(plan.steps))
        return actions

    def _engine_replica(self, engine_name: str, app: str | None = None):
        """(scheduler, replica) serving ``engine_name``, optionally for one
        application.  Raises ``KeyError`` when no replica matches."""
        for name in sorted(self.schedulers) if app is None else [app]:
            scheduler = self.schedulers[name]
            for replica_name in scheduler.replica_names():
                replica = scheduler.replicas[replica_name]
                if replica.engine.name == engine_name:
                    return scheduler, replica
        raise KeyError(
            f"no replica of {app or 'any app'} serves engine {engine_name!r}"
        )

    def _apply_plan_step(
        self, step, kinds, app: str, placeholder_engines: dict[str, str],
        timestamp: float,
    ) -> Action | None:
        """Apply one step; returns its action when something changed.  A
        step whose target pool is gone is skipped before it becomes an
        action."""
        reason = f"planner: {step.rationale}"
        if step.kind is kinds.RELEASE_REPLICA:
            # Mirrors _maybe_scale_down: releases change the allocation
            # timeline (ResourceManager.history) but emit no Action.
            try:
                scheduler, replica = self._engine_replica(
                    step.pool, app=step.app
                )
            except KeyError:
                return None
            if len(scheduler.replicas) > 1:
                self.resource_manager.release_replica(
                    scheduler, replica.name, timestamp
                )
            return None
        if step.kind is kinds.ADD_REPLICA:
            scheduler = self.schedulers[step.app]
            pool_pages = max(
                (r.engine.pool_pages for r in scheduler.replicas.values()),
                default=8192,
            )
            created: list[Replica | None] = []

            def actuate() -> bool:
                created.append(self._provision(
                    scheduler, timestamp, pool_pages=pool_pages,
                    server=step.server,
                ))
                return created[0] is not None

            action = Action(kind=ActionKind.PROVISION_REPLICA, app=app, reason=reason)
            if not self.apply_action(action, timestamp, actuate):
                return None  # server taken since planning; skip the branch
            placeholder_engines[step.pool] = created[0].engine.name
            return replace(action, replica=created[0].name)
        migrate = step.kind is kinds.MIGRATE_CLASS
        try:
            scheduler, replica = self._engine_replica(
                placeholder_engines.get(step.pool, step.pool),
                app=step.app if migrate else None,
            )
        except KeyError:
            return None  # target pool never materialised
        key, engine = step.context_key, replica.engine
        if migrate:
            action = Action(
                kind=ActionKind.RESCHEDULE_CLASS, app=app, reason=reason,
                replica=replica.name, context_key=key,
            )

            def actuate() -> bool:
                if scheduler.placement_of(key) == [replica.name]:
                    return False  # already exactly there
                scheduler.move_class(key, replica.name)
                return True

        elif step.kind is kinds.SET_QUOTA:
            action = Action(
                kind=ActionKind.APPLY_QUOTAS, app=app, reason=reason,
                replica=replica.name, quotas=((key, step.pages),),
            )

            def actuate() -> bool:
                return _set_quotas(engine, {key: step.pages})

        elif step.kind is kinds.CLEAR_QUOTA:
            # A quota action naming a context but no pages is a clear (the
            # reconcile pass folds it that way).
            action = Action(
                kind=ActionKind.APPLY_QUOTAS, app=app, reason=reason,
                replica=replica.name, context_key=key,
            )

            def actuate() -> bool:
                if key not in engine.quotas:
                    return False
                engine.clear_quota(key)
                return True

        else:
            return None
        return action if self.apply_action(action, timestamp, actuate) else None

    def _degraded_evidence(self, app: str) -> str | None:
        """The quarantine reason when any analyzer serving ``app`` closed a
        degraded window this interval (``None`` = evidence is trustworthy)."""
        scheduler = self.schedulers[app]
        for name in scheduler.replica_names():
            replica = scheduler.replicas[name]
            try:
                analyzer = self.analyzer_of(replica)
            except KeyError:
                continue
            if analyzer.degraded_last_interval is not None:
                return analyzer.degraded_last_interval
        return None

    def _views_of(self, app: str) -> list[ReplicaView]:
        scheduler = self.schedulers[app]
        views = []
        for name in scheduler.replica_names():
            replica = scheduler.replicas[name]
            analyzer = self.analyzer_of(replica)
            host = replica.host
            views.append(
                ReplicaView(
                    replica_name=name,
                    analyzer=analyzer,
                    cpu_saturated=bool(getattr(host, "cpu_saturated", False)),
                    io_saturated=bool(getattr(host, "io_saturated", False)),
                    pool_pages=replica.engine.pool_pages,
                    interval_length=self.config.interval_length,
                )
            )
        return views

    def apply_action(
        self, action: Action, timestamp: float,
        actuate: Callable[[], bool] | None = None,
    ) -> bool:
        """Epoch-checked, journaled actuation (the one apply path).

        Without recovery installed this is plain actuation.  With a fence,
        an unstamped action (epoch 0) is stamped with the current epoch; a
        stale one — decided by a crashed incarnation — is journaled as
        ``fenced`` and rejected without touching the cluster.  Anything
        admitted is journaled write-ahead (``intent``) before actuating
        and confirmed (``applied``) after, so a crash at any point leaves
        enough evidence for the restart reconcile pass.

        ``actuate`` replaces the default per-kind actuation; capacity-plan
        steps pass one because they name exact targets (a server, a
        replica) where reactive actions only name what to avoid.
        """
        if actuate is None:
            actuate = partial(self._actuate, action, timestamp)
        if self.fence is None:
            return actuate()
        if action.epoch == 0:
            action = replace(action, epoch=self.fence.epoch)
        if not self.fence.admits(action.epoch):
            self.fence.rejections += 1
            if self.journal is not None:
                self.journal.record_fenced(
                    action, action.epoch, self._interval_index, timestamp
                )
            return False
        if self.journal is not None:
            self.journal.record_intent(
                action, action.epoch, self._interval_index, timestamp
            )
        applied = actuate()
        if self.journal is not None:
            self.journal.record_applied(
                action, action.epoch, self._interval_index, timestamp, applied
            )
        return applied

    def _actuate(self, action: Action, timestamp: float) -> bool:
        """Actuate one action; returns whether anything actually changed."""
        scheduler = self.schedulers[action.app]
        if action.kind is ActionKind.PROVISION_REPLICA:
            return self._provision(scheduler, timestamp) is not None
        if action.kind is ActionKind.APPLY_QUOTAS:
            engine = scheduler.replicas[action.replica].engine
            return _set_quotas(engine, action.quota_map())
        if action.kind in (
            ActionKind.RESCHEDULE_CLASS,
            ActionKind.REMOVE_CLASS_FOR_IO,
        ):
            # The context may belong to a *different* application than the
            # violated one (cross-application memory interference): move it
            # within its owner's scheduler, away from the contended host.
            owner_app = action.context_key.split("/", 1)[0]
            owner_scheduler = self.schedulers.get(owner_app)
            if owner_scheduler is None:
                return False
            avoid_host = scheduler.replicas[action.replica].host.name
            return self._reschedule(
                owner_scheduler, action.context_key, avoid_host, timestamp
            )
        if action.kind is ActionKind.REPORT_LOCK_CONTENTION:
            # Nothing to actuate — the report itself is the outcome (it names
            # the aggressor class and any deadlock-prone cycles for the
            # operator).  Counting it as applied spaces repeat reports by the
            # action-grace window.
            return True
        if action.kind is ActionKind.COARSE_FALLBACK:
            return self._provision(scheduler, timestamp, exclusive=True) is not None
        return False  # NO_ACTION applies nothing.

    def _provision(
        self, scheduler: Scheduler, timestamp: float, exclusive: bool = False,
        pool_pages: int = 8192, server: str | None = None,
    ) -> Replica | None:
        try:
            replica = self.resource_manager.allocate_replica(
                scheduler, timestamp, pool_pages=pool_pages,
                exclusive=exclusive, server=server,
            )
        except (RuntimeError, KeyError):
            return None  # pool exhausted or pinned server unavailable
        self.track_replica(replica)
        return replica

    def _reschedule(
        self,
        scheduler: Scheduler,
        context_key: str | None,
        avoid_host: str | None,
        timestamp: float,
    ) -> bool:
        if context_key is None:
            return False
        candidates = [
            name
            for name in scheduler.replica_names()
            if avoid_host is None
            or scheduler.replicas[name].host.name != avoid_host
        ]
        if not candidates:
            replica = self._provision(scheduler, timestamp)
            if replica is None:
                return False
            candidates = [replica.name]
        current = scheduler.placement_of(context_key)
        if len(current) == 1 and current[0] in candidates:
            return False  # already isolated off the contended host
        # Least-crowded target: fewest classes currently pinned there.
        pinned_counts = {name: 0 for name in candidates}
        for targets in scheduler.pinned_contexts().values():
            for name in targets:
                if name in pinned_counts:
                    pinned_counts[name] += 1
        target = min(candidates, key=lambda name: (pinned_counts[name], name))
        scheduler.move_class(context_key, target)
        return True

    # ------------------------------------------------------------------ #
    # Reporting                                                          #
    # ------------------------------------------------------------------ #

    def app_timeline(self, app: str) -> list[AppIntervalReport]:
        return [report for report in self.reports if report.app == app]

    def actions_taken(self, app: str | None = None) -> list[Action]:
        actions = []
        for report in self.reports:
            for action in report.actions:
                if app is None or action.app == app:
                    actions.append(action)
        return actions
