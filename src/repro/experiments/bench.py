"""Benchmark scenario registry and baseline harness.

Twenty-two named scenarios, each a module-level zero-argument function that
simulates its scenario **once** and returns a :class:`ScenarioOutcome` — the
whole contract for that scenario:

* the **artefact**: the deterministic numbers the scenario pins
  (latencies, quotas, feasibility flags) as plain JSON types, *never* a
  wall-clock value;
* the **invariant failures**: one message per broken paper-shape or
  subsystem check (who wins, by roughly what factor, which class is
  blamed), computed from the full result object — empty when every check
  holds;
* optional **exports**: JSONL text keyed by file name (the control-plane
  action journal, the zoo quality records, the forecast-decision records).

Shape checks that a tier-1 test already makes on the same configuration are
not repeated here; the scenario names that test instead.  On top of the
registry:

* :func:`run_bench` runs any subset of scenarios, serially or sharded
  across a process pool (``repro bench --parallel N``), timing each one;
  only plain data crosses the process boundary, and because the scenarios
  are seeded end-to-end the artefacts of a parallel run are byte-identical
  to a serial run — :func:`artefact_digest` pins exactly that;
* ``BENCH_<name>.json`` baselines (committed under ``benchmarks/baselines``)
  record each scenario's artefact and its wall-clock timing, seeding the
  perf trajectory; :func:`compare_with_baseline` separates **artefact
  drift** (a correctness regression — hard failure) from **timing drift**
  (machine-dependent — warn outside the tolerance band);
* :func:`run_bench_command` is the CLI driver behind ``repro bench``: it
  fails on artefact drift (under ``--check``) and on any invariant failure,
  and writes the exports next to the fresh baselines (``--fresh-dir``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.export import jsonl_text, to_jsonable
from .parallel import SweepTask, run_sweep

__all__ = [
    "BENCH_SCENARIOS",
    "ScenarioOutcome",
    "BenchRun",
    "BaselineComparison",
    "DEFAULT_BASELINE_DIR",
    "run_scenario",
    "run_bench",
    "run_bench_profiled",
    "artefact_lines",
    "artefact_digest",
    "baseline_path",
    "write_baseline",
    "load_baseline",
    "compare_with_baseline",
    "add_bench_arguments",
    "run_bench_command",
]

BASELINE_SCHEMA = 1
DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"
TIMING_TOLERANCE = 0.25
"""Relative wall-clock drift beyond which a baseline check *warns* (never
fails: timings are machine-dependent; the artefact metrics are the
regression contract)."""

FLOAT_REL_TOL = 1e-6
"""Relative tolerance for float artefact comparisons — wide enough to
absorb numpy/BLAS version noise across machines, tight enough that any
behavioural change in a scenario trips it."""

POOL_PAGES = 8192
"""The paper's buffer-pool size, the bound of the MRC knee checks."""

CHAOS_MAX_REROUTE_INTERVALS = 1
CHAOS_MAX_SLA_RECOVERY_INTERVALS = 3
CONTROL_MAX_SLA_RECOVERY_INTERVALS = 2
PLANNER_VALIDATION_TOLERANCE = 0.25
FORECAST_MAX_ACTS_PER_SCENARIO = 2
FORECAST_WIN_SCENARIO = "flash_crowd"

ZOO_QUALITY_FLOORS = {
    "diurnal": (1.0, 1.0),
    "flash_crowd": (0.55, 0.99),
    "noisy_neighbour": (0.2, 0.99),
}
"""Zoo scenario -> (precision floor, recall floor), measured at seed 7.

The precision floors pin the detector's *measured* false-positive
behaviour (collateral outliers whose stable miss counts are near zero),
not an aspirational one; raising a floor must come from a detector
improvement, not from relabelling.  ``diurnal`` (pure CPU saturation, no
guilty class) is the false-positive control: any class-level detection
there is a regression in the memory-outlier path."""

JOURNAL_EXPORT = "controlplane-journal.jsonl"
ZOO_QUALITY_EXPORT = "zoo-quality.jsonl"
FORECAST_EXPORT = "forecast-records.jsonl"


@dataclass(frozen=True)
class ScenarioOutcome:
    """What one scenario run yields besides its timing."""

    artefact: dict
    failures: list[str] = field(default_factory=list)
    exports: dict[str, str] = field(default_factory=dict)


def _failed(*checks: tuple[bool, str]) -> list[str]:
    """The messages of the ``(holds, message)`` checks that do not hold."""
    return [message for holds, message in checks if not holds]


# --------------------------------------------------------------------- #
# Scenarios                                                             #
# --------------------------------------------------------------------- #
# Imports live inside each function: scenario modules pull in the whole
# cluster stack, and worker processes only pay for what they run.


def bench_fig3_cpu_saturation() -> ScenarioOutcome:
    # Shape: tests/integration/test_cpu_saturation_scenario.py (same config).
    from .cpu_saturation import CPUSaturationConfig, run_cpu_saturation

    result = run_cpu_saturation(CPUSaturationConfig())
    return ScenarioOutcome({
        "peak_replicas": result.peak_replicas,
        "violations_before_recovery": result.violations_before_recovery,
        "final_latency": result.final_latency,
        "sla_met_at_end": result.sla_met_at_end(),
        "allocation_series": result.allocation_series,
    })


def bench_fig4_index_drop() -> ScenarioOutcome:
    # Shape: tests/integration/test_index_drop_scenario.py (same config).
    # Here the engine telemetry hook is attached: the artefact must not
    # move with it, and the batched access path must report through it.
    from ..engine.engine import set_engine_obs
    from ..obs import Observability
    from .index_drop import IndexDropConfig, run_index_drop

    obs = Observability()
    set_engine_obs(obs)
    try:
        result = run_index_drop(IndexDropConfig(clients=60))
    finally:
        set_engine_obs(None)
    quotas: dict[str, int] = {}
    for action in result.actions:
        quotas.update(action.quota_map())
    metrics = obs.registry.snapshot()
    return ScenarioOutcome(
        {
            "latency_before": result.latency_before,
            "latency_violation": result.latency_violation,
            "latency_after": result.latency_after,
            "outlier_contexts": result.outlier_contexts,
            "quotas": quotas,
        },
        _failed(
            (any(m["value"] > 0.0 for m in metrics
                 if m["name"] == "engine.pages_per_sec"),
             "engine.pages_per_sec gauge never set to a positive value"),
            (any(m["count"] > 0 for m in metrics
                 if m["name"] == "engine.batch_pages"),
             "engine.batch_pages histogram has no observations"),
        ),
    )


def _mrc_artefact(result) -> dict:
    return {
        "context": result.context,
        "trace_length": result.trace_length,
        "total_memory": result.params.total_memory,
        "ideal_miss_ratio": result.params.ideal_miss_ratio,
        "acceptable_memory": result.params.acceptable_memory,
        "acceptable_miss_ratio": result.params.acceptable_miss_ratio,
    }


def bench_fig5_mrc_bestseller() -> ScenarioOutcome:
    # Paper: a convex curve with its knee near 6982 pages; the degraded
    # (no O_DATE) plan is flatter and its knee moves left (3695 pages).
    from .mrc_curves import run_fig5_bestseller, run_fig5_bestseller_degraded

    indexed = run_fig5_bestseller(executions=400)
    degraded = run_fig5_bestseller_degraded(executions=80)
    acceptable = indexed.params.acceptable_memory
    ratios = dict(indexed.samples)
    sizes = sorted(ratios)
    return ScenarioOutcome(
        _mrc_artefact(indexed),
        _failed(
            (5000 <= acceptable <= POOL_PAGES,
             f"acceptable memory {acceptable} outside [5000, {POOL_PAGES}]"),
            (degraded.params.acceptable_memory < acceptable,
             f"degraded acceptable memory {degraded.params.acceptable_memory} "
             f"not below the indexed {acceptable}"),
            (degraded.params.ideal_miss_ratio
             > indexed.params.ideal_miss_ratio + 0.3,
             "degraded ideal miss ratio "
             f"{degraded.params.ideal_miss_ratio:.3f} not 0.3 above the "
             f"indexed {indexed.params.ideal_miss_ratio:.3f}"),
            (ratios[sizes[0]] - ratios[sizes[-1]] > 0.3,
             "indexed curve declines by 0.3 or less"),
        ),
    )


def bench_fig6_mrc_rubis() -> ScenarioOutcome:
    # Paper: the knee sits near the pool size (7906 pages), which makes
    # co-location with BestSeller infeasible (the §5.4 core).
    from .mrc_curves import (
        run_fig5_bestseller,
        run_fig6_search_items_by_region,
    )

    result = run_fig6_search_items_by_region(executions=200)
    best_seller = run_fig5_bestseller(executions=200)
    acceptable = result.params.acceptable_memory
    combined = acceptable + best_seller.params.acceptable_memory
    return ScenarioOutcome(
        _mrc_artefact(result),
        _failed(
            (6500 <= acceptable <= POOL_PAGES,
             f"acceptable memory {acceptable} outside [6500, {POOL_PAGES}]"),
            (combined > POOL_PAGES,
             f"SearchItemsByRegion + BestSeller need {combined} pages, which "
             f"fits the {POOL_PAGES}-page pool"),
        ),
    )


def bench_table1_buffer_partitioning() -> ScenarioOutcome:
    # Shape: tests/integration/test_buffer_partitioning_scenario.py.
    from .buffer_partitioning import (
        BufferPartitioningConfig,
        run_buffer_partitioning,
    )

    result = run_buffer_partitioning(BufferPartitioningConfig())
    return ScenarioOutcome(to_jsonable(result))


def bench_table2_memory_contention() -> ScenarioOutcome:
    # Shape: tests/integration/test_memory_contention_scenario.py.
    from .memory_contention import MemoryContentionConfig, run_memory_contention

    result = run_memory_contention(MemoryContentionConfig())
    return ScenarioOutcome({
        "rows": to_jsonable(result.rows),
        "rescheduled_context": result.rescheduled_context,
    })


def bench_table3_io_contention() -> ScenarioOutcome:
    # Shape: tests/integration/test_io_contention_scenario.py.
    from .io_contention import IOContentionConfig, run_io_contention

    result = run_io_contention(IOContentionConfig(clients_per_instance=150))
    return ScenarioOutcome({
        "rows": to_jsonable(result.rows),
        "heaviest_io_context": result.heaviest_io_context,
        "heaviest_io_share": result.heaviest_io_share,
    })


def bench_lock_contention() -> ScenarioOutcome:
    # Shape: tests/integration/test_lock_contention_scenario.py.
    from .lock_contention import LockContentionConfig, run_lock_contention

    result = run_lock_contention(LockContentionConfig())
    return ScenarioOutcome({
        "latency_before": result.latency_before,
        "latency_during": result.latency_during,
        "baseline_lock_wait_share": result.baseline_lock_wait_share,
        "lock_wait_share": result.lock_wait_share,
        "reported_aggressor": result.reported_aggressor,
    })


def bench_sweep_client_load() -> ScenarioOutcome:
    # Baselines always meet the SLA; the incident appears somewhere in the
    # sweep and holds at the paper-equivalent operating point (60 clients).
    from .sweeps import CLIENT_LOADS, run_client_load_sweep

    rows = run_client_load_sweep()
    incident = {clients: flag for clients, _, _, _, flag in rows}
    return ScenarioOutcome(
        {"rows": to_jsonable(rows)},
        _failed(
            ([clients for clients, *_ in rows] == list(CLIENT_LOADS),
             "sweep rows do not follow CLIENT_LOADS"),
            (all(before < 1.0 for _, before, _, _, _ in rows),
             "a baseline latency violates the 1 s SLA"),
            (incident.get(60, False), "no SLA incident at 60 clients"),
            (not all(incident.values()),
             "every load is an incident: the crossover left the sweep"),
        ),
    )


def bench_sweep_pool_size() -> ScenarioOutcome:
    # Infeasible at the paper's 8192 pages, feasible at the largest pool,
    # and monotone in between.
    from .sweeps import POOL_SIZES, run_pool_size_sweep

    rows = run_pool_size_sweep()
    feasible = [flag for _, _, _, flag, _ in rows]
    by_pool = {pool: flag for pool, _, _, flag, _ in rows}
    return ScenarioOutcome(
        {"rows": to_jsonable(rows)},
        _failed(
            ([pool for pool, *_ in rows] == list(POOL_SIZES),
             "sweep rows do not follow POOL_SIZES"),
            (not by_pool.get(POOL_PAGES, True),
             f"co-location feasible at the paper's {POOL_PAGES} pages"),
            (by_pool.get(max(POOL_SIZES), False),
             "co-location infeasible even at the largest pool"),
            (feasible == sorted(feasible),
             "feasibility is not monotone in the pool size"),
        ),
    )


def bench_ablations() -> ScenarioOutcome:
    from .ablations import (
        run_coarse_vs_fine,
        run_mrc_window_sensitivity,
        run_quota_vs_reschedule,
        run_routing_policies,
        run_topk_vs_outliers,
    )

    def rows(outcomes):
        return [
            {
                "policy": o.policy,
                "recovered_latency": o.recovered_latency,
                "servers_used": o.servers_used,
                "replicas_used": o.replicas_used,
                "mrc_recomputations": o.mrc_recomputations,
            }
            for o in outcomes
        ]

    quota, reschedule = quota_vs_reschedule = run_quota_vs_reschedule()
    fine, coarse = coarse_vs_fine = run_coarse_vs_fine()
    guided, topk = topk_vs_outliers = run_topk_vs_outliers()
    round_robin, least_loaded = routing = run_routing_policies()
    windows = run_mrc_window_sensitivity()
    shortest, longest = min(windows), max(windows)
    artefact = to_jsonable({
        "quota_vs_reschedule": rows(quota_vs_reschedule),
        "coarse_vs_fine": rows(coarse_vs_fine),
        "topk_vs_outliers": rows(topk_vs_outliers),
        "routing_policies": rows(routing),
        "mrc_window_sensitivity": {
            str(length): estimate for length, estimate in windows.items()
        },
    })
    # Paper §3.3.2: the quota matches rescheduling's victim recovery on
    # fewer machines; coarse-only needs more machines for the same
    # incident; outlier-guided MRC analysis recomputes fewer curves than
    # top-k; load-aware routing drains reads off a noisy host; short MRC
    # windows are cold-dominated and underestimate memory needs.
    return ScenarioOutcome(artefact, _failed(
        (quota.recovered_latency < 1.0,
         f"quota victim latency {quota.recovered_latency:.3f}s >= 1 s"),
        (reschedule.recovered_latency < 1.0,
         f"reschedule victim latency {reschedule.recovered_latency:.3f}s "
         ">= 1 s"),
        (quota.servers_used < reschedule.servers_used,
         f"quota uses {quota.servers_used} servers, not fewer than "
         f"reschedule's {reschedule.servers_used}"),
        (fine.recovered_latency < 1.0,
         f"fine-grained latency {fine.recovered_latency:.3f}s >= 1 s"),
        (fine.replicas_used <= coarse.replicas_used,
         f"fine-grained uses {fine.replicas_used} replicas, more than "
         f"coarse-only's {coarse.replicas_used}"),
        (fine.servers_used <= coarse.servers_used,
         f"fine-grained uses {fine.servers_used} servers, more than "
         f"coarse-only's {coarse.servers_used}"),
        (guided.recovered_latency < 1.2,
         f"outlier-guided latency {guided.recovered_latency:.3f}s >= 1.2 s"),
        (topk.recovered_latency < 1.2,
         f"top-k latency {topk.recovered_latency:.3f}s >= 1.2 s"),
        (guided.mrc_recomputations <= topk.mrc_recomputations,
         f"outlier-guided recomputes {guided.mrc_recomputations} MRCs, "
         f"more than top-k's {topk.mrc_recomputations}"),
        (least_loaded.recovered_latency < round_robin.recovered_latency,
         "least-loaded routing is not faster than round-robin"),
        (least_loaded.details["quiet_share"] > 0.6,
         f"least-loaded quiet-host read share "
         f"{least_loaded.details['quiet_share']:.0%} <= 60%"),
        (abs(round_robin.details["quiet_share"] - 0.5) < 0.1,
         f"round-robin quiet-host read share "
         f"{round_robin.details['quiet_share']:.0%} not within 10 points "
         "of 50%"),
        (windows[shortest] <= windows[longest],
         f"window {shortest} estimates {windows[shortest]} pages, more "
         f"than window {longest}'s {windows[longest]}"),
        (windows[longest] >= 4000,
         f"longest window estimates {windows[longest]} < 4000 pages"),
    ))


def bench_ablation_sampled_mrc() -> ScenarioOutcome:
    # Every sampled estimate lands in the exact estimate's regime, and the
    # lowest rate is faster than exact.  The wall-clock check reads the
    # timings; the artefact never holds one.
    from ..core.mrc import MissRatioCurve
    from ..core.mrc_sampling import sampled_mrc
    from ..workloads.tpcw import BEST_SELLER, build_tpcw
    from .mrc_curves import trace_of_class

    workload = build_tpcw(seed=7)
    trace = trace_of_class(workload.class_named(BEST_SELLER), executions=400)
    start = time.perf_counter()
    exact = MissRatioCurve.from_trace(trace).parameters(POOL_PAGES)
    exact_seconds = time.perf_counter() - start
    rows = [
        {"method": "exact", "kept_fraction": 1.0,
         "acceptable_memory": exact.acceptable_memory}
    ]
    failures = []
    for rate in (0.5, 0.2, 0.1):
        start = time.perf_counter()
        curve, stats = sampled_mrc(trace, rate=rate, seed=11)
        acceptable = curve.parameters(POOL_PAGES).acceptable_memory
        sampled_seconds = time.perf_counter() - start
        rows.append(
            {
                "method": f"sampled R={rate}",
                "kept_fraction": stats.effective_rate,
                "acceptable_memory": acceptable,
            }
        )
        failures += _failed(
            (abs(acceptable - exact.acceptable_memory) < 0.35 * POOL_PAGES,
             f"R={rate} estimates {acceptable} pages, outside 35% of the "
             f"pool around the exact {exact.acceptable_memory}"),
        )
    failures += _failed(
        (sampled_seconds < exact_seconds,
         f"lowest rate took {sampled_seconds:.3f}s, not faster than the "
         f"exact {exact_seconds:.3f}s"),
    )
    return ScenarioOutcome(
        {"trace_length": len(trace), "rows": to_jsonable(rows)}, failures
    )


def bench_chaos_failover() -> ScenarioOutcome:
    # The degradation contract of the fault subsystem: the crashed replica
    # is routed around, quarantined windows emit no retuning actions, and
    # the SLA recovers after the replica rejoins.
    from .chaos import ChaosConfig, run_chaos

    result = run_chaos(ChaosConfig())
    artefact = {
        "reroute_intervals": result.reroute_intervals,
        "quarantined_intervals": result.quarantined_intervals,
        "violating_degraded_intervals": result.violating_degraded_intervals,
        "actions_during_quarantine": result.actions_during_quarantine,
        "violations_during_outage": result.violations_during_outage,
        "sla_recovery_intervals": result.sla_recovery_intervals,
        "pending_stale_dropped": result.pending_stale_dropped,
        "final_latency": result.final_latency,
        "sla_met_at_end": result.sla_met_at_end(),
        "faults_injected": result.faults_injected,
        "unmatched_faults": result.unmatched_faults,
    }
    reroute = result.reroute_intervals
    recovery = result.sla_recovery_intervals
    return ScenarioOutcome(artefact, _failed(
        (0 <= reroute <= CHAOS_MAX_REROUTE_INTERVALS,
         f"crashed replica not routed around within "
         f"{CHAOS_MAX_REROUTE_INTERVALS} interval(s): {reroute}"),
        (result.quarantined_intervals >= 2,
         "stats gap + metric corruption should quarantine two windows, "
         f"got {result.quarantined_intervals}"),
        (result.actions_during_quarantine == 0,
         "controller emitted retuning actions from quarantined windows: "
         f"{result.actions_during_quarantine}"),
        (result.violating_degraded_intervals >= 1,
         "the storm no longer produces a violating+degraded interval, so "
         "the refusal path went unexercised"),
        (0 <= recovery <= CHAOS_MAX_SLA_RECOVERY_INTERVALS,
         f"SLA not recovered within {CHAOS_MAX_SLA_RECOVERY_INTERVALS} "
         f"interval(s) of the replica rejoining: {recovery}"),
        (artefact["sla_met_at_end"], "SLA not met at the end of the run"),
        (result.unmatched_faults == 0,
         f"{result.unmatched_faults} fault event(s) found no target"),
    ))


def bench_chaos_control_plane() -> ScenarioOutcome:
    # The exactly-once contract of the recovery subsystem: a watchdog
    # restart from a digest-valid checkpoint past the corrupted one, no
    # duplicate or open actions after replay + reconcile, the stale
    # pre-crash action fenced, and the SLA back soon after the restart.
    from .control_chaos import ControlChaosConfig, run_control_chaos

    result = run_control_chaos(ControlChaosConfig())
    supervisor = result.supervisor
    journal = supervisor.journal
    reconcile = supervisor.last_reconcile
    duplicates = journal.duplicate_applied()
    open_intents = journal.open_intents()
    cold_start = supervisor.cold_starts > 0
    recovery = result.sla_recovery_intervals_after_restart
    artefact = {
        "latency_before": result.latency_before,
        "quota_interval": result.quota_interval,
        "quota_pages": result.quota_pages,
        "cleared_quotas": [list(pair) for pair in result.cleared_quotas],
        "crash_interval": result.crash_interval,
        "restart_interval": result.restart_interval,
        "missed_intervals": supervisor.missed_intervals,
        "checkpoints_taken": supervisor.checkpoints.taken,
        "corrupt_skipped": supervisor.checkpoints.corrupt_skipped,
        "restored_from_interval": supervisor.restored_interval,
        "cold_start": cold_start,
        "epoch_final": supervisor.epoch,
        "replayed_records": supervisor.replayed_records,
        "journal_counts": journal.counts(),
        "duplicate_applied": to_jsonable(duplicates),
        "open_intents": len(open_intents),
        "reconcile": reconcile.counts() if reconcile is not None else None,
        "reconcile_repaired": list(reconcile.repaired) if reconcile else [],
        "stale_attempt_fenced": result.stale_attempt_fenced,
        "fence_rejections": supervisor.fence.rejections,
        "sla_recovery_intervals_after_restart": recovery,
        "sla_met_at_end": result.sla_met_at_end,
        "final_latency": result.final_latency,
    }
    failures = _failed(
        (supervisor.crashes >= 1 and supervisor.restarts >= 1,
         "the storm no longer crashes and restarts the controller: "
         f"crashes={supervisor.crashes} restarts={supervisor.restarts}"),
        (not cold_start,
         "restart cold-started instead of restoring a checkpoint"),
        (supervisor.checkpoints.corrupt_skipped >= 1,
         "the corrupted checkpoint was not exercised — restore never had "
         "to fall back past it"),
        (not duplicates,
         f"{len(duplicates)} action(s) applied more than once: "
         f"{duplicates[:3]}"),
        (not open_intents,
         f"{len(open_intents)} intent(s) left open after reconcile"),
        (result.stale_attempt_fenced,
         "the stale pre-crash action was not fenced"),
        (result.quota_after_stale_attempt == result.quota_pages,
         "the fenced action leaked into the engine quota: "
         f"{result.quota_after_stale_attempt} != {result.quota_pages}"),
        (recovery is not None
         and 0 <= recovery <= CONTROL_MAX_SLA_RECOVERY_INTERVALS,
         f"SLA not recovered within {CONTROL_MAX_SLA_RECOVERY_INTERVALS} "
         f"interval(s) of the restart close: {recovery}"),
        (result.sla_met_at_end, "SLA not met at the end of the run"),
        (not result.injector.unmatched,
         f"{len(result.injector.unmatched)} fault event(s) found no target"),
    )
    return ScenarioOutcome(
        artefact, failures, {JOURNAL_EXPORT: journal.to_jsonl()}
    )


def bench_planner_sweep() -> ScenarioOutcome:
    # The planner reacts at least as fast as the single-server quota path,
    # both modes recover the SLA, the plan is non-trivial with a pinned
    # digest, and the what-if validation holds within its error budget.
    from .planner_sweep import run_planner_sweep

    result = run_planner_sweep()
    quota, planner = result.quota, result.planner
    return ScenarioOutcome(to_jsonable(result), _failed(
        (quota.intervals_to_action >= 0,
         "quota path never acted on the contention"),
        (planner.intervals_to_action >= 0,
         "planner never acted on the contention"),
        (planner.intervals_to_action <= quota.intervals_to_action
         or min(planner.intervals_to_action, quota.intervals_to_action) < 0,
         f"planner slower than the quota path: "
         f"{planner.intervals_to_action} vs {quota.intervals_to_action} "
         "intervals to action"),
        *(
            (outcome.recovered_sla_met,
             f"{outcome.mode} mode did not recover the SLA "
             f"(latency {outcome.recovered_latency:.3f}s)")
            for outcome in (quota, planner)
        ),
        (result.plan_steps >= 1,
         "plan is empty at the contended planning point"),
        (bool(result.plan_digest),
         "plan digest missing (determinism pin lost)"),
        (result.validation_ok
         and result.validation_max_error <= PLANNER_VALIDATION_TOLERANCE,
         f"what-if validation failed: max relative error "
         f"{result.validation_max_error:.0%} exceeds "
         f"{PLANNER_VALIDATION_TOLERANCE:.0%}"),
        (result.validation_checks >= 1, "validation checked no classes"),
    ))


def _bench_zoo(name: str) -> ScenarioOutcome:
    from ..analysis.quality import quality_records
    from .zoo import run_zoo, zoo_artefact

    result = run_zoo(name)
    artefact = zoo_artefact(result)
    quality = artefact["quality"]
    precision_floor, recall_floor = ZOO_QUALITY_FLOORS.get(name, (0.0, 0.0))
    failures = _failed(
        (quality["precision"] >= precision_floor,
         f"precision {quality['precision']:.3f} below the pinned floor "
         f"{precision_floor:.2f}"),
        (quality["recall"] >= recall_floor,
         f"recall {quality['recall']:.3f} below the pinned floor "
         f"{recall_floor:.2f}"),
    )
    exports = {ZOO_QUALITY_EXPORT: jsonl_text(quality_records(result.quality))}
    return ScenarioOutcome(artefact, failures, exports)


def bench_zoo_diurnal() -> ScenarioOutcome:
    return _bench_zoo("diurnal")


def bench_zoo_flash_crowd() -> ScenarioOutcome:
    return _bench_zoo("flash_crowd")


def bench_zoo_working_set_drift() -> ScenarioOutcome:
    return _bench_zoo("working_set_drift")


def bench_zoo_olap_storm() -> ScenarioOutcome:
    return _bench_zoo("olap_storm")


def bench_zoo_write_burst() -> ScenarioOutcome:
    return _bench_zoo("write_burst")


def bench_zoo_noisy_neighbour() -> ScenarioOutcome:
    return _bench_zoo("noisy_neighbour")


def bench_forecast_eval() -> ScenarioOutcome:
    # Predictive enforcement keeps its win and never thrashes: at least one
    # violation interval avoided on flash_crowd; per scenario at most two
    # act-aheads, every cluster mutation gated by one, and the
    # false-positive budget never exhausted; the planning-point what-if
    # validation holds.
    from ..analysis.export import forecast_records
    from .forecast_eval import forecast_eval_artefact, run_forecast_eval

    result = run_forecast_eval()
    artefact = forecast_eval_artefact(result)
    scenarios = artefact["scenarios"]
    avoided = scenarios.get(FORECAST_WIN_SCENARIO, {}).get(
        "intervals_avoided", 0
    )
    failures = _failed(
        (avoided >= 1,
         f"{FORECAST_WIN_SCENARIO}: predictive avoided {avoided} "
         "SLA-violation intervals vs reactive; the gate requires at least 1"),
    )
    for name, scenario in sorted(scenarios.items()):
        acted = scenario["acted"]
        mutations = scenario["plans_applied"] + scenario["scale_outs"]
        failures += _failed(
            (acted <= FORECAST_MAX_ACTS_PER_SCENARIO,
             f"{name}: {acted} act-aheads fired (max "
             f"{FORECAST_MAX_ACTS_PER_SCENARIO}) — the policy is thrashing"),
            (mutations <= acted,
             f"{name}: {mutations} cluster mutations from {acted} "
             "act-aheads — an ungated action slipped past the policy"),
            (scenario["budget_remaining"] >= 1,
             f"{name}: false-positive budget exhausted — predictive "
             "enforcement silently degraded to reactive"),
        )
    validation = artefact.get("validation")
    if validation is None:
        failures.append("no planning-point validation ran")
    elif not validation["ok"]:
        failures.append(
            "what-if validation failed (max relative error "
            f"{validation['max_relative_error']:.4f})"
        )
    config = result.config
    records = jsonl_text(
        forecast_records(result.records()),
        meta={"scenario": "forecast_eval", "seed": config.seed,
              "horizon": config.horizon},
    )
    return ScenarioOutcome(artefact, failures, {FORECAST_EXPORT: records})


BENCH_SCENARIOS = {
    "fig3_cpu_saturation": bench_fig3_cpu_saturation,
    "fig4_index_drop": bench_fig4_index_drop,
    "fig5_mrc_bestseller": bench_fig5_mrc_bestseller,
    "fig6_mrc_rubis": bench_fig6_mrc_rubis,
    "table1_buffer_partitioning": bench_table1_buffer_partitioning,
    "table2_memory_contention": bench_table2_memory_contention,
    "table3_io_contention": bench_table3_io_contention,
    "lock_contention": bench_lock_contention,
    "sweep_client_load": bench_sweep_client_load,
    "sweep_pool_size": bench_sweep_pool_size,
    "ablations": bench_ablations,
    "ablation_sampled_mrc": bench_ablation_sampled_mrc,
    "chaos_failover": bench_chaos_failover,
    "chaos_control_plane": bench_chaos_control_plane,
    "planner_sweep": bench_planner_sweep,
    "zoo_diurnal": bench_zoo_diurnal,
    "zoo_flash_crowd": bench_zoo_flash_crowd,
    "zoo_working_set_drift": bench_zoo_working_set_drift,
    "zoo_olap_storm": bench_zoo_olap_storm,
    "zoo_write_burst": bench_zoo_write_burst,
    "zoo_noisy_neighbour": bench_zoo_noisy_neighbour,
    "forecast_eval": bench_forecast_eval,
}


# --------------------------------------------------------------------- #
# Execution                                                             #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class BenchRun:
    """One scenario's outcome: its artefact metrics and wall-clock cost,
    plus the invariant failures and exports of the same run."""

    name: str
    artefact: dict
    seconds: float
    failures: tuple[str, ...] = ()
    exports: dict[str, str] = field(default_factory=dict)


def run_scenario(name: str) -> dict:
    """Run one registered scenario once; plain data only, so the result
    crosses a process boundary as-is (the keys of :class:`BenchRun`)."""
    start = time.perf_counter()
    outcome = BENCH_SCENARIOS[name]()
    artefact = to_jsonable(outcome.artefact)
    return {
        "name": name,
        "artefact": artefact,
        "seconds": time.perf_counter() - start,
        "failures": tuple(outcome.failures),
        "exports": dict(outcome.exports),
    }


def run_bench_profiled(
    names: list[str], top: int = 15
) -> tuple[list[BenchRun], dict[str, str]]:
    """Run scenarios serially under ``cProfile``; also return report text.

    Per scenario the report holds the ``top`` entries sorted by cumulative
    time — the view that finds the hot path across the engine stack.  The
    artefacts are the same as an unprofiled run (scenarios are seeded);
    only the timings carry profiler overhead, so ``--check`` timing ratios
    are not meaningful under ``--profile``.
    """
    import cProfile
    import io
    import pstats

    runs: list[BenchRun] = []
    reports: dict[str, str] = {}
    for name in names:
        profiler = cProfile.Profile()
        run = BenchRun(**profiler.runcall(run_scenario, name))
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats(
            "cumulative"
        ).print_stats(top)
        runs.append(run)
        reports[name] = stream.getvalue()
    return runs, reports


def resolve_names(only: str | None = None) -> list[str]:
    """The scenario subset a ``--only a,b,c`` selector names (all when
    empty), in registry order, with unknown names rejected."""
    if not only:
        return list(BENCH_SCENARIOS)
    wanted = [name.strip() for name in only.split(",") if name.strip()]
    unknown = sorted(set(wanted) - set(BENCH_SCENARIOS))
    if unknown:
        raise KeyError(
            f"unknown benchmark scenario(s) {unknown}; "
            f"known: {sorted(BENCH_SCENARIOS)}"
        )
    return [name for name in BENCH_SCENARIOS if name in wanted]


def run_bench(
    names: list[str] | None = None, workers: int | None = None
) -> list[BenchRun]:
    """Run the named scenarios (all by default); results in registry order.

    Timings are measured inside each worker around the scenario call, so a
    parallel run reports per-scenario costs, not wall-clock shares.
    """
    names = list(BENCH_SCENARIOS) if names is None else names
    results = run_sweep(
        [
            SweepTask(name=f"bench/{name}", fn=run_scenario, args=(name,))
            for name in names
        ],
        workers=workers,
    )
    return [BenchRun(**result) for result in results]


def artefact_lines(runs: list[BenchRun]) -> list[str]:
    """Canonical JSONL of the artefacts alone (timings, invariant failures
    and exports excluded), the byte-identity contract between serial and
    parallel runs."""
    return [
        json.dumps(
            {"artefact": run.artefact, "name": run.name},
            sort_keys=True,
            separators=(",", ":"),
        )
        for run in runs
    ]


def artefact_digest(runs: list[BenchRun]) -> str:
    """sha256 over :func:`artefact_lines` (trailing newline included)."""
    blob = ("\n".join(artefact_lines(runs)) + "\n").encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# --------------------------------------------------------------------- #
# Baselines                                                             #
# --------------------------------------------------------------------- #


def baseline_path(directory: str | Path, name: str) -> Path:
    return Path(directory) / f"BENCH_{name}.json"


def write_baseline(run: BenchRun, directory: str | Path) -> Path:
    """Serialise one run as ``BENCH_<name>.json``; returns the path."""
    path = baseline_path(directory, run.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": BASELINE_SCHEMA,
        "name": run.name,
        "artefact": run.artefact,
        "timing": {"seconds": round(run.seconds, 6)},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(directory: str | Path, name: str) -> dict | None:
    path = baseline_path(directory, name)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _diff_artefact(expected, actual, path: str, drift: list[str]) -> None:
    """Collect human-readable paths where ``actual`` left ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}.{key}" if path else str(key)
            if key not in expected:
                drift.append(f"{where}: unexpected new key")
            elif key not in actual:
                drift.append(f"{where}: missing")
            else:
                _diff_artefact(expected[key], actual[key], where, drift)
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            drift.append(f"{path}: length {len(expected)} -> {len(actual)}")
            return
        for index, (left, right) in enumerate(zip(expected, actual)):
            _diff_artefact(left, right, f"{path}[{index}]", drift)
        return
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(
            actual, (int, float)
        ) and not isinstance(expected, bool) and not isinstance(actual, bool):
            if not math.isclose(
                float(expected), float(actual),
                rel_tol=FLOAT_REL_TOL, abs_tol=1e-9,
            ):
                drift.append(f"{path}: {expected} -> {actual}")
            return
    if expected != actual:
        drift.append(f"{path}: {expected!r} -> {actual!r}")


@dataclass(frozen=True)
class BaselineComparison:
    """One scenario checked against its committed baseline."""

    name: str
    drift: tuple[str, ...]
    timing_ratio: float | None
    timing_ok: bool

    @property
    def artefact_ok(self) -> bool:
        return not self.drift


def compare_with_baseline(
    run: BenchRun,
    baseline: dict,
    timing_tolerance: float = TIMING_TOLERANCE,
) -> BaselineComparison:
    """Artefact drift is a failure; timing drift is machine noise (warn)."""
    drift: list[str] = []
    _diff_artefact(baseline.get("artefact"), run.artefact, "", drift)
    recorded = float(baseline.get("timing", {}).get("seconds") or 0.0)
    ratio = run.seconds / recorded if recorded > 0 else None
    timing_ok = ratio is None or abs(ratio - 1.0) <= timing_tolerance
    return BaselineComparison(
        name=run.name,
        drift=tuple(drift),
        timing_ratio=ratio,
        timing_ok=timing_ok,
    )


# --------------------------------------------------------------------- #
# CLI driver (`repro bench`)                                            #
# --------------------------------------------------------------------- #


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--parallel", type=int, default=None, metavar="N",
                        help="shard scenarios across N worker processes "
                             "(default: serial; artefacts are identical "
                             "either way)")
    parser.add_argument("--only", type=str, default=None,
                        help="comma-separated scenario subset")
    parser.add_argument("--baseline-dir", type=str,
                        default=str(DEFAULT_BASELINE_DIR),
                        help="where committed BENCH_<name>.json baselines "
                             "live (default: %(default)s)")
    parser.add_argument("--write-baselines", action="store_true",
                        help="write/refresh BENCH_<name>.json from this run")
    parser.add_argument("--check", action="store_true",
                        help="compare against committed baselines: exit "
                             "non-zero on artefact drift, warn on timing "
                             # argparse %-expands help strings, so the
                             # percent sign must be doubled.
                             f"outside the ±{TIMING_TOLERANCE * 100:.0f}%% "
                             "band (invariant failures always exit "
                             "non-zero)")
    parser.add_argument("--fresh-dir", type=str, default=None,
                        help="also write this run's BENCH_<name>.json and "
                             "JSONL exports here (e.g. for upload as a CI "
                             "artifact)")
    parser.add_argument("--profile", action="store_true",
                        help="run each scenario under cProfile (serial) and "
                             "print the hottest functions by cumulative "
                             "time; timings include profiler overhead")
    parser.add_argument("--profile-top", type=int, default=15, metavar="N",
                        help="rows per scenario in the --profile report "
                             "(default: %(default)s)")
    parser.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="list the registered scenarios and exit")


def run_bench_command(args: argparse.Namespace) -> int:
    from ..analysis.report import Table

    if getattr(args, "list_scenarios", False):
        print("Benchmark scenarios:")
        for name in BENCH_SCENARIOS:
            print(f"  {name}")
        return 0
    try:
        names = resolve_names(getattr(args, "only", None))
    except KeyError as error:
        print(f"repro bench: {error.args[0]}")
        return 2
    workers = getattr(args, "parallel", None)
    profiling = bool(getattr(args, "profile", False))
    profiles: dict[str, str] = {}
    if profiling:
        if workers and workers > 1:
            print("repro bench: --profile runs serially; ignoring --parallel")
            workers = None
        runs, profiles = run_bench_profiled(
            names, top=max(1, int(getattr(args, "profile_top", 15)))
        )
    else:
        runs = run_bench(names, workers=workers)

    baseline_dir = Path(getattr(args, "baseline_dir", DEFAULT_BASELINE_DIR))
    check = bool(getattr(args, "check", False))
    table = Table(
        title=f"benchmark scenarios ({'parallel ' + str(workers) if workers and workers > 1 else 'serial'})",
        headers=["scenario", "seconds", "baseline (s)", "timing", "artefact",
                 "invariants"],
    )
    failures: list[str] = []
    warnings: list[str] = []
    for run in runs:
        baseline = load_baseline(baseline_dir, run.name)
        recorded = (
            f"{baseline['timing']['seconds']:.3f}"
            if baseline and baseline.get("timing", {}).get("seconds")
            else "-"
        )
        timing_cell = artefact_cell = "-"
        if check and baseline is None:
            timing_cell = artefact_cell = "no baseline"
            failures.append(f"{run.name}: no committed baseline")
        elif check:
            comparison = compare_with_baseline(run, baseline)
            if comparison.timing_ratio is not None:
                timing_cell = f"{comparison.timing_ratio:.2f}x"
            if not comparison.timing_ok:
                timing_cell += " (warn)"
                warnings.append(
                    f"{run.name}: timing {comparison.timing_ratio:.2f}x "
                    f"baseline (tolerance ±{TIMING_TOLERANCE:.0%})"
                )
            artefact_cell = "ok" if comparison.artefact_ok else "DRIFT"
            if not comparison.artefact_ok:
                failures.append(
                    f"{run.name}: artefact drift — "
                    + "; ".join(comparison.drift[:5])
                )
        failures.extend(f"{run.name}: {message}" for message in run.failures)
        table.add_row(
            run.name, f"{run.seconds:.3f}", recorded, timing_cell,
            artefact_cell,
            f"{len(run.failures)} FAILED" if run.failures else "ok",
        )
    print(table.render())
    print(f"\nartefact digest: {artefact_digest(runs)}")

    for name in names:
        if name in profiles:
            print(f"\n--- profile: {name} (cumulative) ---")
            print(profiles[name].rstrip())

    if getattr(args, "write_baselines", False):
        for run in runs:
            path = write_baseline(run, baseline_dir)
            print(f"baseline written: {path}")
    fresh_dir = getattr(args, "fresh_dir", None)
    if fresh_dir:
        exports: dict[str, str] = {}
        for run in runs:
            write_baseline(run, fresh_dir)
            for filename, text in run.exports.items():
                exports[filename] = exports.get(filename, "") + text
        for filename, text in exports.items():
            (Path(fresh_dir) / filename).write_text(text)
        print(f"fresh baselines and exports written under: {fresh_dir}")

    for warning in warnings:
        print(f"WARNING: {warning}")
    for failure in failures:
        print(f"FAILURE: {failure}")
    return 1 if failures else 0
