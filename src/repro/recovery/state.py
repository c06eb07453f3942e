"""Serializable snapshots of the control plane's decision state.

What must survive a controller crash is exactly what cannot be re-derived
from the data plane: violation streaks and action-grace bookkeeping on the
controller, and per-engine learned state on every log analyzer — stable
signatures, miss-ratio curves and their parameters, the MRC cache with its
hit/miss counters, measurement-window watermarks and first-seen indexes.
Engine buffer pools, statistics logs and replica placement are data-plane
state: they persist across a control-plane crash and are *not* snapshotted
(the reconcile pass diffs against them instead).

The export/restore pair is exact: restoring a snapshot and exporting again
produces an equal payload, and a restored analyzer serves the same cached
curves (without recomputation) as the original would have — the Hypothesis
byte-identity suite pins both.  Restoration performs direct attribute
assignment only; it never goes through ``store``/``put`` paths that would
increment observability counters, preserving the recovery subsystem's
zero-telemetry contract.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.metrics import Metric, MetricVector
from ..core.mrc import MissRatioCurve, MRCCacheKey, MRCParameters
from ..core.signature import StableStateSignature

__all__ = [
    "export_controller_state",
    "restore_controller_state",
    "export_analyzer_state",
    "restore_analyzer_state",
    "export_cluster_state",
    "restore_cluster_state",
    "wipe_cluster_state",
]

STATE_VERSION = 1


# ---------------------------------------------------------------------- #
# Leaf converters                                                        #
# ---------------------------------------------------------------------- #


def _vector_to_jsonable(vector: MetricVector) -> list:
    # Pairs, not an object: JSON round-trips preserve list order exactly,
    # and metric iteration order feeds dict-ordered downstream code.
    return [[metric.value, value] for metric, value in vector.values.items()]


def _vector_from_jsonable(context_key: str, pairs: list) -> MetricVector:
    return MetricVector(
        context_key=context_key,
        values={Metric(name): value for name, value in pairs},
    )


def _params_to_jsonable(params: MRCParameters | None) -> dict | None:
    if params is None:
        return None
    return {
        "total_memory": params.total_memory,
        "ideal_miss_ratio": params.ideal_miss_ratio,
        "acceptable_memory": params.acceptable_memory,
        "acceptable_miss_ratio": params.acceptable_miss_ratio,
        "threshold": params.threshold,
    }


def _params_from_jsonable(payload: dict | None) -> MRCParameters | None:
    if payload is None:
        return None
    return MRCParameters(**payload)


def _curve_to_jsonable(curve: MissRatioCurve) -> dict:
    return {
        "hits": [int(count) for count in curve._hits],
        "cold": curve.cold_misses,
    }


def _curve_from_jsonable(payload: dict) -> MissRatioCurve:
    return MissRatioCurve(
        np.asarray(payload["hits"], dtype=np.int64), payload["cold"]
    )


# ---------------------------------------------------------------------- #
# Analyzer state                                                         #
# ---------------------------------------------------------------------- #


def export_analyzer_state(analyzer) -> dict:
    """Snapshot one :class:`~repro.core.analyzer.LogAnalyzer`.

    Armed fault hooks (``_gap_next``/``_corrupt_next``) and the last
    interval's lock evidence are transient by design: a restarted analyzer
    starts its next interval clean, exactly as a rebooted monitoring agent
    would.
    """
    signatures = []
    for key, signature in analyzer.signatures._signatures.items():
        signatures.append({
            "context_key": key,
            "metrics": _vector_to_jsonable(signature.metrics),
            "mrc": _params_to_jsonable(signature.mrc),
            "recorded_at": signature.recorded_at,
            "intervals_observed": signature.intervals_observed,
        })
    tracker = analyzer.mrc
    cache = analyzer.mrc_cache
    cache_entries = []
    for key, (cache_key, value) in cache._entries.items():
        entry_value = {
            "curve": _curve_to_jsonable(value[0]),
            "params": _params_to_jsonable(value[1]),
        }
        if len(value) > 2:  # assessment entries carry the "before" params
            entry_value["before"] = _params_to_jsonable(value[2])
        cache_entries.append({
            "context_key": key,
            "window_version": cache_key.window_version,
            "pool_pages": cache_key.pool_pages,
            "variant": cache_key.variant,
            "value": entry_value,
        })
    return {
        "server": analyzer.server_name,
        "engine": analyzer.engine.name,
        "intervals_closed": analyzer._intervals_closed,
        "first_seen": dict(analyzer._first_seen),
        "seen_marks": {
            key: list(marks) for key, marks in analyzer._seen_marks.items()
        },
        "mrc_window_len": dict(analyzer._mrc_window_len),
        "last_vectors": {
            key: _vector_to_jsonable(vector)
            for key, vector in analyzer._last_vectors.items()
        },
        "quarantined_intervals": analyzer.quarantined_intervals,
        "degraded_last_interval": analyzer.degraded_last_interval,
        "signatures": signatures,
        "mrc": {
            "recomputations": tracker.recomputations,
            "curves": {
                key: _curve_to_jsonable(curve)
                for key, curve in tracker._curves.items()
            },
            "parameters": {
                key: _params_to_jsonable(params)
                for key, params in tracker._parameters.items()
            },
        },
        "mrc_cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "entries": cache_entries,
        },
    }


def restore_analyzer_state(analyzer, state: dict) -> None:
    """Refill a (wiped) analyzer from an exported snapshot."""
    analyzer.amnesia()
    for payload in state["signatures"]:
        key = payload["context_key"]
        analyzer.signatures._signatures[key] = StableStateSignature(
            context_key=key,
            metrics=_vector_from_jsonable(key, payload["metrics"]),
            mrc=_params_from_jsonable(payload["mrc"]),
            recorded_at=payload["recorded_at"],
            intervals_observed=payload["intervals_observed"],
        )
    tracker = analyzer.mrc
    tracker.recomputations = state["mrc"]["recomputations"]
    for key, payload in state["mrc"]["curves"].items():
        tracker._curves[key] = _curve_from_jsonable(payload)
    for key, payload in state["mrc"]["parameters"].items():
        tracker._parameters[key] = _params_from_jsonable(payload)
    cache = analyzer.mrc_cache
    cache.hits = state["mrc_cache"]["hits"]
    cache.misses = state["mrc_cache"]["misses"]
    for entry in state["mrc_cache"]["entries"]:
        cache_key = MRCCacheKey(
            window_version=entry["window_version"],
            pool_pages=entry["pool_pages"],
            variant=entry["variant"],
        )
        payload = entry["value"]
        curve = _curve_from_jsonable(payload["curve"])
        params = _params_from_jsonable(payload["params"])
        if "before" in payload:
            value = (curve, params, _params_from_jsonable(payload["before"]))
        else:
            value = (curve, params)
        cache._entries[entry["context_key"]] = (cache_key, value)
    analyzer._intervals_closed = state["intervals_closed"]
    analyzer._first_seen = dict(state["first_seen"])
    analyzer._seen_marks = {
        key: deque(marks, maxlen=3)
        for key, marks in state["seen_marks"].items()
    }
    analyzer._mrc_window_len = dict(state["mrc_window_len"])
    analyzer._last_vectors = {
        key: _vector_from_jsonable(key, pairs)
        for key, pairs in state["last_vectors"].items()
    }
    analyzer.quarantined_intervals = state["quarantined_intervals"]
    analyzer.degraded_last_interval = state["degraded_last_interval"]


# ---------------------------------------------------------------------- #
# Controller state                                                       #
# ---------------------------------------------------------------------- #


def export_controller_state(controller) -> dict:
    """Snapshot the controller's own decision bookkeeping."""
    return {
        "interval_index": controller._interval_index,
        "violation_streak": dict(controller._violation_streak),
        "low_util_streak": dict(controller._low_util_streak),
        "last_action_interval": dict(controller._last_action_interval),
        "fine_action_tried": dict(controller._fine_action_tried),
        "planner_seed": controller.config.planner_seed,
    }


def wipe_controller_state(controller) -> None:
    """The crash model for the controller proper.

    Streaks, grace bookkeeping, accumulated reports and the forecaster
    (Holt state, cooldowns, false-positive budget) are process memory and
    die with the process; the forecaster is rebuilt cold on the next
    observed interval.  Schedulers, decision managers and resource manager
    are the surviving cluster, reachable again on restart.
    """
    controller._violation_streak = {}
    controller._low_util_streak = {}
    controller._last_action_interval = {}
    controller._fine_action_tried = {}
    controller.reports = []
    controller.diagnoses = []
    controller.plans = []
    controller.forecaster = None
    controller._interval_index = 0


def restore_controller_state(controller, state: dict) -> None:
    controller._interval_index = state["interval_index"]
    controller._violation_streak = dict(state["violation_streak"])
    controller._low_util_streak = dict(state["low_util_streak"])
    controller._last_action_interval = dict(state["last_action_interval"])
    controller._fine_action_tried = dict(state["fine_action_tried"])


# ---------------------------------------------------------------------- #
# Whole-cluster aggregation                                              #
# ---------------------------------------------------------------------- #


def export_cluster_state(controller, epoch: int) -> dict:
    """The full checkpoint payload: controller plus every analyzer."""
    return {
        "version": STATE_VERSION,
        "epoch": epoch,
        "controller": export_controller_state(controller),
        "analyzers": [
            export_analyzer_state(analyzer)
            for analyzer in controller.analyzers()
        ],
    }


def _analyzer_index(controller) -> dict:
    return {
        (analyzer.server_name, analyzer.engine.name): analyzer
        for analyzer in controller.analyzers()
    }


def wipe_cluster_state(controller) -> None:
    wipe_controller_state(controller)
    for analyzer in controller.analyzers():
        analyzer.amnesia()


def restore_cluster_state(controller, state: dict) -> None:
    """Refill the control plane from a checkpoint payload.

    Analyzers that exist live but are absent from the snapshot (replicas
    provisioned after the checkpoint was taken) simply start cold — their
    learned state was younger than the checkpoint and is legitimately lost.
    """
    if state.get("version") != STATE_VERSION:
        raise ValueError(
            f"unsupported checkpoint version: {state.get('version')!r}"
        )
    restore_controller_state(controller, state["controller"])
    live = _analyzer_index(controller)
    for payload in state["analyzers"]:
        analyzer = live.get((payload["server"], payload["engine"]))
        if analyzer is not None:
            restore_analyzer_state(analyzer, payload)
