"""JSON export of experiment results and run telemetry.

Benchmarks and the CLI print human tables; downstream tooling (plotting,
regression dashboards) wants machine-readable output.  ``to_jsonable``
converts any of the experiment result dataclasses — nested dataclasses,
enums, numpy scalars and all — into plain JSON types, and ``export_result``
writes them to disk.  ``export_telemetry`` writes an instrumented run's
spans and metric snapshots as deterministic JSONL (see
:mod:`repro.obs.export` for the schema).
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "to_jsonable",
    "export_result",
    "jsonl_text",
    "export_telemetry",
    "allocation_records",
    "export_allocation_history",
    "export_quality",
    "forecast_records",
    "export_forecast",
]


def to_jsonable(value):
    """Recursively convert ``value`` into JSON-serialisable types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {_key(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot export {type(value).__name__} to JSON")


def _key(key) -> str:
    if isinstance(key, Enum):
        return str(key.value)
    return str(key)


def export_result(path: str | Path, result, indent: int = 2) -> Path:
    """Serialise one experiment result to a JSON file; returns the path."""
    path = Path(path)
    payload = to_jsonable(result)
    path.write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n")
    return path


def jsonl_text(records, meta=None) -> str:
    """Records as deterministic JSONL text, one sorted-key object per line.

    An optional ``meta`` dict comes first as a ``{"record": "meta", ...}``
    line, mirroring telemetry exports.
    """
    lines = []
    if meta is not None:
        lines.append({"record": "meta", **to_jsonable(meta)})
    lines.extend(records)
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def allocation_records(manager) -> list[dict]:
    """The resource manager's allocation timeline as JSONL-ready records.

    Each :class:`~repro.cluster.resource_manager.AllocationEvent` becomes a
    ``{"record": "allocation", ...}`` dict, the machine-allocation history
    the paper plots in Figure 3 — collected since PR 1 but never surfaced.
    """
    return [
        {
            "record": "allocation",
            "timestamp": event.timestamp,
            "app": event.app,
            "action": event.action,
            "server": event.server,
            "replica": event.replica,
            "replica_count": event.replica_count,
        }
        for event in manager.history
    ]


def export_allocation_history(path: str | Path, manager) -> Path:
    """Write the allocation timeline as JSONL; returns the path."""
    path = Path(path)
    path.write_text(jsonl_text(allocation_records(manager)))
    return path


def export_quality(path: str | Path, reports, meta=None) -> Path:
    """Write detection-quality reports as deterministic JSONL.

    ``reports`` is an iterable of :class:`repro.analysis.quality.QualityReport`;
    each becomes one ``{"record": "quality", ...}`` line (the shape
    ``repro obs report`` renders).  An optional ``meta`` dict is written
    first as a ``{"record": "meta", ...}`` line, mirroring telemetry
    exports.
    """
    from .quality import quality_records

    path = Path(path)
    records = [
        record for report in reports for record in quality_records(report)
    ]
    path.write_text(jsonl_text(records, meta))
    return path


def forecast_records(records) -> list[dict]:
    """Forecast decision records as JSONL-ready dicts.

    ``records`` is an iterable of :class:`repro.forecast.ForecastRecord`
    (e.g. ``engine.records``); each becomes one ``{"record": "forecast",
    ...}`` dict — the per-interval prediction, the act-ahead policy's
    verdict, and (once its window closed) the real outcome.
    """
    return [
        {
            "record": "forecast",
            "interval": record.interval,
            "app": record.app,
            "horizon": record.horizon,
            "predicted_latency": round(record.predicted_latency, 6),
            "threshold": round(record.threshold, 6),
            "confidence": round(record.confidence, 6),
            "decision": record.decision,
            "acted": record.acted,
            "seed": record.seed,
            "outcome": record.outcome,
        }
        for record in records
    ]


def export_forecast(path: str | Path, records, meta=None) -> Path:
    """Write forecast records as deterministic JSONL; returns the path.

    An optional ``meta`` dict is written first as a ``{"record": "meta",
    ...}`` line, mirroring telemetry and quality exports; the result is
    the artifact ``repro obs report`` renders and CI uploads.
    """
    path = Path(path)
    path.write_text(jsonl_text(forecast_records(records), meta))
    return path


def export_telemetry(path: str | Path, observability, meta=None) -> Path:
    """Write an instrumented run's telemetry as deterministic JSONL.

    Thin front door over :func:`repro.obs.export.write_telemetry` so that
    every export lives under ``repro.analysis``; imported lazily because
    ``repro.obs.report`` renders through this package's tables.
    """
    from ..obs.export import write_telemetry

    return write_telemetry(path, observability, meta=meta)
