"""Where the benchmark attaches to the program, from outside.

Everything here wraps public names of ``repro`` — methods on
``LRUBufferPool``/``PartitionedBufferPool``, ``QueryClass``,
``RandomStream``, ``Scheduler``, ``ClosedLoopDriver``, ``EventLoop``,
``ClusterController``, ``ForecastEngine`` and ``ControlPlaneSupervisor``,
and the functions ``stack_distances``, ``diagnose``, the three planner
entry points and ``run_zoo`` — and restores them afterwards.  No program
source is changed.

* :class:`Probe` is always installed.  It times each measurement interval
  (first data-plane call to the end of ``close_interval`` plus any
  checkpoint), each ``close_interval`` on its own, and counts simulated
  queries, SLA misses and zoo detection quality.  It adds a few calls per
  interval, so it is what "tracing off" means.
* :data:`LAYERS` lists the boundaries the traced run records as spans.
* :class:`Counters` reads the program's public counters during the traced
  run: pool hits and evictions, pages generated, MRC work, read retries,
  checkpoints and plans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

LAYERS: dict[str, tuple[str, ...]] = {
    "engine.bufferpool.access_many": (
        "repro.engine.bufferpool:LRUBufferPool.access_many",
        "repro.engine.bufferpool:PartitionedBufferPool.access_many",
    ),
    "engine.bufferpool.prefetch_many": (
        "repro.engine.bufferpool:LRUBufferPool.prefetch_many",
        "repro.engine.bufferpool:PartitionedBufferPool.prefetch_many",
    ),
    "engine.query.execute_pages": ("repro.engine.query:QueryClass.execute_pages",),
    "sim.rng.choice": ("repro.sim.rng:RandomStream.choice",),
    "cluster.scheduler.submit": ("repro.cluster.scheduler:Scheduler.submit",),
    "cluster.scheduler.drain_pending": (
        "repro.cluster.scheduler:Scheduler.drain_pending",
    ),
    "cluster.scheduler.catch_up": ("repro.cluster.scheduler:Scheduler.catch_up",),
    "core.mrc.stack_distances": ("repro.core.mrc:stack_distances",),
    "core.controller.close_interval": (
        "repro.core.controller:ClusterController.close_interval",
    ),
    "core.diagnosis.diagnose": ("repro.core.diagnosis:diagnose",),
    "planner.build_snapshot": ("repro.planner:build_snapshot",),
    "planner.search_plan": ("repro.planner:search_plan",),
    "planner.validate_plan": ("repro.planner:validate_plan",),
    "forecast.observe_interval": (
        "repro.forecast.engine:ForecastEngine.observe_interval",
    ),
    "forecast.consider": ("repro.forecast.engine:ForecastEngine.consider",),
    "recovery.maybe_checkpoint": (
        "repro.recovery.supervisor:ControlPlaneSupervisor.maybe_checkpoint",
    ),
    "workloads.clients.run_interval": (
        "repro.workloads.clients:ClosedLoopDriver.run_interval",
    ),
    "sim.events.run_until": ("repro.sim.events:EventLoop.run_until",),
}
"""Per-layer metric prefix → the program names whose calls are its spans."""

ROOT_SPAN = "run.instance"
"""Span around each whole instance; its self time is what no layer claims."""

_RUN_UNTIL = "repro.sim.events:EventLoop.run_until"
_RUN_INTERVAL = "repro.workloads.clients:ClosedLoopDriver.run_interval"
_CLOSE = "repro.core.controller:ClusterController.close_interval"
_CHECKPOINT = "repro.recovery.supervisor:ControlPlaneSupervisor.maybe_checkpoint"
_RUN_ZOO = "repro.experiments.zoo:run_zoo"


def import_program() -> None:
    """Import every module a target lives in, so lazily imported layers
    (planner, forecast, recovery) are loaded, and patched, before timing;
    and ``forecast_eval``, which holds its own reference to ``run_zoo``."""
    targets = [t for group in LAYERS.values() for t in group] + [_RUN_ZOO]
    for target in targets:
        importlib.import_module(target.split(":")[0])
    importlib.import_module("repro.experiments.forecast_eval")


class Patcher:
    """Replaces program names with wrappers; :meth:`restore` undoes it."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make) -> None:
        """Replace ``module:Class.method`` or ``module:function`` by
        ``make(original)``.  A function is replaced in every loaded
        ``repro`` module that imported it by name."""
        module_name, qualname = target.split(":")
        module = sys.modules[module_name]
        if "." in qualname:
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, original, make(original))
            return
        original = getattr(module, qualname)
        replacement = make(original)
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and getattr(loaded, qualname, None) is original:
                self._set(loaded, qualname, original, replacement)

    def _set(self, owner, attr, original, replacement) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install_spans(patcher: Patcher, tracer) -> None:
    for name, targets in LAYERS.items():
        for target in targets:
            patcher.wrap(target, functools.partial(tracer.wrap, name))


class Probe:
    """The always-on interval, decision, query and quality record.

    With a ``tick`` (a host-speed calibration returning ms), it runs one
    after every recorded interval, outside the interval's timing, and keeps
    the readings in ``tick_ms``.
    """

    def __init__(self, tick=None) -> None:
        self.tick = tick
        self.tick_ms: list[float] = []
        self.interval_ms: list[float] = []
        self.decide_ms: list[float] = []
        self.queries = 0
        self.sla_misses = 0
        self.f1: list[float] = []
        self.checkpoints = 0
        self._opened: float | None = None  # first data-plane call
        self._closed: float | None = None  # end of close (+ checkpoint)

    def finish_interval(self) -> None:
        """Record the interval in progress if it closed; drop it otherwise."""
        if self._opened is not None and self._closed is not None:
            self.interval_ms.append((self._closed - self._opened) * 1e3)
            if self.tick is not None:
                self.tick_ms.append(self.tick())
        self._opened = self._closed = None

    def _data_plane(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self._closed is not None:
                self.finish_interval()
            if self._opened is None:
                self._opened = time.perf_counter()
            return fn(*args, **kwargs)

        return wrapped

    def _count_queries(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            submitted = fn(*args, **kwargs)
            self.queries += submitted
            return submitted

        return wrapped

    def _close(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            reports = fn(*args, **kwargs)
            self._closed = time.perf_counter()
            self.decide_ms.append((self._closed - start) * 1e3)
            self.sla_misses += sum(1 for report in reports if not report.sla_met)
            return reports

        return wrapped

    def _checkpoint(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            checkpoint = fn(*args, **kwargs)
            if self._closed is not None:
                self._closed = time.perf_counter()
            if checkpoint is not None:
                self.checkpoints += 1
            return checkpoint

        return wrapped

    def _zoo(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.f1.append(result.quality.f1)
            return result

        return wrapped

    def install(self, patcher: Patcher) -> None:
        patcher.wrap(_RUN_INTERVAL, self._count_queries)
        for target in (_RUN_UNTIL, _RUN_INTERVAL):
            patcher.wrap(target, self._data_plane)
        patcher.wrap(_CLOSE, self._close)
        patcher.wrap(_CHECKPOINT, self._checkpoint)
        patcher.wrap(_RUN_ZOO, self._zoo)


class Counters:
    """Counts read at the layer boundaries during the traced run."""

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.evictions = 0
        self.pages = 0
        self.trace_pages = 0
        self.read_retries = 0
        self.plans = 0
        self.mrc_hits = 0
        self.mrc_misses = 0
        self.recomputations = 0
        self.forecast_plans = 0
        self._pool_depth = 0
        # Per controller, its counter totals at its last close; each close
        # adds the increase, so nothing is lost when a harness is dropped.
        self._last: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _pool(self, fn, counts_hits: bool):
        @functools.wraps(fn)
        def wrapped(pool, page_ids, *args, **kwargs):
            if self._pool_depth:  # a partition under a partitioned pool
                return fn(pool, page_ids, *args, **kwargs)
            before = pool.total_evictions
            self._pool_depth += 1
            try:
                result = fn(pool, page_ids, *args, **kwargs)
            finally:
                self._pool_depth -= 1
            self.evictions += pool.total_evictions - before
            if counts_hits:
                self.accesses += len(page_ids)
                self.hits += result
            return result

        return wrapped

    def _execute_pages(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            access = fn(*args, **kwargs)
            self.pages += access.total_pages
            return access

        return wrapped

    def _stack_distances(self, fn):
        @functools.wraps(fn)
        def wrapped(trace, *args, **kwargs):
            self.trace_pages += len(trace)
            return fn(trace, *args, **kwargs)

        return wrapped

    def _mark_down(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            reason = kwargs.get("reason", args[3] if len(args) > 3 else "")
            if reason == "read-failed":
                self.read_retries += 1
            return fn(*args, **kwargs)

        return wrapped

    def _search_plan(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.plans += 1
            return fn(*args, **kwargs)

        return wrapped

    def _close(self, fn):
        @functools.wraps(fn)
        def wrapped(controller, *args, **kwargs):
            reports = fn(controller, *args, **kwargs)
            analyzers = controller.analyzers()
            now = (
                sum(a.mrc_cache.hits for a in analyzers),
                sum(a.mrc_cache.misses for a in analyzers),
                sum(a.mrc.recomputations for a in analyzers),
                controller.forecaster.stats()["plans_applied"]
                if controller.forecaster is not None else 0,
            )
            last = self._last.get(controller, (0, 0, 0, 0))
            self.mrc_hits += now[0] - last[0]
            self.mrc_misses += now[1] - last[1]
            self.recomputations += now[2] - last[2]
            self.forecast_plans += now[3] - last[3]
            self._last[controller] = now
            return reports

        return wrapped

    def install(self, patcher: Patcher) -> None:
        for cls in ("LRUBufferPool", "PartitionedBufferPool"):
            patcher.wrap(
                f"repro.engine.bufferpool:{cls}.access_many",
                functools.partial(self._pool, counts_hits=True),
            )
            patcher.wrap(
                f"repro.engine.bufferpool:{cls}.prefetch_many",
                functools.partial(self._pool, counts_hits=False),
            )
        patcher.wrap("repro.engine.query:QueryClass.execute_pages", self._execute_pages)
        patcher.wrap("repro.core.mrc:stack_distances", self._stack_distances)
        patcher.wrap("repro.cluster.scheduler:Scheduler.mark_down", self._mark_down)
        patcher.wrap("repro.planner:search_plan", self._search_plan)
        patcher.wrap(_CLOSE, self._close)
