"""The repo benchmark: seeded workloads timing the simulator and controller.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: ``noisy_neighbour``, ``write_burst``, ``forecast_eval`` (see
``perfbench/README.md``).  A run executes the workload's instances for
``--seed`` in this one process, checks every artefact, prints a table of
every metric with its unit and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, host times scaled by a calibration tick
taken between intervals; with ``--trace 1`` every instance runs traced (the
first one also untraced, for the overhead) and the metrics are the
per-layer split, the counters and the tracing overhead.  The exit code is 0
when the run completed, even if an artefact check failed (that shows as
``correct: false``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import (  # noqa: E402
    LAYERS,
    ROOT_SPAN,
    Counters,
    Patcher,
    Probe,
    import_program,
    install_spans,
)
from scenarios import (  # noqa: E402
    WORKLOADS,
    Instance,
    check_artefact,
    check_raised,
    instances,
    load_references,
    run_instance,
)
from spans import SpanTracer, self_times  # noqa: E402

SETUP_PROBES = 5
SPAN_DIR = HERE / "out"


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


REFERENCE_TICK_MS = 2.0
"""Calibration tick of the reference host (2-core x86 sandbox, fast
period).  Gated host times are scaled to a host with this tick."""

TICK_EXPONENT = 0.75
"""How strongly host times follow the tick: over 20 runs of two workloads,
log host time against log tick had slope 0.70-0.78 (correlation 0.95+),
so times are scaled by ``(REFERENCE_TICK_MS / tick) ** TICK_EXPONENT``."""

_TICK_VALUES = np.random.default_rng(0).random(2_000)


def calibration_tick() -> float:
    """Host ms of a fixed pure-Python + numpy loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
    np.sort(_TICK_VALUES * 1.0001)
    return (time.perf_counter() - start) * 1e3


class _FirstInterval(Exception):
    pass


def setup_probe(workload: str, seed: int) -> int:
    """Child-process mode: set up like a run, print CLOCK_MONOTONIC at the
    first simulated interval, stop there."""
    import_program()

    def stop(_fn):
        def first_interval(*_args, **_kwargs):
            print(time.monotonic(), flush=True)
            raise _FirstInterval

        return first_interval

    patcher = Patcher()
    patcher.wrap("repro.sim.events:EventLoop.run_until", stop)
    try:
        run_instance(workload, instances(workload, seed, 0)[0])
    except _FirstInterval:
        return 0
    return 1


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its first interval, and
    calibration ticks taken between the probes."""
    samples, ticks = [], []
    for _ in range(SETUP_PROBES):
        command = [sys.executable, str(Path(__file__)), "--setup-probe",
                   "--workload", workload, "--seed", str(seed)]
        start = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
        ticks += [calibration_tick() for _ in range(3)]
    return samples, ticks


@dataclass
class Pass:
    """Instances run one way: untraced (the probe only) or traced."""

    traced: bool
    probe: Probe = field(init=False)
    walls: list[float] = field(default_factory=list)
    """Host seconds of each instance, calibration ticks excluded."""
    attempted: int = 0
    failed: int = 0
    """Instances that raised or departed from their reference."""
    incorrect: int = 0
    """Instances that did not behave as recorded at the reference commit."""
    failures: list[str] = field(default_factory=list)
    tracer: SpanTracer | None = None
    counters: Counters | None = None

    def __post_init__(self) -> None:
        # Only untraced passes calibrate: ticks inside spans would count
        # as unattributed time.
        self.probe = Probe(tick=None if self.traced else calibration_tick)
        if self.traced:
            self.tracer, self.counters = SpanTracer(), Counters()

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    def run(self, workload: str, instance: Instance, references: dict) -> None:
        """Run and check one instance.  An exception or a departure from
        the references counts as a failure and the run goes on; only an
        outcome other than the recorded one makes the run incorrect."""
        patcher = Patcher()
        call = run_instance
        if self.traced:
            install_spans(patcher, self.tracer)
            self.counters.install(patcher)
            self.tracer.run_id = self.attempted
            call = self.tracer.wrap(ROOT_SPAN, run_instance)
        self.probe.install(patcher)
        self.attempted += 1
        ticks = len(self.probe.tick_ms)
        start = time.perf_counter()
        raised = None
        try:
            artefact = call(workload, instance)
        except Exception as exc:
            raised = exc
        finally:
            self.probe.finish_interval()
            tick_s = sum(self.probe.tick_ms[ticks:]) / 1e3
            self.walls.append(time.perf_counter() - start - tick_s)
            patcher.restore()
        if raised is None:
            problems = check_artefact(workload, instance, artefact, references)
        else:
            problems = check_raised(workload, instance, raised, references)
            if not problems:
                self.failures.append(
                    f"{instance.key}: raised {type(raised).__name__}: "
                    f"{raised} (as recorded: a known defect)")
        self.failed += raised is not None or bool(problems)
        self.incorrect += bool(problems)
        self.failures.extend(f"{instance.key}: {p}" for p in problems)


def end_to_end(measured: Pass, setup: list[float],
               setup_ticks: list[float]) -> tuple[list[tuple], list[tuple]]:
    """(name, value, unit, samples) rows of the untraced run, and the
    unscaled ``raw.*`` rows.

    Host times are scaled by the median tick taken during the same work
    (see ``TICK_EXPONENT``), which takes the host's speed of the moment out
    of them.
    """
    probe = measured.probe
    intervals, decides = probe.interval_ms, probe.decide_ms
    raw = [
        ("setup_s", statistics.median(setup), "s", len(setup), setup_ticks),
        ("sim_queries_per_s", probe.queries / measured.wall_s, "1/s",
         probe.queries, probe.tick_ms),
        ("interval_ms_p50", percentile(intervals, 0.5), "ms", len(intervals),
         probe.tick_ms),
        ("interval_ms_p90", percentile(intervals, 0.9), "ms", len(intervals),
         probe.tick_ms),
        ("decide_ms_p50", percentile(decides, 0.5), "ms", len(decides),
         probe.tick_ms),
        ("decide_ms_p90", percentile(decides, 0.9), "ms", len(decides),
         probe.tick_ms),
    ]
    rows = []
    for name, value, unit, samples, ticks in raw:
        scale = (REFERENCE_TICK_MS / statistics.median(ticks)) ** TICK_EXPONENT
        rows.append((name, value / scale if unit == "1/s" else value * scale,
                     unit, samples))
    rows.append(("peak_rss_mb",
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1))
    return rows, [(f"raw.{name}", value, unit, samples)
                  for name, value, unit, samples, _ in raw]


def outcomes(passes: list[Pass]) -> list[tuple]:
    """Simulated outcome rows: deterministic for a seed, and pinned exactly
    by the artefact check, so they need no bound of their own."""
    probe = passes[-1].probe
    attempted = sum(p.attempted for p in passes)
    return [
        ("sla_violation_intervals", probe.sla_misses, "count", len(probe.decide_ms)),
        ("detection_f1", statistics.fmean(probe.f1) if probe.f1 else 0.0,
         "ratio", len(probe.f1)),
        ("error_share", sum(p.failed for p in passes) / attempted, "ratio", attempted),
    ]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(untraced: Pass, traced: Pass) -> list[tuple]:
    """(name, value, unit, samples) rows of the traced run; ``untraced``
    ran the first instance without spans, for the tracing overhead."""
    wall = traced.wall_s
    totals = self_times(traced.tracer)
    rows = []
    for layer in LAYERS:
        calls, seconds = totals.get(layer, (0, 0.0))
        rows += [
            (f"{layer}.calls", calls, "count", calls),
            (f"{layer}.self_s", seconds, "s", calls),
            (f"{layer}.share", _ratio(seconds, wall), "ratio", calls),
        ]
    _, unattributed = totals.get(ROOT_SPAN, (0, 0.0))
    c, probe = traced.counters, traced.probe
    rows += [
        ("unattributed.self_s", unattributed, "s", traced.attempted),
        ("unattributed.share", _ratio(unattributed, wall), "ratio", traced.attempted),
        ("engine.bufferpool.accesses", c.accesses, "count", c.accesses),
        ("engine.bufferpool.hit_ratio", _ratio(c.hits, c.accesses), "ratio", c.accesses),
        ("engine.bufferpool.evictions", c.evictions, "count", c.evictions),
        ("run.queries", probe.queries, "count", probe.queries),
        ("engine.pages_per_query", _ratio(c.pages, probe.queries), "pages/query",
         probe.queries),
        ("core.mrc.trace_pages", c.trace_pages, "count", c.trace_pages),
        ("core.mrc.cache_lookups", c.mrc_hits + c.mrc_misses, "count",
         c.mrc_hits + c.mrc_misses),
        ("core.mrc.cache_hit_ratio", _ratio(c.mrc_hits, c.mrc_hits + c.mrc_misses),
         "ratio", c.mrc_hits + c.mrc_misses),
        ("core.mrc.recomputations", c.recomputations, "count", c.recomputations),
        ("cluster.scheduler.read_retries", c.read_retries, "count", c.read_retries),
        ("recovery.checkpoints", probe.checkpoints, "count", probe.checkpoints),
        ("planner.plans", c.plans, "count", c.plans),
        ("forecast.plans", c.forecast_plans, "count", c.forecast_plans),
        ("run.instances", traced.attempted, "count", traced.attempted),
        ("run.intervals", len(probe.interval_ms), "count", len(probe.interval_ms)),
        ("run.wall_s", wall, "s", traced.attempted),
        ("trace.spans", len(traced.tracer), "count", len(traced.tracer)),
        ("trace.overhead_ratio",
         _ratio(traced.walls[0], untraced.walls[0]),
         "ratio", 1),
    ]
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    try:
        import_program()
    except ModuleNotFoundError as exc:
        print(f"cannot import the program from {HERE.parent / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    references = load_references()
    planned = instances(args.workload, args.seed, args.seconds)
    measured = Pass(traced=bool(args.trace))
    passes = [measured]
    if args.trace:
        # The first instance also runs untraced, just before its traced
        # run, for the tracing overhead.
        passes.insert(0, Pass(traced=False))
        passes[0].run(args.workload, planned[0], references)
    for instance in planned:
        measured.run(args.workload, instance, references)
    ticks = passes[0].probe.tick_ms
    calib = ("host.calib_ms", statistics.median(ticks), "ms", len(ticks))
    if args.trace:
        reported = per_layer(passes[0], measured) + outcomes(passes) + [calib]
        extra = []
        out = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        measured.tracer.write(out)
        print(f"spans written to {out.relative_to(HERE.parent)}")
    else:
        reported, raw = end_to_end(measured, *measure_setup(args.workload, args.seed))
        extra = raw + outcomes(passes) + [calib]

    print(f"workload {args.workload}  seed {args.seed}  instances "
          f"{[i.key for i in planned]}  trace {args.trace}")
    for line in (line for p in passes for line in p.failures):
        print(f"FAILED {line}")
    print(f"{'metric':44s} {'value':>14s}  {'unit':11s} samples")
    for name, value, unit, samples in reported + extra:
        print(f"{name:44s} {value:14.6g}  {unit:11s} {samples}")
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in reported}
    print(json.dumps({
        "correct": not any(p.incorrect for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
