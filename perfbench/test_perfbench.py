"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q

No simulation runs here: the output check is exercised on the committed
baseline artefact, the tracer on hand-built spans.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import LAYERS, Patcher, Probe  # noqa: E402
from run import Pass, end_to_end, outcomes, per_layer  # noqa: E402
from scenarios import (  # noqa: E402
    BASELINE_DIR,
    WORKLOADS,
    Instance,
    artefact_digest,
    check_artefact,
    instances,
    load_references,
    pooled_instances,
)
from spans import SpanTracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _span(tracer: SpanTracer, name: str, start: float, end: float,
          parent: int = -1) -> int:
    index = len(tracer)
    tracer.name_id.append(tracer._intern(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    tracer.run.append(0)
    return index


class TestSelfTime:
    def test_nested_spans(self):
        tracer = SpanTracer()
        root = _span(tracer, "root", 0.0, 10.0)
        a = _span(tracer, "a", 1.0, 4.0, root)
        _span(tracer, "b", 2.0, 3.0, a)
        _span(tracer, "c", 5.0, 9.0, root)
        totals = self_times(tracer)
        assert totals["root"] == (1, pytest.approx(3.0))
        assert totals["a"] == (1, pytest.approx(2.0))
        assert totals["b"] == (1, pytest.approx(1.0))
        assert totals["c"] == (1, pytest.approx(4.0))
        assert sum(s for _, s in totals.values()) == pytest.approx(10.0)

    def test_same_name_nesting_is_one_call(self):
        tracer = SpanTracer()
        outer = _span(tracer, "pool", 0.0, 2.0)
        _span(tracer, "pool", 0.5, 1.5, outer)
        assert self_times(tracer)["pool"] == (1, pytest.approx(2.0))

    def test_overlapping_children_are_covered_once(self):
        tracer = SpanTracer()
        root = _span(tracer, "root", 0.0, 10.0)
        _span(tracer, "x", 1.0, 5.0, root)
        _span(tracer, "y", 3.0, 7.0, root)
        assert self_times(tracer)["root"] == (1, pytest.approx(4.0))

    def test_wrap_records_parent(self):
        tracer = SpanTracer()
        inner = tracer.wrap("inner", lambda: 1)
        outer = tracer.wrap("outer", lambda: inner() + 1)
        assert outer() == 2
        assert list(tracer.parent) == [-1, 0]
        assert tracer.end[0] >= tracer.end[1] >= tracer.start[1] >= tracer.start[0]


class TestOutputCheck:
    @pytest.fixture
    def committed(self):
        baseline = json.loads((BASELINE_DIR / "BENCH_zoo_write_burst.json").read_text())
        return baseline["artefact"]

    def test_committed_artefact_passes(self, committed):
        assert check_artefact("write_burst", Instance(7), committed,
                              load_references()) == []

    def test_perturbed_artefact_is_flagged(self, committed):
        perturbed = copy.deepcopy(committed)
        perturbed["quality"]["f1"] += 0.01
        problems = check_artefact("write_burst", Instance(7), perturbed,
                                  load_references())
        assert any("baseline drift quality.f1" in p for p in problems)
        assert any("digest mismatch" in p for p in problems)

    def test_unrecorded_seed_is_flagged(self, committed):
        problems = check_artefact("write_burst", Instance(10_000), committed,
                                  load_references())
        assert problems == ["no reference digest for 10000"]

    def test_baseline_is_checked_only_at_planner_seed_0(self):
        committed = json.loads(
            (BASELINE_DIR / "BENCH_forecast_eval.json").read_text())["artefact"]
        references = load_references()
        assert check_artefact("forecast_eval", Instance(7), committed, references) == []
        problems = check_artefact("forecast_eval", Instance(7, 1), committed, references)
        assert problems == ["digest mismatch at 7:p1"]

    def test_every_pooled_instance_has_a_reference(self):
        references = load_references()
        for workload in WORKLOADS:
            assert sorted(references[workload]) == sorted(
                i.key for i in pooled_instances(workload))

    def test_digest_ignores_key_order(self, committed):
        reordered = dict(reversed(list(committed.items())))
        assert artefact_digest(reordered) == artefact_digest(committed)


def test_instances_are_deterministic_and_pooled():
    made = instances("write_burst", 7, 30)
    assert made == instances("write_burst", 7, 30)
    assert made[0] == Instance(7)
    assert instances("noisy_neighbour", 123, 1) == [Instance(123 % 16)]
    panel = [Instance(7), Instance(8), Instance(9)]
    assert instances("forecast_eval", 7, 1) == panel
    assert instances("forecast_eval", 7 + 10 * 5 + 3, 60) == [
        Instance(i.seed, 3) for i in panel]
    pooled = set(pooled_instances("forecast_eval"))
    assert all(set(instances("forecast_eval", s, 25)) <= pooled for s in range(40))


def test_patcher_restores_originals():
    import repro.core.mrc as mrc
    import repro.sim.rng as rng

    method = rng.RandomStream.__dict__["choice"]
    function = mrc.stack_distances
    patcher = Patcher()
    patcher.wrap("repro.sim.rng:RandomStream.choice", lambda fn: "patched")
    patcher.wrap("repro.core.mrc:stack_distances", lambda fn: "patched")
    assert rng.RandomStream.choice == "patched"
    assert mrc.stack_distances == "patched"
    patcher.restore()
    assert rng.RandomStream.__dict__["choice"] is method
    assert mrc.stack_distances is function


def _emitted_names() -> tuple[list[str], list[str]]:
    measured = Pass(traced=False)
    measured.walls = [1.0]
    measured.probe.interval_ms = [1.0, 2.0]
    measured.probe.decide_ms = [0.5]
    measured.probe.tick_ms = [2.0]
    e2e = [row[0] for row in end_to_end(measured, [0.5], [2.0])[0]]
    measured.attempted = 1
    traced = Pass(traced=True)
    traced.walls = [1.0]
    layer = [row[0] for row in per_layer(measured, traced) + outcomes([traced, measured])]
    layer.append("host.calib_ms")
    return e2e, layer


def test_metric_names_are_well_formed():
    e2e, layer = _emitted_names()
    for name in e2e + layer:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e + layer)


def test_benchmark_json_lists_what_the_run_prints():
    e2e, layer = _emitted_names()
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == e2e
    assert [m["name"] for m in BENCHMARK["per_layer"]] == layer
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    for prefix in LAYERS:
        assert f"{prefix}.self_s" in layer


def test_probe_interval_spans_data_plane_to_checkpoint():
    probe = Probe()
    probe._opened, probe._closed = 1.0, 1.25
    probe.finish_interval()
    assert probe.interval_ms == [pytest.approx(250.0)]
    probe._opened = 2.0  # opened but never closed: dropped
    probe.finish_interval()
    assert len(probe.interval_ms) == 1
