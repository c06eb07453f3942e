"""Unit tests for the benchmark baseline harness (no scenarios run).

The harness's job is to tell two kinds of drift apart: **artefact drift**
(the deterministic scenario computed something else — a hard failure) and
**timing drift** (the machine was slower — a warning).  These tests pin
the comparison logic, the canonical digest, the ``BENCH_<name>.json``
round-trip, and the ``repro bench`` driver's verdicts on synthetic runs and
a stand-in registry, so they cost milliseconds.
"""

import argparse
import json

import pytest

from repro.experiments import bench
from repro.experiments.bench import (
    BENCH_SCENARIOS,
    BenchRun,
    ScenarioOutcome,
    add_bench_arguments,
    artefact_digest,
    artefact_lines,
    baseline_path,
    compare_with_baseline,
    load_baseline,
    resolve_names,
    run_bench,
    run_bench_command,
    write_baseline,
)

RUN = BenchRun(
    name="demo",
    artefact={"latency": 0.5, "rows": [{"pool": 4096, "feasible": False}]},
    seconds=2.0,
)


def baseline_for(run: BenchRun) -> dict:
    return {
        "schema": 1,
        "name": run.name,
        "artefact": json.loads(json.dumps(run.artefact)),
        "timing": {"seconds": run.seconds},
    }


class TestResolveNames:
    def test_empty_selects_all_in_registry_order(self):
        assert resolve_names(None) == list(BENCH_SCENARIOS)

    def test_subset_keeps_registry_order(self):
        last, first = list(BENCH_SCENARIOS)[-1], list(BENCH_SCENARIOS)[0]
        assert resolve_names(f"{last},{first}") == [first, last]

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            resolve_names("no_such_scenario")


class TestDigest:
    def test_digest_is_stable(self):
        assert artefact_digest([RUN]) == artefact_digest([RUN])

    def test_digest_ignores_timing(self):
        slower = BenchRun(RUN.name, RUN.artefact, RUN.seconds * 10)
        assert artefact_digest([slower]) == artefact_digest([RUN])

    def test_digest_ignores_invariants_and_exports(self):
        noisy = BenchRun(
            RUN.name, RUN.artefact, RUN.seconds,
            failures=("latency too high",), exports={"x.jsonl": "{}\n"},
        )
        assert artefact_digest([noisy]) == artefact_digest([RUN])

    def test_digest_sees_artefact_changes(self):
        changed = BenchRun(RUN.name, {**RUN.artefact, "latency": 0.6}, RUN.seconds)
        assert artefact_digest([changed]) != artefact_digest([RUN])

    def test_lines_are_canonical_json(self):
        (line,) = artefact_lines([RUN])
        assert json.loads(line) == {"artefact": RUN.artefact, "name": "demo"}
        assert ": " not in line  # compact separators


class TestCompare:
    def test_identical_run_passes(self):
        comparison = compare_with_baseline(RUN, baseline_for(RUN))
        assert comparison.artefact_ok and comparison.timing_ok

    def test_float_noise_within_tolerance_passes(self):
        noisy = BenchRun(
            RUN.name,
            {**RUN.artefact, "latency": 0.5 * (1 + 1e-9)},
            RUN.seconds,
        )
        assert compare_with_baseline(noisy, baseline_for(RUN)).artefact_ok

    def test_float_drift_fails(self):
        drifted = BenchRun(RUN.name, {**RUN.artefact, "latency": 0.51}, RUN.seconds)
        comparison = compare_with_baseline(drifted, baseline_for(RUN))
        assert not comparison.artefact_ok
        assert any("latency" in line for line in comparison.drift)

    def test_structural_drift_fails_with_path(self):
        drifted = BenchRun(
            RUN.name,
            {"latency": 0.5, "rows": [{"pool": 4096, "feasible": True}]},
            RUN.seconds,
        )
        comparison = compare_with_baseline(drifted, baseline_for(RUN))
        assert any("rows[0].feasible" in line for line in comparison.drift)

    def test_missing_and_new_keys_fail(self):
        drifted = BenchRun(RUN.name, {"latency": 0.5, "extra": 1}, RUN.seconds)
        comparison = compare_with_baseline(drifted, baseline_for(RUN))
        assert any("extra" in line for line in comparison.drift)
        assert any("rows" in line for line in comparison.drift)

    def test_timing_drift_warns_but_artefact_ok(self):
        slow = BenchRun(RUN.name, RUN.artefact, RUN.seconds * 2)
        comparison = compare_with_baseline(slow, baseline_for(RUN))
        assert comparison.artefact_ok
        assert not comparison.timing_ok
        assert comparison.timing_ratio == pytest.approx(2.0)

    def test_timing_within_band_is_ok(self):
        near = BenchRun(RUN.name, RUN.artefact, RUN.seconds * 1.2)
        assert compare_with_baseline(near, baseline_for(RUN)).timing_ok


class TestBaselineFiles:
    def test_roundtrip(self, tmp_path):
        path = write_baseline(RUN, tmp_path)
        assert path == baseline_path(tmp_path, "demo")
        loaded = load_baseline(tmp_path, "demo")
        assert loaded["artefact"] == RUN.artefact
        assert loaded["timing"]["seconds"] == pytest.approx(RUN.seconds)
        assert compare_with_baseline(RUN, loaded).artefact_ok

    def test_missing_baseline_is_none(self, tmp_path):
        assert load_baseline(tmp_path, "demo") is None


def _passing() -> ScenarioOutcome:
    return ScenarioOutcome({"latency": 0.5}, [], {"log.jsonl": "{\"a\": 1}\n"})


def _failing() -> ScenarioOutcome:
    return ScenarioOutcome(
        {"latency": 2.0}, ["latency 2.0s above the SLA"],
        {"log.jsonl": "{\"b\": 2}\n"},
    )


class TestBenchCommand:
    """The driver over a two-entry stand-in registry, run serially."""

    @pytest.fixture
    def registry(self, monkeypatch, tmp_path):
        scenarios = {"passing": _passing, "failing": _failing}
        monkeypatch.setattr(bench, "BENCH_SCENARIOS", scenarios)
        for run in run_bench():
            write_baseline(run, tmp_path / "baselines")
        return tmp_path

    def command(self, tmp_path, *extra):
        parser = argparse.ArgumentParser()
        add_bench_arguments(parser)
        return run_bench_command(parser.parse_args(
            ["--check", "--baseline-dir", str(tmp_path / "baselines"), *extra]
        ))

    def test_run_carries_invariants_and_exports(self, registry):
        passing, failing = run_bench()
        assert passing.failures == () and failing.failures == (
            "latency 2.0s above the SLA",
        )
        assert passing.exports == {"log.jsonl": '{"a": 1}\n'}

    def test_failing_invariant_fails_check(self, registry, capsys):
        assert self.command(registry) == 1
        out = capsys.readouterr().out
        assert "FAILURE: failing: latency 2.0s above the SLA" in out
        assert "passing:" not in out.split("FAILURE", 1)[1]

    def test_passing_invariants_pass_check(self, registry, capsys):
        assert self.command(registry, "--only", "passing") == 0
        assert "FAILURE" not in capsys.readouterr().out

    def test_artefact_drift_fails_check(self, registry, capsys):
        baseline = load_baseline(registry / "baselines", "passing")
        baseline["artefact"]["latency"] = 0.6
        baseline_path(registry / "baselines", "passing").write_text(
            json.dumps(baseline)
        )
        assert self.command(registry, "--only", "passing") == 1
        assert "artefact drift" in capsys.readouterr().out

    def test_exports_land_in_fresh_dir(self, registry):
        fresh = registry / "fresh"
        self.command(registry, "--fresh-dir", str(fresh))
        assert (fresh / "BENCH_passing.json").exists()
        assert (fresh / "BENCH_failing.json").exists()
        # Exports sharing a file name concatenate in registry order.
        assert (fresh / "log.jsonl").read_text() == '{"a": 1}\n{"b": 2}\n'
