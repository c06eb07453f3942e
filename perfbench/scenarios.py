"""The benchmark's workloads: which instances a run makes, one instance, the
output check.

A *workload* is one public entry point of the reproduction; an *instance*
is one call of it.  A run of a workload executes a fixed list of instances
derived from the benchmark seed, so the same ``--seed`` and ``--seconds``
always give the same inputs and the same simulated outputs.

* The zoo workloads walk a pool of scenario seeds from the benchmark seed.
* ``forecast_eval`` runs a fixed panel of scenario seeds, and the benchmark
  seed picks the planner and forecaster seed of every instance in it.  Its
  decision cost is a property of the scenario seed (on a 2-core x86 host,
  reproducibly 6.9 ms median close at seed 6 against 15.5 ms at seed 0),
  so a run of the three instances the time budget allows cannot average
  it out; a fixed panel keeps each run's mix of closes the same.

Every instance's artefact (the same JSON the bench registry commits) is
checked: at scenario seed 7 with planner seed 0 against the committed
``benchmarks/baselines/BENCH_*.json`` through ``compare_with_baseline``, and
always against the sha256 digest recorded in ``references.json`` (written
by ``record_refs.py``).  An instance that raised when the references were
recorded is stored as ``"error: <type>"``: raising that same exception
again matches the reference but still counts as a failed instance, so a
known defect shows in every run that meets it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
BASELINE_DIR = ROOT / "benchmarks" / "baselines"

BASELINE_SEED = 7
"""The scenario seed every committed baseline was produced with."""


@dataclass(frozen=True)
class Instance:
    """One call of a workload's entry point."""

    seed: int
    """Scenario seed."""
    planner_seed: int = 0
    """``ForecastEvalConfig.planner_seed`` (planner and forecaster seed);
    0 everywhere else."""

    @property
    def key(self) -> str:
        """Its name in ``references.json`` and in the run's output."""
        if self.planner_seed:
            return f"{self.seed}:p{self.planner_seed}"
        return str(self.seed)


@dataclass(frozen=True)
class Workload:
    name: str
    baseline: str
    """Bench-registry scenario whose committed baseline pins seed 7."""
    pool: int
    """Seeds ``0 .. pool-1`` have recorded reference digests: scenario
    seeds, or planner seeds for a workload with a ``panel``."""
    instance_seconds: float
    """Host seconds of one instance on the reference host (2-core x86,
    Python 3.11, numpy 2.4); sizes a run to ``--seconds`` without ever
    reading the clock, so the work is the same on every host."""
    panel: tuple[int, ...] = ()
    """Scenario seeds every run executes, whatever ``--seconds`` says."""


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("noisy_neighbour", "zoo_noisy_neighbour", 16, 24.0),
        Workload("write_burst", "zoo_write_burst", 48, 2.4),
        Workload("forecast_eval", "forecast_eval", 10, 19.0,
                 panel=(BASELINE_SEED, BASELINE_SEED + 1, BASELINE_SEED + 2)),
    )
}


def instances(workload: str, seed: int, seconds: float) -> list[Instance]:
    """The instances one run executes, in order.

    A workload with a panel runs it with planner seed
    ``(seed - 7) mod pool``.  Any other runs as many whole instances as fit
    in ``seconds`` at the reference cost (at least one), on scenario seeds
    taken consecutively from the pool starting at ``seed``.  Either way
    ``--seed 7`` starts at the committed baseline's own instance.
    """
    spec = WORKLOADS[workload]
    if spec.panel:
        planner_seed = (seed - BASELINE_SEED) % spec.pool
        return [Instance(s, planner_seed) for s in spec.panel]
    count = max(1, int(seconds // spec.instance_seconds))
    return [Instance((seed + offset) % spec.pool) for offset in range(count)]


def pooled_instances(workload: str) -> list[Instance]:
    """Every instance any run of ``workload`` can make."""
    spec = WORKLOADS[workload]
    if spec.panel:
        return [Instance(s, p) for p in range(spec.pool) for s in spec.panel]
    return [Instance(s) for s in range(spec.pool)]


def _enable_recovery(harness) -> None:
    harness.enable_recovery()


def run_instance(workload: str, instance: Instance) -> dict:
    """Run one instance through its public entry point; return the artefact
    exactly as the bench registry serialises it."""
    from repro.analysis.export import to_jsonable

    if workload == "forecast_eval":
        from repro.experiments.forecast_eval import (
            ForecastEvalConfig,
            forecast_eval_artefact,
            run_forecast_eval,
        )

        result = run_forecast_eval(ForecastEvalConfig(
            seed=instance.seed, planner_seed=instance.planner_seed))
        return to_jsonable(forecast_eval_artefact(result))

    from repro.experiments.zoo import run_zoo, zoo_artefact
    from repro.workloads.zoo import build_zoo_scenario

    scenario = build_zoo_scenario(workload, seed=instance.seed)
    if workload == "write_burst":
        # Control-plane checkpointing with the default RecoveryConfig,
        # installed through the scenario's public hook list.
        scenario.hooks.append((0, _enable_recovery))
    return to_jsonable(zoo_artefact(run_zoo(scenario)))


def artefact_digest(artefact: dict) -> str:
    blob = json.dumps(artefact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text())


def error_reference(exc: BaseException) -> str:
    return f"error: {type(exc).__name__}"


def check_raised(
    workload: str, instance: Instance, exc: BaseException, references: dict
) -> list[str]:
    """Empty when the references record this instance as raising ``exc``'s
    type."""
    expected = references.get(workload, {}).get(instance.key)
    if expected == error_reference(exc):
        return []
    return [f"raised {type(exc).__name__}: {exc} (reference: {expected})"]


def check_artefact(
    workload: str, instance: Instance, artefact: dict, references: dict
) -> list[str]:
    """Every way ``artefact`` departs from its references (empty = correct)."""
    from repro.experiments.bench import BenchRun, compare_with_baseline, load_baseline

    spec = WORKLOADS[workload]
    problems: list[str] = []
    if instance == Instance(BASELINE_SEED):
        baseline = load_baseline(BASELINE_DIR, spec.baseline)
        if baseline is None:
            problems.append(f"missing baseline BENCH_{spec.baseline}.json")
        else:
            run = BenchRun(name=spec.baseline, artefact=artefact, seconds=0.0)
            drift = compare_with_baseline(run, baseline).drift
            problems.extend(f"baseline drift {line}" for line in drift)
    expected = references.get(workload, {}).get(instance.key)
    if expected is None:
        problems.append(f"no reference digest for {instance.key}")
    elif expected != artefact_digest(artefact):
        problems.append(f"digest mismatch at {instance.key}")
    return problems
