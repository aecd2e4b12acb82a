"""Tests of the benchmark itself: its counts repeat, tracing leaves the
simulation alone, and the output check catches wrong outputs.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import repro.faults.campaign as campaign_module
from perfbench import run, workloads
from repro.harness.bench import run_bench
from repro.metrics.cycles import ARM_COSTS

from conftest import ROOT

#: Per-layer metrics that are counts: they must repeat exactly.
COUNT_METRICS = ("sim.cycles", "sim.traps", "arch.dispatch.resolutions",
                 "core.neve_transitions", "faults.recoveries",
                 "analysis.sanitizer.checks", "fleet.retries")


def traced(workload):
    tally = run.Tally()
    workload.prepare()
    metrics, _ = run.measure_traced(workload, 0, tally)
    assert tally.failed == 0, tally.problems
    return metrics


def counts(metrics):
    return {name: value for name, value in metrics.items()
            if name.endswith(".calls") or name in COUNT_METRICS}


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Two campaigns per cycle, two machines per fleet run."""
    monkeypatch.setattr(workloads, "CAMPAIGN_SEEDS", 2)
    monkeypatch.setattr(workloads, "FLEET_MACHINES", 2)


@pytest.mark.parametrize("workload", ["campaign", "fleet"])
def test_counts_repeat_and_tracing_keeps_the_simulation(small, workload):
    def make():
        return workloads.make(workload, ROOT, workloads.DEFAULT_SEED)

    first, second = traced(make()), traced(make())
    assert counts(first) == counts(second)
    assert first["arch.sysreg_access.calls"] > 0
    untraced = make()
    untraced.prepare()
    sims = [untraced.sim(untraced.op(index))
            for index in range(untraced.cycle)]
    assert first["sim.cycles"] == sum(c for c, _ in sims) / len(sims)
    assert first["sim.traps"] == sum(t for _, t in sims) / len(sims)


def test_traced_metrics_are_the_per_layer_metrics(small):
    metrics = traced(workloads.Campaign(ROOT, workloads.DEFAULT_SEED))
    reported = run.report_traced(metrics)
    declared = {entry["name"]: entry["unit"]
                for entry in benchmark_json()["per_layer"]}
    assert {name: unit for name, (_, unit) in reported.items()} == declared


def test_untraced_metrics_are_the_end_to_end_metrics():
    workload = workloads.Campaign(ROOT, workloads.DEFAULT_SEED)
    tally = run.Tally()
    tally.attempted = 2
    speed = run.HostSpeed()
    speed.samples = [0.003, 0.004]
    metrics, _ = run.report_untraced(
        workload, [(0.2, 0.1), (0.3, 0.2)],
        [(10**6, 5 * 10**5, 5000), (2 * 10**6, 10**6, 7000)], 2,
        run.peak_rss_mb(), tally, speed)
    declared = {entry["name"]: entry["unit"]
                for entry in benchmark_json()["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())


def test_host_speed_scales_by_the_timings_around_an_interval():
    speed = run.HostSpeed()
    at_reference = run.SAMPLE_ITERATIONS * run.REFERENCE_ITERATION_S
    speed.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    speed.samples = [at_reference, at_reference, 2 * at_reference,
                     2 * at_reference, 4 * at_reference]
    # Timings at 2.0 (inside) and 1.0, 3.0 (nearest outside): speeds
    # 1, 0.5 and 0.5; 0.1 s of the interval went to sampling.
    start, end = (1.5, 0.0), (2.5, 0.1)
    assert speed.raw(start, end) == pytest.approx(0.9)
    assert speed.scaled(start, end) == pytest.approx(0.9 * 2 / 3)


@pytest.mark.parametrize("in_workers", [False, True])
def test_host_speed_samples_while_entered_and_then_stops(in_workers):
    before = signal.getsignal(signal.SIGALRM)
    cpus = os.sched_getaffinity(0)
    with run.HostSpeed(in_workers) as speed:
        started = time.perf_counter()
        while time.perf_counter() - started < 3.5 * run.SAMPLE_EVERY_S:
            pass
    count = len(speed.samples)
    assert count >= 4
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.spent > 0
    assert os.sched_getaffinity(0) == cpus


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    values = list(range(1, 65))
    label, value = run.tail(values)
    assert label == "p84"
    assert sum(1 for v in values if v > value) == 10


def test_sweep_check_passes_and_trips_on_a_perturbed_cost_model():
    sweep = workloads.Sweep(ROOT, workloads.DEFAULT_SEED)
    sweep.prepare()
    assert sweep.check(0, sweep.op(0)) == []
    perturbed = dataclasses.replace(ARM_COSTS,
                                    trap_entry=ARM_COSTS.trap_entry + 1)
    problems = sweep.check(0, run_bench(arm_costs=perturbed))
    assert any("results differ" in problem for problem in problems)


def test_campaign_check_trips_on_a_perturbed_cost_model(small, monkeypatch):
    campaign = workloads.Campaign(ROOT, workloads.DEFAULT_SEED)
    campaign.prepare()
    assert campaign.check(0, campaign.op(0)) == []
    monkeypatch.setattr(campaign_module, "ARM_COSTS", dataclasses.replace(
        ARM_COSTS, trap_entry=ARM_COSTS.trap_entry + 1))
    campaign = workloads.Campaign(ROOT, workloads.DEFAULT_SEED)
    campaign.prepare()
    problems = campaign.check(0, campaign.op(0))
    assert any("differs from the recorded" in problem
               for problem in problems)


def test_campaign_check_trips_on_a_tampered_digest(small):
    campaign = workloads.Campaign(ROOT, workloads.DEFAULT_SEED)
    campaign.prepare()
    campaign.expected = ["0" * 64]
    problems = campaign.check(0, campaign.op(0))
    assert any("differs from the recorded" in problem
               for problem in problems)


def test_fleet_check_passes_and_trips_on_a_tampered_digest():
    fleet = workloads.Fleet(ROOT, workloads.DEFAULT_SEED)
    fleet.prepare()
    outcome = fleet.op(0)
    assert fleet.check(0, outcome) == []
    fleet.expected = dict(fleet.expected, digest="0" * 64)
    problems = fleet.check(0, outcome)
    assert any("fleet digest" in problem for problem in problems)


def test_fails_cleanly_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
