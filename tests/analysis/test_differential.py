"""The differential harness behind every run-twice gate.

``san-metrics-ledger``, ``san-profile-zero-cycles``,
``san-fastpath-parity``, ``san-fleet-merge`` and ``san-shared-state``
all build their runs with ``_scenario``, reduce each to an export
bundle (``exports`` / ``merge_exports``) and compare the bundles with
``differential``.  These tests prove the shared compare can fail: one
perturbed key is exactly one violation naming that key, and a compare
with nothing to compare is a failure, not a pass.
"""

import pytest

from repro.analysis.sanitizer import (
    SanitizerReport,
    _scenario,
    check_metrics_ledger,
    differential,
    exports,
    merge_exports,
)

MACHINE_KEYS = ("ledger_total", "cycle_breakdown", "trap_total",
                "trap_reasons", "metrics_json", "prometheus", "trace")
MERGE_KEYS = ("metrics_json", "prometheus", "digest", "trace")


@pytest.fixture(scope="module")
def bundles():
    from repro.fleet.merge import reference_merge
    from repro.fleet.plan import FleetPlan

    plan = FleetPlan.generate(0, 1, shard_size=1)
    return {"machine": exports(*_scenario("neve", 1)),
            "merge": merge_exports(reference_merge(plan, trace=True))}


def _perturbed(value):
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + " "
    return dict(value, perturbed=1)


def test_bundles_carry_every_key(bundles):
    assert tuple(bundles["machine"]) == MACHINE_KEYS
    assert tuple(bundles["merge"]) == MERGE_KEYS


def test_unobserved_bundle_has_only_the_machine_keys():
    machine, metrics, tracer = _scenario("neve", 1, observed=False)
    assert metrics is None and tracer is None
    assert tuple(exports(machine)) == MACHINE_KEYS[:4]


@pytest.mark.parametrize(
    "kind, key",
    [("machine", key) for key in MACHINE_KEYS]
    + [("merge", key) for key in MERGE_KEYS])
def test_one_perturbed_key_is_exactly_one_violation(bundles, kind, key):
    reference = bundles[kind]
    candidate = dict(reference)
    candidate[key] = _perturbed(reference[key])
    report = differential(SanitizerReport(), "san-test", "perturbed run",
                          reference, candidate)
    assert report.checks == len(reference)
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.rule == "san-test"
    assert key in violation.message


def test_identical_bundles_pass_one_check_per_key(bundles):
    report = differential(SanitizerReport(), "san-test", "same run",
                          bundles["machine"], dict(bundles["machine"]))
    assert report.passed
    assert report.checks == len(MACHINE_KEYS)


@pytest.mark.parametrize("reference, candidate", [
    ({}, {}),
    ({"ledger_total": 1}, {"ledger_total": 1, "trace": "{}"}),
    ({"ledger_total": 1, "trace": "{}"}, {"ledger_total": 1}),
], ids=["empty", "extra-candidate-key", "missing-candidate-key"])
def test_vacuous_compare_is_a_failing_check(reference, candidate):
    report = differential(SanitizerReport(), "san-test", "wiring slip",
                          reference, candidate)
    assert report.checks == 1
    assert len(report.violations) == 1
    assert "vacuous" in report.violations[0].message


def test_an_observer_that_charges_trips_metrics_ledger(monkeypatch):
    from repro.metrics.instrument import MachineMetrics

    attach = MachineMetrics.attach_machine

    def charging_attach(self, machine):
        result = attach(self, machine)
        machine.ledger.charge(1, "observer")
        return result

    monkeypatch.setattr(MachineMetrics, "attach_machine", charging_attach)
    report = check_metrics_ledger(hypercalls=1)
    assert not report.passed
    assert {f.rule for f in report.violations} == {"san-metrics-ledger"}
    assert any("ledger_total" in f.message for f in report.violations)
