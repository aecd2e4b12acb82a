"""MachineMetrics: migration parity, pulled counters, zero added
cycles, determinism."""

import pytest

from repro.analysis.sanitizer import (check_metrics_ledger,
                                      check_metrics_reconcile,
                                      run_metrics_checks)
from repro.faults.campaign import run_campaign
from repro.harness.configs import ALL_CONFIGS, make_microbench
from repro.hypervisor.kvm import Machine
from repro.metrics.counters import ExitReason, RecoveryEvent
from repro.metrics.instrument import MachineMetrics
from repro.metrics.registry import MetricsRegistry

ARM_CONFIGS = sorted(name for name, config in ALL_CONFIGS.items()
                     if config.platform == "arm")

#: A fault-campaign seed whose run takes seven kinds of recovery action.
RECOVERING_SEED = 0


def _run_suite(name, registry=None, iterations=3):
    suite = make_microbench(name, registry=registry)
    suite.run("hypercall", iterations)
    return suite


class TestMigrationParity:
    """The pulled families equal the counters they are served from."""

    @pytest.mark.parametrize("name", ARM_CONFIGS)
    def test_trap_counter_parity(self, name):
        registry = MetricsRegistry()
        suite = _run_suite(name, registry)
        machine = suite.machine
        traps = registry.get("repro_traps_total")
        assert traps.total() == machine.traps.total
        for reason, count in machine.traps.by_reason.items():
            assert traps.labels(name, reason).value == count

    @pytest.mark.parametrize("name", ARM_CONFIGS)
    def test_cycle_ledger_parity(self, name):
        registry = MetricsRegistry()
        suite = _run_suite(name, registry)
        machine = suite.machine
        cycles = registry.get("repro_cycles_total")
        assert cycles.total() == machine.ledger.total
        for category, count in machine.ledger.by_category.items():
            assert cycles.labels(name, category).value == count

    def test_x86_parity(self):
        registry = MetricsRegistry()
        suite = _run_suite("x86-nested", registry)
        machine = suite.machine
        assert registry.get("repro_traps_total").total() \
            == machine.traps.total
        assert registry.get("repro_cycles_total").total() \
            == machine.ledger.total

    def test_sanitizer_reconcile_check(self):
        registry = MetricsRegistry()
        suite = _run_suite("neve-nested", registry)
        report = check_metrics_reconcile(suite.machine,
                                         suite.machine.metrics)
        assert report.passed
        assert report.checks > 4

    def test_recovery_counter_sink(self):
        machine = Machine()
        metrics = MachineMetrics(config="test").attach_machine(machine)
        counter = machine.recoveries
        counter.record(RecoveryEvent.VNCR_RESYNC)
        counter.record(RecoveryEvent.VNCR_RESYNC)
        counter.record(RecoveryEvent.REPLAY)
        family = metrics.registry.get("repro_recoveries_total")
        assert family.total() == counter.total == 3
        assert family.labels("test", RecoveryEvent.VNCR_RESYNC).value == 2


class TestZeroCost:
    """Telemetry must be free in simulated time."""

    @pytest.mark.parametrize("name", ["arm-nested", "neve-nested"])
    def test_metrics_add_zero_cycles(self, name):
        bare = _run_suite(name)
        metered = _run_suite(name, MetricsRegistry())
        assert metered.machine.ledger.total == bare.machine.ledger.total
        assert metered.machine.traps.total == bare.machine.traps.total
        assert metered.machine.ledger.by_category \
            == bare.machine.ledger.by_category

    def test_export_charges_nothing(self):
        registry = MetricsRegistry()
        suite = _run_suite("neve-nested", registry)
        mark = suite.machine.ledger.total
        registry.prometheus_text()
        registry.json_snapshot()
        assert suite.machine.ledger.total == mark

    def test_sanitizer_ledger_check(self):
        report = check_metrics_ledger(hypercalls=1)
        assert report.passed

    def test_run_metrics_checks_clean(self):
        report = run_metrics_checks(hypercalls=1)
        assert report.passed
        assert report.checks > 10


class TestDeterminism:
    """Byte-identical exports for the same seeded scenario."""

    def _export(self, fmt):
        registry = MetricsRegistry()
        suite = _run_suite("neve-nested", registry)
        registry.clock = lambda: suite.machine.ledger.total
        if fmt == "json":
            return registry.json_snapshot()
        return registry.prometheus_text()

    def test_prometheus_byte_identical(self):
        assert self._export("prom") == self._export("prom")

    def test_json_byte_identical(self):
        assert self._export("json") == self._export("json")


class TestHotLayerSignals:
    """The gauges/histograms threaded through the hot layers fire."""

    def _metered(self, name):
        registry = MetricsRegistry()
        suite = _run_suite(name, registry)
        return suite, registry

    def test_vncr_deferred_counter_neve_only(self):
        _, neve_reg = self._metered("neve-nested")
        deferred = neve_reg.get("repro_vncr_deferred_total")
        assert deferred.total() > 0
        _, nv_reg = self._metered("arm-nested")
        assert nv_reg.get("repro_vncr_deferred_total").total() == 0

    def test_trap_cycles_histogram_covers_traps(self):
        suite, registry = self._metered("arm-nested")
        histogram = registry.get("repro_trap_cycles")
        observed = sum(child.count for child in histogram.children())
        assert observed == suite.machine.traps.total

    def test_nesting_depth_gauge(self):
        suite, registry = self._metered("neve-nested")
        depth = registry.get("repro_nesting_depth")
        # The nested VM was running last: depth 2 on the booted vcpus.
        values = {child.label_values: child.value
                  for child in depth.children()}
        assert values[("neve-nested", "0")] == 2

    def test_phase_cycles_histogram_populated(self):
        _, registry = self._metered("arm-nested")
        phases = registry.get("repro_phase_cycles")
        names = {child.label_values[1] for child in phases.children()}
        assert "l0.forward_to_vel2" in names
        assert "ws.vgic_save" in names
        assert "l1.handle_vm_exit" in names

    def test_vel2_exit_counter(self):
        _, registry = self._metered("arm-nested")
        assert registry.get("repro_vel2_exits_total").total() > 0

    def test_vgic_used_lrs_gauge_exists(self):
        _, registry = self._metered("arm-nested")
        assert registry.get("repro_vgic_used_lrs").children()

    def test_detach_restores_bare_machine(self):
        registry = MetricsRegistry()
        suite = _run_suite("neve-nested", registry)
        machine = suite.machine
        machine.metrics.detach_machine(machine)
        assert machine.metrics is None
        assert machine.ledger.metrics_sink is None
        assert all(cpu.metrics is None for cpu in machine.cpus)
        before = registry.get("repro_cycles_total").total()
        suite.run("hypercall", 1)
        assert registry.get("repro_cycles_total").total() == before


class TestPulledCounters:
    """The ledger, trap and recovery families are pulled at read time as
    the movement since attach."""

    def test_late_attach_reports_only_post_attach_movement(self):
        suite = make_microbench("neve-nested")
        suite.run("hypercall", 1)
        machine = suite.machine
        cycles_mark = machine.ledger.snapshot()
        traps_mark = machine.traps.snapshot()
        metrics = MachineMetrics(config="late").attach_machine(machine)
        registry = metrics.registry
        assert registry.get("repro_cycles_total").total() == 0
        assert registry.get("repro_traps_total").total() == 0
        suite.run("hypercall", 2)
        cycles = registry.get("repro_cycles_total")
        assert cycles.total() == machine.ledger.since(cycles_mark)
        for category, count in machine.ledger.by_category.items():
            moved = count - cycles_mark[1].get(category, 0)
            if moved:
                assert cycles.labels("late", category).value == moved
        traps = registry.get("repro_traps_total")
        assert traps.total() == machine.traps.since(traps_mark)
        assert {child.label_values[1]: child.value
                for child in traps.children()} \
            == {reason.value: count for reason, count
                in machine.traps.delta_by_reason(traps_mark).items()}

    def test_reads_between_runs_stay_exact(self):
        registry = MetricsRegistry()
        suite = make_microbench("arm-nested", registry=registry)
        for _ in range(3):
            suite.run("hypercall", 1)
            assert check_metrics_reconcile(suite.machine,
                                           suite.machine.metrics).passed

    def test_detach_freezes_values(self):
        registry = MetricsRegistry()
        suite = _run_suite("neve-nested", registry)
        machine = suite.machine
        machine.metrics.detach_machine(machine)
        frozen = registry.json_snapshot(), registry.prometheus_text()
        assert registry.get("repro_cycles_total").total() \
            == machine.ledger.total
        suite.run("hypercall", 2)
        assert (registry.json_snapshot(), registry.prometheus_text()) \
            == frozen
        assert registry.get("repro_traps_total").total() \
            < machine.traps.total

    def test_facades_sharing_a_config_label_add_up(self):
        registry = MetricsRegistry()
        first = _run_suite("neve-nested", registry)
        second = _run_suite("neve-nested", registry)
        machines = (first.machine, second.machine)
        assert registry.get("repro_cycles_total").total() \
            == sum(machine.ledger.total for machine in machines)
        traps = registry.get("repro_traps_total")
        for reason in ExitReason:
            expected = sum(machine.traps.count(reason)
                           for machine in machines)
            if expected:
                assert traps.labels("neve-nested", reason).value \
                    == expected

    def test_repeated_exports_are_identical_and_free(self):
        registry = MetricsRegistry()
        suite = _run_suite("neve-nested", registry)
        ledger = suite.machine.ledger
        registry.clock = lambda: ledger.total
        mark = ledger.snapshot()
        first = registry.json_snapshot(), registry.prometheus_text()
        second = registry.json_snapshot(), registry.prometheus_text()
        assert first == second
        assert ledger.snapshot() == mark

    def test_pulled_recoveries_match_campaign(self):
        metrics = MachineMetrics(config="campaign")
        result = run_campaign(RECOVERING_SEED, metrics=metrics)
        assert result.recovery_counts
        family = metrics.registry.get("repro_recoveries_total")
        assert {child.label_values[1]: child.value
                for child in family.children()} == result.recovery_counts
