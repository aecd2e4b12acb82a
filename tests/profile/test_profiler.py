"""HostProfiler: phase attribution, window semantics, the zero-cycle
contract, and a window that leaves the machine's hooks untouched."""

import pytest

from repro.profile.profiler import MAX_STACK_DEPTH, HostProfiler


class FakeClock:
    """Deterministic nanosecond clock for white-box attribution tests."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class FakeCode:
    def __init__(self, filename, name):
        self.co_filename = filename
        self.co_name = name
        self.co_qualname = name


class FakeFrame:
    def __init__(self, filename, name):
        self.f_code = FakeCode(filename, name)


TRAP = FakeFrame("src/repro/arch/cpu.py", "_trap")
HELPER = FakeFrame("/usr/lib/python3.12/enum.py", "__call__")


def _driven(clock):
    """A profiler whose window is driven by hand (no sys.setprofile —
    the callback is exercised directly with synthetic frames)."""
    profiler = HostProfiler(clock_ns=clock)
    profiler._active = True
    profiler._last_ns = clock()
    return profiler


class TestAttribution:
    def test_self_and_cum_time_credit_the_mapped_phase(self):
        clock = FakeClock()
        profiler = _driven(clock)
        clock.now = 10
        profiler._callback(TRAP, "call", None)
        clock.now = 25
        profiler._callback(TRAP, "return", None)
        clock.now = 30
        profiler.stop()
        stat = profiler.phases["trap.dispatch"]
        assert (stat.calls, stat.self_ns, stat.cum_ns) == (1, 15, 15)
        # 0..10 ran outside any tracked frame; 25..30 likewise.
        assert profiler.wall_ns == 30
        assert profiler.stacks == {("cpu:_trap",): 15}

    def test_unmapped_frames_inherit_the_callers_phase(self):
        clock = FakeClock()
        profiler = _driven(clock)
        profiler._callback(TRAP, "call", None)
        clock.now = 5
        profiler._callback(HELPER, "call", None)
        clock.now = 12
        profiler._callback(HELPER, "return", None)
        clock.now = 20
        profiler._callback(TRAP, "return", None)
        profiler.stop()
        stat = profiler.phases["trap.dispatch"]
        # Helper time is trap-dispatch work; the helper adds no call.
        assert (stat.calls, stat.self_ns, stat.cum_ns) == (1, 20, 20)

    def test_recursion_does_not_double_count_cumulative_time(self):
        clock = FakeClock()
        profiler = _driven(clock)
        profiler._callback(TRAP, "call", None)
        clock.now = 5
        profiler._callback(TRAP, "call", None)  # nested same phase
        clock.now = 15
        profiler._callback(TRAP, "return", None)
        clock.now = 20
        profiler._callback(TRAP, "return", None)
        profiler.stop()
        stat = profiler.phases["trap.dispatch"]
        assert stat.calls == 2
        assert stat.self_ns == 20
        assert stat.cum_ns == 20  # outer frame only, not 20 + 10

    def test_returns_through_preexisting_frames_are_ignored(self):
        clock = FakeClock()
        profiler = _driven(clock)
        clock.now = 7
        profiler._callback(TRAP, "return", None)  # entered before start
        profiler.stop()
        assert profiler.phases == {}
        assert profiler.wall_ns == 7

    def test_stack_collection_caps_at_max_depth(self):
        clock = FakeClock()
        profiler = _driven(clock)
        for _ in range(MAX_STACK_DEPTH + 10):
            profiler._callback(TRAP, "call", None)
        clock.now = 5
        profiler.stop()
        assert max(len(key) for key in profiler.stacks) \
            == MAX_STACK_DEPTH

    def test_collect_stacks_off_keeps_phases_only(self):
        clock = FakeClock()
        profiler = HostProfiler(collect_stacks=False, clock_ns=clock)
        profiler._active = True
        profiler._last_ns = clock()
        profiler._callback(TRAP, "call", None)
        clock.now = 9
        profiler._callback(TRAP, "return", None)
        profiler.stop()
        assert profiler.stacks == {}
        assert profiler.phases["trap.dispatch"].self_ns == 9


class TestWindow:
    def test_start_twice_raises(self):
        profiler = HostProfiler()
        with profiler:
            with pytest.raises(RuntimeError):
                profiler.start()

    def test_stop_is_idempotent(self):
        profiler = HostProfiler()
        profiler.start()
        profiler.stop()
        profiler.stop()  # no-op, no error
        assert not profiler._active


def _scenario(profiled):
    from repro.harness.configs import ALL_CONFIGS, arm_arch_for
    from repro.hypervisor.kvm import Machine
    from repro.metrics.cycles import ARM_COSTS

    machine = Machine(arch=arm_arch_for(ALL_CONFIGS["neve-nested"]),
                      costs=ARM_COSTS)
    profiler = None
    if profiled:
        profiler = HostProfiler()
        profiler.start()
    vm = machine.kvm.create_vm(num_vcpus=1, nested="neve")
    machine.kvm.boot_nested(vm.vcpus[0])
    vm.vcpus[0].cpu.hvc(0)
    if profiled:
        profiler.stop()
    return machine, profiler


class TestOnTheSimulator:
    def test_profiling_is_invisible_to_the_simulation(self):
        bare, _ = _scenario(profiled=False)
        profiled, profiler = _scenario(profiled=True)
        assert profiled.ledger.total == bare.ledger.total
        assert profiled.traps.total == bare.traps.total
        assert profiled.traps.by_reason == bare.traps.by_reason

    def test_scenario_attributes_to_the_simulator_taxonomy(self):
        _, profiler = _scenario(profiled=True)
        assert profiler.wall_ns > 0
        assert profiler.phases["trap.dispatch"].calls > 0
        assert profiler.phases["classify.sysreg_access"].calls > 0
        assert "hyp.kvm" in profiler.phases
        # Self time can never exceed the window.
        assert sum(stat.self_ns for stat in profiler.phases.values()) \
            <= profiler.wall_ns
        assert profiler.stacks

    def test_window_leaves_every_machine_hook_as_it_found_it(self):
        # The profiler observes through sys.setprofile alone: a metered,
        # traced machine keeps its charge chain and per-CPU hooks.
        from repro.harness.configs import make_microbench
        from repro.metrics.registry import MetricsRegistry
        from repro.trace.spans import Tracer

        suite = make_microbench("neve-nested", registry=MetricsRegistry())
        machine = suite.machine
        # Telemetry is pulled at read time: metering alone leaves the
        # charge chain unarmed.
        assert machine.ledger._fused is None
        Tracer().attach_machine(machine)

        def hooks():
            return (machine.ledger._fused,
                    [(cpu.tracer, cpu.metrics) for cpu in machine.cpus])

        before = hooks()
        assert before[0] is not None
        assert all(tracer is not None and metrics is not None
                   for tracer, metrics in before[1])
        profiler = HostProfiler()
        with profiler:
            assert hooks() == before
            suite.run("hypercall", 1)
        assert profiler.phases["trap.dispatch"].calls > 0
        after = hooks()
        assert after[0] is before[0]
        assert all(a[0] is b[0] and a[1] is b[1]
                   for a, b in zip(after[1], before[1]))
