"""Pass 3: runtime invariant sanitizer (opt-in, ASan-style).

Where the conformance matrix (:mod:`repro.core.conformance`) probes the
CPU model with a synthetic trap handler, the sanitizer rides along a
*real* simulation — full hypervisor stack, GIC, timers — and checks
every access as it happens:

* every system-register access from virtual EL2 resolves to exactly the
  behaviour Tables 3-5 specify (trap, redirect, defer, or permitted
  direct access) — no silent fallthrough into the wrong mechanism;
* deferred-access-page traffic only happens while ``VNCR_EL2.Enable``
  is set (Section 6.1: the host clears Enable while the nested VM runs
  so the VM reaches its real EL1 registers);
* :class:`~repro.core.neve.NeveRunner` bookkeeping stays in sync with
  the hardware ``VNCR_EL2`` value, enable/disable only happen at EL2,
  and cached-copy refreshes only target registers that actually own a
  page slot.

Violations are collected in a :class:`SanitizerReport` (or raised
immediately with ``strict=True``).  Attach with::

    with sanitized(cpus=machine.cpus, runners=[vcpu.neve]) as report:
        ... run the scenario ...
    report.assert_clean()

The run-twice gates (``san-metrics-ledger``, ``san-profile-zero-cycles``,
``san-fastpath-parity``, ``san-fleet-merge`` and the statecheck's
``san-shared-state``) share one differential harness: :func:`_scenario`
builds the run, :func:`exports` / :func:`merge_exports` reduce it to a
bundle of canonical exports, and :func:`differential` compares two
bundles key by key.
"""

import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.analysis.base import Finding
from repro.arch.cpu import AccessKind, Encoding
from repro.arch.exceptions import ExceptionLevel
from repro.arch.registers import RegClass, lookup_register
from repro.core.conformance import expected_access_kind


class SanitizerError(AssertionError):
    """Raised on the first violation when running in strict mode."""


@dataclass
class SanitizerReport:
    """Accumulated sanitizer verdict for one simulation run."""

    checks: int = 0
    violations: list = field(default_factory=list)
    strict: bool = False

    @property
    def passed(self):
        return not self.violations

    def record(self, ok, rule, message):
        self.checks += 1
        if ok:
            return
        finding = Finding(rule, message)
        self.violations.append(finding)
        if self.strict:
            raise SanitizerError(finding.format())

    def assert_clean(self):
        if self.violations:
            raise SanitizerError(
                "%d invariant violation(s) in %d checks:\n%s"
                % (len(self.violations), self.checks,
                   "\n".join(f.format() for f in self.violations)))

    def summary(self):
        return ("sanitizer: %d checks, %d violations"
                % (self.checks, len(self.violations)))


class CpuSanitizer:
    """Wraps one :class:`~repro.arch.cpu.Cpu`'s access resolution."""

    def __init__(self, cpu, report):
        self.cpu = cpu
        self.report = report
        self._orig_sysreg_access = None
        self._orig_deferred_access = None

    def install(self):
        if self._orig_sysreg_access is not None:
            raise RuntimeError("sanitizer already installed on cpu %d"
                               % self.cpu.cpu_id)
        self._orig_sysreg_access = self.cpu.sysreg_access
        self._orig_deferred_access = self.cpu._deferred_access
        self.cpu.sysreg_access = self._checked_sysreg_access
        self.cpu._deferred_access = self._checked_deferred_access

    def uninstall(self):
        if self._orig_sysreg_access is None:
            return
        # The originals are bound methods; deleting the instance
        # attributes re-exposes them.
        del self.cpu.sysreg_access
        del self.cpu._deferred_access
        self._orig_sysreg_access = None
        self._orig_deferred_access = None

    def _checked_sysreg_access(self, name, is_write, value=None,
                               enc=Encoding.NORMAL):
        cpu = self.cpu
        # Snapshot the resolution inputs before the access runs: the
        # trap handler may world-switch and change them underneath us.
        at_vel2 = cpu.at_virtual_el2
        at_el2 = cpu.current_el is ExceptionLevel.EL2
        neve = cpu.neve_enabled
        vhe = cpu.virtual_e2h
        result, kind = self._orig_sysreg_access(name, is_write,
                                                value=value, enc=enc)
        if at_vel2 and cpu.arch.has_nv:
            reg = lookup_register(name)
            if reg.reg_class is not RegClass.SPECIAL:
                expected = expected_access_kind(reg, is_write, neve, vhe,
                                                enc=enc)
                self.report.record(
                    kind is expected, "san-access-kind",
                    "virtual-EL2 %s of %s (enc=%s) resolved to %s, "
                    "Tables 3-5 specify %s (neve=%s vhe=%s)"
                    % ("write" if is_write else "read", name,
                       enc.name.lower(), kind.value, expected.value,
                       neve, vhe))
        elif at_el2 and enc is not Encoding.NORMAL:
            # A VHE host's *_EL12/*_EL02 alias at real EL2 reaches the
            # hardware EL1 registers holding the VM's state — never a
            # trap, never the page (the NV transformations apply only
            # below EL2).
            self.report.record(
                kind is AccessKind.DIRECT_EL1, "san-host-alias",
                "EL2 %s of %s via %s resolved to %s, expected a direct "
                "EL1 access"
                % ("write" if is_write else "read", name,
                   enc.name.lower(), kind.value))
        return result, kind

    def _checked_deferred_access(self, reg, is_write, value):
        self.report.record(
            self.cpu.neve_enabled, "san-vncr-disabled",
            "deferred-access-page %s of %s while VNCR_EL2.Enable is "
            "clear" % ("write" if is_write else "read", reg.name))
        self.report.record(
            reg.vncr_offset is not None, "san-vncr-slot",
            "deferred access to %s, which owns no page slot" % reg.name)
        return self._orig_deferred_access(reg, is_write, value)


class RunnerSanitizer:
    """Wraps one :class:`~repro.core.neve.NeveRunner`."""

    def __init__(self, runner, report):
        self.runner = runner
        self.report = report
        self._originals = {}

    def install(self):
        if self._originals:
            raise RuntimeError("sanitizer already installed on runner")
        for method in ("enable", "disable", "write_cached_copy"):
            self._originals[method] = getattr(self.runner, method)
        self.runner.enable = self._checked_enable
        self.runner.disable = self._checked_disable
        self.runner.write_cached_copy = self._checked_write_cached_copy

    def uninstall(self):
        for method in self._originals:
            delattr(self.runner, method)
        self._originals = {}

    def _check_sync(self, what):
        cpu = self.runner.cpu
        self.report.record(
            cpu.current_el is ExceptionLevel.EL2, "san-runner-el",
            "NeveRunner.%s called while the CPU runs at %s; VNCR_EL2 is "
            "host-hypervisor state" % (what, cpu.current_el))
        hw = cpu.el2_regs.read("VNCR_EL2")
        self.report.record(
            hw == self.runner.vncr.value, "san-runner-drift",
            "after NeveRunner.%s the hardware VNCR_EL2 (%#x) disagrees "
            "with the runner's view (%#x)"
            % (what, hw, self.runner.vncr.value))

    def _checked_enable(self):
        result = self._originals["enable"]()
        self._check_sync("enable")
        return result

    def _checked_disable(self):
        result = self._originals["disable"]()
        self._check_sync("disable")
        return result

    def _checked_write_cached_copy(self, reg_name, value):
        reg = lookup_register(reg_name)
        self.report.record(
            reg.vncr_offset is not None, "san-vncr-slot",
            "cached-copy refresh of %s, which owns no page slot"
            % reg_name)
        return self._originals["write_cached_copy"](reg_name, value)


@contextmanager
def sanitized(cpus=(), runners=(), strict=False, report=None):
    """Attach sanitizers to *cpus* and *runners* for the dynamic extent
    of the block; yields the shared :class:`SanitizerReport`."""
    if report is None:
        report = SanitizerReport(strict=strict)
    wrappers = [CpuSanitizer(cpu, report) for cpu in cpus]
    wrappers += [RunnerSanitizer(runner, report) for runner in runners
                 if runner is not None]
    for wrapper in wrappers:
        wrapper.install()
    try:
        yield report
    finally:
        for wrapper in wrappers:
            wrapper.uninstall()


def check_trace_reconciliation(tracer, report=None):
    """Sanitizer check for the causal tracer (:mod:`repro.trace`):
    every cycle the ledger charged must be attributed to exactly one
    span (or explicitly accounted as dropped/open/unattributed), so
    ``sum(span.cycles) == ledger.total`` over the traced window.

    Records one ``san-trace-reconcile`` check into *report* and returns
    the report.
    """
    if report is None:
        report = SanitizerReport()
    rec = tracer.reconcile()
    report.record(
        rec.exact, "san-trace-reconcile",
        "span cycle attribution does not reconcile against the ledger: "
        + rec.describe())
    return report


def _scenario(mode, hypercalls, observed=True, fastpath=None,
              guest_vhe=False, window=None):
    """Boot a nested VM on the ARMv8.3 (``"nv"``) or NEVE model and
    drive *hypercalls* L2 hypercalls; returns ``(machine, metrics,
    tracer)``, the last two None unless *observed*.

    *fastpath* forces the dispatch fast path (None = machine default);
    ``window(machine, vm)``, when given, returns the context wrapping
    the boot and hypercalls (the sanitizer, a host profiler).
    """
    from repro.harness.configs import ALL_CONFIGS, arm_arch_for
    from repro.hypervisor.kvm import Machine
    from repro.metrics.cycles import ARM_COSTS
    from repro.metrics.instrument import MachineMetrics
    from repro.trace.spans import Tracer

    config = ALL_CONFIGS["arm-nested" if mode == "nv" else "neve-nested"]
    machine = Machine(arch=arm_arch_for(config), costs=ARM_COSTS,
                      fastpath=fastpath)
    metrics = tracer = None
    if observed:
        metrics = MachineMetrics(config=config.name)
        metrics.attach_machine(machine)
        metrics.registry.clock = lambda: machine.ledger.total
        tracer = Tracer()
        tracer.attach_machine(machine)
    vm = machine.kvm.create_vm(num_vcpus=1, nested=mode,
                               guest_vhe=guest_vhe)
    with window(machine, vm) if window is not None else nullcontext():
        machine.kvm.boot_nested(vm.vcpus[0])
        for _ in range(hypercalls):
            vm.vcpus[0].cpu.hvc(0)
    if tracer is not None:
        tracer.stop()
    return machine, metrics, tracer


def exports(machine, metrics=None, tracer=None):
    """The canonical export bundle of one run: ledger, cycle breakdown,
    trap total and reasons, plus the registry's JSON and Prometheus
    text with *metrics* and the serialized ring buffer with *tracer*."""
    bundle = {
        "ledger_total": machine.ledger.total,
        "cycle_breakdown": dict(machine.ledger.by_category),
        "trap_total": machine.traps.total,
        "trap_reasons": dict(machine.traps.by_reason),
    }
    if metrics is not None:
        bundle["metrics_json"] = metrics.registry.json_snapshot()
        bundle["prometheus"] = metrics.registry.prometheus_text()
    if tracer is not None:
        from repro.trace.export import tracer_payload
        bundle["trace"] = json.dumps(tracer_payload(tracer), sort_keys=True,
                                     separators=(",", ":"))
    return bundle


def merge_exports(merge):
    """The export bundle of a :class:`~repro.fleet.merge.FleetMerge`
    (the stitched ``trace`` only when the shards collected traces)."""
    bundle = {
        "metrics_json": merge.json_snapshot(),
        "prometheus": merge.prometheus_text(),
        "digest": merge.digest,
    }
    if merge.traces is not None:
        bundle["trace"] = merge.chrome_trace_json()
    return bundle


def differential(report, rule, what, reference, candidate):
    """Record one *rule* check per bundle key, naming the key in its
    violation; an empty *reference* or mismatched key sets is one
    failing check, so a wiring slip cannot pass on zero comparisons."""
    if not reference or set(reference) != set(candidate):
        report.record(
            False, rule,
            "%s: vacuous compare, reference keys %s vs candidate keys %s"
            % (what, sorted(reference), sorted(candidate)))
        return report
    for key, before in reference.items():
        after = candidate[key]
        values = ""
        if isinstance(before, int) and isinstance(after, int):
            values = " (%d vs %d)" % (before, after)
        report.record(before == after, rule,
                      "%s: the %s export differs%s" % (what, key, values))
    return report


def run_sanitized_scenario(modes=("nv", "neve"), hypercalls=2):
    """Run the exit-multiplication scenario (examples/
    exit_multiplication.py) under the sanitizer on each of *modes*.

    Returns the combined :class:`SanitizerReport`; a clean report means
    every register access the full hypervisor stack performed resolved
    exactly as the specification tables demand.
    """
    report = SanitizerReport()
    for mode in modes:
        _scenario(mode, hypercalls, observed=False,
                  window=lambda machine, vm: sanitized(
                      cpus=machine.cpus,
                      runners=[vcpu.neve for vcpu in vm.vcpus],
                      report=report))
    return report


def check_metrics_reconcile(machine, metrics, report=None):
    """``san-metrics-reconcile``: the collector-served families must
    agree, key by key, with the counters they are pulled from —
    ``repro_traps_total`` with ``TrapCounter`` and ``repro_cycles_total``
    with the ``CycleLedger`` (totals and per key), and
    ``repro_recoveries_total`` with ``RecoveryCounter`` (per event).
    The families count movement since attach, so this is only
    meaningful when *metrics* was attached before the machine did any
    work.
    """
    if report is None:
        report = SanitizerReport()
    islands = [("repro_traps_total", machine.traps.total,
                machine.traps.by_reason),
               ("repro_cycles_total", machine.ledger.total,
                machine.ledger.by_category)]
    recoveries = getattr(machine, "recoveries", None)
    if recoveries is not None:
        islands.append(("repro_recoveries_total", None, recoveries.by_event))
    for name, total, by_key in islands:
        family = metrics.registry.get(name)
        if total is not None:
            pulled = family.total() if family is not None else None
            report.record(
                pulled == total, "san-metrics-reconcile",
                "%s diverged: counter total=%d, registry sum=%s"
                % (name, total, pulled))
        for key, count in sorted(by_key.items(),
                                 key=lambda item: _key_text(item[0])):
            pulled = (family.labels(metrics.config, key).value
                      if family is not None else None)
            report.record(
                pulled == count, "san-metrics-reconcile",
                "%s diverged for %s: counter=%d, registry=%s"
                % (name, _key_text(key), count, pulled))
    return report


def _key_text(key):
    """A counter key as its label text (enum members by value)."""
    return str(getattr(key, "value", key))


def check_metrics_ledger(report=None, mode="neve", hypercalls=2):
    """``san-metrics-ledger``: telemetry must be free in simulated time.

    The unobserved and observed runs must agree on every machine key of
    the export bundle, and exporting the full bundle must not move the
    ledger.
    """
    if report is None:
        report = SanitizerReport()
    bare, _, _ = _scenario(mode, hypercalls, observed=False)
    machine, metrics, tracer = _scenario(mode, hypercalls)
    differential(report, "san-metrics-ledger", "observed vs unobserved run",
                 exports(bare), exports(machine))
    mark = machine.ledger.snapshot()
    exports(machine, metrics, tracer)
    report.record(
        machine.ledger.since(mark) == 0, "san-metrics-ledger",
        "exporting metrics and the trace charged the ledger: +%d cycles"
        % machine.ledger.since(mark))
    return report


def check_profile_zero_cycles(report=None, mode="neve", hypercalls=2):
    """``san-profile-zero-cycles``: host profiling must be invisible to
    the simulation.

    A run inside a host profiler's window must export the same bundle
    as one outside it, and building the profile document must charge
    nothing either.
    """
    from repro.profile.export import profile_document, validate_profile
    from repro.profile.profiler import HostProfiler

    if report is None:
        report = SanitizerReport()
    bare = exports(*_scenario(mode, hypercalls))
    profiler = HostProfiler()
    machine, metrics, tracer = _scenario(
        mode, hypercalls, window=lambda machine, vm: profiler)
    differential(report, "san-profile-zero-cycles", "profiled run",
                 bare, exports(machine, metrics, tracer))
    mark = machine.ledger.snapshot()
    document = profile_document(profiler, scenario="san-profile")
    problems = validate_profile(document)
    report.record(
        not problems, "san-profile-zero-cycles",
        "profile document fails its own schema: %s" % "; ".join(problems))
    report.record(
        machine.ledger.since(mark) == 0, "san-profile-zero-cycles",
        "exporting the profile charged the ledger: +%d cycles"
        % machine.ledger.since(mark))
    return report


def check_fleet_merge(report=None, machines=3, seed=0):
    """``san-fleet-merge``: the fleet merge must be order-blind.

    Folds one small fleet's shard payloads in shard order, reversed and
    rotated; every fold, and the sequential reference
    (:func:`repro.fleet.merge.reference_merge`), must export the same
    bundle.  This is what lets the supervisor retry and reschedule
    shards freely.
    """
    from repro.fleet.merge import merge_payloads, reference_merge
    from repro.fleet.plan import FleetPlan
    from repro.fleet.worker import run_shard
    from repro.trace.export import verify_machine_trace

    if report is None:
        report = SanitizerReport()
    plan = FleetPlan.generate(seed, machines, shard_size=1)
    # A shard payload is (shard_id, records, metrics_document, traces).
    payloads = [(shard.shard_id,) + run_shard(shard, trace=True)[:3]
                for shard in plan.shards]

    baseline = merge_payloads(payloads)
    bundle = merge_exports(baseline)
    for index, order in enumerate(
            [payloads[::-1], payloads[1:] + payloads[:1]], start=1):
        differential(report, "san-fleet-merge",
                     "shard-order permutation %d" % index,
                     bundle, merge_exports(merge_payloads(order)))
    differential(report, "san-fleet-merge", "sequential reference run",
                 bundle, merge_exports(reference_merge(plan, trace=True)))
    # The per-machine reconciliation invariant must still hold *after*
    # the merge — each stitched machine lane balances its own books.
    for machine_index in sorted(baseline.traces):
        problems = verify_machine_trace(baseline.traces[machine_index])
        report.record(
            not problems, "san-trace-reconcile",
            "machine %d trace payload fails after fleet merge: %s"
            % (machine_index, "; ".join(problems)))
    return report


def check_fastpath_parity(report=None, modes=("nv", "neve"),
                          hypercalls=2):
    """``san-fastpath-parity``: the precompiled dispatch table must be a
    pure speedup.

    Per mode and VHE flavour, the ladder (fast path off) and the table
    (on) must export the same bundle, and the fast machine must have
    resolved table entries, so a wiring slip cannot compare slow
    against slow.
    """
    if report is None:
        report = SanitizerReport()
    for mode in modes:
        for guest_vhe in (False, True):
            label = "%s%s" % (mode, "+vhe" if guest_vhe else "")
            slow = exports(*_scenario(mode, hypercalls, fastpath=False,
                                      guest_vhe=guest_vhe))
            fast = _scenario(mode, hypercalls, fastpath=True,
                             guest_vhe=guest_vhe)
            dispatch = fast[0].dispatch
            report.record(
                dispatch is not None and dispatch.resolutions > 0,
                "san-fastpath-parity",
                "[%s] the fast path never resolved a dispatch entry — "
                "parity would compare slow against slow" % label)
            differential(report, "san-fastpath-parity",
                         "[%s] fast path on vs off" % label, slow,
                         exports(*fast))
    return report


def run_metrics_checks(modes=("nv", "neve"), hypercalls=2):
    """Run both metrics sanitizer checks over the standard scenario;
    returns the combined report (wired into ``python -m repro lint``)."""
    report = SanitizerReport()
    for mode in modes:
        machine, metrics, _ = _scenario(mode, hypercalls)
        check_metrics_reconcile(machine, metrics, report=report)
    check_metrics_ledger(report=report, hypercalls=hypercalls)
    return report
