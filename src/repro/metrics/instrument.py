"""Wiring between the simulation's hot layers and the telemetry registry.

:class:`MachineMetrics` owns the metric families for one machine (one
``config`` label value) and feeds it two ways:

* pulled — one registry collector serves ``repro_cycles_total``,
  ``repro_traps_total`` and ``repro_recoveries_total`` as the movement
  of the ledger's and the trap/recovery counters' per-key dicts since
  attach, so charges and traps pay nothing for them
  (``san-metrics-reconcile`` checks the values key by key);
* pushed — the hot code paths call a ``cpu.metrics`` /
  ``machine.metrics`` attribute that defaults to ``None``; every site
  gates on a plain ``is None`` check, exactly like the tracer's
  ``cpu.tracer``, so the disabled path adds zero simulated cycles.

Everything here only *reads* the ledger; nothing ever charges it —
enforced by ``san-metrics-ledger``.
"""

from repro.metrics.registry import MetricsRegistry


class _PhaseTimer:
    """Context manager observing one phase's ledger delta into a
    histogram child.  Cycles are read from the shared ledger — never
    charged — so timing a phase is free in simulated time."""

    __slots__ = ("ledger", "child", "mark")

    def __init__(self, ledger, child):
        self.ledger = ledger
        self.child = child
        self.mark = 0

    def __enter__(self):
        self.mark = self.ledger.total
        return self

    def __exit__(self, exc_type, exc, tb):
        self.child.observe(self.ledger.total - self.mark)
        return False


def _movement_collector(sources, config):
    """Serve each ``(family, live, baseline)`` dict pair as per-key
    movement; keys new since the baseline are served even at 0."""
    def collect():
        for family, live, baseline in sources:
            for key, value in live.items():
                moved = value - baseline.get(key, 0)
                if moved or key not in baseline:
                    yield family, (config, key), moved
    return collect


class MachineMetrics:
    """The registry-backed telemetry facade for one machine/config.

    Several instances may share one :class:`MetricsRegistry` (the bench
    pipeline gives every config its own ``MachineMetrics`` over a single
    registry); re-registration is idempotent because every instance asks
    for the same family schemas.
    """

    def __init__(self, registry=None, config="default"):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.config = config
        self._collectors = {}  # attached machine -> registry collector
        reg = self.registry
        self.traps = reg.counter(
            "repro_traps_total",
            "Traps to the host hypervisor (mirror of TrapCounter)",
            ("config", "reason"))
        self.trap_cycles = reg.histogram(
            "repro_trap_cycles",
            "Simulated cycles per trap round trip, by exit reason and the "
            "exception level the trap interrupted",
            ("config", "reason", "el"))
        self.cycles = reg.counter(
            "repro_cycles_total",
            "Simulated cycles charged to the ledger, by category",
            ("config", "category"))
        self.phase_cycles = reg.histogram(
            "repro_phase_cycles",
            "Simulated cycles per traced phase (world switch, L0/L1 "
            "handlers, recovery ladder)",
            ("config", "phase"))
        self.vncr_deferred = reg.counter(
            "repro_vncr_deferred_total",
            "EL2 system-register accesses resolved against the VNCR "
            "deferred access page instead of trapping",
            ("config", "register", "op"))
        self.recoveries = reg.counter(
            "repro_recoveries_total",
            "Recovery-ladder actions (mirror of RecoveryCounter)",
            ("config", "event"))
        self.recovery_cycles = reg.histogram(
            "repro_recovery_cycles",
            "Simulated cycles charged per recovery-ladder action",
            ("config",))
        self.nesting_depth = reg.gauge(
            "repro_nesting_depth",
            "Current virtualization nesting depth per cpu "
            "(0 host, 1 VM or guest hypervisor, 2 nested VM)",
            ("config", "cpu"))
        self.depth_entries = reg.counter(
            "repro_depth_entries_total",
            "Guest entries by the nesting depth entered",
            ("config", "depth"))
        self.vgic_used_lrs = reg.gauge(
            "repro_vgic_used_lrs",
            "List registers in use at the last vGIC save/restore",
            ("config", "cpu"))
        self.vel2_exits = reg.counter(
            "repro_vel2_exits_total",
            "VM exits handled by the guest hypervisor at virtual EL2",
            ("config", "reason"))
        self.boundary_traps = reg.counter(
            "repro_boundary_traps_total",
            "Traps crossing a recursive-stack boundary, by disposition",
            ("config", "boundary"))
        self.neve_state = reg.gauge(
            "repro_neve_state",
            "Whether NEVE is armed per cpu (1 = deferred access page "
            "live, 0 = degraded to trap-and-emulate)",
            ("config", "cpu"))
        self.cpu_recoveries = reg.counter(
            "repro_cpu_recoveries_total",
            "Recovery-ladder actions attributed to the cpu they ran on",
            ("config", "cpu", "event"))
        self.degradation_dwell = reg.histogram(
            "repro_degradation_dwell_cycles",
            "Virtual cycles a vcpu spent degraded before re-promotion "
            "re-armed its deferred access page",
            ("config",))

    # -- attachment ------------------------------------------------------

    def attach_machine(self, machine):
        """Hook a whole machine: every cpu's hot-path hooks, plus one
        collector serving the ledger, trap and recovery counters'
        movement from this point on."""
        machine.metrics = self
        for cpu in machine.cpus:
            cpu.metrics = self
        if machine not in self._collectors:
            recoveries = getattr(machine, "recoveries", None)
            islands = ((self.cycles, machine.ledger.by_category),
                       (self.traps, machine.traps.by_reason),
                       (self.recoveries, recoveries.by_event
                        if recoveries is not None else {}))
            collector = self._collectors[machine] = _movement_collector(
                [(family, live, dict(live)) for family, live in islands],
                self.config)
            self.registry.register_collector(collector)
        return self

    def detach_machine(self, machine):
        """Undo :meth:`attach_machine`.  The pulled families keep the
        values reached so far; later work on the machine is not
        counted."""
        machine.metrics = None
        for cpu in machine.cpus:
            cpu.metrics = None
        collector = self._collectors.pop(machine, None)
        if collector is not None:
            self.registry.unregister_collector(collector)

    # -- hot-path hooks (all gated by ``x.metrics is None`` at the site) -

    def phase(self, cpu, name):
        """A context manager observing the phase's ledger delta into
        ``repro_phase_cycles`` (used by ``cpu_span``)."""
        return _PhaseTimer(cpu.ledger,
                           self.phase_cycles.labels(self.config, name))

    def trap_span(self, cpu, reason):
        """Timer for one trap round trip; labels carry the exception
        level the trap interrupted (``vel2`` for virtual EL2)."""
        if getattr(cpu, "at_virtual_el2", False):
            el = "vel2"
        else:
            el = str(getattr(cpu.current_el, "name", cpu.current_el)).lower()
        child = self.trap_cycles.labels(self.config, reason, el)
        return _PhaseTimer(cpu.ledger, child)

    def count_deferred(self, register, is_write):
        self.vncr_deferred.labels(self.config, register,
                                  "write" if is_write else "read").inc()

    def set_depth(self, cpu_id, depth):
        self.nesting_depth.labels(self.config, str(cpu_id)).set(depth)
        self.depth_entries.labels(self.config, str(depth)).inc()

    def set_used_lrs(self, cpu_id, used_lrs):
        self.vgic_used_lrs.labels(self.config, str(cpu_id)).set(used_lrs)

    def observe_recovery_cycles(self, cycles):
        self.recovery_cycles.labels(self.config).observe(cycles)

    def set_neve_state(self, cpu_id, armed):
        self.neve_state.labels(self.config, str(cpu_id)).set(armed)

    def count_cpu_recovery(self, cpu_id, event):
        self.cpu_recoveries.labels(self.config, str(cpu_id), event).inc()

    def observe_degradation_dwell(self, cycles):
        self.degradation_dwell.labels(self.config).observe(cycles)

    def count_vel2_exit(self, reason):
        self.vel2_exits.labels(self.config, reason).inc()

    def count_boundary_trap(self, boundary):
        self.boundary_traps.labels(self.config, boundary).inc()
