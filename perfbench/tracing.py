"""Outside-in layer tracing for the benchmark's traced runs.

Nothing inside ``src/repro`` is instrumented.  For the length of a
traced operation, :class:`LayerProbe` swaps the public entry points of
each measured layer (class attributes, module functions and the
ledger's public hook properties) for recording shims, and puts the
originals back afterwards.  Untraced runs never install anything.

Every shim records a span: name, start, end, the enclosing span and the
operation it belongs to.  Spans stay in memory; :meth:`SpanRecorder.
chrome_trace` writes them when the run ends.  A sweep pass makes
millions of spans, so per-name aggregates (calls, inclusive time, self
time) are kept for every span while only the first ``keep`` raw spans
are retained for the trace file.  Self time is a span's duration minus
the time its child spans cover.
"""

import contextlib
import functools
import importlib
import itertools
import time

import repro.harness.bench as bench
import repro.workloads.microbench as microbench
from repro.arch.dispatch import DispatchTable
from repro.metrics.cycles import CycleLedger

#: ``(dotted module, attribute path, span name)`` for every plain
#: method or module function the probe wraps.
BOUNDARIES = (
    ("repro.arch.cpu", "Cpu.sysreg_access", "arch.sysreg_access"),
    ("repro.hypervisor.kvm", "KvmHypervisor.handle_trap",
     "hypervisor.handle_trap"),
    ("repro.hypervisor.recursive", "RecursiveHost.handle_trap",
     "hypervisor.handle_trap"),
    ("repro.hypervisor.kvm", "Machine.__init__", "hypervisor.machine_build"),
    ("repro.hypervisor.kvm", "KvmHypervisor.create_vm",
     "hypervisor.machine_build"),
    ("repro.hypervisor.kvm", "KvmHypervisor.boot_nested",
     "hypervisor.machine_build"),
    ("repro.core.neve", "NeveRunner.read_deferred", "core.vncr"),
    ("repro.core.neve", "NeveRunner.read_many", "core.vncr"),
    ("repro.core.neve", "NeveRunner.write_deferred", "core.vncr"),
    ("repro.core.neve", "NeveRunner.write_cached_copy", "core.vncr"),
    ("repro.core.neve", "NeveRunner.enable", "core.neve_transition"),
    ("repro.core.neve", "NeveRunner.disable", "core.neve_transition"),
    ("repro.core.neve", "NeveRunner.relocate", "core.neve_transition"),
    ("repro.hypervisor.kvm", "KvmHypervisor.rearm_neve",
     "core.neve_transition"),
    ("repro.metrics.cycles", "CycleLedger.charge", "metrics.ledger_charge"),
    ("repro.metrics.registry", "MetricsRegistry.json_snapshot",
     "metrics.export"),
    ("repro.metrics.registry", "DeltaCursor.advance", "metrics.export"),
    ("repro.metrics.registry", "MetricsRegistry.merge_snapshot",
     "metrics.merge_snapshot"),
    ("repro.fleet.worker", "tracer_payload", "trace.export"),
    ("repro.fleet.merge", "FleetMerge.chrome_trace_json", "trace.export"),
    ("repro.faults.recovery", "RecoveryCoordinator.on_deferred_access",
     "faults.guard"),
    ("repro.faults.recovery", "RecoveryCoordinator.settle_all",
     "faults.recovery"),
    ("repro.faults.recovery", "RecoveryCoordinator.repromote_all",
     "faults.recovery"),
    ("repro.faults.recovery", "RecoveryManager.settle", "faults.recovery"),
    ("repro.faults.recovery", "RecoveryManager.degrade", "faults.recovery"),
    ("repro.faults.recovery", "RecoveryManager.resync", "faults.recovery"),
    ("repro.faults.recovery", "RecoveryManager.maybe_repromote",
     "faults.recovery"),
) + tuple(
    ("repro.hypervisor.world_switch", function, "hypervisor.world_switch")
    for function in (
        "save_el1_state", "restore_el1_state", "activate_traps",
        "deactivate_traps", "vgic_save", "vgic_restore", "vgic_save_v2",
        "vgic_restore_v2", "vgic_save_mmio", "vgic_restore_mmio",
        "timer_save", "timer_restore"))

#: Ledger hook properties: whatever callback is assigned through them
#: is wrapped, so the consumer's time shows as a child of the charge.
HOOK_PROPERTIES = (
    ("metrics_sink", "metrics.sink"),
    ("observer", "trace.observer"),
)

#: What :meth:`FleetTimings.summary` reports for one supervised run.
FLEET_METRICS = ("fleet.worker_start_ms", "fleet.machine_ms",
                 "fleet.result_ms", "fleet.merge_ms",
                 "fleet.worker_busy_ratio", "fleet.retries")

#: Microbenchmark suites whose ``run`` is one sweep cell.
CELL_SUITES = ("ArmMicrobench", "X86Microbench")


class SpanRecorder:
    """In-memory span store with per-name aggregates.

    ``stats[name]`` is ``[calls, inclusive_ns, self_ns]``; ``spans``
    holds ``(span_id, parent_id, op_id, name, start_ns, end_ns)`` for
    the first ``keep`` spans.
    """

    def __init__(self, keep=50_000):
        self.stats = {}
        self.spans = []
        self.keep = keep
        self.dropped = 0
        self.op_id = 0
        self._stack = []  # open frames: [span_id, child_ns]
        self._ids = itertools.count(1)

    def _close(self, name, frame, start, end):
        duration = end - start
        entry = self.stats.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent_id = parent[0]
        if len(self.spans) < self.keep:
            self.spans.append((frame[0], parent_id, self.op_id, name,
                               start, end))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block (for the few, coarse spans)."""
        frame = [next(self._ids), 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._close(name, frame, start, end)

    def wrap(self, name, function):
        """A shim that records a *name* span around every call.  This is
        the hot path (millions of calls per sweep pass), so the
        bookkeeping of :meth:`_close` is inlined."""
        entry = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        recorder = self

        @functools.wraps(function)
        def shim(*args, **kwargs):
            frame = [next(ids), 0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                parent_id = 0
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_id = parent[0]
                if len(spans) < recorder.keep:
                    spans.append((frame[0], parent_id, recorder.op_id, name,
                                  start, end))
                else:
                    recorder.dropped += 1

        shim.perfbench_original = function
        return shim

    def calls(self, name):
        return self.stats.get(name, (0, 0, 0))[0]

    def inclusive_ns(self, name):
        return self.stats.get(name, (0, 0, 0))[1]

    def self_ns(self, name):
        return self.stats.get(name, (0, 0, 0))[2]

    def chrome_trace(self):
        """The retained spans as a Chrome trace_event document: one
        process lane per operation, parent ids in ``args``."""
        origin = min((span[4] for span in self.spans), default=0)
        events = [{"name": name, "ph": "X", "pid": op_id, "tid": 0,
                   "ts": (start - origin) / 1000.0,
                   "dur": (end - start) / 1000.0,
                   "args": {"span": span_id, "parent": parent_id}}
                  for span_id, parent_id, op_id, name, start, end
                  in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ns",
                "otherData": {"clock": "host perf_counter_ns",
                              "kept": len(self.spans),
                              "dropped": self.dropped}}


class FleetTimings:
    """Supervisor event sink that stamps host time as events arrive.

    Passed to ``Supervisor(sinks=...)``; the stream is the one the
    flight recorder journals, so every timing here has a journal event
    at each end.
    """

    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append((time.perf_counter_ns(), event))

    def summary(self, workers):
        """Per-run figures: mean ms from launch to first heartbeat,
        heartbeat to progress, last progress to result and last verdict
        to merge; the share of ``workers`` x run wall time that shards
        were running; and the retry count."""
        launched, first_beat, beat_at, last_progress = {}, {}, {}, {}
        starts, machines, results, busy = [], [], [], 0
        last_verdict = merge_at = begin = end = None
        retries = 0
        for stamp, event in self.events:
            kind, shard = event["event"], event.get("shard")
            if kind == "run-begin":
                begin = stamp
            elif kind == "launch":
                launched[shard] = stamp
                first_beat.pop(shard, None)
            elif kind == "heartbeat":
                if shard not in first_beat:
                    first_beat[shard] = stamp
                    starts.append(stamp - launched[shard])
                beat_at[event.get("machine")] = stamp
            elif kind == "progress":
                last_progress[shard] = stamp
                machine = event.get("machine")
                if machine in beat_at:
                    machines.append(stamp - beat_at.pop(machine))
            elif kind == "result":
                if shard in last_progress:
                    results.append(stamp - last_progress[shard])
                busy += stamp - launched[shard]
            elif kind == "verdict":
                last_verdict = stamp
            elif kind == "merge":
                merge_at = stamp
            elif kind == "retry":
                retries += 1
            elif kind == "run-end":
                end = stamp

        def mean_ms(values):
            return sum(values) / len(values) / 1e6 if values else 0.0

        wall = (end - begin) if begin is not None and end is not None else 0
        return {
            "fleet.worker_start_ms": mean_ms(starts),
            "fleet.machine_ms": mean_ms(machines),
            "fleet.result_ms": mean_ms(results),
            "fleet.merge_ms": ((merge_at - last_verdict) / 1e6
                               if merge_at and last_verdict else 0.0),
            "fleet.worker_busy_ratio": (busy / (workers * wall)
                                        if wall else 0.0),
            "fleet.retries": retries,
        }


class LayerProbe:
    """Installs and removes the layer shims around traced operations.

    A probe without a recorder (the untraced baseline op of a traced
    run) installs nothing, so the baseline and the traced op run the
    same benchmark code.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.tables = []  # DispatchTables built while installed
        self.suite_config = {}  # id(microbench suite) -> config name
        self.fleet_timings = []

    @property
    def tracing(self):
        return self.recorder is not None

    def fleet_sinks(self):
        """Sinks for one supervised fleet run (a fresh timing sink per
        run when tracing, none otherwise)."""
        if not self.tracing:
            return ()
        timings = FleetTimings()
        self.fleet_timings.append(timings)
        return (timings,)

    @contextlib.contextmanager
    def active(self):
        """Shims installed for the length of the block (no-op when not
        tracing).  The originals are restored even if the block raises."""
        if not self.tracing:
            yield
            return
        restore = self._install()
        try:
            yield
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    def take_resolutions(self):
        """Dispatch-table resolutions made by the tables built since the
        last call (each table is counted once, when its op has ended)."""
        total = sum(table.resolutions for table in self.tables)
        self.tables.clear()
        return total

    # -- installation ----------------------------------------------------

    def _install(self):
        recorder = self.recorder
        restore = []

        def swap(owner, attribute, replacement):
            restore.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, replacement)

        for module_name, path, span_name in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            swap(owner, attribute,
                 recorder.wrap(span_name, owner.__dict__[attribute]))

        for attribute, span_name in HOOK_PROPERTIES:
            swap(CycleLedger, attribute,
                 _wrapping_property(CycleLedger.__dict__[attribute],
                                    recorder, span_name))

        original_init = DispatchTable.__dict__["__init__"]
        tables = self.tables

        def table_init(table, *args, **kwargs):
            original_init(table, *args, **kwargs)
            tables.append(table)

        swap(DispatchTable, "__init__", table_init)

        original_make = bench.__dict__["make_microbench"]
        suite_config = self.suite_config

        def make_microbench(name, *args, **kwargs):
            suite = original_make(name, *args, **kwargs)
            suite_config[id(suite)] = name
            return suite

        swap(bench, "make_microbench", make_microbench)
        for class_name in CELL_SUITES:
            suite_class = getattr(microbench, class_name)
            swap(suite_class, "run",
                 _cell_shim(suite_class.__dict__["run"], recorder,
                            suite_config))
        return restore


def _wrapping_property(prop, recorder, span_name):
    """A replacement for one of the ledger's hook properties: the
    setter wraps the assigned hook; the getter hands back the original,
    so the program's own identity and equality checks still hold."""

    def fget(ledger):
        hook = prop.fget(ledger)
        return getattr(hook, "perfbench_original", hook)

    def fset(ledger, hook):
        prop.fset(ledger, None if hook is None
                  else recorder.wrap(span_name, hook))

    return property(fget, fset, doc=prop.__doc__)


def _cell_shim(run, recorder, suite_config):
    """``suite.run(benchmark, iterations)`` as a span named after the
    suite's config (one sweep cell)."""

    @functools.wraps(run)
    def shim(suite, *args, **kwargs):
        name = "workloads.cell.%s" % suite_config.get(id(suite), "unknown")
        with recorder.span(name):
            return run(suite, *args, **kwargs)

    return shim
