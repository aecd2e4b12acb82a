"""The repository benchmark: one workload, one seed, one command.

    python3 perfbench/run.py --workload sweep|campaign|fleet \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it finds ``src/repro`` next to its
own directory.  The load is a closed loop from one client: the next
operation starts when the previous one has finished.

``--trace 0`` measures the end-to-end metrics (host time, tracing off);
the ones BENCHMARK.json gates are scaled to a reference host (see
``HostSpeed``) and printed beside the raw figures.
``--trace 1`` runs one untraced cycle as the baseline, then traced
cycles with the layer probe installed (see ``tracing.py``), and reports
the per-layer metrics and the tracing overhead against that baseline.
Both modes check every operation's output (see ``workloads.py``).

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
per-run record (Python version, nproc, seed, every sample) and, in
traced runs, the retained spans as a Chrome trace are written under
``.perfbench/`` in the checkout.  Exit status: 0 when every output
checked out, 1 when one did not, 2 when the benchmark could not set up.
"""

import argparse
import bisect
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: The host-speed reference.  On a shared host the simulator's speed
#: changes while its code stays the same: on a 2-core x86-64 VM (Python
#: 3.11) a fixed pure-Python loop ran between one and two and a half
#: times as long from one moment to the next, in spells of about 0.2 to
#: 5 s, and the simulator slowed with it.  A short timing of such a loop
#: (``reference_loop``) is taken every SAMPLE_EVERY_S through the whole
#: run, from a SIGALRM handler, so the host's speed is known while each
#: operation runs, and each operation's host time is scaled by the speed
#: measured during it.  Over twelve 20-second windows of repeated
#: campaigns whose raw summed times spread 0.35 (IQR over median),
#: scaling each campaign by the timings next to it left a spread of 0.03
#: with this loop, and 0.06 with a tighter loop of method calls and dict
#: lookups alone.  The timings are thread CPU time, so that a timing
#: that waits for a CPU (fleet workers, set-up interpreters) does not
#: read as a slow host.  The loop runs no simulator code, so no change
#: to the simulator can move it.
SAMPLE_ITERATIONS = 3_000
SAMPLE_EVERY_S = 0.1

#: Seconds per loop iteration on the reference host that gated times are
#: scaled to.
REFERENCE_ITERATION_S = 1e-6

#: Span names reported as ``.calls`` (per operation) and ``.self_ns``
#: (mean self host time per call).
CALL_LAYERS = (
    "arch.sysreg_access", "hypervisor.handle_trap",
    "hypervisor.world_switch", "core.vncr", "metrics.ledger_charge",
    "metrics.sink", "trace.observer", "faults.guard", "faults.recovery",
)

#: Configs whose sweep cells are reported (``workloads.cell_ms.<config>``).
CELL_CONFIGS = ("arm-vm", "arm-nested", "arm-nested-vhe", "neve-nested",
                "neve-nested-vhe", "x86-vm", "x86-nested")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "campaign", "fleet"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement length; whole cycles run while "
                             "another fits (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- statistics ------------------------------------------------------------

def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def tail(values):
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), as ``(label, value)``; the maximum when there are
    too few samples for any."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return "max", ordered[-1]
    percentile = math.floor(100 * (count - 10) / count)
    rank = math.ceil(percentile * count / 100)
    return "p%d" % percentile, ordered[rank - 1]


def peak_rss_mb():
    """Peak resident set of this process and of every child it waited
    for (fleet workers, set-up interpreters), in MB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


# -- host speed ------------------------------------------------------------

class _Event:
    __slots__ = ("due", "kind", "payload")

    def __init__(self, due, kind, payload):
        self.due = due
        self.kind = kind
        self.payload = payload


class _Device:
    def __init__(self, name):
        self.name = name
        self.state = {"count": 0, "last": None}
        self.log = []

    def handle(self, event):
        self.state["count"] += 1
        self.state["last"] = event.kind
        if len(self.log) > 32:
            self.log.clear()
        self.log.append((event.kind, event.due))
        return event.payload * 3 + 1


class _Timer(_Device):
    def handle(self, event):
        return super().handle(event) ^ (event.due & 0xff)


class _Bus:
    def __init__(self):
        self.devices = {("dev", index): (_Timer if index % 3 else _Device)(
            "d%d" % index) for index in range(24)}
        self.routes = {}
        self.queue = []
        self.total = 0

    def route(self, kind, index):
        key = (kind, index % 24)
        device = self.routes.get(key)
        if device is None:
            device = self.routes[key] = self.devices[("dev", index % 24)]
        return device

    def step(self, index):
        self.queue.append(_Event(index, "irq" if index & 1 else "mmio",
                                 index & 0xfff))
        if len(self.queue) >= 4:
            for event in self.queue:
                self.total += self.route(event.kind,
                                         event.due).handle(event)
            self.queue = []
        if index % 997 == 0:
            self.routes.clear()


def reference_loop(iterations):
    """An event loop over small devices: allocation, method calls through
    a subclass and ``super()``, dict and list traffic, and a route cache
    with tuple keys that is cleared now and then -- the shape of the
    simulator's hot paths, in code that is not the simulator's."""
    bus = _Bus()
    for index in range(iterations):
        bus.step(index)
    return bus.total


class HostSpeed:
    """Timings of the reference loop taken every SAMPLE_EVERY_S while
    the context is entered, and host times scaled by them.

    ``samples`` holds each timing's thread CPU seconds and ``starts``
    when it began; the wall time spent in them is kept in ``spent``.
    The timings interrupt work that runs in this thread, so that time is
    left out of the intervals that ``raw`` and ``scaled`` convert.

    With *in_workers* the work runs in worker processes instead, which
    go on while a timing runs, so nothing is left out; and the timings
    take turns on each CPU this process may use, because on a 2-core
    x86-64 VM the two CPUs' speeds changed independently (correlation
    -0.07 over 0.2 s windows), so timings on the supervising process's
    CPU alone miss half the host."""

    def __init__(self, in_workers=False):
        self.in_workers = in_workers
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if in_workers and hasattr(os, "sched_setaffinity")
                     else None)
        self.starts = []
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        begun = time.perf_counter()
        if self.cpus:
            os.sched_setaffinity(
                0, {self.cpus[len(self.samples) % len(self.cpus)]})
        start, cpu = time.perf_counter(), time.thread_time()
        reference_loop(SAMPLE_ITERATIONS)
        self.samples.append(time.thread_time() - cpu)
        self.starts.append(start)
        if self.cpus:
            os.sched_setaffinity(0, self.cpus)
        self.spent += time.perf_counter() - begun
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def now(self):
        """A reading to pass to ``raw`` and ``scaled``."""
        return time.perf_counter(), 0.0 if self.in_workers else self.spent

    def raw(self, start, end):
        """Host seconds between two ``now()`` readings, less the time
        the timings took from the work."""
        (t0, spent0), (t1, spent1) = start, end
        return (t1 - t0) - (spent1 - spent0)

    def scaled(self, start, end):
        """``raw`` seconds between two ``now()`` readings on the
        reference host: multiplied by the mean reference speed over the
        timings taken between them and the nearest one on either side."""
        t0, t1 = start[0], end[0]
        first = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        last = bisect.bisect_right(self.starts, t1) + 1
        speed = statistics.fmean(SAMPLE_ITERATIONS * REFERENCE_ITERATION_S
                                 / elapsed
                                 for elapsed in self.samples[first:last])
        return self.raw(start, end) * speed


# -- measurement -----------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, workload, index, probe=None, around=nullcontext,
            also_check=None, now=time.perf_counter):
        """One timed operation (inside ``around()``) plus its output
        check and *also_check*, if given; returns ``(outcome, start,
        end)`` with ``now()`` readings around the operation, or
        ``(None, None, None)`` if the operation raised."""
        self.attempted += 1
        start = now()
        try:
            with around():
                outcome = workload.op(index, probe)
        except Exception:
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return None, None, None
        end = now()
        problems = workload.check(index, outcome)
        if also_check is not None:
            problems += also_check(outcome)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return outcome, start, end


class CycleClock:
    """Decides whether another whole cycle fits in the measurement
    time, from the mean length of the cycles run so far."""

    def __init__(self, seconds):
        self.started = time.perf_counter()
        self.seconds = seconds
        self.cycles = 0

    def another_fits(self):
        self.cycles += 1
        elapsed = time.perf_counter() - self.started
        return elapsed + elapsed / self.cycles <= self.seconds


def measure_setup(workload, speed):
    """Set up SETUP_REPEATS times: a fresh interpreter importing what
    the workload imports, then the workload's own preparation; returns
    ``(host s, scaled s)`` for each."""
    code = "import sys; sys.path.insert(0, %r); import %s" % (
        str(ROOT / "src"), ", ".join(workload.imports))
    samples = []
    for _ in range(SETUP_REPEATS):
        start = speed.now()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], check=True)
        workload.prepare()
        end = speed.now()
        samples.append((speed.raw(start, end), speed.scaled(start, end)))
    return samples


def measure(workload, seconds, tally, speed):
    """Whole cycles while another fits in *seconds*; returns
    ``(host ns, scaled ns, simulated cycles)`` per operation, the work
    items completed and the peak RSS after the first cycle.  Garbage from
    earlier cycles is freed whenever the collector gets to it, so the
    peak after a fixed amount of work is the figure that does not depend
    on how many cycles fit the time."""
    samples, items, rss = [], 0, None
    clock = CycleClock(seconds)
    while True:
        for index in range(workload.cycle):
            outcome, start, end = tally.run(workload, index, now=speed.now)
            if outcome is not None:
                samples.append((speed.raw(start, end) * 1e9,
                                speed.scaled(start, end) * 1e9,
                                workload.sim(outcome)[0]))
                items += workload.items_per_op
        if rss is None:
            rss = peak_rss_mb()
        if not clock.another_fits():
            return samples, items, rss


def measure_traced(workload, seconds, tally):
    """One untraced baseline cycle, then traced cycles while another
    fits in what is left of *seconds* (at least one); returns the
    per-layer metrics and the recorder."""
    from perfbench.tracing import FLEET_METRICS, LayerProbe, SpanRecorder

    started = time.perf_counter()
    baseline_ns, baseline_sim = [], {}
    untraced = LayerProbe()
    for index in range(workload.cycle):
        outcome, start, end = tally.run(workload, index, untraced)
        if outcome is not None:
            baseline_ns.append((end - start) * 1e9)
            baseline_sim[index] = workload.sim(outcome)

    recorder = SpanRecorder()
    probe = LayerProbe(recorder)
    clock = CycleClock(seconds - (time.perf_counter() - started))
    ops, resolutions, sims, counts = 0, 0, [0, 0], {}

    def same_simulation(index):
        def check(outcome):
            sim, untraced_sim = workload.sim(outcome), baseline_sim.get(index)
            if untraced_sim is None or sim == untraced_sim:
                return []
            return ["op %d: traced (cycles, traps) %r != untraced %r"
                    % (index, sim, untraced_sim)]
        return check

    while True:
        for index in range(workload.cycle):
            recorder.op_id += 1
            outcome, _, _ = tally.run(workload, index, probe,
                                      lambda: recorder.span("perfbench.op"),
                                      same_simulation(index))
            resolutions += probe.take_resolutions()
            if outcome is None:
                continue
            ops += 1
            sim = workload.sim(outcome)
            sims = [sims[0] + sim[0], sims[1] + sim[1]]
            for name, value in workload.layer_counts(outcome).items():
                counts[name] = counts.get(name, 0) + value
        if not clock.another_fits():
            break
    if not ops or not baseline_ns:
        return {}, recorder

    def per_op(value):
        return value / ops

    metrics = {}
    for layer in CALL_LAYERS:
        calls = recorder.calls(layer)
        metrics[layer + ".calls"] = per_op(calls)
        metrics[layer + ".self_ns"] = (recorder.self_ns(layer) / calls
                                       if calls else 0.0)
    accesses = recorder.calls("arch.sysreg_access")
    op_ns = recorder.inclusive_ns("perfbench.op")
    metrics.update({
        "arch.dispatch.resolutions": per_op(resolutions),
        "arch.dispatch.miss_ratio": (resolutions / accesses
                                     if accesses else 0.0),
        "hypervisor.machine_build_ms": per_op(
            recorder.inclusive_ns("hypervisor.machine_build")) / 1e6,
        "core.neve_transitions": per_op(
            recorder.calls("core.neve_transition")),
        "metrics.sink.share": recorder.self_ns("metrics.sink") / op_ns,
        "metrics.export_ms": per_op(
            recorder.inclusive_ns("metrics.export")) / 1e6,
        "metrics.merge_snapshot_ms": per_op(
            recorder.inclusive_ns("metrics.merge_snapshot")) / 1e6,
        "trace.export_ms": per_op(
            recorder.inclusive_ns("trace.export")) / 1e6,
        "sim.cycles": per_op(sims[0]),
        "sim.traps": per_op(sims[1]),
    })
    for name, value in sorted(counts.items()):
        metrics[name] = per_op(value)
    summaries = [timings.summary(getattr(workload, "workers", 1))
                 for timings in probe.fleet_timings]
    for name in FLEET_METRICS:
        metrics[name] = (sum(s[name] for s in summaries) / len(summaries)
                         if summaries else 0.0)
    for config in CELL_CONFIGS:
        span = "workloads.cell." + config
        calls = recorder.calls(span)
        metrics["workloads.cell_ms." + config] = (
            recorder.inclusive_ns(span) / calls / 1e6 if calls else 0.0)
    traced_ms = per_op(op_ns) / 1e6
    untraced_ms = sum(baseline_ns) / len(baseline_ns) / 1e6
    metrics.update({
        "bench.traced_op_ms": traced_ms,
        "bench.untraced_op_ms": untraced_ms,
        "bench.tracing_overhead": traced_ms / untraced_ms,
    })
    return metrics, recorder


# -- reporting -------------------------------------------------------------

def _spread(values, scale=1.0):
    q1, median, q3 = quartiles(values)
    return "median=%.6g q1=%.6g q3=%.6g" % (median * scale, q1 * scale,
                                           q3 * scale)


def report_untraced(workload, setup, samples, items, rss, tally, speed):
    """Print the workload's end-to-end metrics under the names they have
    on it, then the metrics BENCHMARK.json gates; returns the gated
    metrics and the raw samples.

    The gated metrics are the host times scaled to the reference host
    (see HostSpeed), and the latency and throughput are per simulated
    cycle: the seed picks campaigns whose cost differs up to fivefold,
    and host time per simulated cycle cancels most of that.  The tails
    and peak RSS are printed, not gated: on a shared 2-core x86-64 host
    the campaign tail spread 0.23 of its median across ten seeds, and on
    ``fleet`` peak RSS follows the seed's trace volume (105-147 MB
    across five seeds).
    """
    ms = [raw / 1e6 for raw, _, _ in samples]
    per_cycle = [raw / cycles for raw, _, cycles in samples]
    ref_per_cycle = [scaled / cycles for _, scaled, cycles in samples]
    cycles = sum(cycles for _, _, cycles in samples)
    total_s = sum(raw for raw, _, _ in samples) / 1e9
    ref_total_s = sum(scaled for _, scaled, _ in samples) / 1e9
    setup_raw = [raw for raw, _ in setup]
    setup_ref = [scaled for _, scaled in setup]
    name, unit, scale_ms, rate_name = workload.labels
    tail_label, tail_ms = tail(ms)
    cycle_tail_label, cycle_tail = tail(per_cycle)
    rows = (
        ("setup_s", "s", len(setup), _spread(setup_raw)),
        (name if unit == "s" else name + ".p50", unit, len(ms),
         _spread(ms, scale_ms)),
        (name + ".tail", unit, len(ms),
         "%s=%.6g" % (tail_label, tail_ms * scale_ms)),
        (rate_name, "1/s", items, "mean=%.6g" % (items / total_s)),
        ("peak_rss_mb", "MB", 1, "max=%.6g after the first cycle" % rss),
        ("error_rate", "1", tally.attempted,
         "%d failed = %.6g" % (tally.failed,
                               tally.failed / tally.attempted)),
        ("ns_per_cycle.p50", "ns", len(per_cycle), _spread(per_cycle)),
        ("ns_per_cycle.tail", "ns", len(per_cycle),
         "%s=%.6g" % (cycle_tail_label, cycle_tail)),
        ("sim_mcycles_per_s", "Mcycles/s", len(samples),
         "mean=%.6g" % (cycles / total_s / 1e6)),
        ("reference_loop", "s", len(speed.samples),
         "%s; %.3g s of wall time in all" % (_spread(speed.samples),
                                             speed.spent)),
    )
    for row_name, row_unit, count, text in rows:
        print("  %-18s %-9s n=%-4d %s" % (row_name, row_unit, count, text))
    metrics = {
        "ref_ns_per_cycle.p50": (quartiles(ref_per_cycle)[1], "ns"),
        "ref_mcycles_per_s": (cycles / ref_total_s / 1e6, "Mcycles/s"),
        "setup_s": (quartiles(setup_ref)[1], "s"),
    }
    print("  gated, on the reference host: %s"
          % ", ".join("%s=%.6g %s" % (key, value, metric_unit)
                      for key, (value, metric_unit) in metrics.items()))
    return metrics, {"setup_s": setup_raw, "ref_setup_s": setup_ref,
                     "op_ms": ms, "ns_per_cycle": per_cycle,
                     "ref_ns_per_cycle": ref_per_cycle,
                     "reference_loop_s": speed.samples,
                     "reference_loop_at": speed.starts}


def report_traced(metrics):
    for name in sorted(metrics):
        print("  %-34s %.6g" % (name, metrics[name]))
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def unit_of(name):
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_ms") or name.startswith("workloads.cell_ms."):
        return "ms"
    if name.endswith(("_ratio", ".share", ".tracing_overhead")):
        return "ratio"
    if name == "sim.cycles":
        return "cycles"
    return "count"


def write_record(name, record):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import workloads
    except ImportError as exc:
        print("perfbench: cannot import the simulator from %s: %s"
              % (ROOT / "src", exc), file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    meta = {"workload": args.workload, "seed": seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": workloads.nproc(),
            "machine": platform.machine()}
    tally = Tally()
    samples = {}
    try:
        workload = workloads.make(args.workload, ROOT, seed)
        # Set-up is measured in untraced runs only; traced runs prepare
        # once, with no host-speed sampling to show up in their spans.
        speed = (HostSpeed(in_workers=hasattr(workload, "workers"))
                 if not args.trace else nullcontext())
        with speed:
            if args.trace:
                workload.prepare()
            else:
                setup = measure_setup(workload, speed)
            print("perfbench: workload=%(workload)s seed=%(seed)d "
                  "seconds=%(seconds)g trace=%(trace)d python=%(python)s "
                  "nproc=%(nproc)d" % meta)
            if args.trace:
                layer_metrics, recorder = measure_traced(
                    workload, args.seconds, tally)
            else:
                op_samples, items, rss = measure(workload, args.seconds,
                                                 tally, speed)
    except (workloads.SetupError, ValueError, OSError,
            subprocess.SubprocessError) as exc:
        print("perfbench: cannot set up %s: %s" % (args.workload, exc),
              file=sys.stderr)
        return 2

    if args.trace:
        metrics = report_traced(layer_metrics)
        spans = write_record("spans-%s-seed%d.json" % (args.workload, seed),
                             recorder.chrome_trace())
        print("perfbench: %d spans kept (%d dropped) in %s"
              % (len(recorder.spans), recorder.dropped, spans))
    elif op_samples:
        metrics, samples = report_untraced(workload, setup, op_samples,
                                           items, rss, tally, speed)
    else:
        metrics = {}
    correct = tally.failed == 0 and bool(metrics)
    for problem in tally.problems[:20]:
        print("perfbench: CHECK FAILED: %s" % problem.rstrip())
    record = dict(meta, correct=correct, attempted=tally.attempted,
                  failed=tally.failed, problems=tally.problems[:20],
                  metrics={name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()},
                  samples=samples)
    path = write_record("%s-seed%d-trace%d.json"
                        % (args.workload, seed, args.trace), record)
    print("perfbench: %s, record in %s"
          % ("outputs correct" if correct else "OUTPUTS WRONG", path))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
