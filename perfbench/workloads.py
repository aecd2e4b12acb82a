"""The benchmark's workloads: inputs from the seed, the timed operation
and the output check.

Each workload is a closed loop driven by one client.  An *operation* is
the unit the loop times (a sweep pass, one campaign, one supervised
fleet run); a *cycle* is the fixed list of operations the loop repeats
whole, so every run at one seed executes the same mix of inputs.

``sweep``
    One ``run_bench`` pass: every config in ``ALL_CONFIGS`` x every
    microbenchmark at the bench default iterations under one shared
    ``MetricsRegistry``, exported once.  Warm, read-mostly hot loop with
    one telemetry consumer on every ledger charge.  Its inputs are
    fixed (the seed is recorded, not used): the output must be
    byte-equal to the latest committed ``BENCH_<n>.json``.
``campaign``
    Seeded SMP fault campaigns (``run_campaign(seed, cpus=2)``) over a
    cycle of ``split_seed(workload_seed, i)`` seeds, no telemetry
    attached.  NEVE only, fresh machine (cold dispatch tables) per
    campaign, fault hooks armed, verdict cache invalidated by VNCR
    writes, degrade and re-promote.
``fleet``
    A supervised fleet over ``FleetPlan.generate(seed, machines,
    shard_size)`` at ``workers = nproc`` with trace collection on and
    the stitched Chrome trace serialized: fork, pipe protocol,
    checksums, merge, and a metrics delta exported per machine.

Every workload class has the same surface: ``name``; ``labels`` (what
an operation's time is printed as: name, unit and scale from ms, and
what its work items per second are called); ``imports`` (the modules
set-up imports); ``cycle`` and ``items_per_op``; ``prepare()``; and
``op(index, probe)``, ``check(index, outcome)``, ``sim(outcome)`` (the
simulated cycles and traps) and ``layer_counts(outcome)``.
"""

import hashlib
import json
import os
from contextlib import nullcontext
from pathlib import Path

from repro.faults.campaign import run_campaign
from repro.faults.plan import split_seed
from repro.fleet.merge import reference_merge
from repro.fleet.plan import FleetPlan
from repro.fleet.supervisor import FleetConfig, Supervisor
from repro.harness.bench import find_trajectory, run_bench, validate_payload

#: The seed whose outputs ``expected.json`` records.
DEFAULT_SEED = 1

#: Campaigns per cycle and vCPUs per campaign.
CAMPAIGN_SEEDS = 64
CAMPAIGN_CPUS = 2

#: Machines per supervised fleet run, short enough that several runs fit
#: in a measurement, and machines per shard.  With the default four per
#: shard, four shards share two workers unevenly, and how unevenly
#: depends on the seed: host ns per simulated cycle then differed by
#: seed up to 1.2x on a 2-core x86-64 VM.  Eight shards of two balance.
FLEET_MACHINES = 16
FLEET_SHARD_SIZE = 2

EXPECTED_PATH = Path(__file__).with_name("expected.json")


class SetupError(RuntimeError):
    """The checkout lacks an input the workload needs."""


def nproc():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def load_expected(seed):
    """The recorded outputs for *seed*, or None when only the default
    seed's are recorded and *seed* is another one."""
    try:
        expected = json.loads(EXPECTED_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError("cannot read %s: %s" % (EXPECTED_PATH, exc))
    return expected if expected.get("seed") == seed else None


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _active(probe):
    return probe.active() if probe is not None else nullcontext()


def _canonical(section):
    """A payload section as the trajectory writer serializes it."""
    return json.dumps(section, sort_keys=True, indent=2)


class Sweep:
    name = "sweep"
    labels = ("sweep_s", "s", 1e-3, "passes_per_s")
    imports = ("repro.harness.bench",)
    cycle = 1
    items_per_op = 1

    def __init__(self, root, seed):
        self.root = Path(root)
        self.seed = seed

    def prepare(self):
        trajectory = find_trajectory(self.root)
        if not trajectory:
            raise SetupError("no BENCH_<n>.json in %s" % self.root)
        _, path = trajectory[-1]
        try:
            reference = json.loads(path.read_text())
            self.reference = {key: _canonical(reference[key])
                              for key in ("results", "metrics")}
        except (OSError, ValueError, KeyError) as exc:
            raise SetupError("cannot read %s: %s" % (path, exc))
        self.reference_name = path.name

    def op(self, index, probe=None):
        with _active(probe):
            return run_bench()

    def check(self, index, payload):
        problems = ["sweep payload: %s" % problem
                    for problem in validate_payload(payload)]
        for key in ("results", "metrics"):
            if _canonical(payload.get(key)) != self.reference[key]:
                problems.append("sweep %s differ from %s"
                                % (key, self.reference_name))
        return problems

    def sim(self, payload):
        metrics = payload["metrics"]
        traps = sum(series["value"] for series
                    in metrics["metrics"]["repro_traps_total"]["series"])
        return metrics["virtual_cycles"], traps

    def layer_counts(self, payload):
        return {"faults.recoveries": 0, "analysis.sanitizer.checks": 0}


class Campaign:
    name = "campaign"
    labels = ("campaign_ms", "ms", 1.0, "campaigns_per_s")
    imports = ("repro.faults.campaign",)
    items_per_op = 1

    def __init__(self, root, seed):
        self.seed = seed
        self.cycle = CAMPAIGN_SEEDS

    def make_inputs(self):
        self.seeds = [split_seed(self.seed, index)
                      for index in range(self.cycle)]

    def prepare(self):
        self.make_inputs()
        expected = load_expected(self.seed)
        self.expected = expected["campaign"]["digests"] if expected else None
        self.digests = {}

    def op(self, index, probe=None):
        with _active(probe):
            return run_campaign(self.seeds[index], cpus=CAMPAIGN_CPUS)

    def check(self, index, result):
        problems = []
        label = "campaign seed %d" % result.seed
        if not result.ok:
            problems.append("%s not ok (silent=%r, ordering=%r, probe_ok=%s)"
                            % (label, result.silent,
                               result.ordering_violations, result.probe_ok))
        if result.sanitizer_violations:
            problems.append("%s: %d sanitizer violations"
                            % (label, result.sanitizer_violations))
        first = self.digests.setdefault(index, result.digest)
        if result.digest != first:
            problems.append("%s: digest changed between repeats" % label)
        if self.expected is not None and result.digest != self.expected[index]:
            problems.append("%s: digest %.12s differs from the recorded %.12s"
                            % (label, result.digest, self.expected[index]))
        return problems

    def sim(self, result):
        return result.total_cycles, result.total_traps

    def layer_counts(self, result):
        return {"faults.recoveries": sum(result.recovery_counts.values()),
                "analysis.sanitizer.checks": result.sanitizer_checks}


class FleetOutcome:
    """One supervised fleet run, plus (traced runs) the in-process
    reference merge whose worker-side layers the trace attributes."""

    def __init__(self, result, trace_json, reference=None,
                 reference_trace=None):
        self.result = result
        self.trace_json = trace_json
        self.reference = reference
        self.reference_trace = reference_trace


class Fleet:
    name = "fleet"
    labels = ("fleet_run_ms", "ms", 1.0, "machines_per_s")
    imports = ("repro.fleet.supervisor", "repro.fleet.plan",
               "repro.fleet.merge")
    cycle = 1

    def __init__(self, root, seed):
        self.seed = seed
        self.machines = FLEET_MACHINES
        self.workers = nproc()
        self.items_per_op = self.machines

    def make_inputs(self):
        self.plan = FleetPlan.generate(self.seed, self.machines,
                                       shard_size=FLEET_SHARD_SIZE)

    def prepare(self):
        self.make_inputs()
        expected = load_expected(self.seed)
        self.expected = (expected["fleet"] if expected and
                         expected["fleet"]["machines"] == self.machines
                         else None)
        self.seen = None

    def op(self, index, probe=None):
        config = FleetConfig(workers=self.workers, trace=True)
        sinks = probe.fleet_sinks() if probe is not None else ()
        result = Supervisor(self.plan, config=config, sinks=sinks).run()
        outcome = FleetOutcome(result, result.merge.chrome_trace_json())
        if probe is not None:
            # Forked workers cannot report spans, so a traced run
            # attributes the worker-side layers on the in-process
            # reference, which runs the same run_shard.
            with probe.active():
                outcome.reference = reference_merge(self.plan, trace=True)
                outcome.reference_trace = (
                    outcome.reference.chrome_trace_json())
        return outcome

    def check(self, index, outcome):
        problems = []
        result, merge = outcome.result, outcome.result.merge
        if not result.accounting_ok:
            problems.append("fleet books do not balance: %s"
                            % result.accounting_line())
        if result.quarantined or result.retried:
            problems.append("fleet without chaos needed retries: %s"
                            % result.accounting_line())
        if merge.machine_count != self.machines:
            problems.append("fleet merged %d of %d machines"
                            % (merge.machine_count, self.machines))
        if not merge.ok:
            problems.append("fleet merged a campaign that is not ok")
        outputs = (merge.digest, sha256(outcome.trace_json))
        if self.seen is None:
            self.seen = outputs
        elif outputs != self.seen:
            problems.append("fleet digest or trace changed between repeats")
        if self.expected is not None:
            if merge.digest != self.expected["digest"]:
                problems.append("fleet digest %.12s differs from the "
                                "recorded %.12s"
                                % (merge.digest, self.expected["digest"]))
            if outputs[1] != self.expected["trace_sha256"]:
                problems.append("fleet trace differs from the recorded one")
        if outcome.reference is not None and (
                outcome.reference.digest != merge.digest
                or outcome.reference.json_snapshot() != merge.json_snapshot()
                or outcome.reference_trace != outcome.trace_json):
            problems.append("fleet exports differ from the sequential "
                            "reference")
        return problems

    def sim(self, outcome):
        records = outcome.result.merge.records
        return (sum(record["cycles"] for record in records),
                sum(record["traps"] for record in records))

    def layer_counts(self, outcome):
        records = outcome.result.merge.records
        return {"faults.recoveries": sum(
                    sum(record["recovery_counts"].values())
                    for record in records),
                "analysis.sanitizer.checks": sum(
                    record["sanitizer_checks"] for record in records)}


WORKLOADS = {workload.name: workload for workload in (Sweep, Campaign, Fleet)}


def make(name, root, seed):
    return WORKLOADS[name](root, seed)
