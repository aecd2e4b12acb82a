"""``python -m repro profile`` — host-time profiles and hotspot diffs.

Default run: profile a scenario (the bench sweep, or a seeded fault
campaign with ``--scenario campaign``) and print the per-phase
self/cumulative host-time table.  ``--json``/``--flamegraph`` write
the ``repro-profile/2`` document and the collapsed-stack flamegraph
input.

Two file modes skip the scenario entirely:

* ``--diff A.json B.json`` — compare two profile documents and report
  per-phase host-time deltas (how a perf change proves its win phase
  by phase; diffing a ``REPRO_NO_FASTPATH=1`` profile against a
  default one shows what the dispatch fast path moved).
* ``--validate FILE`` — schema-check a document (the CI drift gate for
  the document shape).

Host time is nondeterministic; nothing this tool writes participates in
golden byte-diffs, and profiling never perturbs the simulation
(``san-profile-zero-cycles``).

Exit status: 0 on success, 1 when ``--validate`` finds drift or
``--diff`` gets an invalid document, 2 on usage errors.
"""

import argparse
import json
import sys

from repro.profile.export import (
    collapsed_stacks,
    diff_documents,
    profile_document,
    render_diff,
    render_phase_table,
    validate_profile,
    write_json,
)
from repro.profile.profiler import HostProfiler


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="host-time profiler: phase tables, flamegraphs, "
                    "hotspot diffs")
    parser.add_argument("--scenario", choices=("bench", "campaign"),
                        default="bench",
                        help="what to profile: the microbenchmark sweep "
                             "(default) or one seeded fault campaign")
    parser.add_argument("--config", action="append", default=[],
                        metavar="NAME",
                        help="bench scenario: restrict to these configs "
                             "(repeatable; default: all)")
    parser.add_argument("--iterations", type=int, default=3, metavar="N",
                        help="bench scenario: per-benchmark iterations "
                             "(default 3 — a profiling run, not a "
                             "measurement run)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign scenario: the campaign seed "
                             "(default 0)")
    parser.add_argument("--top", type=int, default=20, metavar="N",
                        help="rows in the phase table (default 20)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write the repro-profile/2 document to FILE")
    parser.add_argument("--flamegraph", metavar="FILE", default=None,
                        help="write collapsed stacks (flamegraph.pl "
                             "input) to FILE")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        default=None,
                        help="compare two profile documents instead of "
                             "running a scenario")
    parser.add_argument("--validate", metavar="FILE", default=None,
                        help="schema-check a profile document instead "
                             "of running a scenario")
    return parser


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def run_diff(path_a, path_b, top=20):
    """The hotspot diff mode; returns (exit status, diff document)."""
    try:
        diff = diff_documents(_load(path_a), _load(path_b))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print("profile: diff failed: %s" % exc, file=sys.stderr)
        return 1, None
    print(render_diff(diff, top=top))
    return 0, diff


def run_validate(path):
    """The schema drift gate; returns the exit status."""
    try:
        document = _load(path)
    except (OSError, json.JSONDecodeError) as exc:
        print("profile: cannot read %s: %s" % (path, exc),
              file=sys.stderr)
        return 1
    problems = validate_profile(document)
    if problems:
        for problem in problems:
            print("profile: SCHEMA DRIFT in %s: %s" % (path, problem))
        return 1
    print("profile: %s is a valid %s document (%d phases, %d stacks)"
          % (path, document["schema"], len(document["phases"]),
             len(document["stacks"])))
    return 0


def profile_scenario(args):
    """Run the chosen scenario under a fresh profiler; returns the
    ``repro-profile/2`` document."""
    profiler = HostProfiler()
    if args.scenario == "campaign":
        from repro.faults.campaign import run_campaign
        with profiler:
            run_campaign(args.seed)
        scenario = "campaign-seed-%d" % args.seed
        meta = {"seed": args.seed}
    else:
        from repro.harness.bench import run_bench
        run_bench(iterations=args.iterations,
                  configs=args.config or None, profiler=profiler)
        scenario = "bench-sweep"
        meta = {"iterations": args.iterations,
                "configs": sorted(args.config) or "all"}
    return profile_document(profiler, scenario=scenario, meta=meta)


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.diff is not None:
        status, _ = run_diff(args.diff[0], args.diff[1], top=args.top)
        return status
    if args.validate is not None:
        return run_validate(args.validate)

    if args.scenario == "bench":
        from repro.harness.configs import ALL_CONFIGS
        for name in args.config:
            if name not in ALL_CONFIGS:
                print("profile: unknown config %r (have: %s)"
                      % (name, ", ".join(sorted(ALL_CONFIGS))),
                      file=sys.stderr)
                return 2

    document = profile_scenario(args)
    print(render_phase_table(document, top=args.top))
    if args.json is not None:
        write_json(document, args.json)
        print("profile: wrote %s" % args.json)
    if args.flamegraph is not None:
        with open(args.flamegraph, "w") as fh:
            fh.write(collapsed_stacks(document))
        print("profile: wrote %s" % args.flamegraph)
    return 0


if __name__ == "__main__":
    sys.exit(main())
