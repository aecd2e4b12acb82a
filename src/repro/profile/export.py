"""Exporters for ``repro-profile/2`` documents.

A profile document is JSON with host-nanosecond phase accounting and
the collapsed call stacks (flamegraph input).  Host time is
nondeterministic by nature, so these documents live in ``PROF_*``
sidecar files that no golden byte-diff ever covers; the *shape* is
contractual, though — :func:`validate_profile` is the schema-drift
gate CI runs.

Also here: the human rendering of the phase table, the hotspot
**diff** between two documents (how a perf change proves its win phase
by phase), and the deterministic :func:`merge_profiles` fold the fleet
uses to aggregate per-worker profiles.
"""

import json

from repro.profile.sites import group_for_phase

PROFILE_SCHEMA = "repro-profile/2"
DIFF_SCHEMA = "repro-profile-diff/2"


def profile_document(profiler, scenario, meta=None):
    """Build the ``repro-profile/2`` document for one profiling run."""
    phases = {}
    for phase, stat in sorted(profiler.phases.items()):
        phases[phase] = {
            "group": group_for_phase(phase),
            "calls": stat.calls,
            "self_ns": stat.self_ns,
            "cum_ns": stat.cum_ns,
        }
    stacks = {";".join(key): ns
              for key, ns in profiler.stacks.items() if ns > 0}
    document = {
        "schema": PROFILE_SCHEMA,
        "scenario": scenario,
        "wall_ns": profiler.wall_ns,
        "phases": phases,
        "stacks": stacks,
    }
    if meta:
        document["meta"] = dict(meta)
    return document


def validate_profile(document):
    """Schema check; returns a list of problems (empty means valid).

    Never raises on malformed input.  A document of another schema
    yields the single schema problem: its fields mean something else.
    """
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    if document.get("schema") != PROFILE_SCHEMA:
        return ["schema is %r, want %r"
                % (document.get("schema"), PROFILE_SCHEMA)]
    problems = []
    if not isinstance(document.get("wall_ns"), int):
        problems.append("wall_ns missing or not an integer")
    phases = document.get("phases")
    if not isinstance(phases, dict):
        problems.append("phases missing or not an object")
    else:
        for phase, entry in sorted(phases.items()):
            if not isinstance(entry, dict):
                problems.append("phase %s: not an object" % phase)
                continue
            for fieldname in ("calls", "self_ns", "cum_ns"):
                if not isinstance(entry.get(fieldname), int):
                    problems.append("phase %s: missing %s"
                                    % (phase, fieldname))
            if not isinstance(entry.get("group"), str):
                problems.append("phase %s: missing group" % phase)
    stacks = document.get("stacks")
    if not isinstance(stacks, dict):
        problems.append("stacks missing or not an object")
    else:
        for stack, ns in sorted(stacks.items()):
            if not isinstance(ns, int):
                problems.append("stack %s: weight %r is not an integer"
                                % (stack, ns))
    return problems


def collapsed_stacks(document):
    """The flamegraph input: one ``frame;frame;frame weight`` line per
    collapsed stack (weights are host nanoseconds), sorted for
    determinism given the same samples."""
    lines = []
    for stack, ns in sorted(document.get("stacks", {}).items()):
        lines.append("%s %d" % (stack, ns))
    return "\n".join(lines) + ("\n" if lines else "")


def render_phase_table(document, top=None):
    """The self/cumulative host-time table, hottest phase first."""
    phases = document.get("phases", {})
    wall = document.get("wall_ns") or 0
    rows = sorted(phases.items(),
                  key=lambda item: (-item[1]["self_ns"], item[0]))
    if top is not None:
        rows = rows[:top]
    header = ("%-28s %-14s %10s %10s %6s %10s"
              % ("phase", "group", "calls", "self_ms", "self%",
                 "cum_ms"))
    lines = ["scenario: %s  (wall %.3f ms)"
             % (document.get("scenario"), wall / 1e6),
             header, "-" * len(header)]
    for phase, entry in rows:
        share = (100.0 * entry["self_ns"] / wall) if wall else 0.0
        lines.append("%-28s %-14s %10d %10.3f %5.1f%% %10.3f"
                     % (phase, entry["group"], entry["calls"],
                        entry["self_ns"] / 1e6, share,
                        entry["cum_ns"] / 1e6))
    return "\n".join(lines)


# -- the hotspot diff ----------------------------------------------------

def diff_documents(before, after):
    """Compare two profile documents; returns the
    ``repro-profile-diff/2`` document with per-phase host-time
    deltas."""
    for name, document in (("before", before), ("after", after)):
        problems = validate_profile(document)
        if problems:
            raise ValueError("%s document is not %s: %s"
                             % (name, PROFILE_SCHEMA, "; ".join(problems)))
    phases = {}
    names = set(before["phases"]) | set(after["phases"])
    empty = {"calls": 0, "self_ns": 0, "cum_ns": 0}
    for phase in sorted(names):
        b = before["phases"].get(phase, empty)
        a = after["phases"].get(phase, empty)
        phases[phase] = {
            fieldname: {"before": b[fieldname], "after": a[fieldname],
                        "delta": a[fieldname] - b[fieldname]}
            for fieldname in ("calls", "self_ns", "cum_ns")
        }
    return {
        "schema": DIFF_SCHEMA,
        "scenarios": {"before": before.get("scenario"),
                      "after": after.get("scenario")},
        "wall_ns": {"before": before["wall_ns"],
                    "after": after["wall_ns"],
                    "delta": after["wall_ns"] - before["wall_ns"]},
        "phases": phases,
    }


def render_diff(diff, top=20):
    """Human form of a profile diff: hottest movement first."""
    wall = diff["wall_ns"]
    lines = ["profile diff: %s -> %s"
             % (diff["scenarios"]["before"], diff["scenarios"]["after"]),
             "wall: %.3f ms -> %.3f ms (%+.3f ms)"
             % (wall["before"] / 1e6, wall["after"] / 1e6,
                wall["delta"] / 1e6), ""]
    header = ("%-28s %12s %12s %12s %10s"
              % ("phase", "self_ms_before", "self_ms_after",
                 "self_ms_delta", "calls_d"))
    lines += [header, "-" * len(header)]
    rows = sorted(diff["phases"].items(),
                  key=lambda item: (-abs(item[1]["self_ns"]["delta"]),
                                    item[0]))
    for phase, entry in rows[:top]:
        self_ns = entry["self_ns"]
        lines.append("%-28s %14.3f %12.3f %+13.3f %+10d"
                     % (phase, self_ns["before"] / 1e6,
                        self_ns["after"] / 1e6, self_ns["delta"] / 1e6,
                        entry["calls"]["delta"]))
    return "\n".join(lines)


# -- the fleet aggregation fold ------------------------------------------

def merge_profiles(documents, scenario=None):
    """Deterministically fold per-worker profile documents into one.

    Pure function of the input sequence: wall time, phase times and
    stack weights add.  The fleet merge calls this in shard-id order,
    so the aggregate is as order-blind as the rest of the merged
    exports.
    """
    documents = [doc for doc in documents if doc is not None]
    if not documents:
        raise ValueError("no profile documents to merge")
    phases = {}
    stacks = {}
    wall_ns = 0
    scenarios = []
    for document in documents:
        problems = validate_profile(document)
        if problems:
            raise ValueError("cannot merge invalid profile: %s"
                             % "; ".join(problems))
        scenarios.append(document.get("scenario"))
        wall_ns += document["wall_ns"]
        for phase, entry in document["phases"].items():
            merged = phases.setdefault(
                phase, {"group": entry["group"], "calls": 0,
                        "self_ns": 0, "cum_ns": 0})
            for fieldname in ("calls", "self_ns", "cum_ns"):
                merged[fieldname] += entry[fieldname]
        for stack, ns in document.get("stacks", {}).items():
            stacks[stack] = stacks.get(stack, 0) + ns
    if scenario is None:
        scenario = "merge(%d profiles)" % len(documents)
    return {
        "schema": PROFILE_SCHEMA,
        "scenario": scenario,
        "wall_ns": wall_ns,
        "phases": dict(sorted(phases.items())),
        "stacks": dict(sorted(stacks.items())),
        "meta": {"merged": len(documents), "scenarios": scenarios},
    }


def write_json(document, path):
    """Write a document with the house JSON conventions."""
    with open(path, "w") as fh:
        json.dump(document, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path
