"""``python -m repro lint``: run the analysis passes and report.

Default run (no arguments) executes every pass against the live tree:
the spec-conformance checker, the AST lint over the ``repro`` package
sources, the sanitized exit-multiplication smoke scenario, the
telemetry-registry checks (``san-metrics-reconcile``,
``san-metrics-ledger``), the fleet merge-determinism check
(``san-fleet-merge``), the host-profiler invisibility check
(``san-profile-zero-cycles``), the dispatch fast-path parity check
(``san-fastpath-parity``), and the doc lint (``doc-link``,
``doc-subcommand``) over ``README.md`` and ``docs/``.  Any finding
fails the run (exit status 1), which is what CI keys on.

The default run also includes the shared-state passes: the static
shardability gate (``statecheck``, diffed against the committed
``STATECHECK_BASELINE.json``) and its dynamic ``san-shared-state``
counterpart.  ``--statecheck`` switches to report mode: run *only* those
two passes and render the full shardability report (``--statecheck-json``
additionally writes the machine-readable document).

Usage::

    python -m repro lint                  # full clean-tree check
    python -m repro lint path/to/file.py  # lint specific files/dirs
    python -m repro lint --no-sanitize    # skip the runtime scenario
    python -m repro lint --no-metrics     # skip the registry checks
    python -m repro lint --no-docs        # skip the doc lint
    python -m repro lint --no-fleet       # skip the san-fleet-merge check
    python -m repro lint --no-profile     # skip san-profile-zero-cycles
    python -m repro lint --no-fastpath    # skip san-fastpath-parity
    python -m repro lint --no-statecheck  # skip the shared-state passes
    python -m repro lint --statecheck     # shardability report only
    python -m repro lint --statecheck --statecheck-json report.json
    python -m repro lint --statecheck --update-statecheck-baseline
"""

import argparse
import sys
from pathlib import Path


def _default_lint_paths():
    """The installed ``repro`` package sources."""
    import repro
    return [Path(repro.__file__).parent]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Spec-conformance checker, simulator-invariant lint "
                    "and runtime-sanitizer smoke run.")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint (default: the "
                             "repro package sources)")
    parser.add_argument("--no-spec", action="store_true",
                        help="skip the register-classification "
                             "spec checks")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip the AST lint")
    parser.add_argument("--no-sanitize", action="store_true",
                        help="skip the sanitized exit-multiplication "
                             "scenario")
    parser.add_argument("--no-metrics", action="store_true",
                        help="skip the telemetry-registry checks "
                             "(san-metrics-reconcile, san-metrics-ledger)")
    parser.add_argument("--no-docs", action="store_true",
                        help="skip the doc lint (markdown link and "
                             "subcommand checks over README.md and docs/)")
    parser.add_argument("--no-fleet", action="store_true",
                        help="skip the fleet merge-determinism check "
                             "(san-fleet-merge)")
    parser.add_argument("--no-profile", action="store_true",
                        help="skip the host-profiler invisibility check "
                             "(san-profile-zero-cycles)")
    parser.add_argument("--no-fastpath", action="store_true",
                        help="skip the dispatch fast-path parity check "
                             "(san-fastpath-parity)")
    parser.add_argument("--no-statecheck", action="store_true",
                        help="skip the shared-state passes (static "
                             "shardability gate + san-shared-state)")
    parser.add_argument("--statecheck", action="store_true",
                        help="run only the shared-state passes and "
                             "render the full shardability report")
    parser.add_argument("--statecheck-json", type=Path, metavar="PATH",
                        help="write the machine-readable shardability "
                             "report (repro-statecheck/1 JSON) to PATH")
    parser.add_argument("--update-statecheck-baseline",
                        action="store_true",
                        help="rewrite STATECHECK_BASELINE.json with "
                             "every current statecheck violation")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="print findings only, no summary")
    return parser


def _run_statecheck(args, baseline, findings, passes):
    """The shared-state passes; returns the ShardabilityReport."""
    from repro.analysis.statecheck import (
        check_shardability,
        run_shared_state_check,
        write_baseline,
    )
    report = check_shardability(baseline=baseline)
    if args.update_statecheck_baseline:
        path = write_baseline(report.findings)
        print("statecheck: baseline rewritten with %d suppression(s): %s"
              % (len(report.findings), path))
        report = check_shardability()
    if args.statecheck_json is not None:
        args.statecheck_json.write_text(report.to_json(),
                                        encoding="utf-8")
    findings.extend(f.to_finding() for f in report.new_findings)
    passes.append(("statecheck[%d objects, %d baselined]"
                   % (len(report.objects),
                      len(report.baselined_findings)),
                   len(report.new_findings)))
    _record("shared-state", run_shared_state_check(objects=report.objects),
            findings, passes)
    return report


def _record(name, report, findings, passes):
    """Fold one runtime gate's :class:`SanitizerReport` into the run."""
    findings.extend(report.violations)
    passes.append(("%s[%d checks]" % (name, report.checks),
                   len(report.violations)))


def main(argv=None):
    args = build_parser().parse_args(argv)
    missing = [path for path in args.paths if not path.exists()]
    if missing:
        for path in missing:
            print("error: no such file or directory: %s" % path,
                  file=sys.stderr)
        return 2

    baseline = None
    if args.statecheck or not args.no_statecheck:
        from repro.analysis.statecheck import load_baseline
        try:
            # A rewrite needs no readable old baseline.
            baseline = (set() if args.update_statecheck_baseline
                        else load_baseline())
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2

    findings = []
    passes = []

    if args.statecheck:
        # Report mode: only the shared-state passes, full rendering.
        report = _run_statecheck(args, baseline, findings, passes)
        print(report.render())
        return _verdict(args, findings, passes)

    if not args.no_spec:
        from repro.analysis.spec import check_spec
        spec_findings = check_spec()
        findings.extend(spec_findings)
        passes.append(("spec", len(spec_findings)))

    if not args.no_lint:
        from repro.analysis.lint import lint_paths
        paths = args.paths or _default_lint_paths()
        lint_findings = lint_paths(paths)
        findings.extend(lint_findings)
        passes.append(("lint", len(lint_findings)))

    from repro.analysis import sanitizer
    if not args.no_sanitize:
        _record("sanitizer", sanitizer.run_sanitized_scenario(),
                findings, passes)
    if not args.no_metrics:
        _record("metrics", sanitizer.run_metrics_checks(), findings, passes)

    if not args.no_docs:
        from repro.analysis.doclint import check_docs
        doc_findings = check_docs()
        findings.extend(doc_findings)
        passes.append(("docs", len(doc_findings)))

    if not args.no_fleet:
        _record("fleet-merge", sanitizer.check_fleet_merge(),
                findings, passes)
    if not args.no_profile:
        _record("profile-zero-cycles", sanitizer.check_profile_zero_cycles(),
                findings, passes)
    if not args.no_fastpath:
        _record("fastpath-parity", sanitizer.check_fastpath_parity(),
                findings, passes)

    if not args.no_statecheck:
        _run_statecheck(args, baseline, findings, passes)
    return _verdict(args, findings, passes)


def _verdict(args, findings, passes):
    """Print the findings and the per-pass summary; the exit status."""
    for finding in findings:
        print(finding.format())
    if not args.quiet:
        detail = ", ".join("%s: %d" % item for item in passes)
        verdict = "clean" if not findings else \
            "%d finding(s)" % len(findings)
        print("repro lint: %s (%s)" % (verdict, detail))
    return 1 if findings else 0
