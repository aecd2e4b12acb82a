"""End-to-end parity of the dispatch fast path, per configuration.

``san-fastpath-parity`` is the lint-time gate; these tests pin the
same contract in the tier-1 suite: for every configuration in
ALL_CONFIGS the fast path must leave every export byte-identical —
microbench cells, ledger breakdown, trap reasons, the metrics
registry's JSON and Prometheus text, and the canonical trace
serialization.
"""

import pytest

from repro.analysis.cli import build_parser
from repro.analysis.sanitizer import check_fastpath_parity, exports
from repro.harness.configs import ALL_CONFIGS, make_microbench
from repro.metrics.instrument import MachineMetrics
from repro.trace.spans import Tracer


def _run_config(name, fastpath):
    """Run *name*'s microbenchmark suite; returns its cells, the export
    bundle and the machine."""
    metrics = MachineMetrics(config=name)
    suite = make_microbench(name, registry=metrics.registry,
                            fastpath=fastpath)
    machine = suite.machine
    tracer = None
    if ALL_CONFIGS[name].platform == "arm":
        tracer = Tracer()
        tracer.attach_machine(machine)
    results = suite.run_all()
    metrics.registry.clock = lambda: machine.ledger.total
    if tracer is not None:
        tracer.stop()
    return results, exports(machine, metrics, tracer), machine


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_exports_identical_fastpath_on_vs_off(name):
    slow_results, slow, _ = _run_config(name, fastpath=False)
    fast_results, fast, fast_machine = _run_config(name, fastpath=True)
    assert slow_results == fast_results, (
        "%s: microbench cells diverged under the fast path" % name)
    assert sorted(slow) == sorted(fast)
    for key in slow:
        assert slow[key] == fast[key], (
            "%s: %s export diverged under the fast path" % (name, key))
    if ALL_CONFIGS[name].platform == "arm":
        assert fast_machine.dispatch is not None
        assert fast_machine.dispatch.resolutions > 0


def test_sanitizer_fastpath_parity_clean():
    report = check_fastpath_parity(hypercalls=1)
    assert report.checks >= 32
    report.assert_clean()


def test_lint_cli_has_no_fastpath_flag():
    args = build_parser().parse_args(["--no-fastpath"])
    assert args.no_fastpath
    assert not build_parser().parse_args([]).no_fastpath
