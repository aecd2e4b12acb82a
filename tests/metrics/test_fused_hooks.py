"""Fused hook-chain semantics of :class:`CycleLedger`.

The two observe-only slots (observer, metrics_sink) collapse into one
fused callback: ``None`` with no consumers, the consumer itself with
exactly one, and an ordered chain with both.  Every combination must
deliver the same calls, in the same order, as one check per slot per
charge would.
"""

import itertools

from repro.metrics.cycles import CycleLedger

SLOTS = ("observer", "metrics_sink")


def _recorder(log, tag):
    def hook(cycles, category):
        log.append((tag, cycles, category))
    return hook


def test_no_consumers_has_no_fused_callback():
    ledger = CycleLedger()
    assert ledger._fused is None
    ledger.charge(5, "guest")
    assert ledger.total == 5
    assert ledger.by_category == {"guest": 5}


def test_single_consumer_is_fused_to_itself():
    for slot in SLOTS:
        ledger = CycleLedger()
        log = []
        hook = _recorder(log, slot)
        setattr(ledger, slot, hook)
        assert ledger._fused is hook  # no wrapper frame
        ledger.charge(3, "trap")
        assert log == [(slot, 3, "trap")]


def test_every_attachment_combination_matches_unfused_order():
    """0/1/N consumers: the fused chain fires exactly the attached
    hooks, in slot order, once per charge."""
    for attach in itertools.product((False, True), repeat=len(SLOTS)):
        ledger = CycleLedger()
        log = []
        expected_tags = []
        for slot, attached in zip(SLOTS, attach):
            if attached:
                setattr(ledger, slot, _recorder(log, slot))
                expected_tags.append(slot)
        ledger.charge(7, "sysreg")
        ledger.charge(2, "idle")
        assert log == ([(tag, 7, "sysreg") for tag in expected_tags]
                       + [(tag, 2, "idle") for tag in expected_tags])
        assert ledger.total == 9


def test_detaching_rebuilds_the_chain():
    ledger = CycleLedger()
    log = []
    ledger.observer = _recorder(log, "observer")
    ledger.metrics_sink = _recorder(log, "metrics_sink")
    ledger.charge(1, "a")
    ledger.observer = None
    ledger.charge(1, "b")
    assert ledger._fused is ledger.metrics_sink
    ledger.metrics_sink = None
    assert ledger._fused is None
    ledger.charge(1, "c")
    assert log == [("observer", 1, "a"), ("metrics_sink", 1, "a"),
                   ("metrics_sink", 1, "b")]
    assert ledger.total == 3


def test_slots_stay_readable_properties():
    # The benchmark's traced mode wraps these class attributes by name.
    for slot in SLOTS:
        assert isinstance(CycleLedger.__dict__[slot], property)
    ledger = CycleLedger()
    assert ledger.observer is None
    assert ledger.metrics_sink is None
    hook = _recorder([], "x")
    ledger.metrics_sink = hook
    assert ledger.metrics_sink is hook


def test_value_semantics_ignore_hooks():
    """The old dataclass compared on (total, by_category) with the hook
    slots excluded; the plain class must keep that contract."""
    a = CycleLedger()
    b = CycleLedger()
    a.observer = _recorder([], "a")
    assert a == b
    a.charge(4, "guest")
    assert a != b
    b.charge(4, "guest")
    assert a == b
    assert "total=4" in repr(a)
