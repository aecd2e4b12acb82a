"""repro-profile/2 exporters: schema gate, diff, merge, renderings."""

import json

import pytest

from repro.profile.export import (
    collapsed_stacks,
    diff_documents,
    merge_profiles,
    profile_document,
    render_diff,
    render_phase_table,
    validate_profile,
    write_json,
)
from repro.profile.profiler import HostProfiler

from tests.profile.test_profiler import TRAP, FakeClock


def build_document(scenario="unit", trap_ns=15):
    """A small but fully real document: the profiler is driven by
    hand, then exported through the production builder."""
    clock = FakeClock()
    profiler = HostProfiler(clock_ns=clock)
    profiler._active = True
    profiler._last_ns = 0
    profiler._callback(TRAP, "call", None)
    clock.now = trap_ns
    profiler._callback(TRAP, "return", None)
    profiler.stop()
    return profile_document(profiler, scenario=scenario)


class TestValidate:
    def test_real_document_is_valid(self):
        document = build_document()
        assert validate_profile(document) == []
        assert sorted(document) == ["phases", "scenario", "schema",
                                    "stacks", "wall_ns"]

    def test_non_integer_wall_is_schema_drift(self):
        document = build_document()
        document["wall_ns"] = "fast"
        assert any("wall_ns" in problem
                   for problem in validate_profile(document))


class TestRenderings:
    def test_collapsed_stacks_are_flamegraph_lines(self):
        assert collapsed_stacks(build_document(trap_ns=15)) \
            == "cpu:_trap 15\n"

    def test_phase_table_names_phase_and_scenario(self):
        table = render_phase_table(build_document(scenario="sweep"))
        assert "sweep" in table
        assert "trap.dispatch" in table
        assert "trap-dispatch" in table  # the group column


class TestDiff:
    def test_diff_reports_per_phase_deltas(self):
        before = build_document(trap_ns=10)
        after = build_document(trap_ns=45)
        diff = diff_documents(before, after)
        assert diff["schema"] == "repro-profile-diff/2"
        phase = diff["phases"]["trap.dispatch"]["self_ns"]
        assert (phase["before"], phase["after"], phase["delta"]) \
            == (10, 45, 35)
        assert diff["phases"]["trap.dispatch"]["calls"]["delta"] == 0
        assert "redundancy" not in diff
        rendered = render_diff(diff)
        assert "trap.dispatch" in rendered
        assert "redundancy" not in rendered

    def test_diff_refuses_invalid_documents(self):
        bad = build_document()
        bad["schema"] = "something/9"
        with pytest.raises(ValueError):
            diff_documents(bad, build_document())


class TestMerge:
    def test_merge_sums_everything_and_revalidates(self):
        a = build_document(scenario="w0", trap_ns=10)
        b = build_document(scenario="w1", trap_ns=30)
        merged = merge_profiles([a, b], scenario="fleet")
        assert validate_profile(merged) == []
        assert merged["scenario"] == "fleet"
        assert merged["wall_ns"] == a["wall_ns"] + b["wall_ns"]
        assert merged["phases"]["trap.dispatch"]["self_ns"] == 40
        assert merged["phases"]["trap.dispatch"]["calls"] == 2
        assert merged["stacks"]["cpu:_trap"] == 40
        assert merged["meta"] == {"merged": 2, "scenarios": ["w0", "w1"]}

    def test_merge_is_deterministic_for_the_same_sequence(self):
        docs = [build_document(scenario="w%d" % index, trap_ns=5 + index)
                for index in range(3)]
        assert merge_profiles(docs) == merge_profiles(docs)

    def test_merge_refuses_empty_and_invalid_input(self):
        with pytest.raises(ValueError):
            merge_profiles([])
        broken = build_document()
        del broken["stacks"]
        with pytest.raises(ValueError):
            merge_profiles([build_document(), broken])


def test_write_json_roundtrips(tmp_path):
    document = build_document()
    path = tmp_path / "prof.json"
    write_json(document, path)
    assert json.loads(path.read_text()) == document
