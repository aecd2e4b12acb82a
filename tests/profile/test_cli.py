"""The ``python -m repro profile`` surface: routing, file modes, runs."""

import json

from repro.profile import cli
from repro.profile.export import validate_profile

from tests.profile.test_export import build_document


def test_main_routing_knows_profile():
    from repro.__main__ import SUBCOMMANDS, usage
    names = [name for name, _, _ in SUBCOMMANDS]
    assert "profile" in names
    assert "profile" in usage()


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestValidateMode:
    def test_valid_document_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "a.json", build_document())
        assert cli.main(["--validate", path]) == 0
        assert "valid repro-profile/2" in capsys.readouterr().out

    def test_schema_drift_exits_one_and_names_it(self, tmp_path, capsys):
        document = build_document()
        del document["phases"]["trap.dispatch"]["cum_ns"]
        path = _write(tmp_path, "bad.json", document)
        assert cli.main(["--validate", path]) == 1
        out = capsys.readouterr().out
        assert "SCHEMA DRIFT" in out
        assert "phase trap.dispatch: missing cum_ns" in out

    def _drift(self, tmp_path, capsys, document):
        """Validate *document*; returns the drift lines it printed."""
        path = _write(tmp_path, "bad.json", document)
        assert cli.main(["--validate", path]) == 1
        return capsys.readouterr().out.splitlines()

    def test_non_object_phase_entry_is_drift_not_a_crash(
            self, tmp_path, capsys):
        document = build_document()
        document["phases"]["x"] = 5
        lines = self._drift(tmp_path, capsys, document)
        assert lines == ["profile: SCHEMA DRIFT in %s: phase x: not an "
                         "object" % (tmp_path / "bad.json")]

    def test_non_object_stacks_is_drift_not_a_crash(self, tmp_path,
                                                      capsys):
        document = build_document()
        document["stacks"] = ["cpu:_trap 15"]
        lines = self._drift(tmp_path, capsys, document)
        assert len(lines) == 1
        assert lines[0].endswith("stacks missing or not an object")

    def test_non_integer_stack_weight_is_drift(self, tmp_path, capsys):
        document = build_document()
        document["stacks"]["cpu:_trap"] = 1.5
        lines = self._drift(tmp_path, capsys, document)
        assert len(lines) == 1
        assert lines[0].endswith(
            "stack cpu:_trap: weight 1.5 is not an integer")

    def test_old_schema_is_one_line_naming_the_new_one(self, tmp_path,
                                                        capsys):
        document = build_document()
        document["schema"] = "repro-profile/1"
        document["redundancy"] = {"sites": {}}
        lines = self._drift(tmp_path, capsys, document)
        assert len(lines) == 1
        assert "want 'repro-profile/2'" in lines[0]

    def test_unreadable_file_exits_one(self, tmp_path):
        assert cli.main(["--validate", str(tmp_path / "nope.json")]) == 1


class TestDiffMode:
    def test_diff_reports_deltas(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json",
                   build_document(scenario="before", trap_ns=10))
        b = _write(tmp_path, "b.json",
                   build_document(scenario="after", trap_ns=30))
        assert cli.main(["--diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "profile diff: before -> after" in out
        assert "trap.dispatch" in out
        assert "redundancy" not in out

    def test_diff_of_invalid_document_exits_one(self, tmp_path, capsys):
        broken = build_document()
        broken["phases"] = "nope"
        a = _write(tmp_path, "a.json", broken)
        b = _write(tmp_path, "b.json", build_document())
        assert cli.main(["--diff", a, b]) == 1

    def test_diff_of_malformed_phase_entry_exits_one(self, tmp_path,
                                                       capsys):
        broken = build_document()
        broken["phases"]["x"] = 5
        a = _write(tmp_path, "a.json", build_document())
        b = _write(tmp_path, "b.json", broken)
        assert cli.main(["--diff", a, b]) == 1
        assert "phase x: not an object" in capsys.readouterr().err

    def test_diff_of_old_schema_is_one_line_naming_the_new_one(
            self, tmp_path, capsys):
        old = build_document()
        old["schema"] = "repro-profile/1"
        a = _write(tmp_path, "a.json", old)
        b = _write(tmp_path, "b.json", build_document())
        assert cli.main(["--diff", a, b]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "want 'repro-profile/2'" in lines[0]


def test_unknown_config_exits_two(capsys):
    assert cli.main(["--config", "no-such-config"]) == 2
    assert "unknown config" in capsys.readouterr().err


def test_campaign_scenario_end_to_end(tmp_path, capsys):
    json_path = tmp_path / "prof.json"
    folded_path = tmp_path / "prof.folded"
    status = cli.main(["--scenario", "campaign", "--seed", "0",
                       "--json", str(json_path),
                       "--flamegraph", str(folded_path)])
    assert status == 0
    out = capsys.readouterr().out
    assert "scenario: campaign-seed-0" in out
    assert "redundancy" not in out
    document = json.loads(json_path.read_text())
    assert validate_profile(document) == []
    assert document["scenario"] == "campaign-seed-0"
    assert document["phases"]["trap.dispatch"]["calls"] > 0
    # Flamegraph lines are "stack weight" pairs over the same stacks.
    lines = folded_path.read_text().splitlines()
    assert lines and all(part.rsplit(" ", 1)[1].isdigit()
                         for part in lines)
