import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trialogic import PLAYERS, game, serialize_theory
from trialogic.cli import run
from trialogic.corpus import ATOM_POOL, random_setup


def invoke(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def s1_path(fixtures_dir):
    return fixtures_dir / "s1.ddt"


class TestCheck:
    def test_clean_file_human(self, capsys, s1_path):
        code, out, err = invoke(capsys, "check", s1_path)
        assert code == 0
        assert out == "ok: 4 facts, 7 rules\n"
        assert err == ""

    def test_clean_file_json(self, capsys, s1_path):
        code, out, _ = invoke(capsys, "check", s1_path, "--json")
        assert code == 0
        assert out == '{"ok":true,"errors":[],"warnings":[]}\n'

    def test_warnings_keep_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "conflict.ddt"
        path.write_text("fact O b.\nfact O ~b.\n")
        code, out, _ = invoke(capsys, "check", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["warnings"] == ["facts oblige both b and ~b"]

    def test_parse_failure_json(self, capsys, tmp_path):
        path = tmp_path / "broken.ddt"
        path.write_text("fact a.\nrule r1: a => b\n")
        code, out, _ = invoke(capsys, "check", path, "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["errors"] == ["3:1: expected '.', found ''"]

    def test_parse_failure_human_goes_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "broken.ddt"
        path.write_text("fact a.\nrule r1: a => b\n")
        code, out, err = invoke(capsys, "check", path)
        assert code == 1
        assert out == ""
        assert "expected '.'" in err


class TestProve:
    def test_query_json(self, capsys, s1_path):
        code, out, _ = invoke(
            capsys, "prove", s1_path, "--query", "+d b", "--json")
        assert code == 0
        assert out == '{"query":"+d b","status":"refuted"}\n'

    def test_query_human_uses_glyphs(self, capsys, s1_path):
        code, out, _ = invoke(capsys, "prove", s1_path, "--query", "+d b")
        assert code == 0
        assert out == "+δ b: refuted\n"

    def test_sigma_obligation_conflict_is_credulous(self, capsys,
                                                    fixtures_dir):
        path = fixtures_dir / "s4.ddt"
        for query in ("+s O b", "+s O ~b"):
            code, out, _ = invoke(
                capsys, "prove", path, "--query", query, "--json")
            assert code == 0
            assert json.loads(out)["status"] == "proved"

    def test_defeated_prohibition(self, capsys, fixtures_dir):
        code, out, _ = invoke(
            capsys, "prove", fixtures_dir / "s3.ddt",
            "--query", "-p O ~b", "--json")
        assert code == 0
        assert json.loads(out) == {"query": "-p O ~b", "status": "proved"}

    def test_all_lists_every_signed_conclusion(self, capsys, fixtures_dir):
        code, out, _ = invoke(
            capsys, "prove", fixtures_dir / "s4.ddt", "--all", "--json")
        assert code == 0
        rows = json.loads(out)
        # 4 literals x 2 modes x 4 tags
        assert len(rows) == 32
        assert {"literal": "b", "mode": "O", "tag": "sigma",
                "status": "proved"} in rows
        assert {"literal": "~b", "mode": "O", "tag": "sigma",
                "status": "proved"} in rows
        assert {"literal": "b", "mode": "O", "tag": "partial",
                "status": "refuted"} in rows

    def test_needs_query_or_all(self, capsys, s1_path):
        code, out, err = invoke(capsys, "prove", s1_path)
        assert code == 1
        assert "needs --query or --all" in err


class TestStandards:
    def test_evidential_json(self, capsys, s1_path):
        code, out, _ = invoke(
            capsys, "standards", s1_path, "--literal", "b", "--json")
        assert code == 0
        assert out == \
            '{"literal":"b","mode":"E","met":["scintilla","substantial"]}\n'

    def test_deontic_mode(self, capsys, fixtures_dir):
        code, out, _ = invoke(
            capsys, "standards", fixtures_dir / "s3.ddt",
            "--literal", "b", "--mode", "O", "--json")
        assert code == 0
        assert json.loads(out)["met"] == [
            "scintilla", "substantial", "preponderance", "brd"]

    def test_human_listing(self, capsys, s1_path):
        code, out, _ = invoke(capsys, "standards", s1_path, "--literal", "b")
        assert code == 0
        assert out == "b meets: scintilla, substantial\n"


class TestPermission:
    def test_defeated_prohibition_permits(self, capsys, fixtures_dir):
        code, out, _ = invoke(
            capsys, "permission", fixtures_dir / "s3.ddt",
            "--literal", "b", "--json")
        assert code == 0
        assert out == '{"literal":"b","tag":"partial",' \
            '"status":"weakly_permitted"}\n'

    def test_standing_prohibition_human(self, capsys, s1_path):
        code, out, _ = invoke(capsys, "permission", s1_path, "--literal", "b")
        assert code == 0
        assert out == "b: not_permitted (+∂ O ~b)\n"

    def test_silence_permits(self, capsys, fixtures_dir):
        code, out, _ = invoke(
            capsys, "permission", fixtures_dir / "empty_deontic.ddt",
            "--literal", "x", "--tag", "p", "--json")
        assert code == 0
        assert json.loads(out)["status"] == "weakly_permitted"


class TestGameRun:
    def test_scripted_defence_win_json(self, capsys, fixtures_dir):
        code, out, _ = invoke(
            capsys, "game", "run", fixtures_dir / "s1.ddt",
            "--moves", fixtures_dir / "s1_play_b.moves", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "def_succeeds"
        assert [turn["player"] for turn in payload["turns"]] == \
            ["pr", "def", "pr", "def"]
        assert payload["turns"][0]["rules"] == ["r2", "r3", "r4"]
        assert payload["turns"][0]["targets"] == [["E", "b"], ["O", "~b"]]
        assert payload["turns"][1]["rules"] == ["r4a", "r5"]
        assert "-d b" in payload["turns"][1]["newly"]
        assert payload["turns"][2]["rules"] == []

    def test_scripted_defence_win_human(self, capsys, fixtures_dir):
        code, out, _ = invoke(
            capsys, "game", "run", fixtures_dir / "s1.ddt",
            "--moves", fixtures_dir / "s1_play_b.moves")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1. pr plays r2, r3, r4; targets E b, O ~b"
        assert lines[-1] == "outcome: def_succeeds"
        assert "3. pr passes" in lines
        assert any(line.startswith("   new: ") for line in lines)


class TestGameAuto:
    def test_greedy_json(self, capsys, s1_path):
        code, out, _ = invoke(capsys, "game", "auto", s1_path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "pr_succeeds"
        assert payload["turns"][0]["rules"] == ["r1", "r4"]

    def test_full_disclosure_json(self, capsys, s1_path):
        code, out, _ = invoke(
            capsys, "game", "auto", s1_path, "--policy", "full", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "def_succeeds"
        assert payload["turns"][0]["rules"] == ["r1", "r2", "r3", "r4"]
        assert payload["turns"][1]["rules"] == ["r4a", "r5", "r6"]

    def test_human_trace(self, capsys, fixtures_dir):
        code, out, _ = invoke(capsys, "game", "auto", fixtures_dir / "s3.ddt")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1. pr plays r4; targets E b, O ~b"
        assert lines[2] == "2. def plays r10; targets O b, O ~b"
        assert lines[-1] == "outcome: def_succeeds"


class TestGameAnalyze:
    def test_json_shape(self, capsys, s1_path):
        code, out, _ = invoke(capsys, "game", "analyze", s1_path, "--json")
        assert code == 0
        assert out == '{"winner":"pr","minimal_opening":["r1","r4"],' \
            '"states_explored":35}\n'

    def test_whole_pool_needed(self, capsys, fixtures_dir):
        code, out, _ = invoke(
            capsys, "game", "analyze", fixtures_dir / "s2.ddt", "--json")
        assert code == 0
        assert json.loads(out) == {
            "winner": "pr",
            "minimal_opening": ["r1", "r4", "r7"],
            "states_explored": 26,
        }

    def test_no_winning_opening_human(self, capsys, fixtures_dir):
        code, out, _ = invoke(
            capsys, "game", "analyze", fixtures_dir / "s3.ddt")
        assert code == 0
        assert out == ("winner: def\n"
                       "minimal opening: none\n"
                       "states explored: 3\n")

    def test_standard_override_flips_the_game(self, capsys, fixtures_dir):
        code, out, _ = invoke(
            capsys, "game", "analyze", fixtures_dir / "s2.ddt",
            "--evidential-standard", "d", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"] == "def"
        assert payload["minimal_opening"] is None


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, out, err = invoke(capsys, "check", "no_such_file.ddt")
        assert code == 1
        assert "no_such_file.ddt" in err

    def test_unowned_opening_is_script_validation(self, capsys, s1_path,
                                                  tmp_path):
        moves = tmp_path / "bad.moves"
        moves.write_text("pr: r4a.\n")
        code, out, err = invoke(
            capsys, "game", "run", s1_path, "--moves", moves)
        assert code == 1
        assert "not in the pr pool" in err

    def test_rejected_opening(self, capsys, s1_path, tmp_path):
        moves = tmp_path / "weak.moves"
        moves.write_text("pr: r2.\n")
        code, out, err = invoke(
            capsys, "game", "run", s1_path, "--moves", moves)
        assert code == 2
        assert err == ("opening rejected: claim literal b is not proved "
                       "evidentially; obligation of ~b is not proved\n")

    def test_illegal_move(self, capsys, s1_path, tmp_path):
        moves = tmp_path / "noop.moves"
        moves.write_text("pr: r1, r4.\ndef: r6 targets E b.\n")
        code, out, err = invoke(
            capsys, "game", "run", s1_path, "--moves", moves)
        assert code == 2
        assert "illegal move at turn 1 (def)" in err
        assert "target postcondition" in err

    def test_bound_exceeded(self, capsys, s1_path, monkeypatch):
        tables = []
        monkeypatch.setattr(game, "compute_conclusions",
                            lambda *args, **kwargs: tables.append(args))
        code, out, err = invoke(
            capsys, "game", "analyze", s1_path, "--bound", "3")
        assert code == 3
        assert err == ("7 private rules exceed the exhaustive search "
                       "bound of 3\n")
        assert tables == []


class TestModuleEntryPoint:
    def test_analyze_bytes(self, fixtures_dir):
        result = subprocess.run(
            [sys.executable, "-m", "trialogic", "game", "analyze",
             str(fixtures_dir / "s1.ddt"), "--json"],
            capture_output=True)
        assert result.returncode == 0
        assert result.stdout == \
            b'{"winner":"pr","minimal_opening":["r1","r4"],' \
            b'"states_explored":35}\n'

    def test_failure_exit_code_propagates(self):
        result = subprocess.run(
            [sys.executable, "-m", "trialogic", "check", "no_such_file.ddt"],
            capture_output=True)
        assert result.returncode == 1
        assert result.stdout == b""


# Inputs of each kind: well formed, near misses, or arbitrary text.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)
_LITERAL_TEXT = st.builds(str.__add__, st.sampled_from(["", "~"]),
                          st.sampled_from(ATOM_POOL + "z"))
_QUERY_TEXT = st.builds(
    "{}{} {}{}".format, st.sampled_from("+-"), st.sampled_from("dpswx"),
    st.sampled_from(["", "O ", "E "]), _LITERAL_TEXT)
_MOVE_LINE = st.builds(
    "{}: {}.".format, st.sampled_from(PLAYERS + ("xx",)),
    st.sampled_from(["pass", "r1", "r2, r3", "r4 targets E b",
                     "r5, r6 targets O ~a, E c", "r7 targets", "r99"]))


@st.composite
def _cli_files(draw):
    if draw(st.integers(0, 9)) == 0:
        theory = draw(_TEXT)
    else:
        theory = serialize_theory(random_setup(
            draw(st.integers(0, 10**6)), max_rules=draw(st.integers(1, 10)),
            allow_annotations=draw(st.booleans())))
    moves = draw(_TEXT | st.lists(_MOVE_LINE, max_size=4).map("\n".join))
    return theory, moves


def _argvs(theory, moves, literal, query, bound, flags):
    return [
        ["check", theory, *flags],
        ["prove", theory, f"--query={query}", *flags],
        ["prove", theory, "--all", *flags],
        ["standards", theory, f"--literal={literal}", *flags],
        ["standards", theory, f"--literal={literal}", "--mode", "O", *flags],
        ["permission", theory, f"--literal={literal}", *flags],
        ["game", "run", theory, "--moves", moves, *flags],
        ["game", "auto", theory, "--policy", "full", *flags],
        ["game", "auto", theory, *flags],
        ["game", "analyze", theory, "--bound", str(bound), *flags],
    ]


class TestAnyInput:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_cli_files(), _LITERAL_TEXT | _TEXT, _QUERY_TEXT | _TEXT,
           st.integers(0, 6),
           st.lists(st.sampled_from(
               ["--json", "--evidential-standard=w",
                "--deontic-standard=d"]), unique=True))
    def test_every_subcommand_ends_in_an_exit_code(
            self, tmp_path, files, literal, query, bound, flags):
        theory, moves = tmp_path / "setup.ddt", tmp_path / "play.moves"
        theory.write_text(files[0], encoding="utf-8")
        moves.write_text(files[1], encoding="utf-8")
        for argv in _argvs(str(theory), str(moves), literal, query, bound,
                           flags):
            assert run(argv) in (0, 1, 2, 3), argv
