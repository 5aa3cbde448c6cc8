import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trialogic import (
    EVIDENTIAL, PLAYERS, Antecedent, GameSetup, Rule, lit, serialize_theory,
)
from trialogic import cli
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

    def test_warnings_human(self, capsys, tmp_path):
        path = tmp_path / "reflexive.ddt"
        path.write_text("rule r1: a => b.\nsup r1 > r1.\n")
        code, out, err = invoke(capsys, "check", path)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("warning: ") for line in lines[:3])
        assert lines[3] == "ok: 0 facts, 1 rules"

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

    def test_undetermined_human_has_no_witness(self, capsys, tmp_path):
        path = tmp_path / "loop.ddt"
        path.write_text("rule loop: O p =>O p.\n")
        code, out, _ = invoke(capsys, "permission", path, "--literal", "~p")
        assert code == 0
        assert out == "~p: undetermined\n"

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


class TestByteOrderMark:
    """A setup or moves file saved with a UTF-8 byte-order mark reads as
    the same file without it."""

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    @pytest.mark.parametrize("argv", [
        ("check", "{setup}"),
        ("prove", "{setup}", "--all"),
        ("game", "run", "{setup}", "--moves", "{moves}"),
    ])
    def test_output_is_that_of_the_file_without_it(
            self, capsys, fixtures_dir, tmp_path, argv, fmt):
        files = {}
        for key, name in (("setup", "s1.ddt"), ("moves", "s1_play_b.moves")):
            files[key] = tmp_path / name
            files[key].write_text(
                "\ufeff" + (fixtures_dir / name).read_text(encoding="utf-8"),
                encoding="utf-8")
        plain = {"setup": fixtures_dir / "s1.ddt",
                 "moves": fixtures_dir / "s1_play_b.moves"}
        marked = invoke(capsys, *[a.format(**files) for a in argv], *fmt)
        assert marked == invoke(capsys, *[a.format(**plain) for a in argv],
                                *fmt)
        assert marked[0] == 0


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


# The common rules r1 and r2 establish the claim, so pr may open with
# none of its rules; no fixture holds such a setup.
_COMMON_CLAIM = ("fact a.\nrule r1: a => b.\nrule r2: a =>O ~b.\n"
                 "rule p1: a => q.\nrule d1: a => z.\n"
                 "claim: b.\ngame pr: p1.\ngame def: d1.\n")


class TestEmptyOpening:
    """An opening of no rules reads as an opening, not a pass."""

    @pytest.fixture
    def common_claim(self, tmp_path):
        path = tmp_path / "common.ddt"
        path.write_text(_COMMON_CLAIM)
        return path

    def test_auto_trace_shows_the_opening(self, capsys, common_claim):
        code, out, _ = invoke(capsys, "game", "auto", common_claim)
        assert code == 0
        assert out == ("1. pr opens with no rules; targets E b, O ~b\n"
                       "2. def passes\n"
                       "3. pr passes\n"
                       "outcome: pr_succeeds\n")

    def test_scripted_trace_shows_the_opening(self, capsys, common_claim,
                                              tmp_path):
        moves = tmp_path / "open.moves"
        moves.write_text("pr: pass.\ndef: pass.\n")
        code, out, _ = invoke(
            capsys, "game", "run", common_claim, "--moves", moves)
        assert code == 0
        assert out.splitlines()[:2] == [
            "1. pr opens with no rules; targets E b, O ~b", "2. def passes"]

    def test_analyze_names_an_empty_minimal_opening(self, capsys,
                                                    common_claim):
        code, out, _ = invoke(capsys, "game", "analyze", common_claim)
        assert code == 0
        assert out == ("winner: pr\n"
                       "minimal opening: no rules\n"
                       "states explored: 1\n")
        code, out, _ = invoke(
            capsys, "game", "analyze", common_claim, "--json")
        assert out == ('{"winner":"pr","minimal_opening":[],'
                       '"states_explored":1}\n')


class TestGameAnalyze:
    def test_json_shape(self, capsys, s1_path):
        code, out, _ = invoke(capsys, "game", "analyze", s1_path, "--json")
        assert code == 0
        assert out == '{"winner":"pr","minimal_opening":["r1","r4"],' \
            '"states_explored":3}\n'

    def test_whole_pool_needed(self, capsys, fixtures_dir):
        code, out, _ = invoke(
            capsys, "game", "analyze", fixtures_dir / "s2.ddt", "--json")
        assert code == 0
        assert json.loads(out) == {
            "winner": "pr",
            "minimal_opening": ["r1", "r4", "r7"],
            "states_explored": 13,
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

    def test_unowned_opening_is_an_illegal_move(self, capsys, s1_path,
                                                tmp_path):
        moves = tmp_path / "bad.moves"
        moves.write_text("pr: r4a.\n")
        code, out, err = invoke(
            capsys, "game", "run", s1_path, "--moves", moves)
        assert code == 2
        assert err == ("illegal move at turn 0 (pr): ownership: rules not "
                       "in the mover's private pool: r4a\n")

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

    def test_bound_exceeded(self, capsys, s1_path, computed):
        code, out, err = invoke(
            capsys, "game", "analyze", s1_path, "--bound", "3")
        assert code == 3
        assert err == ("7 private rules exceed the exhaustive search "
                       "bound of 3\n")
        assert computed == []

    @pytest.mark.parametrize("bound", ["-1", "x"])
    def test_bound_must_count_rules(self, capsys, tmp_path, computed, bound):
        # no private rules: a negative bound used to be reported as
        # exceeded, with exit 3
        path = tmp_path / "common.ddt"
        path.write_text("fact a.\nrule r1: a => b.\nclaim: b.\n")
        with pytest.raises(SystemExit) as exited:
            run(["game", "analyze", str(path), "--bound", bound])
        assert exited.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --bound: not a count of rules: '{bound}'\n")
        assert computed == []


class TestSetupValidation:
    """A setup the parser would reject still fails validation when it
    reaches the CLI some other way."""

    @pytest.fixture
    def two_pools(self, monkeypatch):
        rule = Rule("r1", (Antecedent(EVIDENTIAL, lit("a")),),
                    EVIDENTIAL, lit("b"))
        setup = GameSetup(frozenset({(EVIDENTIAL, lit("a"))}), (),
                          (rule,), (rule,))
        monkeypatch.setattr(cli, "parse_theory", lambda text: setup)

    def test_check_prints_errors(self, capsys, s1_path, two_pools):
        code, out, err = invoke(capsys, "check", s1_path)
        assert code == 1
        assert out == ""
        assert "error: rule id 'r1' appears in both pr and def pools\n" \
            in err

    def test_game_exits_through_the_validation_handler(
            self, capsys, s1_path, two_pools):
        code, out, err = invoke(capsys, "game", "auto", s1_path)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: rule id 'r1' appears in both pr and def pools",
            "error: duplicate rule id 'r1'"]


class TestModuleEntryPoint:
    def test_analyze_bytes(self, fixtures_dir):
        result = subprocess.run(
            [sys.executable, "-m", "trialogic", "game", "analyze",
             str(fixtures_dir / "s1.ddt"), "--json"],
            capture_output=True)
        assert result.returncode == 0
        assert result.stdout == \
            b'{"winner":"pr","minimal_opening":["r1","r4"],' \
            b'"states_explored":3}\n'

    def test_failure_exit_code_propagates(self):
        result = subprocess.run(
            [sys.executable, "-m", "trialogic", "check", "no_such_file.ddt"],
            capture_output=True)
        assert result.returncode == 1
        assert result.stdout == b""

    # A fresh process loads only the subcommand's modules, so these check
    # that each refusal still maps to its exit code there.
    @pytest.mark.parametrize("moves, stderr", [
        ("pr: r2.\n",
         b"opening rejected: claim literal b is not proved evidentially; "
         b"obligation of ~b is not proved\n"),
        ("pr: r1, r4.\ndef: r6 targets E b.\n",
         b"illegal move at turn 1 (def): target postcondition: the move "
         b"determines nothing new about b in mode E\n"),
        ("pr: r1, r4 targets E zz, O q.\ndef: pass.\npr: pass.\n",
         b"illegal move at turn 0 (pr): opening targets outside the "
         b"claim's conditions: E zz, O q\n"),
    ])
    def test_refused_game_exits_2(self, s1_path, tmp_path, moves, stderr):
        path = tmp_path / "refused.moves"
        path.write_text(moves)
        result = subprocess.run(
            [sys.executable, "-m", "trialogic", "game", "run", str(s1_path),
             "--moves", str(path)], capture_output=True)
        assert (result.returncode, result.stdout, result.stderr) == \
            (2, b"", stderr)

    def test_bound_exceeded_exits_3(self, s1_path):
        result = subprocess.run(
            [sys.executable, "-m", "trialogic", "game", "analyze",
             str(s1_path), "--bound", "3"], capture_output=True)
        assert (result.returncode, result.stdout, result.stderr) == \
            (3, b"", b"7 private rules exceed the exhaustive search bound "
                     b"of 3\n")

    def test_deep_setup_under_a_large_bound_exits_3(self, tmp_path):
        # 302 private rules: the search would need about two stack
        # frames per rule, so it is refused whatever the bound
        path = tmp_path / "deep.ddt"
        path.write_text(
            "fact f.\nfact O ~b.\nrule p0: f => b.\nrule p1: f => y.\n"
            + "".join(f"rule d{i}: f => x{i}.\n" for i in range(300))
            + "claim: b.\ngame pr: p0, p1.\ngame def: "
            + ", ".join(f"d{i}" for i in range(300)) + ".\n")
        started = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "trialogic", "game", "analyze",
             str(path), "--bound", "1000"], capture_output=True)
        assert time.perf_counter() - started < 1
        assert (result.returncode, result.stdout, result.stderr) == \
            (3, b"", b"302 private rules exceed the exhaustive search bound "
                     b"of 100\n")


# Runs ``python -m trialogic`` with the given arguments and prints the
# loaded ``trialogic`` modules as the last line of stdout.
_LOADED_MODULES = """
import json, runpy, sys
sys.argv[0] = "trialogic"
try:
    runpy.run_module("trialogic", run_name="__main__", alter_sys=True)
except SystemExit as done:
    assert done.code == 0, done.code
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] == "trialogic")))
"""


class TestModulesLoaded:
    @pytest.mark.parametrize("argv, modules", [
        (["check", "s1.ddt"], {"dsl", "model"}),
        (["prove", "s1.ddt", "--all"], {"dsl", "model", "engine"}),
        (["standards", "s1.ddt", "--literal", "b"],
         {"dsl", "model", "engine"}),
        (["permission", "s1.ddt", "--literal", "b"],
         {"dsl", "model", "engine", "permission"}),
        (["game", "run", "s1.ddt", "--moves", "s1_play_b.moves"],
         {"dsl", "model", "engine", "game"}),
        (["game", "auto", "s1.ddt"],
         {"dsl", "model", "engine", "game", "strategy"}),
        (["game", "analyze", "s1.ddt"],
         {"dsl", "model", "engine", "game", "strategy"}),
    ], ids=["check", "prove", "standards", "permission", "game-run",
            "game-auto", "game-analyze"])
    def test_subcommand_loads_only_its_modules(self, fixtures_dir, argv,
                                               modules):
        argv = [str(fixtures_dir / arg) if arg.endswith((".ddt", ".moves"))
                else arg for arg in argv]
        result = subprocess.run(
            [sys.executable, "-c", _LOADED_MODULES, *argv],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        loaded = json.loads(result.stdout.splitlines()[-1])
        assert loaded == sorted(
            ["trialogic", "trialogic.cli"]
            + [f"trialogic.{module}" for module in modules])


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
