import importlib
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import trialogic

PUBLIC = {
    "Analysis", "Antecedent", "Argument", "AttackGraph", "BRD",
    "BoundExceeded", "Claim", "ConclusionTable", "DEF",
    "DEFAULT_BOUND", "DEF_SUCCEEDS", "DELTA", "DIALECTICAL_VALIDITY",
    "DefeasibleTheory", "DualityReport", "EVIDENTIAL", "EquivalenceReport",
    "FULL_DISCLOSURE", "GREEDY_MINIMAL", "GameSetup", "GameState",
    "GameTrace", "IllegalMove", "LegalityReport", "Literal", "MINUS",
    "MODES", "Move", "NOT_PERMITTED", "OBLIGATION", "ONGOING",
    "OpeningRejected", "PARTIAL", "PLAYERS", "PLUS", "POLICIES", "PR",
    "PREPONDERANCE", "PROVED", "PR_SUCCEEDS", "ParseError", "ParseFailure",
    "PermissionStatus", "REFUTED", "Rule", "SCINTILLA", "SIGMA",
    "SIGMA_MINUS", "STALLED", "STANDARDS", "SUBSTANTIAL", "StandardsReport",
    "TAGS", "TERMINAL_OUTCOMES", "TaggedLiteral", "TurnRecord",
    "UNDETERMINED", "WEAKLY_PERMITTED", "WINNER_FOR_OUTCOME", "adjudicate",
    "analyze", "apply_move", "auto_play", "build_arguments",
    "build_attack_graph", "check_obligation_permission", "complement",
    "compute_conclusions", "corpus", "delta_equivalence_check",
    "exhaustive_winner", "game_weakly_permitted", "grounded_extension",
    "has_support_cycle", "holds", "initial_state", "legal_move", "lit",
    "minimal_winning_opening", "open_game", "opening_is_winning",
    "parse_moves", "parse_query", "parse_theory", "player_view", "run_game",
    "serialize_theory", "standards_met", "strength_order",
    "termination_status", "validate_setup", "validate_theory",
    "weakly_permitted", "with_standards",
}


class TestPublicSurface:
    def test_all_is_unchanged(self):
        assert len(trialogic.__all__) == len(PUBLIC)
        assert set(trialogic.__all__) == PUBLIC

    def test_each_name_is_its_home_modules_object(self):
        for name in PUBLIC:
            home = importlib.import_module(
                f"trialogic.{trialogic._HOME[name]}")
            value = getattr(trialogic, name)
            if isinstance(value, types.ModuleType):
                assert value is home
                continue
            assert value is vars(home)[name], name
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == home.__name__, name

    def test_examples(self):
        from trialogic import corpus, dsl, model, strategy

        assert trialogic.analyze is strategy.analyze
        assert trialogic.Move is model.Move
        assert trialogic.parse_moves is dsl.parse_moves
        assert trialogic.corpus is corpus

    def test_dir_lists_every_name(self):
        assert PUBLIC <= set(dir(trialogic))
        assert "__version__" in dir(trialogic)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from trialogic import *", namespace)
        for name in PUBLIC:
            assert namespace[name] is getattr(trialogic, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            trialogic.no_such_name
        with pytest.raises(ImportError):
            exec("from trialogic import no_such_name", {})

    def test_import_loads_no_module_until_a_name_is_read(self):
        script = (
            "import sys, trialogic\n"
            "print(sorted(m for m in sys.modules if 'trialogic' in m))\n"
            "trialogic.parse_theory\n"
            "print(sorted(m for m in sys.modules if 'trialogic' in m))\n")
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "['trialogic']",
            "['trialogic', 'trialogic.dsl', 'trialogic.model']"]


class TestBenchBoundaries:
    def test_every_traced_boundary_resolves(self):
        # the benchmark's tracer wraps these names and reports a missing
        # one as absent; a rename should fail here, not only under it
        path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans.BOUNDARIES
        for module_name, function, _ in spans.BOUNDARIES:
            module = importlib.import_module(f"trialogic.{module_name}")
            assert callable(getattr(module, function, None)), \
                f"{module_name}.{function}"


class TestBenchTrajectory:
    @pytest.mark.parametrize("workload", ["queries", "play", "analysis",
                                          "cli"])
    def test_runs_name_only_declared_metrics(self, workload):
        # BENCH_<workload>.json keeps the parent/change runs of each
        # perf change, in the order they ran
        root = Path(__file__).resolve().parent.parent
        declared = json.loads((root / "BENCHMARK.json").read_text())
        assert workload in {w["name"] for w in declared["workloads"]}
        metrics = {m["name"] for m in declared["end_to_end"]}
        runs = json.loads((root / f"BENCH_{workload}.json").read_text())
        assert runs
        for run in runs:
            assert set(run) == {"pr", "side", "seed", "seconds", "correct",
                                "metrics"}, run
            assert run["side"] in ("parent", "change")
            assert isinstance(run["correct"], bool)
            assert run["metrics"] and set(run["metrics"]) <= metrics, run
            assert all(isinstance(value, (int, float))
                       for value in run["metrics"].values())

    @pytest.mark.parametrize("workload", ["queries", "play", "analysis",
                                          "cli"])
    def test_runs_come_as_correct_pairs(self, workload):
        # a pair is one parent run and one change run, adjacent and in
        # either order, at the same pr, seed and run length
        root = Path(__file__).resolve().parent.parent
        runs = json.loads((root / f"BENCH_{workload}.json").read_text())
        assert len(runs) % 2 == 0
        for first, second in zip(runs[::2], runs[1::2]):
            assert {first["side"], second["side"]} == {"parent", "change"}, \
                (first, second)
            for field in ("pr", "seed", "seconds"):
                assert first[field] == second[field], (first, second)
        assert all(run["correct"] for run in runs)
