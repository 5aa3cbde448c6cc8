import importlib
import importlib.util
import subprocess
import sys
import types
from pathlib import Path

import pytest

import trialogic

PUBLIC = {
    "Analysis", "Antecedent", "Argument", "AttackGraph", "BRD",
    "BoundExceeded", "Claim", "CoherenceError", "ConclusionTable", "DEF",
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
