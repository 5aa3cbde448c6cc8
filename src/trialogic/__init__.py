"""Defeasible deontic reasoning with legal proof standards and a
prosecution/defence disclosure game.

The public names are imported lazily (PEP 562): a module is loaded the
first time one of its names is read, so a command line process loads
only the modules its subcommand runs."""

import importlib

__version__ = "0.1.0"

# Each public name under the module that defines it; ``corpus`` is
# exported as the module itself.
_EXPORTS = {
    "model": (
        "DEF", "DELTA", "EVIDENTIAL", "MINUS", "MODES", "OBLIGATION",
        "PARTIAL", "PLAYERS", "PLUS", "PR", "PROVED", "REFUTED", "SIGMA",
        "SIGMA_MINUS", "TAGS", "UNDETERMINED", "Antecedent", "Claim",
        "DefeasibleTheory", "GameSetup", "Literal", "Move", "Rule",
        "TaggedLiteral", "complement", "lit", "player_view",
        "validate_setup", "validate_theory", "with_standards"),
    "engine": (
        "BRD", "DIALECTICAL_VALIDITY", "PREPONDERANCE", "SCINTILLA",
        "STANDARDS", "SUBSTANTIAL", "ConclusionTable", "StandardsReport",
        "compute_conclusions", "holds", "standards_met", "strength_order"),
    "dsl": (
        "ParseError", "ParseFailure", "parse_moves", "parse_query",
        "parse_theory", "serialize_theory"),
    "arguments": (
        "Argument", "AttackGraph", "EquivalenceReport", "build_arguments",
        "build_attack_graph", "delta_equivalence_check",
        "grounded_extension", "has_support_cycle"),
    "permission": (
        "NOT_PERMITTED", "WEAKLY_PERMITTED", "DualityReport",
        "PermissionStatus", "check_obligation_permission",
        "game_weakly_permitted", "weakly_permitted"),
    "game": (
        "DEF_SUCCEEDS", "ONGOING", "PR_SUCCEEDS", "STALLED",
        "TERMINAL_OUTCOMES", "GameState", "GameTrace", "IllegalMove",
        "LegalityReport", "OpeningRejected", "TurnRecord", "adjudicate",
        "apply_move", "initial_state", "legal_move", "open_game",
        "run_game", "termination_status"),
    "strategy": (
        "DEFAULT_BOUND", "FULL_DISCLOSURE", "GREEDY_MINIMAL", "POLICIES",
        "WINNER_FOR_OUTCOME", "Analysis", "BoundExceeded", "analyze",
        "auto_play", "exhaustive_winner", "minimal_winning_opening",
        "opening_is_winning"),
    "corpus": ("corpus",),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
