"""Defeasible deontic reasoning with legal proof standards and a
prosecution/defence disclosure game."""

from .model import (
    DEF, DELTA, EVIDENTIAL, MINUS, MODES, OBLIGATION, PARTIAL, PLAYERS,
    PLUS, PR, PROVED, REFUTED, SIGMA, SIGMA_MINUS, TAGS, UNDETERMINED,
    Antecedent, Claim, DefeasibleTheory, GameSetup, Literal, Move, Rule,
    TaggedLiteral, complement, lit, player_view, validate_setup,
    validate_theory, with_standards,
)
from .engine import (
    BRD, DIALECTICAL_VALIDITY, PREPONDERANCE, SCINTILLA, STANDARDS,
    SUBSTANTIAL, CoherenceError, ConclusionTable, StandardsReport,
    compute_conclusions, holds, standards_met, strength_order,
)
from .dsl import (
    ParseError, ParseFailure, parse_moves, parse_query, parse_theory,
    serialize_theory,
)
from .arguments import (
    Argument, AttackGraph, EquivalenceReport, build_arguments,
    build_attack_graph, delta_equivalence_check, grounded_extension,
    has_support_cycle,
)
from .permission import (
    NOT_PERMITTED, WEAKLY_PERMITTED, DualityReport, PermissionStatus,
    check_obligation_permission, game_weakly_permitted, weakly_permitted,
)
from .game import (
    DEF_SUCCEEDS, ONGOING, PR_SUCCEEDS, STALLED, TERMINAL_OUTCOMES,
    GameState, GameTrace, IllegalMove, LegalityReport, OpeningRejected,
    TurnRecord, adjudicate, apply_move, initial_state, legal_move,
    open_game, run_game, termination_status,
)
from .strategy import (
    DEFAULT_BOUND, FULL_DISCLOSURE, GREEDY_MINIMAL, POLICIES,
    WINNER_FOR_OUTCOME, Analysis, BoundExceeded, analyze, auto_play,
    exhaustive_winner, minimal_winning_opening, opening_is_winning,
)
from . import corpus

__version__ = "0.1.0"

__all__ = [
    "Antecedent", "Argument", "Analysis", "AttackGraph", "BRD",
    "BoundExceeded", "Claim", "CoherenceError", "ConclusionTable",
    "DEF", "DEF_SUCCEEDS", "DEFAULT_BOUND", "DELTA",
    "DIALECTICAL_VALIDITY", "DefeasibleTheory", "DualityReport",
    "EVIDENTIAL", "EquivalenceReport", "FULL_DISCLOSURE", "GREEDY_MINIMAL",
    "GameSetup", "GameState", "GameTrace", "IllegalMove", "LegalityReport",
    "Literal", "MINUS", "MODES", "Move", "NOT_PERMITTED", "OBLIGATION",
    "ONGOING", "OpeningRejected", "PARTIAL", "PLAYERS", "PLUS",
    "POLICIES", "PR", "PR_SUCCEEDS", "PREPONDERANCE", "PROVED",
    "ParseError", "ParseFailure", "PermissionStatus", "REFUTED", "Rule",
    "SCINTILLA", "SIGMA", "SIGMA_MINUS", "STALLED", "STANDARDS",
    "SUBSTANTIAL", "StandardsReport", "TAGS", "TERMINAL_OUTCOMES",
    "TaggedLiteral", "TurnRecord", "UNDETERMINED", "WEAKLY_PERMITTED",
    "WINNER_FOR_OUTCOME",
    "adjudicate", "analyze", "apply_move", "auto_play", "build_arguments",
    "build_attack_graph", "check_obligation_permission", "complement",
    "compute_conclusions", "corpus", "delta_equivalence_check",
    "exhaustive_winner", "game_weakly_permitted", "grounded_extension",
    "has_support_cycle", "holds", "initial_state", "legal_move", "lit",
    "minimal_winning_opening", "open_game", "opening_is_winning",
    "parse_moves", "parse_query", "parse_theory", "player_view",
    "run_game", "serialize_theory", "standards_met", "strength_order",
    "termination_status", "validate_setup", "validate_theory",
    "weakly_permitted", "with_standards",
]
