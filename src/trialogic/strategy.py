"""Openings, automatic play, and exhaustive game analysis.

Three distinct questions live here and they are not the same:

* ``opening_is_winning`` asks whether an accepted opening is robust:
  no subset of the defence's pool, thrown at the disclosed theory all
  at once, refutes the claim.  This treats the opening as an exposure
  decision made once, against every rebuttal the defence could ever
  assemble, and ignores any rules the prosecutor held back.
* ``minimal_winning_opening`` is the smallest robust opening.
* ``exhaustive_winner`` plays the full alternating game out by backward
  induction, where both sides keep answering, so a fragile opening can
  still win when the prosecutor holds a rejoinder in reserve.

Automatic play offers two deliberately simple policies: greedy minimal
disclosure (smallest accepted opening, then smallest move that improves
the mover's goal coverage, else pass) and full disclosure (everything at
once, then passes).  Coverage counts the mover's goal conditions that
hold, read through the game's compiled goal keys.  Greedy play reads it
on each candidate's sliced table, whose claim cells have the statuses of
the full table's (see ``game``), and calls ``step`` for the full table
and its legal targets only on a candidate whose coverage rose.  Both
tests filter the same ``subsets`` order, so the move is the one that
testing legality first would pick.

Every search here moves through ``game.step`` and scores positions with
``game.settle``, so it plays by the same rules as a scripted game.  Each
public entry point starts from one ``game.initial_state`` and every
state it reaches shares that state's table cache; ``analyze`` runs both
of its searches from the same start.

The exhaustive search cuts at the optimum.  At a position it plays the
pass first, which needs no table, then the legal disclosures in
``subsets`` order, and stops as soon as an outcome is the mover's best;
at the root it stops at the first accepted opening that the prosecutor
wins.  The memo stays exact: the game graph is acyclic (pools only
shrink, and two passes end the game), so a position's value is fixed
whatever order its children are evaluated in, and a cut drops only
children that cannot beat an outcome already found.  Every memo entry
is thus the true value of its position, not a bound on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .game import (
    DEF_SUCCEEDS, ONGOING, PR_SUCCEEDS, STALLED, TERMINAL_OUTCOMES,
    GameState, GameTrace, Move, OpeningRejected, _achievable, _supportable,
    accepted_openings, adjudicate, initial_state, open_game, play_move,
    settle, step, subsets,
)
from .model import DEF, PR, GameSetup

GREEDY_MINIMAL = "greedy_minimal"
FULL_DISCLOSURE = "full_disclosure"
POLICIES = (GREEDY_MINIMAL, FULL_DISCLOSURE)

DEFAULT_BOUND = 20


class BoundExceeded(Exception):
    def __init__(self, total: int, bound: int):
        self.total = total
        self.bound = bound
        super().__init__(
            f"{total} private rules exceed the exhaustive search bound "
            f"of {bound}")


# Outcomes name how a game ended; a winner verdict names who ended up
# on top, so exhaustive analysis answers in player vocabulary.
WINNER_FOR_OUTCOME = {PR_SUCCEEDS: PR, DEF_SUCCEEDS: DEF, STALLED: STALLED}


@dataclass(frozen=True)
class Analysis:
    """``winner`` is pr, def, or stalled.  ``minimal_opening`` is the
    smallest robust opening, or None.  ``states_explored`` counts the
    work of the exhaustive search: each accepted opening it tried plus
    each undecided position whose moves it evaluated, once per position
    (a position is its two pools, the mover and the passes in a row).
    Positions a cut skipped are not counted."""

    winner: str
    minimal_opening: Optional[tuple[str, ...]]
    states_explored: int


def _robust(opened: GameState) -> bool:
    return not _achievable(opened.setup, opened.tables, opened.common_ids,
                           opened.def_ids, DEF)


def opening_is_winning(setup: GameSetup, opening_ids: Iterable[str]) -> bool:
    """Accepted and robust against every defence rebuttal."""
    try:
        opened = open_game(setup, opening_ids)
    except OpeningRejected:
        return False
    return _robust(opened)


def _minimal_opening(start: GameState) -> Optional[tuple[str, ...]]:
    for opening, opened in accepted_openings(start):
        if _robust(opened):
            return tuple(sorted(opening))
    return None


def minimal_winning_opening(setup: GameSetup) -> Optional[tuple[str, ...]]:
    """Smallest robust accepted opening by (size, id order), or None."""
    return _minimal_opening(initial_state(setup))


_PREFERENCE = {
    PR: {PR_SUCCEEDS: 0, STALLED: 1, DEF_SUCCEEDS: 2},
    DEF: {DEF_SUCCEEDS: 0, STALLED: 1, PR_SUCCEEDS: 2},
}


def _search_start(setup: GameSetup, bound: int) -> GameState:
    """The start of an exhaustive search, once the setup is within the
    bound and has a claim; a refused search computes no table."""
    total = len({r.id for r in setup.pr_rules}) \
        + len({r.id for r in setup.def_rules})
    if total > bound:
        raise BoundExceeded(total, bound)
    if setup.claim is None:
        raise ValueError("setup has no claim to prosecute")
    return initial_state(setup)


def _exhaustive(start: GameState) -> tuple[str, int]:
    memo: dict = {}
    explored = 0

    def outcome(state: GameState) -> str:
        settled = settle(state)
        return value(state) if settled == ONGOING else settled

    def value(state: GameState) -> str:
        nonlocal explored
        key = (state.pr_ids, state.def_ids, state.mover,
               state.consecutive_passes)
        if key in memo:
            return memo[key]
        explored += 1
        preference = _PREFERENCE[state.mover]
        best = outcome(step(state, frozenset())[0])
        pool = state.pr_ids if state.mover == PR else state.def_ids
        for disclosed in subsets(pool, include_empty=False):
            if not preference[best]:
                break
            nxt, targets = step(state, disclosed)
            if targets:
                best = min(best, outcome(nxt), key=preference.get)
        memo[key] = best
        return best

    root_outcomes = []
    for _, opened in accepted_openings(start):
        explored += 1
        root_outcomes.append(outcome(opened))
        if root_outcomes[-1] == PR_SUCCEEDS:
            break
    if not root_outcomes:
        return adjudicate(start), explored
    return min(root_outcomes, key=_PREFERENCE[PR].get), explored


def exhaustive_winner(setup: GameSetup, bound: int = DEFAULT_BOUND) -> str:
    outcome, _ = _exhaustive(_search_start(setup, bound))
    return WINNER_FOR_OUTCOME[outcome]


def analyze(setup: GameSetup, bound: int = DEFAULT_BOUND) -> Analysis:
    start = _search_start(setup, bound)
    outcome, explored = _exhaustive(start)
    return Analysis(
        WINNER_FOR_OUTCOME[outcome], _minimal_opening(start), explored)


def _policy_move(state: GameState, policy: str) -> Move:
    mover = state.mover
    pool = state.pr_ids if mover == PR else state.def_ids
    if policy == FULL_DISCLOSURE:
        candidates = [pool] if pool else []
    else:
        # coverage reads only claim cells, so the sliced table answers
        # it; only a candidate that raises it pays for its full table
        tables = state.tables
        baseline = tables.met(state.conclusions, mover)
        candidates = (
            disclosed for disclosed in subsets(pool, include_empty=False)
            if tables.met(tables.sliced(state.common_ids | disclosed), mover)
            > baseline)
    for disclosed in candidates:
        nxt, targets = step(state, disclosed)
        if not targets:
            continue
        # the cells the move decided itself, else every legal target
        own = targets & {(entry.mode, entry.literal)
                         for entry in nxt.newly_determined}
        return Move(mover, disclosed, own or targets)
    return Move(mover, frozenset())


def auto_play(setup: GameSetup, policy: str = GREEDY_MINIMAL) -> GameTrace:
    """Play both sides under one policy and return the full trace.

    Every move goes through the same legality check as a scripted game,
    so the trace equals ``run_game`` on its own moves."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    state = initial_state(setup)
    trace = GameTrace(setup, state.conclusions, [], settle(state))
    if trace.outcome in TERMINAL_OUTCOMES:
        return trace

    # the support bound first: when it rules every opening out, the
    # whole pool's table cannot establish the claim either
    if (policy == FULL_DISCLOSURE
            and _supportable(setup, state.tables,
                             state.common_ids | state.pr_ids)
            and state.tables.established(state.table_after(state.pr_ids))):
        opening: Optional[frozenset[str]] = state.pr_ids
    else:
        opening = next(accepted_openings(state), (None, None))[0]
    if opening is None:
        trace.outcome = adjudicate(state)
        return trace

    state = play_move(trace, state, Move(PR, opening))
    while trace.outcome == ONGOING:
        state = play_move(trace, state, _policy_move(state, policy))
    return trace
