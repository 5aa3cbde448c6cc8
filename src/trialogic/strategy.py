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
once, then passes, except that pr opens with the smallest accepted
opening when its whole pool does not establish the claim).  Coverage
counts the mover's goal conditions that hold, read through the game's
compiled goal keys.  Greedy play reads it on each candidate's sliced
table, whose claim cells have the statuses of the full table's (see
``game``), and calls ``step`` for the full table and its legal targets
only on a candidate whose coverage rose.  Both tests filter the same
``subsets`` order, so the move is the one that testing legality first
would pick.

Every search here moves through ``game.step`` and scores positions with
``game.settle``, so it plays by the same rules as a scripted game.  Each
public entry point starts from one ``game.initial_state`` and every
state it reaches shares that state's table cache; ``analyze`` runs both
of its searches from the same start.  Robustness and the support bound
are that cache's own claim searches (``game._Tables.achievable`` and
``supportable``), which read the game's compiled goals.

The exhaustive search cuts at the optimum.  At a position it plays the
pass first, which needs no table, then the legal disclosures in
``subsets`` order, and stops as soon as an outcome is the mover's best;
at the root it stops at the first accepted opening that the prosecutor
wins.  A disclosure of inert rules alone (see ``game``) reaches the
table its position already has, so it has no legal target, and the
search skips it without a ``step``.  The memo stays exact: the game
graph is acyclic (pools only shrink, and two passes end the game), so a
position's value is fixed whatever order its children are evaluated in,
and a cut drops only children that cannot beat an outcome already
found.  Every memo entry is thus the true value of its position, not a
bound on it.

Once neither pool holds a rule of ``_Tables.keep``, the claim is
frozen, and unless it is both established and refuted the search
scores the position statically: the exact leaf of game-tree search
(Knuth and Moore, "An analysis of alpha-beta pruning", AI 6(4), 1975),
not a heuristic.  A disclosure of rules
outside the kept ones leaves every claim cell as it is (the slicing
argument at ``engine.cone``, and the inert-rule argument in ``engine``),
so whether the claim is established (``good``) and whether it is
refuted (``bad``) are the same at every position below.
``termination_status`` and ``adjudicate_pools`` read only those two and
which pools are empty, and ``_Tables.achievable`` over a pool with no
kept rule reads the current status.  The game graph is acyclic, so
every line ends, and:

* ``good`` and not ``bad``: every line ends ``pr_succeeds``, when the
  defence pool empties or at adjudication, which defeats the defence
  and not pr;
* ``bad`` and not ``good``: every line ends ``def_succeeds``, when the
  pr pool empties or at adjudication, which defeats pr and not the
  defence;
* neither: every line ends ``stalled``, when both pools are empty or at
  adjudication, which defeats both;
* both: the strict end-of-game test turns on which pool empties first,
  which this argument leaves open, so the search goes on.

The search returns such a value without evaluating a move, and, like a
settled position, the position is not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .game import (
    DEF_SUCCEEDS, ONGOING, PR_SUCCEEDS, STALLED, TERMINAL_OUTCOMES,
    GameState, GameTrace, Move, OpeningRejected, accepted_openings,
    adjudicate, initial_state, open_game, play_move, settle, step, subsets,
)
from .model import DEF, PR, GameSetup

GREEDY_MINIMAL = "greedy_minimal"
FULL_DISCLOSURE = "full_disclosure"
POLICIES = (GREEDY_MINIMAL, FULL_DISCLOSURE)

DEFAULT_BOUND = 20
# The search's deepest line can pass and disclose one rule in turn, so
# each private rule costs it up to two plies of one ``value`` frame:
# at 100 rules its deepest ``settle`` lies 199 frames below the caller
# of ``analyze``, a fifth of the interpreter's default 1,000 frames,
# whatever ``bound`` a caller asks for.
MAX_SEARCH_RULES = 100


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
    Positions a cut skipped are not counted, nor positions scored
    statically once no pool holds a rule of the claim's cone."""

    winner: str
    minimal_opening: Optional[tuple[str, ...]]
    states_explored: int


def opening_is_winning(setup: GameSetup, opening_ids: Iterable[str]) -> bool:
    """Accepted and robust against every defence rebuttal."""
    try:
        opened = open_game(setup, opening_ids)
    except OpeningRejected:
        return False
    return not opened.tables.achievable(opened.common_ids, opened.def_ids, DEF)


def _minimal_opening(start: GameState) -> Optional[tuple[str, ...]]:
    for opening in accepted_openings(start):
        if not start.tables.achievable(start.common_ids | opening,
                                       start.def_ids - opening, DEF):
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
    bound (and ``MAX_SEARCH_RULES``) and has a claim; a refused search
    computes no table."""
    if bound < 0:
        raise ValueError(f"search bound {bound} is negative")
    total = len({r.id for r in setup.pr_rules}) \
        + len({r.id for r in setup.def_rules})
    bound = min(bound, MAX_SEARCH_RULES)
    if total > bound:
        raise BoundExceeded(total, bound)
    if setup.claim is None:
        raise ValueError("setup has no claim to prosecute")
    return initial_state(setup)


def _exhaustive(start: GameState) -> tuple[str, int]:
    memo: dict = {}
    explored = 0

    def value(state: GameState) -> str:
        nonlocal explored
        settled = settle(state)
        if settled != ONGOING:
            return settled
        key = (state.pr_ids, state.def_ids, state.mover,
               state.consecutive_passes)
        if key in memo:
            return memo[key]
        tables, keep = state.tables, state.tables.keep
        if keep.isdisjoint(state.pr_ids) and keep.isdisjoint(state.def_ids):
            # the claim is frozen, so the value is static unless the
            # claim is both established and refuted (see above)
            good = tables.established(state.conclusions)
            bad = tables.refuted(state.conclusions)
            if not (good and bad):
                return (PR_SUCCEEDS if good else DEF_SUCCEEDS if bad
                        else STALLED)
        explored += 1
        preference = _PREFERENCE[state.mover]
        best = value(step(state, frozenset())[0])
        pool = state.pr_ids if state.mover == PR else state.def_ids
        inert = tables.inert
        for disclosed in subsets(pool, include_empty=False):
            if not preference[best]:
                break
            if disclosed <= inert:  # reaches the table it starts from
                continue
            nxt, targets = step(state, disclosed)
            if targets:
                best = min(best, value(nxt), key=preference.get)
        memo[key] = best
        return best

    root_outcomes = []
    for opening in accepted_openings(start):
        explored += 1
        root_outcomes.append(value(step(start, opening)[0]))
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
            and state.tables.supportable(state.common_ids | state.pr_ids)
            and state.tables.established(state.table_after(state.pr_ids))):
        opening: Optional[frozenset[str]] = state.pr_ids
    else:
        opening = next(accepted_openings(state), None)
    if opening is None:
        trace.outcome = adjudicate(state)
        return trace

    state = play_move(trace, state, Move(PR, opening))
    while trace.outcome == ONGOING:
        state = play_move(trace, state, _policy_move(state, policy))
    return trace
