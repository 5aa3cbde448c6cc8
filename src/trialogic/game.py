"""Two-player disclosure game over a partitioned theory.

The prosecutor opens by disclosing a subset of their private rules that
makes the whole claim provable at the configured standards: every claim
literal evidentially, and the obligation of its complement deontically.
The opening may declare as targets only the ``(mode, literal)`` of
these conditions, and when it declares none it targets all of them; a
target outside them makes the opening an illegal move.  Play then
alternates.  A non-pass move discloses private rules and declares at
least one target literal; it is legal when every target had some
determined status before the move (in any mode, at any tag) and gains
some newly determined status in its declared mode, for the literal or
its complement, once the rules migrate.  A pass is always legal.

The game ends as soon as the defence's condition holds while the
prosecutor has nothing left (some claim literal refuted evidentially or
deontically), or the prosecutor's claim stands while the defence has
nothing left, or both pools are empty.  Two consecutive passes instead
trigger adjudication: a player who passed is defeated when their goal
fails and no subset of their remaining pool could achieve it, which
settles games that the strict conditions leave open.

Every position is reached through ``step``, which discloses a set of
rule ids (none for a pass) and reports the targets that disclosure
could legally declare, and every position is scored by ``settle``.
Legality checks, scripted games, automatic play and exhaustive search
all drive these two.  ``initial_state`` creates ``_Tables``, which
owns the game's ``engine.TheoryIndex``: the setup's facts, rules and
superiority relation compiled once into integer cell and rule ids.
Every state reached from it carries the same ``_Tables``.  The index
keeps the game's tables, so a theory that several moves, checks or
searches reach is computed once.  Every table of the game is a rule
mask over the index (the key's rules, read through
``TheoryIndex.mask``), and the support bound below walks its cells.  A
table the index does not keep yet grows, in ``engine``, from the kept
table with one rule fewer, copying its rows by cell id and
re-evaluating only the cells that rule can reach; with no such table
kept it is computed in full.

Each player's goal is compiled once per game too: ``_Tables`` turns
``claim_conditions`` into ``(cell, tag index, wanted status)`` keys over
the index, and every claim question the game and ``strategy`` ask
reads those keys off a table's rows (``ConclusionTable.holding``).  A
claim literal the index does not number reads as refuted at every tag,
as in ``ConclusionTable``.  ``claim_established`` and ``claim_refuted``
answer the same questions of any table.

Claim questions are answered on sliced tables.  Accepted openings,
robustness, adjudication and greedy play's goal coverage ask only how
the claim stands, so they read the table of a key restricted to the
rules ``_Tables.keep`` names: every common rule plus ``engine.cone`` of
each claim atom in both modes over the live rules, less the inert rules
(below).  For any key K, the claim cells have the same statuses in the
tables of K and of K restricted to the kept rules; the argument is
stated once, at ``engine.cone``, and for the inert rules below.  Both
tables are masks over the game's one index, so each has a row for every
cone cell.  So any question over the subsets of a pool equals the same
question over the subsets of its kept part.  One method,
``_Tables.achievable``, asks it for adjudication (each player in turn)
and for robustness: it walks the subsets of the kept part of a pool,
the empty one standing for a disclosure of rules outside the kept ones
only.  This is the backward twin of the forward cone ``engine``
re-evaluates when a table grows.  ``accepted_openings`` asks the pr
question of every subset of the pr pool and yields the openings alone;
a caller that needs an opened state plays the opening through
``apply_move``.  Moves, their targets and the end-of-game test read
full tables, since a rule outside the cone still changes statuses and
still empties a pool; so greedy play reads a candidate's full table
only once its sliced table has shown that the candidate raises the
mover's coverage.

No table depends on the inert rules, those that can never fire: the
game's index finds them as it compiles, and ``engine`` states why the
table of any rule set K equals the table of K less its inert rules.
``_inert`` reads the ids of which every position is inert.
``conclusions_for`` keys every table by its ids minus the inert ids, so
tables that differ only in inert rules share one kept table.  The claim
cone is taken over the live rules only, since a rule that reaches a
claim cell only through an inert rule cannot move it: the table of K is
that of its live rules, whose claim cells the live cone answers for.
So ``_Tables.keep`` holds no inert id, and ``_Tables.achievable`` walks
only the live kept part of a pool.  A disclosure of inert rules alone
reaches the table before it, where ``ConclusionTable.targets`` reads no
row, so the exhaustive search in ``strategy`` skips such a disclosure
unplayed.  Pools, the legality of moves, the search bound and
``states_explored`` in ``strategy`` still see every rule: only the keys
of tables change.

A support bound, ``_Tables.supportable``, answers the prosecutor's
subset searches when none can succeed.  Take the Horn closure of the
index's cells under the mask of the kept common and pr rules: it starts
from the fact cells, and each rule adds its head cell once each
antecedent cell is in, counting a ``-t`` antecedent as met.  It holds
every cell proved at sigma_minus in the table of any subset of those
rules.  ``+sigma_minus`` of a cell needs a fact or a supporting rule
whose antecedents hold at sigma_minus (``engine._condition``): a plain
antecedent by ``+sigma_minus`` of its cell, and a ``+t`` one by
``+t``, which implies ``+sigma_minus`` by the inclusion ladder (a3).
So by induction over the order in which the fixpoint derives statuses,
each such cell is in the closure of that subset, and the closure only
grows with the rules.  Every positive tag implies ``+sigma_minus`` (a3
again), so when a cell of the compiled pr goal, ``(E, l)`` or
``(O, ~l)``, is outside the closure of the common rules and the whole
pr pool, or the index numbers no cell for it, no subset establishes the
claim in its sliced table, nor so in its full one (see above):
``accepted_openings`` yields nothing and adjudication finds pr defeated
without a table per subset.  There is no such bound for the defence.
Its goal includes negative tags, which a rule added can take away as
well as give, so no closure that only grows with the rules bounds it.

This module reads no text: ``dsl.parse_moves`` turns a moves file into
the ``Move`` list that ``run_game`` plays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .dsl import parse_moves  # noqa: F401  (moves files are read in dsl)
from .engine import ConclusionTable, TheoryIndex, compute_conclusions, cone
from .model import (
    DEF, EVIDENTIAL, MODES, OBLIGATION, PLAYERS, PLUS, PR, MINUS, PROVED,
    REFUTED, TAGS, GameSetup, Literal, Move, TaggedLiteral, literal_sort_key,
)

PR_SUCCEEDS = "pr_succeeds"
DEF_SUCCEEDS = "def_succeeds"
STALLED = "stalled"
ONGOING = "ongoing"
TERMINAL_OUTCOMES = (PR_SUCCEEDS, DEF_SUCCEEDS, STALLED)


@dataclass(frozen=True, eq=False)
class GameState:
    """Immutable snapshot after ``turn`` moves.

    ``tables`` is the game's ``_Tables``, whose index keeps the game's
    conclusion tables, shared by every state reached from the same
    ``initial_state``.  ``previous`` is the table before the move into
    this state, None after a pass, after an empty opening and at the
    start.  ``newly_determined``, the conclusions that move determined,
    is computed from it when first read.
    """

    setup: GameSetup
    turn: int
    common_ids: frozenset[str]
    pr_ids: frozenset[str]
    def_ids: frozenset[str]
    consecutive_passes: int
    conclusions: ConclusionTable
    tables: _Tables = field(repr=False)
    previous: Optional[ConclusionTable] = field(default=None, repr=False)

    @cached_property
    def newly_determined(self) -> tuple[TaggedLiteral, ...]:
        if self.previous is None:
            return ()
        return self.conclusions.newly_determined(self.previous)

    @property
    def mover(self) -> str:
        return PR if self.turn % 2 == 0 else DEF

    def table_after(self, disclosed: frozenset[str]) -> ConclusionTable:
        """Conclusions once ``disclosed`` joins the current theory."""
        return conclusions_for(self.common_ids | disclosed, self.tables)


@dataclass(frozen=True)
class LegalityReport:
    legal: bool
    reasons: tuple[str, ...] = ()


class OpeningRejected(Exception):
    def __init__(self, reasons: Sequence[str]):
        self.reasons = tuple(reasons)
        super().__init__("opening rejected: " + "; ".join(self.reasons))


class IllegalMove(Exception):
    def __init__(self, turn: int, player: str, reasons: Sequence[str]):
        self.turn = turn
        self.player = player
        self.reasons = tuple(reasons)
        super().__init__(
            f"illegal move at turn {turn} ({player}): " + "; ".join(self.reasons))


@dataclass(frozen=True)
class TurnRecord:
    player: str
    rule_ids: tuple[str, ...]
    targets: tuple[tuple[str, Literal], ...]
    newly_determined: tuple[TaggedLiteral, ...]
    conclusions: ConclusionTable

    def as_move(self) -> Move:
        return Move(self.player, frozenset(self.rule_ids),
                    frozenset(self.targets))


@dataclass
class GameTrace:
    setup: GameSetup
    initial_conclusions: ConclusionTable
    records: list[TurnRecord]
    outcome: str

    @property
    def final_conclusions(self) -> ConclusionTable:
        if self.records:
            return self.records[-1].conclusions
        return self.initial_conclusions

    def moves(self) -> list[Move]:
        return [record.as_move() for record in self.records]


class _Tables:
    """The table source of one game.  It owns the game's
    ``engine.TheoryIndex``, compiled once from the setup's facts, rules
    and superiority, which keeps every table of the game: each is a rule
    mask over it, and every graph question the game asks walks its
    cells and rule positions.  It also holds the ids of the inert rules,
    which no table's key keeps (``_inert``), the ids of the rules claim
    questions keep (the common rules and the claim's cone over the
    live rules, less the inert ones), and each player's goal compiled
    once over the index (``_goal``).  ``met`` reads a goal's keys off a
    table's rows, and every claim question of the game and of
    ``strategy`` goes through it; ``sliced`` is the table such a
    question reads for a key.  The claim searches live here too:
    ``supportable``, the support bound over the pr goal's cells, and
    ``achievable``, the walk over the subsets of a pool.  With no claim,
    each raises ``ValueError``."""

    __slots__ = ("index", "inert", "keep", "goals")

    def __init__(self, setup: GameSetup):
        self.index = index = TheoryIndex(setup.facts, setup.all_rules(),
                                         setup.superiority)
        self.inert = _inert(index)
        claim = setup.claim.literals if setup.claim else ()
        live = [rule for rule, inert in zip(index.rules, index.inert)
                if not inert]
        cone_rules = cone(live, {
            (mode, literal.atom) for literal in claim for mode in MODES})
        self.keep = frozenset(
            r.id for r in cone_rules + setup.common_rules) - self.inert
        self.goals = None if setup.claim is None else {
            player: _goal(self.index, setup, player) for player in PLAYERS}

    def met(self, table: ConclusionTable, player: str) -> int:
        """How many conditions of ``player``'s goal hold in ``table``, a
        table over the index."""
        if self.goals is None:
            raise ValueError("setup has no claim to prosecute")
        keys, fixed, _ = self.goals[player]
        return fixed + table.holding(keys)

    def established(self, table: ConclusionTable) -> bool:
        """``claim_established`` of a table over the index."""
        return self.met(table, PR) == self.goals[PR][2]

    def refuted(self, table: ConclusionTable) -> bool:
        """``claim_refuted`` of a table over the index."""
        return self.met(table, DEF) > 0

    def sliced(self, rule_ids: frozenset[str]) -> ConclusionTable:
        """The table of ``rule_ids`` restricted to the kept rules, which
        answers every claim question as the table of ``rule_ids`` does."""
        return conclusions_for(rule_ids & self.keep, self)

    def supportable(self, rule_ids: frozenset[str]) -> bool:
        """The support bound: whether every cell of the pr goal is in the
        Horn closure of the fact cells under the kept rules of
        ``rule_ids``.  False means no subset of them establishes the
        claim."""
        if self.goals is None:
            raise ValueError("setup has no claim to prosecute")
        keys, _, size = self.goals[PR]
        index = self.index
        closed = {cell for cell, fact in enumerate(index.fact) if fact}
        pending = [r for r, on in enumerate(index.mask(rule_ids & self.keep))
                   if on]
        grew = True
        while grew:
            grew = False
            for r in pending:
                head = index.head[r]
                if head not in closed and all(
                        want == REFUTED or cell in closed
                        for cell, _, want in index.antecedents[r]):
                    closed.add(head)
                    grew = True
        # a pr literal the index does not number is never proved
        return len(keys) == size and all(cell in closed
                                         for cell, _, _ in keys)

    def achievable(self, common_ids: frozenset[str], pool: frozenset[str],
                   player: str) -> bool:
        """Whether disclosing some nonempty part of ``pool`` at once, on
        top of ``common_ids``, achieves ``player``'s goal: the claim
        established for pr (unless the support bound rules it out),
        refuted for def.  Only the kept part of the pool is walked; its
        empty subset stands for a disclosure of rules outside the cone
        or inert alone, tried when the pool holds such rules."""
        kept = pool & self.keep
        if player == PR and not self.supportable(common_ids | kept):
            return False
        goal = self.established if player == PR else self.refuted
        return any(goal(self.sliced(common_ids | disclosed))
                   for disclosed in subsets(kept, include_empty=kept != pool))


def _inert(index: TheoryIndex) -> frozenset[str]:
    """The inert rule ids of ``index``: those of which every position is
    inert (``TheoryIndex.inert``)."""
    inert = index.inert
    return frozenset(rule_id
                     for rule_id, positions in index.positions.items()
                     if all(inert[r] for r in positions))


def _goal(index: TheoryIndex, setup: GameSetup, player: str
          ) -> tuple[tuple[tuple[int, int, str], ...], int, int]:
    """``player``'s goal over ``index`` as ``(keys, fixed, size)``: the
    ``(cell, tag index, wanted status)`` key of each condition whose
    literal the index numbers, how many of the other conditions hold
    (such a literal reads as refuted at every tag, as in
    ``ConclusionTable``), and the number of conditions."""
    keys = []
    fixed = size = 0
    for sign, tag, mode, literal in claim_conditions(setup, player):
        wanted = PROVED if sign == PLUS else REFUTED
        cell = index.cell(mode, literal)
        size += 1
        if cell is None:
            fixed += wanted == REFUTED
        else:
            keys.append((cell, TAGS.index(tag), wanted))
    return tuple(keys), fixed, size


def conclusions_for(rule_ids: Iterable[str], cache: _Tables
                    ) -> ConclusionTable:
    """Conclusion table of the theory induced by a set of rule ids, kept
    under those ids less the inert ones, which change no table: the one
    ``cache.index`` keeps, or else one ``compute_conclusions`` builds,
    and keeps, over that index."""
    key = frozenset(rule_ids) - cache.inert
    table = cache.index.tables.get(key)
    if table is None:
        table = compute_conclusions(cache.index, key)
    return table


def subsets(ids: frozenset[str], include_empty: bool = True
            ) -> Iterator[frozenset[str]]:
    """Subsets of ``ids`` by size, then in id order within a size."""
    ordered = sorted(ids)
    for size in range(0 if include_empty else 1, len(ordered) + 1):
        for combo in combinations(ordered, size):
            yield frozenset(combo)


def claim_conditions(setup: GameSetup, player: str
                     ) -> Iterator[tuple[str, str, str, Literal]]:
    """The (sign, tag, mode, literal) conclusions behind ``player``'s
    goal, claim literal by claim literal, at the configured standards.

    For pr, all of them together establish the claim: each literal
    proved evidentially and the obligation of its complement proved.
    For def, any one refutes it: the protective obligation refuted or
    the opposite obligation proved, or the literal disproved or its
    complement proved.
    """
    if setup.claim is None:
        raise ValueError("setup has no claim to prosecute")
    ev, de = setup.evidential_standard, setup.deontic_standard
    for literal in setup.claim.literals:
        if player == PR:
            yield PLUS, ev, EVIDENTIAL, literal
            yield PLUS, de, OBLIGATION, literal.complement()
        else:
            yield MINUS, de, OBLIGATION, literal.complement()
            yield PLUS, de, OBLIGATION, literal
            yield PLUS, ev, EVIDENTIAL, literal.complement()
            yield MINUS, ev, EVIDENTIAL, literal


def _claim_targets(setup: GameSetup) -> set[tuple[str, Literal]]:
    """The ``(mode, literal)`` of each pr claim condition: the targets an
    opening may declare, and those it has when it declares none."""
    return {(mode, literal)
            for _, _, mode, literal in claim_conditions(setup, PR)}


def claim_established(table: ConclusionTable, setup: GameSetup) -> bool:
    """Every claim literal proved evidentially and the obligation of its
    complement proved deontically, at the configured standards."""
    return all(table.derived(*condition)
               for condition in claim_conditions(setup, PR))


def claim_refuted(table: ConclusionTable, setup: GameSetup) -> bool:
    """Some claim element lost: its protective obligation refuted or the
    opposite obligation proved, or the literal itself disproved or its
    complement proved, at the configured standards."""
    return any(table.derived(*condition)
               for condition in claim_conditions(setup, DEF))


_GAP_FOR_MODE = {
    EVIDENTIAL: "claim literal {} is not proved evidentially",
    OBLIGATION: "obligation of {} is not proved",
}


def _claim_gaps(table: ConclusionTable, setup: GameSetup) -> list[str]:
    return [_GAP_FOR_MODE[mode].format(literal)
            for sign, tag, mode, literal in claim_conditions(setup, PR)
            if not table.derived(sign, tag, mode, literal)]


def initial_state(setup: GameSetup) -> GameState:
    common = frozenset(r.id for r in setup.common_rules)
    tables = _Tables(setup)
    return GameState(
        setup=setup,
        turn=0,
        common_ids=common,
        pr_ids=frozenset(r.id for r in setup.pr_rules),
        def_ids=frozenset(r.id for r in setup.def_rules),
        consecutive_passes=0,
        conclusions=conclusions_for(common, tables),
        tables=tables,
    )


def step(state: GameState, disclosed: frozenset[str]
         ) -> tuple[GameState, frozenset[tuple[str, Literal]]]:
    """The state after the mover discloses ``disclosed``, and the targets
    that move could legally declare: every (mode, literal) that had some
    determined status before the move and of which ``(mode, literal)``
    or ``(mode, ~literal)`` gains a newly determined status
    (``ConclusionTable.targets``).  Disclosing nothing after the opening
    is a pass, which keeps the table and adds one to the passes in a
    row; every other move, an opening of no rules included, sets them
    to 0.  An opening reports no targets, since the claim judges it.
    Ownership is the caller's to check."""
    if not disclosed:
        passes = state.consecutive_passes + 1 if state.turn else 0
        return GameState(state.setup, state.turn + 1, state.common_ids,
                         state.pr_ids, state.def_ids, passes,
                         state.conclusions, state.tables), frozenset()
    nxt = GameState(state.setup, state.turn + 1,
                    state.common_ids | disclosed, state.pr_ids - disclosed,
                    state.def_ids - disclosed, 0,
                    state.table_after(disclosed), state.tables,
                    state.conclusions)
    if not state.turn:
        return nxt, frozenset()
    return nxt, nxt.conclusions.targets(state.conclusions)


def _open(state: GameState, opening: frozenset[str],
          targets: frozenset[tuple[str, Literal]] = frozenset()
          ) -> GameState:
    """The state after the opening ``opening``, which declares
    ``targets``.  Raises ``ValueError`` for a rule outside the pr pool,
    ``IllegalMove`` for a target outside the claim's conditions, and
    ``OpeningRejected`` when the claim is not established."""
    stray = opening - state.pr_ids
    if stray:
        raise ValueError(
            "opening rules not in the pr pool: " + ", ".join(sorted(stray)))
    claimed = _claim_targets(state.setup)
    stray_targets = [target for target in _sorted_targets(targets)
                     if target not in claimed]
    if stray_targets:
        raise IllegalMove(0, PR, (
            "opening targets outside the claim's conditions: "
            + ", ".join(f"{mode} {literal}"
                        for mode, literal in stray_targets),))
    nxt, _ = step(state, opening)
    if not state.tables.established(nxt.conclusions):
        raise OpeningRejected(_claim_gaps(nxt.conclusions, state.setup))
    return nxt


def accepted_openings(start: GameState) -> Iterator[frozenset[str]]:
    """Every opening from ``start`` that establishes the claim, in
    ``subsets`` order, so smallest first.  Openings that agree on the
    live rules of the claim's cone share a sliced key, and so a cached
    table.  None is tried when the support bound rules them all out."""
    tables = start.tables
    if not tables.supportable(start.common_ids | start.pr_ids):
        return
    for opening in subsets(start.pr_ids):
        if tables.established(tables.sliced(start.common_ids | opening)):
            yield opening


def open_game(setup: GameSetup, opening_ids: Iterable[str]) -> GameState:
    """Play the opening: migrate the given prosecutor rules and check
    that the whole claim is established.  Raises OpeningRejected with
    one reason per unmet claim component otherwise."""
    return _open(initial_state(setup), frozenset(opening_ids))


def _attempt(state: GameState, move: Move):
    """Shared legality check.  Returns (report, next_state or None); an
    opening is judged as ``open_game`` judges it, and may declare only
    the claim's ``(mode, literal)`` conditions as targets."""
    reasons: list[str] = []
    if move.player != state.mover:
        reasons.append(
            f"turn order: it is {state.mover}'s turn, not {move.player}'s")
        return LegalityReport(False, tuple(reasons)), None
    pool = state.pr_ids if move.player == PR else state.def_ids
    stray = move.rule_ids - pool
    if stray:
        reasons.append(
            "ownership: rules not in the mover's private pool: "
            + ", ".join(sorted(stray)))
        return LegalityReport(False, tuple(reasons)), None
    if state.turn == 0:
        try:
            return LegalityReport(True), _open(state, move.rule_ids,
                                               move.targets)
        except (OpeningRejected, IllegalMove) as rejected:
            return LegalityReport(False, rejected.reasons), None
    if move.is_pass and move.targets:
        return LegalityReport(False, ("a pass declares no targets",)), None
    if not move.is_pass and not move.targets:
        return LegalityReport(
            False, ("a non-pass move must declare at least one target",)), None

    nxt, legal = step(state, move.rule_ids)
    for mode, literal in _sorted_targets(move.targets):
        if not state.conclusions.is_determined(literal):
            reasons.append(
                f"target precondition: {literal} has no determined status "
                "in the current theory")
        elif (mode, literal) not in legal:
            reasons.append(
                f"target postcondition: the move determines nothing new "
                f"about {literal} in mode {mode}")
    if reasons:
        return LegalityReport(False, tuple(reasons)), None
    return LegalityReport(True), nxt


def legal_move(state: GameState, move: Move) -> LegalityReport:
    report, _ = _attempt(state, move)
    return report


def apply_move(state: GameState, move: Move) -> GameState:
    """The state after ``move``; an opening raises as ``open_game``, and
    ``IllegalMove`` for a target outside the claim's conditions."""
    if state.turn == 0 and move.player == PR:
        return _open(state, move.rule_ids, move.targets)
    report, nxt = _attempt(state, move)
    if not report.legal:
        raise IllegalMove(state.turn, move.player, report.reasons)
    return nxt


def termination_status(state: GameState) -> str:
    """The strict end-of-game test.  The defence's condition is checked
    first, so degenerate theories where both hold resolve that way."""
    tables = state.tables
    good = tables.established(state.conclusions)
    bad = tables.refuted(state.conclusions)
    if not state.pr_ids and bad:
        return DEF_SUCCEEDS
    if not state.def_ids and good:
        return PR_SUCCEEDS
    if not state.pr_ids and not state.def_ids:
        return STALLED
    return ONGOING


def adjudicate_pools(common_ids: frozenset[str], pr_ids: frozenset[str],
                     def_ids: frozenset[str], tables: _Tables) -> str:
    """Settle a stalled exchange.

    A player is defeated when their goal fails in the current theory and
    no part of their remaining pool would achieve it
    (``_Tables.achievable``).  If neither or both are defeated the
    current claim status (defence first) decides.
    """
    table = conclusions_for(common_ids, tables)
    good = tables.established(table)
    bad = tables.refuted(table)
    pr_defeated = not good and not tables.achievable(common_ids, pr_ids, PR)
    def_defeated = not bad and not tables.achievable(common_ids, def_ids, DEF)
    if pr_defeated and def_defeated:
        return STALLED
    if pr_defeated:
        return DEF_SUCCEEDS
    if def_defeated:
        return PR_SUCCEEDS
    if bad:
        return DEF_SUCCEEDS
    if good:
        return PR_SUCCEEDS
    return STALLED


def adjudicate(state: GameState) -> str:
    return adjudicate_pools(state.common_ids, state.pr_ids, state.def_ids,
                            state.tables)


def settle(state: GameState) -> str:
    """The outcome at ``state``: the strict end-of-game test, then
    adjudication once both players have passed in a row."""
    outcome = termination_status(state)
    if outcome == ONGOING and state.consecutive_passes >= 2:
        return adjudicate(state)
    return outcome


def _sorted_targets(targets) -> tuple[tuple[str, Literal], ...]:
    return tuple(sorted(targets, key=lambda t: (t[0], literal_sort_key(t[1]))))


def play_move(trace: GameTrace, state: GameState, move: Move) -> GameState:
    """Validate ``move`` at ``state``, append its record to ``trace`` and
    settle the trace's outcome.  The first move is the opening; it may
    declare only the claim's conditions as targets, and when it declares
    none they default to all of them."""
    if state.turn == 0 and move.player != PR:
        raise IllegalMove(0, move.player, ("the opening move belongs to pr",))
    nxt = apply_move(state, move)
    targets = move.targets
    if state.turn == 0 and not targets:
        targets = _claim_targets(state.setup)
    trace.records.append(TurnRecord(
        move.player, tuple(sorted(move.rule_ids)), _sorted_targets(targets),
        nxt.newly_determined, nxt.conclusions))
    trace.outcome = settle(nxt)
    return nxt


def run_game(setup: GameSetup, moves: Sequence[Move]) -> GameTrace:
    """Drive a scripted game.  The first move is always the opening (an
    empty rule set means prosecuting from common rules alone); later
    moves are validated in full.  Raises OpeningRejected or IllegalMove
    on bad scripts, including moves after the game has ended."""
    state = initial_state(setup)
    trace = GameTrace(setup, state.conclusions, [], settle(state))
    for move in moves:
        if trace.outcome in TERMINAL_OUTCOMES:
            raise IllegalMove(state.turn, move.player,
                              ("the game has already ended",))
        state = play_move(trace, state, move)
    return trace
