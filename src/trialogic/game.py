"""Two-player disclosure game over a partitioned theory.

The prosecutor opens by disclosing a subset of their private rules that
makes the whole claim provable at the configured standards: every claim
literal evidentially, and the obligation of its complement deontically.
An opening of no rules prosecutes from the common rules alone, and the
claim judges it as it judges any other.  The opening may declare as
targets only the ``(mode, literal)`` of these conditions, and when it
declares none it targets all of them; a target outside them makes the
opening an illegal move.  Play then alternates.  Every move, the
opening included, may disclose only rules of the mover's own private
pool.  After the opening, a pass discloses nothing and declares no
targets.  Any other move discloses rules and declares at least one
target literal; it is legal when every target had some determined
status before the move (in any mode, at any tag) and gains some newly
determined status in its declared mode, for the literal or its
complement, once the rules migrate.  ``apply_move`` is the one check of
all this: it raises ``IllegalMove``, or ``OpeningRejected`` for an
opening the claim refuses, and ``legal_move`` reports its reasons.

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
Every state reached from it carries the same ``_Tables``, which keeps
the game's tables, so a theory that several moves, checks or searches
reach is computed once.  Every table of the game is a rule mask over
the index (the key's rules, read through ``TheoryIndex.mask``), and the
support bound below walks its cells.  ``conclusions_for`` is the one
lookup: a key ``_Tables`` does not keep yet gets a table computed in
full by ``engine.compute_conclusions``, which keeps nothing itself.

Each player's goal is compiled once per game too: ``_Tables`` takes
the ``(cell, tag index, wanted status)`` key of each of its
``claim_conditions`` from the index's cells, the cell of the claim
literal's ``(E, l)`` and the other three cells of its atom found by
flipping bits (``_goal``), and every claim question the game and
``strategy`` ask reads those keys off a table's rows
(``ConclusionTable.holding``).  A claim literal the index does not
number reads as refuted at every tag, as in ``ConclusionTable``.
``claim_established`` and ``claim_refuted`` answer the same questions
of any table.

Claim questions are answered on sliced tables.  Accepted openings,
robustness, adjudication and greedy play's goal coverage ask only how
the claim stands, so they read the table of a key restricted to the
rules ``_Tables.keep`` names: every common rule plus the live backward
cone of each claim atom in both modes, walked over the index's cells as
``engine.cone`` walks it over rules, less the inert rules (below).  For
any key K, the claim cells have the same statuses in the tables of K
and of K restricted to the kept rules; the argument is stated once, at
``engine.cone``, and for the inert rules below.  Both
tables are masks over the game's one index, so each has a row for every
cone cell.  So any question over the subsets of a pool equals the same
question over the subsets of its kept part.  One method,
``_Tables.achievable``, asks it for adjudication (each player in turn)
and for robustness: it walks the subsets of the kept part of a pool,
the empty one standing for a disclosure of rules outside the kept ones
only.  ``accepted_openings`` asks the pr question of every subset of
the pr pool and yields the openings alone.  Each is owned and
establishes the claim, so a caller that needs the opened state takes
it from ``step`` with no further check.  Moves, their
targets and the end-of-game test read full tables, since a rule
outside the cone still changes statuses and still empties a pool; so
greedy play reads a candidate's full table only once its sliced table
has shown that the candidate raises the mover's coverage.

No table depends on the inert rules, those that can never fire: the
game's index finds them as it compiles, and ``engine`` states why the
table of any rule set K equals the table of K less its inert rules.
``_Tables.inert`` holds the ids of which every position is inert:
every id the index numbers less the ids of its live positions.
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
from .engine import ConclusionTable, TheoryIndex, compute_conclusions
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

    ``tables`` is the game's ``_Tables``, which keeps the game's
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
    and superiority: every table of the game is a rule mask over it,
    and every graph question the game asks walks its cells and rule
    positions.  It owns the game's tables too: ``tables`` holds each
    table ``conclusions_for`` has computed, keyed by its live rule ids,
    the ids asked for less the inert ones.  It also holds the ids of the
    inert rules, which no table's key keeps (``inert``: every id of the
    index less the ids of the positions ``TheoryIndex.inert`` leaves
    live), the ids of the rules claim questions keep (the common rules
    and the claim's live cone, less the inert ones), and each player's
    goal, its keys taken from the cells of the claim literals
    (``_goal``).  The claim cone is walked over the index, as
    ``engine.cone`` walks it over rules: from the cells of each claim
    atom in both modes, each cell with its opposite, through the rules
    ``heads`` lists there, which are live, to the cells of their
    ``antecedents``.

    ``met`` reads a goal's keys off a table's rows, and every claim
    question of the game and of ``strategy`` goes through it; ``sliced``
    is the table such a question reads for a key.  The claim searches
    live here too: ``supportable``, the support bound over the pr goal's
    cells, and ``achievable``, the walk over the subsets of a pool.
    With no claim, each raises ``ValueError``.  Searches ask the same
    questions again and again, so two memos answer repeats: ``counts``
    holds each ``met`` count by the table's id and the player, with the
    table in the entry, so that the id names it as long as the entry
    lives; ``support`` holds each support bound by the kept rule ids it
    closed over.  The tables and both memos die with the ``_Tables``,
    and so with the game's index."""

    __slots__ = ("index", "inert", "keep", "goals", "tables", "counts",
                 "support")

    def __init__(self, setup: GameSetup):
        self.index = index = TheoryIndex(setup.facts, setup.all_rules(),
                                         setup.superiority)
        heads, antecedents, rules = index.heads, index.antecedents, index.rules
        self.inert = frozenset(index.positions).difference(
            rule.id for rule, inert in zip(rules, index.inert) if not inert)
        claim = setup.claim.literals if setup.claim else ()
        # a cell stands with its opposite, so walk the one of sign bit 0
        work = [cell & ~2 for cell in (index.cell(mode, literal)
                                       for literal in claim for mode in MODES)
                if cell is not None]
        seen = set(work)
        cone = set()
        while work:
            c = work.pop()
            for r in heads[c] + heads[c | 2]:
                cone.add(rules[r].id)
                for cell, _, _ in antecedents[r]:
                    cell &= ~2
                    if cell not in seen:
                        seen.add(cell)
                        work.append(cell)
        cone.update(r.id for r in setup.common_rules)
        self.keep = frozenset(cone - self.inert)
        self.goals = None if setup.claim is None else {
            player: _goal(self.index, setup, player) for player in PLAYERS}
        self.tables: dict[frozenset[str], ConclusionTable] = {}
        self.counts: dict[tuple[int, str], tuple[ConclusionTable, int]] = {}
        self.support: dict[frozenset[str], bool] = {}

    def met(self, table: ConclusionTable, player: str) -> int:
        """How many conditions of ``player``'s goal hold in ``table``, a
        table over the index."""
        entry = self.counts.get((id(table), player))
        if entry is None:
            if self.goals is None:
                raise ValueError("setup has no claim to prosecute")
            keys, fixed, _ = self.goals[player]
            entry = self.counts[id(table), player] = (
                table, fixed + table.holding(keys))
        return entry[1]

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
        kept = rule_ids & self.keep
        known = self.support.get(kept)
        if known is None:
            known = self.support[kept] = self._closes(kept)
        return known

    def _closes(self, kept: frozenset[str]) -> bool:
        """Whether the Horn closure under the rules ``kept`` names holds
        every cell of the pr goal."""
        keys, _, size = self.goals[PR]
        index = self.index
        closed = {cell for cell, fact in enumerate(index.fact) if fact}
        pending = [r for r, on in enumerate(index.mask(kept)) if on]
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


def _goal(index: TheoryIndex, setup: GameSetup, player: str
          ) -> tuple[tuple[tuple[int, int, str], ...], int, int]:
    """``player``'s goal over ``index`` as ``(keys, fixed, size)``: the
    ``(cell, tag index, wanted status)`` key of each condition whose
    literal the index numbers, how many of the other conditions hold
    (such a literal reads as refuted at every tag, as in
    ``ConclusionTable``), and the number of conditions.  The keys come
    in ``claim_conditions`` order, each taken from the cell ``c`` of the
    claim literal's ``(E, l)``: ``(O, l)`` is ``c ^ 1``, ``(E, ~l)`` is
    ``c ^ 2`` and ``(O, ~l)`` is ``c ^ 3``."""
    ev = TAGS.index(setup.evidential_standard)
    de = TAGS.index(setup.deontic_standard)
    conditions = (((0, ev, PROVED), (3, de, PROVED)) if player == PR else
                  ((3, de, REFUTED), (1, de, PROVED), (2, ev, PROVED),
                   (0, ev, REFUTED)))
    cells = [index.cell(EVIDENTIAL, literal)
             for literal in setup.claim.literals]
    keys = tuple((cell ^ flip, tag, want) for cell in cells
                 if cell is not None for flip, tag, want in conditions)
    fixed = cells.count(None) * sum(want == REFUTED
                                    for _, _, want in conditions)
    return keys, fixed, len(conditions) * len(cells)


def conclusions_for(rule_ids: Iterable[str], cache: _Tables
                    ) -> ConclusionTable:
    """Conclusion table of the theory induced by a set of rule ids, kept
    in ``cache.tables`` under those ids less the inert ones, which change
    no table: the kept one, or else one ``compute_conclusions`` builds
    over ``cache.index``, which is then kept."""
    key = frozenset(rule_ids) - cache.inert
    table = cache.tables.get(key)
    if table is None:
        table = cache.tables[key] = compute_conclusions(cache.index, key)
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
    """The state after the opening ``opening``, rules of the pr pool,
    which declares ``targets``.  Raises ``IllegalMove`` for a target
    outside the claim's conditions and ``OpeningRejected`` when the
    claim is not established."""
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
    that the whole claim is established.  Raises ValueError for an id
    outside the pr pool, and OpeningRejected with one reason per unmet
    claim component when the claim is not established."""
    start, opening = initial_state(setup), frozenset(opening_ids)
    stray = opening - start.pr_ids
    if stray:
        raise ValueError(
            "opening rules not in the pr pool: " + ", ".join(sorted(stray)))
    return _open(start, opening)


def apply_move(state: GameState, move: Move) -> GameState:
    """The state after ``move``: the game's one legality check.

    Raises ``IllegalMove`` for a move out of turn or one that discloses
    a rule outside the mover's private pool.  An opening then goes to
    ``_open``, which raises ``IllegalMove`` for a target outside the
    claim's conditions and ``OpeningRejected`` when the claim is not
    established.  A later move raises ``IllegalMove`` when it is a pass
    that declares targets, a disclosure that declares none, or a
    disclosure with a target that had no determined status before it
    or gains no newly determined status in its mode."""
    pool = state.pr_ids if move.player == PR else state.def_ids
    stray = move.rule_ids - pool
    if move.player != state.mover:
        reasons = [
            f"turn order: it is {state.mover}'s turn, not {move.player}'s"]
    elif stray:
        reasons = ["ownership: rules not in the mover's private pool: "
                   + ", ".join(sorted(stray))]
    elif not state.turn:
        return _open(state, move.rule_ids, move.targets)
    elif move.is_pass and move.targets:
        reasons = ["a pass declares no targets"]
    elif not move.is_pass and not move.targets:
        reasons = ["a non-pass move must declare at least one target"]
    else:
        nxt, legal = step(state, move.rule_ids)
        reasons = []
        for mode, literal in _sorted_targets(move.targets):
            if not state.conclusions.is_determined(literal):
                reasons.append(
                    f"target precondition: {literal} has no determined "
                    "status in the current theory")
            elif (mode, literal) not in legal:
                reasons.append(
                    f"target postcondition: the move determines nothing "
                    f"new about {literal} in mode {mode}")
        if not reasons:
            return nxt
    raise IllegalMove(state.turn, move.player, reasons)


def legal_move(state: GameState, move: Move) -> LegalityReport:
    """Whether ``apply_move`` accepts ``move`` at ``state``, with the
    reasons of the ``IllegalMove`` or ``OpeningRejected`` it raises
    when it does not."""
    try:
        apply_move(state, move)
    except (IllegalMove, OpeningRejected) as refused:
        return LegalityReport(False, refused.reasons)
    return LegalityReport(True)


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
    """Play ``move`` at ``state`` through ``apply_move``, which raises
    for a move it refuses, append its record to ``trace`` and settle the
    trace's outcome.  An opening that declares no targets is recorded
    with every claim condition as its targets."""
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
