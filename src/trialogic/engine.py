"""Tagged-conclusion inference for defeasible deontic theories.

Conclusions come in four positive tags of decreasing strength and four
matching negative tags:

* delta: provable even when every competing chain of support is granted
  its full force; ambiguity anywhere upstream propagates and defeats it.
* partial: provable once competing support is itself required to win its
  own conflicts; ambiguity blocks the attacker instead of spreading.
* sigma: supported by an applicable rule that is not beaten by a
  stronger rule whose premises are delta-discarded-free.
* sigma_minus: supported by a chain of applicable rules, conflicts and
  superiority ignored.

A rule's state at a tag is 1 once every antecedent holds, -1 once one
has failed, and 0 while it is open.  A positive condition counts a
rule applicable at state 1 and discarded at state -1.  Each negative
tag is the strong negation of its positive condition: the same
condition with an open rule counted as both applicable and discarded,
negated.  A rule's state only leaves 0 as statuses are added, so that
reading can only turn false, and its negation is monotone like every
positive condition.  Negative tags are thus derived in the same
fixpoint rather than by failure, and a query can come back
undetermined: circular support such as ``p => p`` settles neither
``+partial p`` nor ``-partial p``.

The table holds one row of four statuses per cell, a cell being one
moded literal; a literal that no fact or rule mentions has no row and
is refuted.  An agenda over cells builds it.  A cell is evaluated
again only after a cell that one of its supporting or attacking rules
reads has settled a tag, so a chain of rules costs time linear in its
length whatever order its literals sort in.  Every condition is monotone in the
statuses derived so far, hence the table is the single least fixpoint
of those conditions and does not depend on evaluation order.

A table can also grow from the table of the same theory without one
rule r.  Only the affected cone can change: the cells that reach r's
head cells ``(mode, head)`` and ``(mode, ~head)`` through the readers
of the agenda, plus the cells the smaller table has no row for.  Every
other cell reads only unaffected cells, keeps the same supporting and
attacking rules and, since superiority acts only between the rules of
one head cell pair, the same superiority pairs; its conditions are
those of the smaller theory over the same inputs, so it has the same
least fixpoint and its row is copied.  Only the cone is queued.

Proof standards map onto the tags: scintilla of evidence is
sigma_minus, substantial evidence (clear and convincing) is sigma,
preponderance is partial, beyond reasonable doubt is delta, and
dialectical validity is delta computed with the superiority relation
stripped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .model import (
    DELTA, EVIDENTIAL, MINUS, MODES, PARTIAL, PLUS, PROVED, REFUTED, SIGMA,
    SIGMA_MINUS, TAGS, UNDETERMINED, DefeasibleTheory, Literal, Rule,
    TaggedLiteral, literal_sort_key,
)

# Proof standard names.
SCINTILLA = "scintilla"
SUBSTANTIAL = "substantial"
PREPONDERANCE = "preponderance"
BRD = "brd"
DIALECTICAL_VALIDITY = "dialectical_validity"
STANDARDS = (SCINTILLA, SUBSTANTIAL, PREPONDERANCE, BRD, DIALECTICAL_VALIDITY)

# The tag each standard tests (dialectical validity also strips superiority).
STANDARD_TAG = {
    SCINTILLA: SIGMA_MINUS,
    SUBSTANTIAL: SIGMA,
    PREPONDERANCE: PARTIAL,
    BRD: DELTA,
    DIALECTICAL_VALIDITY: DELTA,
}

_TAG_INDEX = {tag: i for i, tag in enumerate(TAGS)}
_MODE_INDEX = {mode: i for i, mode in enumerate(MODES)}
# How a cell without a row answers in a table, and in a running fixpoint.
_REFUTED_ROW, _OPEN_ROW = (REFUTED,) * len(TAGS), (None,) * len(TAGS)


class CoherenceError(RuntimeError):
    """Both a positive tag and its negation became derivable.

    Structurally impossible for these inference conditions; raising
    instead of picking a side keeps any future regression loud.
    """


class ConclusionTable:
    """Status of every tagged, moded literal of a theory.

    Each cell ``(mode, literal)`` of the table's literals has a row of
    its four statuses in ``TAGS`` order, ``None`` while undetermined.
    A cell without a row answers as refuted: a literal no rule or fact
    mentions has every negative tag vacuously derivable.  Rows are not
    written once built, so a grown table shares the rows it keeps.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: dict[tuple[str, Literal], list]):
        self._rows = rows

    @property
    def literals(self) -> frozenset[Literal]:
        return frozenset(literal for _, literal in self._rows)

    def status(self, tag: str, mode: str, literal: Literal) -> str:
        row = self._rows.get((mode, literal))
        if row is None:
            return REFUTED
        return row[_TAG_INDEX[tag]] or UNDETERMINED

    def derived(self, sign: str, tag: str, mode: str, literal: Literal) -> bool:
        wanted = PROVED if sign == PLUS else REFUTED
        return self.status(tag, mode, literal) == wanted

    def query(self, q: TaggedLiteral) -> str:
        """Status of a signed query: proved when exactly the asked
        conclusion was derived, refuted when its opposite sign was."""
        status = self.status(q.tag, q.mode, q.literal)
        if status == UNDETERMINED:
            return UNDETERMINED
        if q.sign == PLUS:
            return PROVED if status == PROVED else REFUTED
        return PROVED if status == REFUTED else REFUTED

    def is_determined(self, literal: Literal) -> bool:
        """Whether the literal has any determined status in any mode."""
        return any(row is None or any(row) for row in (
            self._rows.get((mode, literal)) for mode in MODES))

    def rows(self) -> list[tuple[Literal, str, str, str]]:
        return [(literal, mode, tag, status or UNDETERMINED)
                for literal in sorted(self.literals, key=literal_sort_key)
                for mode in MODES
                for tag, status in zip(TAGS, self._rows[mode, literal])]

    def newly_determined(self, old: "ConclusionTable") -> tuple[TaggedLiteral, ...]:
        """Signed conclusions determined here but not in ``old``.

        Flips count as well: a status that changed from proved to
        refuted yields the newly derived negative conclusion.
        """
        fresh = []
        for cell, row in self._rows.items():
            before = old._rows.get(cell, _REFUTED_ROW)
            if before is row:  # a row grown tables share is unchanged
                continue
            fresh += [
                TaggedLiteral(PLUS if status == PROVED else MINUS, tag, *cell)
                for tag, status, was in zip(TAGS, row, before)
                if status is not None and status != was]
        fresh.sort(key=lambda t: (literal_sort_key(t.literal),
                                  _MODE_INDEX[t.mode], _TAG_INDEX[t.tag]))
        return tuple(fresh)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConclusionTable):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        determined = sum(len(TAGS) - row.count(None)
                         for row in self._rows.values())
        return (f"<ConclusionTable {determined} determined over "
                f"{len(self.literals)} literals>")


class _Fixpoint:
    """One table computation: a FIFO agenda of cells ``(mode, literal)``.

    The agenda starts with every cell in ``literal_sort_key`` order.
    A cell's first pop creates its row.  Popping a cell reads its facts
    and rules once, then evaluates each of its unsettled tags.  The conditions of ``(mode, l)`` read only
    facts and the cells named by antecedents of rules with head
    ``(mode, l)`` or ``(mode, ~l)``, so when a tag of a cell settles,
    ``readers`` lists exactly the cells to queue again; a cell already
    waiting is not queued twice.

    Why the order cannot matter: statuses are only ever added, and a
    rule's ``_state`` only ever leaves 0.  A positive condition is
    monotone in them; a negative one negates ``_condition`` with open
    rules counted as both applicable and discarded, which is
    anti-monotone, so it is monotone too.  Let L be the least set of
    signed conclusions closed under the conditions; the coherence check says
    L never holds both signs of a key.  Every status the agenda writes
    is in L, by induction on the writes.  When the agenda is empty
    every cell has been evaluated since its inputs last changed, so no
    condition derives anything beyond what is written (a derivable
    opposite sign would contradict coherence).  The written statuses
    are therefore closed, contain L, and equal it.

    Given the table of this theory without one rule, the run starts
    from that table's rows instead, less those of the affected cone
    (see ``_cone``), and the agenda holds only the cone's cells, in the
    same order.  A row kept belongs to a cell outside the cone, which
    reads only cells outside the cone through unchanged rules, so the
    smaller theory's least fixpoint already closes it, and the argument
    above then applies to the cone alone.
    """

    def __init__(self, theory: DefeasibleTheory):
        literals: set[Literal] = set()
        for _, fact_lit in theory.facts:
            literals.add(fact_lit)
        for rule in theory.rules:
            literals.add(rule.head)
            for ant in rule.antecedents:
                literals.add(ant.literal)
        literals.update([l.complement() for l in literals])
        self.literals = frozenset(literals)

        self.facts = frozenset(theory.facts)
        heads: dict[tuple[str, Literal], list] = {}
        # cell -> the head cells whose conditions read it (a dict as an
        # ordered set, so each reader is queued at most once per settle)
        readers: dict[tuple[str, Literal], dict] = {}
        for rule in theory.rules:
            head = (rule.head_mode, rule.head)
            heads.setdefault(head, []).append(rule)
            opposed = (rule.head_mode, rule.head.complement())
            for ant in rule.antecedents:
                readers.setdefault((ant.mode, ant.literal), {}).update(
                    {head: None, opposed: None})
        self.heads = heads
        self.readers = readers
        self.sup = theory.superiority
        self.rows: dict[tuple[str, Literal], list] = {}

    def run(self, parent: Optional[ConclusionTable] = None,
            added: Optional[Rule] = None) -> ConclusionTable:
        if parent is None:
            agenda = deque(
                (mode, literal)
                for literal in sorted(self.literals, key=literal_sort_key)
                for mode in MODES)
        else:
            cone = self._cone(parent, added)
            agenda = deque(sorted(cone, key=lambda cell: (
                literal_sort_key(cell[1]), _MODE_INDEX[cell[0]])))
            self.rows = dict(parent._rows)
            for cell in cone:
                self.rows.pop(cell, None)
        queued = set(agenda)
        rows, facts, heads = self.rows, self.facts, self.heads
        condition = self._condition
        while agenda:
            cell = agenda.popleft()
            queued.discard(cell)
            row = rows.setdefault(cell, [None] * len(TAGS))
            mode, literal = cell
            opposed = (mode, literal.complement())
            inputs = (cell in facts, opposed in facts,
                      heads.get(cell, ()), heads.get(opposed, ()))
            settled = False
            for index, tag in enumerate(TAGS):
                if row[index] is not None:
                    continue
                pos = condition(tag, inputs, 1)
                neg = not condition(tag, inputs, 0)
                if pos and neg:
                    raise CoherenceError(
                        f"incoherent conclusion for {(tag, mode, literal)}")
                if pos:
                    row[index] = PROVED
                    settled = True
                elif neg:
                    row[index] = REFUTED
                    settled = True
            if settled:
                for reader in self.readers.get(cell, ()):
                    if reader not in queued:
                        queued.add(reader)
                        agenda.append(reader)
        return ConclusionTable(rows)

    def _cone(self, parent: ConclusionTable, added: Rule) -> set:
        """The cells whose status may differ from ``parent``'s: every
        cell ``parent`` has no row for, ``added``'s two head cells, and
        every cell that reaches those through ``readers``."""
        cone = {(added.head_mode, added.head),
                (added.head_mode, added.head.complement())}
        cone.update((mode, literal) for literal in self.literals
                    for mode in MODES if (mode, literal) not in parent._rows)
        stack = list(cone)
        readers = self.readers
        while stack:
            for reader in readers.get(stack.pop(), ()):
                if reader not in cone:
                    cone.add(reader)
                    stack.append(reader)
        return cone

    def _state(self, rule: Rule, ambient: str) -> int:
        """1 once every antecedent of ``rule`` holds at the statuses
        derived so far, -1 once one has failed, 0 otherwise.  A plain
        antecedent reads the ambient tag; an annotated one reads its
        own tag and fails only on the opposite sign.  A cell not yet
        evaluated has no row, and its antecedents are open."""
        rows = self.rows
        state = 1
        for ant in rule.antecedents:
            row = rows.get((ant.mode, ant.literal), _OPEN_ROW)
            if ant.tag is None:
                got, want = row[_TAG_INDEX[ambient]], PROVED
            else:
                got = row[_TAG_INDEX[ant.tag]]
                want = PROVED if ant.sign == PLUS else REFUTED
            if got is None:
                state = 0
            elif got != want:
                return -1
        return state

    def _condition(self, tag: str, inputs: tuple, need: int) -> bool:
        """The condition of ``+tag`` on a cell whose inputs are (is a
        fact, opposite is a fact, supporting rules, attacking rules),
        counting a rule applicable when its state is at least ``need``
        and discarded when it is at most ``-need``.

        With ``need`` 1 this is ``+tag`` itself.  With ``need`` 0 an
        open rule counts as both, and the negation is ``-tag``."""
        fact, opposed_fact, supporters, attackers = inputs
        if fact:
            return True
        state = self._state
        if tag == SIGMA_MINUS:
            return any(state(r, SIGMA_MINUS) >= need for r in supporters)
        sup = self.sup
        if tag == SIGMA:
            return any(
                state(r, SIGMA) >= need and all(
                    state(s, DELTA) <= -need
                    for s in attackers if (s.id, r.id) in sup)
                for r in supporters)
        if opposed_fact:
            return False
        if tag == PARTIAL:
            ambient, guard = PARTIAL, PARTIAL
        else:
            ambient, guard = DELTA, SIGMA
        return any(
            state(r, ambient) >= need and all(
                state(s, guard) <= -need or any(
                    state(t, ambient) >= need and (t.id, s.id) in sup
                    for t in supporters)
                for s in attackers)
            for r in supporters)


def compute_conclusions(theory: DefeasibleTheory, *,
                        parent: Optional[ConclusionTable] = None,
                        added: Optional[Rule] = None) -> ConclusionTable:
    """Derive the full tagged-conclusion table of a theory.

    ``parent``, when given, must be the table of ``theory`` without the
    rule ``added`` (and without the superiority pairs naming it); only
    the cells that rule can affect are then evaluated again.
    """
    return _Fixpoint(theory).run(parent, added)


def holds(theory: DefeasibleTheory, query: TaggedLiteral) -> str:
    """Status of one signed tagged query against a theory."""
    return compute_conclusions(theory).query(query)


@dataclass(frozen=True)
class StandardsReport:
    literal: Literal
    mode: str
    met: tuple[str, ...]


def standards_met(theory: DefeasibleTheory, literal: Literal,
                  mode: str = EVIDENTIAL) -> StandardsReport:
    """Which proof standards a literal meets in the given mode.

    Dialectical validity is checked against the theory with its
    superiority relation removed; without superiority that is the
    theory itself, so its table is reused.
    """
    table = compute_conclusions(theory)
    met = [
        standard for standard in (SCINTILLA, SUBSTANTIAL, PREPONDERANCE, BRD)
        if table.status(STANDARD_TAG[standard], mode, literal) == PROVED
    ]
    if theory.superiority:
        stripped = DefeasibleTheory(theory.facts, theory.rules, frozenset())
        table = compute_conclusions(stripped)
    if table.status(DELTA, mode, literal) == PROVED:
        met.append(DIALECTICAL_VALIDITY)
    return StandardsReport(literal, mode, tuple(met))


def strength_order(a: tuple[str, str], b: tuple[str, str]) -> int:
    """Compare two signed tags of the same sign.

    Returns -1 when ``a`` is the stronger conclusion, 1 when ``b`` is,
    0 when equal.  Positive tags weaken from delta down to sigma_minus;
    negative tags weaken the other way around, so -sigma_minus is the
    strongest refutation.  Mixed signs are not comparable.
    """
    sign_a, tag_a = a
    sign_b, tag_b = b
    for sign, tag in ((sign_a, tag_a), (sign_b, tag_b)):
        if sign not in (PLUS, MINUS):
            raise ValueError(f"bad sign {sign!r}")
        if tag not in TAGS:
            raise ValueError(f"bad tag {tag!r}")
    if sign_a != sign_b:
        raise ValueError("conclusions with different signs are not comparable")
    rank_a, rank_b = _TAG_INDEX[tag_a], _TAG_INDEX[tag_b]
    if sign_a == MINUS:
        rank_a, rank_b = rank_b, rank_a
    return (rank_a > rank_b) - (rank_a < rank_b)
