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
has failed, and 0 while it is open.  Each positive condition is a
formula over these states, read in strong three-valued (Kleene) logic
(Fitting, "A Kripke-Kleene semantics for logic programs", J. Logic
Programming 2(4), 1985).  Its value is 1 when the positive tag holds.
It is -1 when the negative tag, the strong negation, holds: the same
condition fails even with an open rule counted as both applicable and
discarded.  It is 0 while neither holds, so one value settles both
signs.  A rule's state only leaves 0 as statuses are added, so a value
only leaves 0 too.  Negative tags are thus derived in the same
fixpoint rather than by failure, and a query can come back
undetermined: circular support such as ``p => p`` settles neither
``+partial p`` nor ``-partial p``.

A theory is compiled once into a ``TheoryIndex`` of integer occurrence
lists (Maher, "Propositional defeasible logic has linear complexity",
TPLP 1(6), 2001).  Literals are numbered in ``literal_sort_key`` order,
so ``l`` and ``~l`` are ids ``2a`` and ``2a + 1`` of atom ``a``, and a
cell, one moded literal ``(mode, l)``, is ``2 * id(l) + mode``: the
cell of the opposite literal is ``cell ^ 2``, its atom ``cell >> 2``,
and other modules find a cell with ``TheoryIndex.cell``.
The index holds the facts by cell, each rule's head cell and its
antecedents as ``(cell, tag index, wanted status)``, the live rules
(below) headed at each cell (``heads``) and reading each cell
(``readers``) and, for each live rule, the live rules that beat it; it
is compiled in one pass over the rules, once their head cells are
known.  The compile maps each literal straight to its E cell (its O
cell is one more), so a fact, head or antecedent costs one lookup, and
it grows ``heads`` and ``readers`` as lists, freezing each into a tuple
once the inert closure (below) is done.  A game compiles its whole
setup once and passes ``compute_conclusions`` that index with the ids
of the rules to activate.  ``compute_conclusions`` compiles a one-shot
theory whole, once per call, and builds its table over every rule with
no mask.
The one-literal questions, ``holds``, ``standards_met`` and
``permission.weakly_permitted``, check the question first and then
compile only the facts, the superiority pairs and the rules of the
asked cell's live backward cone: the walk neither keeps nor follows a
rule that is inert at once (below).  ``cone`` states why that table
answers alike.

The compile also finds the inert rules, those that can never fire, as
a least closure over the cells: a cell is dead when it is not a fact
and every rule headed at it is inert, so a cell no rule heads is dead
from the start, and a rule is inert when a plain or ``+t`` antecedent
reads a dead cell or a ``-t`` antecedent reads a fact cell.  The
closure runs once per compile.  The pass over the rules compiles each
rule's antecedents and lists the rule only when none of them wants a
cell no fact or rule supports proved, or a fact refuted: a rule that
does is inert at once and is never listed.  A worklist then takes each
cell left with no live rule, kills every rule listed as reading it
that wants it proved, and drops that rule from the lists; a rule that
reads it only as ``-t``, which a dead cell meets, stays listed.  Only
live rules are listed in
``heads``, ``readers`` and ``beaten_by``; every other list keeps every
rule, so a table still has one row per cell, and a dead cell settles
as the fixpoint is seeded.  One-shot answers thus skip inert rules as
game tables do.  Why no table changes: take any rule set K over the
index.  In the least fixpoint of K's conditions a dead cell is refuted
at every tag and an inert rule's ``_state`` is -1 at every ambient
tag, by induction over the closure: a fact cell is proved at every
tag, so a ``-t`` antecedent on it fails; every rule of K headed at a
dead cell is inert and so at -1, or there is none, so each of the
cell's conditions in ``_condition`` is -1 and the cell is refuted; and
then a plain or ``+t`` antecedent on it fails.  In ``_condition`` a
rule at -1 changes nothing: as a supporter it is the identity of max,
as an attacker it gives -s = 1, the identity of min, and as a beater
it is again the identity of max.  So the least fixpoint of K is a
fixpoint of the conditions of K minus its inert rules.  The reverse
holds too, since the same induction runs in the fixpoint of that
smaller set, where the inert rules of K read the same dead cells.
Each least fixpoint therefore contains the other, and the two are
equal row for row.  A one-shot table is K = all rules; a game's table
is the K of its key; a one-shot question's cone is walked in K = all
rules less those inert at once, which the facts and rule heads alone
show, before any compile.

A table is the least fixpoint over an index restricted to a rule mask
(``TheoryIndex.mask``), the rules of one theory, or over every rule of
the index, with no mask, for a whole-theory table.  It holds one row of
four statuses per cell of the index.  A cell that no fact and no active
rule heads is refuted at every tag, as is a literal the index does not
number.  An agenda over cell ids builds it, seeded with every cell.
Seeding reads each open cell's inputs once for the table: whether its
opposite is a fact, and its active supporting and attacking rules.  A
cell is evaluated again only after a cell that one of those rules reads
has settled a tag, and only while a tag of its own is open, so a chain
of rules costs time linear in its length whatever order its literals
sort in.  Every condition is monotone in the statuses derived so far,
hence the table is the single least fixpoint of those conditions and
does not depend on evaluation order.

Every table is built this one way, in full, over blank rows.  The
engine keeps no table: ``compute_conclusions`` is a function of its
theory or index and its rule ids alone, and a caller that asks for the
same table again keeps it, as ``game._Tables`` does for each game.  A
table keeps only its rows and the index's literal numbering, never the
index.

Proof standards map onto the tags: scintilla of evidence is
sigma_minus, substantial evidence (clear and convincing) is sigma,
preponderance is partial, beyond reasonable doubt is delta, and
dialectical validity is delta computed with the superiority relation
stripped.  ``standards_met`` compiles the literal's live cone once and
reads dialectical validity on a view of that index
(``TheoryIndex.stripped``) that shares every list but ``beaten_by``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count, cycle, repeat
from typing import Iterable, Optional, Sequence, Union

from .model import (
    DELTA, EVIDENTIAL, MINUS, MODES, OBLIGATION, PARTIAL, PLUS, PROVED,
    REFUTED, SIGMA, SIGMA_MINUS, TAGS, UNDETERMINED, DefeasibleTheory,
    Literal, Rule, TaggedLiteral, _check_moded, _check_tag, literal_sort_key,
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
_D, _P, _S, _W = (_TAG_INDEX[tag] for tag in (DELTA, PARTIAL, SIGMA,
                                               SIGMA_MINUS))
# The rows of a fact and of a cell no rule supports, settled as a
# fixpoint starts.  Tables share them, since no settled row is written;
# the second also answers for a literal a table's index does not number.
_PROVED_ROW = [PROVED] * len(TAGS)
_UNSUPPORTED_ROW = [REFUTED] * len(TAGS)


def _wanted(sign: str) -> str:
    """The status a conclusion of ``sign`` asks for."""
    if sign == PLUS:
        return PROVED
    if sign == MINUS:
        return REFUTED
    raise ValueError(f"bad sign {sign!r}")


class ConclusionTable:
    """Status of every tagged, moded literal of a theory.

    Each cell ``(mode, literal)`` of the index the table was built on
    has a row of its four statuses in ``TAGS`` order, ``None`` while
    undetermined.  Rows sit in a list by cell id; ``literals`` and
    ``ids`` are the index's numbering, shared by every table of that
    index.  A literal the index does not number answers as refuted, as
    does a cell no fact or active rule heads: a literal no rule or fact
    mentions has every negative tag vacuously derivable.  An unknown
    sign, tag or mode is no question at all and raises ``ValueError``,
    as does a literal that is no ``Literal`` (``holding`` reads cells
    only).  Rows are not written once built, so every table shares one
    row for all its fact cells and one for all its unsupported cells.
    """

    __slots__ = ("_literals", "_ids", "_rows")

    def __init__(self, literals: tuple[Literal, ...],
                 ids: dict[Literal, int], rows: list):
        self._literals = literals
        self._ids = ids
        self._rows = rows

    def _row(self, mode: str, literal: Literal) -> list:
        """The row of ``(mode, literal)``; refuted at every tag when the
        index does not number the literal."""
        i = self._ids.get(literal)
        if i is None:
            return _UNSUPPORTED_ROW
        return self._rows[2 * i + _MODE_INDEX[mode]]

    def _aligned(self, other: "ConclusionTable") -> tuple:
        """(literals, rows here, rows in ``other``), the rows aligned by
        cell over the literals: the shared numbering on a shared index,
        else the union of both in ``literal_sort_key`` order, where a
        literal a table does not number reads as refuted."""
        if other._ids is self._ids:
            return self._literals, self._rows, other._rows
        literals = sorted(self._ids.keys() | other._ids.keys(),
                          key=literal_sort_key)
        rows, other_rows = ([table._row(mode, literal) for literal in literals
                             for mode in MODES] for table in (self, other))
        return literals, rows, other_rows

    @property
    def literals(self) -> frozenset[Literal]:
        return frozenset(self._literals)

    def status(self, tag: str, mode: str, literal: Literal) -> str:
        if tag not in _TAG_INDEX:
            raise ValueError(f"bad tag {tag!r}")
        _check_moded(mode, literal)
        return self._row(mode, literal)[_TAG_INDEX[tag]] or UNDETERMINED

    def derived(self, sign: str, tag: str, mode: str, literal: Literal) -> bool:
        wanted = _wanted(sign)
        return self.status(tag, mode, literal) == wanted

    def holding(self, keys: Iterable[tuple[int, int, str]]) -> int:
        """How many of ``keys`` hold here, each a ``(cell, tag index,
        wanted status)`` over the index the table was built on."""
        rows = self._rows
        return sum(rows[cell][tag] == wanted for cell, tag, wanted in keys)

    def query(self, q: TaggedLiteral) -> str:
        """Status of a signed query: proved when exactly the asked
        conclusion was derived, refuted when its opposite sign was."""
        wanted = _wanted(q.sign)
        status = self.status(q.tag, q.mode, q.literal)
        if status == UNDETERMINED:
            return UNDETERMINED
        return PROVED if status == wanted else REFUTED

    def is_determined(self, literal: Literal) -> bool:
        """Whether the literal has any determined status in any mode."""
        if not isinstance(literal, Literal):
            raise ValueError(f"bad literal {literal!r}")
        return any(any(self._row(mode, literal)) for mode in MODES)

    def rows(self) -> list[tuple[Literal, str, str, str]]:
        """(literal, mode, tag, status) of every cell and tag, in
        ``literal_sort_key``, ``MODES`` then ``TAGS`` order."""
        literals = self._literals
        return [(literals[cell >> 1], MODES[cell & 1], tag,
                 status or UNDETERMINED)
                for cell, row in enumerate(self._rows)
                for tag, status in zip(TAGS, row)]

    def newly_determined(self, old: "ConclusionTable") -> tuple[TaggedLiteral, ...]:
        """Signed conclusions determined here but not in ``old``, in
        ``literal_sort_key``, ``MODES`` then ``TAGS`` order.

        Flips count as well: a status that changed from proved to
        refuted yields the newly derived negative conclusion.
        """
        literals, rows, old_rows = self._aligned(old)
        fresh = []
        for cell, (row, before) in enumerate(zip(rows, old_rows)):
            # tables share only the constant fact and unsupported rows
            if row is before:
                continue
            fresh += [
                TaggedLiteral(PLUS if status == PROVED else MINUS, tag,
                              MODES[cell & 1], literals[cell >> 1])
                for tag, status, was in zip(TAGS, row, before)
                if status is not None and status != was]
        return tuple(fresh)

    def targets(self, old: "ConclusionTable"
                ) -> frozenset[tuple[str, Literal]]:
        """Each ``(mode, l)`` such that ``old`` determines ``l`` in some
        mode and the cell of ``l`` or of ``~l`` in that mode has a status
        here that it did not have in ``old``: the targets a move from
        ``old`` to this table could declare (``game.step``).  Empty,
        with no row read, when ``old`` is this table."""
        if old is self:
            return frozenset()
        literals, rows, old_rows = self._aligned(old)
        found = set()
        for cell, (row, before) in enumerate(zip(rows, old_rows)):
            if row == before or not any(
                    status is not None and status != was
                    for status, was in zip(row, before)):
                continue
            mode = cell & 1
            for i in (cell >> 1, (cell >> 1) ^ 1):
                if any(old_rows[2 * i]) or any(old_rows[2 * i + 1]):
                    found.add((MODES[mode], literals[i]))
        return frozenset(found)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConclusionTable):
            return NotImplemented
        _, rows, other_rows = self._aligned(other)
        return rows == other_rows

    def __repr__(self) -> str:
        determined = sum(len(TAGS) - row.count(None) for row in self._rows)
        return (f"<ConclusionTable {determined} determined over "
                f"{len(self._literals)} literals>")


class TheoryIndex:
    """Facts, rules and superiority compiled into integer occurrence
    lists over literal and cell ids (see the module docstring).

    ``rules`` keeps the given order and numbers the rules by position;
    ``positions`` maps a rule id to its positions.  By cell: ``fact``
    (1 for a fact), ``heads`` and ``readers`` (the positions of the
    live rules headed at it and of those reading it, one shared empty
    tuple where there are none).  By rule position: ``head`` (its head
    cell), ``antecedents`` (as ``(cell, tag index, wanted status)``, the
    tag index None for a plain antecedent), ``inert`` (1 for an inert
    rule, see the module docstring) and ``beaten_by`` (the positions of
    the live rules that beat a live rule, kept only between
    complementary head cells, the only pairs a condition reads).  The
    index keeps no table.

    The compile builds each ``Literal`` of ``literals`` directly as a
    tuple of that type, keys ``ids`` by those same objects, and maps
    each literal to its E cell (``2 * id``, +1 for mode O).  It reads
    every head cell first, then makes one pass over the rules that
    lists each rule not inert at once, and ends the inert closure over
    the few cells left with no live rule, removing each rule it kills
    from the lists.  ``heads`` and ``readers`` are lists while the
    compile edits them and are frozen into tuples once, at its end; a
    cell that never lists a rule keeps the shared empty tuple.
    ``readers`` lists a live rule once per cell, in position order,
    however often the rule reads it.  Each superiority pair looks up its
    two ids once and skips an inert position; a pair with an id that
    names no rule is skipped.  A fact, head or antecedent in an unknown
    mode raises ``KeyError``.
    """

    __slots__ = ("rules", "positions", "literals", "ids", "fact", "head",
                 "antecedents", "inert", "heads", "readers", "beaten_by")

    def __init__(self, facts: Iterable[tuple[str, Literal]],
                 rules: Iterable[Rule],
                 superiority: Iterable[tuple[str, str]] = ()):
        facts = tuple(facts)
        self.rules = rules = tuple(rules)
        atoms = set()
        for _, literal in facts:
            atoms.add(literal.atom)
        for rule in rules:
            atoms.add(rule.head.atom)
            for ant in rule.antecedents:
                atoms.add(ant.literal.atom)
        atoms = sorted([*atoms, *atoms])  # each atom twice, in order
        # literal_sort_key order: by atom, the positive literal first;
        # tuple.__new__ makes each Literal without a call to its __new__
        self.literals = literals = tuple(map(
            tuple.__new__, repeat(Literal), zip(atoms, cycle((True, False)))))
        self.ids = dict(zip(literals, count()))
        cell_of = dict(zip(literals, count(0, 2)))  # the E cell
        mode = _MODE_INDEX
        cells = 2 * len(literals)

        self.fact = fact = bytearray(cells)
        for fact_mode, literal in facts:
            fact[cell_of[literal] + mode[fact_mode]] = 1

        self.positions = positions = {}
        self.head = head = [cell_of[rule.head] + mode[rule.head_mode]
                            for rule in rules]
        supported = bytearray(fact)  # 0 where no fact or rule is headed
        for h in head:
            supported[h] = 1
        self.antecedents = antecedents = []
        self.heads = heads = [()] * cells
        self.readers = readers = [()] * cells
        self.inert = inert = bytearray(len(rules))
        gone = []  # the rules inert at once
        listed = []  # the cells given a list
        tag_index = _TAG_INDEX
        for r, rule in enumerate(rules):
            positions[rule.id] = positions.get(rule.id, ()) + (r,)
            read = []
            live = True
            for ant in rule.antecedents:
                c = cell_of[ant.literal] + mode[ant.mode]
                if ant.sign is None:
                    read.append((c, None, PROVED))
                    live = live and supported[c]
                elif ant.sign == MINUS:
                    read.append((c, tag_index[ant.tag], REFUTED))
                    live = live and not fact[c]
                else:
                    read.append((c, tag_index[ant.tag], PROVED))
                    live = live and supported[c]
            antecedents.append(tuple(read))
            if not live:
                inert[r] = 1
                gone.append(r)
                continue
            h = heads[head[r]]
            if h:
                h.append(r)
            else:
                heads[head[r]] = [r]
                listed.append(head[r])
            for c, _, _ in read:
                # r is the largest position so far, so a cell this rule
                # already reads ends with r
                cell_readers = readers[c]
                if not cell_readers:
                    readers[c] = [r]
                    listed.append(c)
                elif cell_readers[-1] != r:
                    cell_readers.append(r)

        # The rest of the least inert closure.  So far a rule is inert
        # when it wants a cell that no fact or rule supports proved, or
        # wants a fact refuted, and lists hold the other rules.  A cell
        # dies once it is no fact and lists no rule, and then every
        # rule that wants it proved turns inert and leaves the lists; a
        # rule that reads it only as -t, which a dead cell meets, stays.
        dead = [h for h in {head[r] for r in gone}
                if not heads[h] and not fact[h]]
        while dead:
            c = dead.pop()
            for r in tuple(readers[c]):  # a copy, as r may leave the list
                if not any(cell == c and want == PROVED
                           for cell, _, want in antecedents[r]):
                    continue  # r reads c only as -t, which a dead cell meets
                inert[r] = 1
                for cell, _, _ in antecedents[r]:
                    if r in readers[cell]:
                        readers[cell].remove(r)
                h = head[r]
                heads[h].remove(r)
                if not heads[h] and not fact[h]:
                    dead.append(h)
        for c in listed:  # freeze each list once; () stays shared
            heads[c] = tuple(heads[c])
            readers[c] = tuple(readers[c])

        beaten: dict[int, list[int]] = {}
        for stronger, weaker in superiority:
            # an id that names no rule has no positions
            for w in positions.get(weaker, ()):
                if not inert[w]:
                    for s in positions.get(stronger, ()):
                        if head[s] == head[w] ^ 2 and not inert[s]:
                            beaten.setdefault(w, []).append(s)
        self.beaten_by = beaten_by = [()] * len(rules)
        for w, beaters in beaten.items():
            beaten_by[w] = frozenset(beaters)

    def stripped(self) -> "TheoryIndex":
        """A view of this index with the superiority relation stripped:
        it shares every list but ``beaten_by``, which is ``()`` for each
        rule."""
        view = object.__new__(TheoryIndex)
        for name in self.__slots__:
            setattr(view, name, getattr(self, name))
        view.beaten_by = [()] * len(self.rules)
        return view

    def cell(self, mode: str, literal: Literal) -> Optional[int]:
        """The cell of ``(mode, literal)``; None for an unknown literal."""
        i = self.ids.get(literal)
        return None if i is None else 2 * i + _MODE_INDEX[mode]

    def mask(self, rule_ids: Iterable[str]) -> bytearray:
        """1 at the position of each rule ``rule_ids`` names, else 0."""
        active = bytearray(len(self.rules))
        for rule_id in rule_ids:
            for r in self.positions.get(rule_id, ()):
                active[r] = 1
        return active


def _state(rows: list, antecedents: tuple, ambient: int) -> int:
    """1 once every antecedent holds at the statuses derived so far, -1
    once one has failed, 0 otherwise.  Each antecedent is ``(cell, tag
    index, wanted status)``: a plain antecedent (no tag index) reads the
    ambient tag index and wants it proved; an annotated one reads its
    own tag and fails only on the opposite sign."""
    state = 1
    for cell, tag, want in antecedents:
        got = rows[cell][ambient if tag is None else tag]
        if got is None:
            state = 0
        elif got != want:
            return -1
    return state


def _condition(tag: int, inputs: tuple, rows: list,
               index: TheoryIndex) -> int:
    """The Kleene value of ``+tag`` (a tag index) on a cell that is not
    a fact, whose inputs are (opposite is a fact, supporting rules,
    attacking rules): 1 when ``+tag`` holds, -1 when its strong negation
    ``-tag`` holds, 0 while neither does yet.

    The condition is a formula over rule states in strong three-valued
    logic.  A rule counts as applicable with its ``_state`` s and as
    discarded with -s, a superiority test is the constant 1 or -1, an
    opposing fact gives -1 at partial and delta, ``any`` is max (-1
    when empty) and ``all`` is min (1 when empty):

    * sigma_minus: max over supporters r of s_W(r);
    * sigma: max over r of min(s_S(r), min over the attackers that beat
      r of -s_D(s));
    * partial and delta, ambient tag a and guard g (partial/partial,
      delta/sigma): max over r of min(s_a(r), N), N the min over
      attackers s of max(-s_g(s), max over the supporters t that beat s
      of s_a(t)).  N does not depend on r, so the value is min(max over
      r of s_a(r), N), computed in that order.

    Why this is the two-valued table: read the formula with rule states
    thresholded, a rule applicable when s >= need and discarded when s
    <= -need, that is -s >= need.  For need 1 that is ``+tag``; for need
    0 it counts an open rule as both, and its failure is ``-tag``.  For
    values in {-1, 0, 1}, max(x, y) >= k exactly when x >= k or y >= k,
    min(x, y) >= k exactly when both are, an empty max (-1) is below
    both thresholds and an empty min (1) above both.  So by induction
    over the formula, the value is 1 exactly when ``+tag`` holds and -1
    exactly when the need-0 reading fails, which is ``-tag``.  One value
    cannot be both, so the two signs of a key never both hold.

    Each walk is a plain loop that stops once its value is decided: a
    max stops at 1, and a min stops at the best value already found.
    A fact cell is never asked: ``_evaluate`` settles it to proved at
    every tag."""
    opposed_fact, supporters, attackers = inputs
    antecedents = index.antecedents
    beaten_by = index.beaten_by
    best = -1
    if tag == _S:
        for r in supporters:
            value = _state(rows, antecedents[r], _S)
            if value <= best:
                continue
            beats_r = beaten_by[r]
            for s in attackers:
                if s in beats_r:
                    discarded = -_state(rows, antecedents[s], _D)
                    if discarded < value:
                        value = discarded
                        if value <= best:
                            break
            if value > best:
                if value == 1:
                    return 1
                best = value
        return best
    if tag == _W:  # sigma_minus reads no attacker
        ambient, guard, attackers = _W, None, ()
    elif opposed_fact:
        return -1
    else:
        ambient, guard = (_P, _P) if tag == _P else (_D, _S)
    for r in supporters:
        value = _state(rows, antecedents[r], ambient)
        if value > best:
            best = value
            if best == 1:
                break
    for s in attackers:
        if best == -1:
            break
        answered = -_state(rows, antecedents[s], guard)
        if answered < best:
            beats_s = beaten_by[s]
            for t in supporters:
                if t in beats_s:
                    value = _state(rows, antecedents[t], ambient)
                    if value > answered:
                        answered = value
                        if answered >= best:
                            break
            if answered < best:
                best = answered
    return best


def _evaluate(index: TheoryIndex, active) -> list:
    """The rows of the fixpoint over the rules ``active`` marks, or over
    every rule when ``active`` is None: an agenda of cell ids, seeded
    with every cell in ascending order and run until it is empty.

    Seeding reads each cell's inputs once for the whole table: whether
    its opposite is a fact, its active supporters and its active
    attackers.  Two kinds of cell are settled there, since their
    conditions read no status: a fact proves every tag, and a cell with
    no active supporter has the value -1 at every tag (an empty max), so
    every tag is refuted.  Every other cell starts with an open row and
    keeps its inputs.  Popping a cell asks ``_condition`` once for each
    open tag, writing proved for the value 1, refuted for -1 and nothing
    for 0; once no tag is open the cell drops its inputs.  The
    conditions of a cell read only facts and the cells named by
    antecedents of the rules headed at it or at its opposite, so when a
    tag of a cell settles, the head cells ``h`` and ``h ^ 2`` of its
    active readers are exactly the cells whose conditions read it.  Of
    those, the ones that still hold inputs, cells with an open tag, are
    queued again, and a cell already waiting is not queued twice.  A
    cell is thus open whenever it is popped.

    Why the order cannot matter: statuses are only ever added, so a
    rule's ``_state`` only ever moves from 0 to 1 or -1, and the Kleene
    value of a condition, built from states by max, min and negation,
    only ever moves from 0 to 1 or -1, never back and never from one to
    the other.  Let L be the least set of signed conclusions closed
    under the conditions (a key's ``+tag`` when its value is 1, its
    ``-tag`` when it is -1); one value never holds both signs.  Every
    status the agenda writes is in L, by induction on the writes.  When
    the agenda is empty every open cell has been evaluated since its
    inputs last changed, and a settled row has nothing left to derive,
    so no condition derives anything beyond what is written.  The
    written statuses are therefore closed, contain L, and equal it.
    Every cell is seeded and every row starts blank, so each table is
    this one pass whatever tables were built before it.
    """
    fact, heads, readers, head = (index.fact, index.heads, index.readers,
                                  index.head)
    condition = _condition
    tags = range(len(TAGS))
    rows = [None] * (2 * len(index.literals))
    inputs = [None] * len(rows)
    queued = bytearray(len(rows))
    pending = []
    for cell in range(len(rows)):
        if fact[cell]:
            rows[cell] = _PROVED_ROW
            continue
        supporters = heads[cell]
        if supporters and active is not None:
            supporters = [r for r in supporters if active[r]]
        if not supporters:
            rows[cell] = _UNSUPPORTED_ROW
            continue
        opposed = cell ^ 2
        attackers = heads[opposed]
        if attackers and active is not None:
            attackers = [r for r in attackers if active[r]]
        inputs[cell] = (fact[opposed], supporters, attackers)
        rows[cell] = [None] * len(TAGS)
        queued[cell] = 1
        pending.append(cell)
    agenda = deque(pending)
    while agenda:
        cell = agenda.popleft()
        queued[cell] = 0
        row = rows[cell]
        cell_inputs = inputs[cell]
        settled = still_open = False
        for tag in tags:
            if row[tag] is None:
                value = condition(tag, cell_inputs, rows, index)
                if value:
                    row[tag] = PROVED if value == 1 else REFUTED
                    settled = True
                else:
                    still_open = True
        if settled:
            if not still_open:
                inputs[cell] = None
            for r in readers[cell]:
                if active is None or active[r]:
                    for reader in (head[r], head[r] ^ 2):
                        if not queued[reader] and inputs[reader] is not None:
                            queued[reader] = 1
                            agenda.append(reader)
    return rows


def compute_conclusions(theory: Union[DefeasibleTheory, TheoryIndex],
                        rule_ids: Optional[Iterable[str]] = None
                        ) -> ConclusionTable:
    """Derive the full tagged-conclusion table of the facts, the rules
    ``rule_ids`` names (every rule when None; an id that names no rule
    is ignored) and the superiority pairs among those rules, over a
    theory, compiled here, or over an index compiled once.

    With ``rule_ids`` the fixpoint runs over the index's mask of those
    ids; with None it reads ``heads`` and ``readers`` as they are, with
    no mask.  Either way the table is one ``_evaluate`` pass, and
    nothing is kept: each call builds a new table.
    """
    index = theory if isinstance(theory, TheoryIndex) else TheoryIndex(
        theory.facts, theory.rules, theory.superiority)
    active = None if rule_ids is None else index.mask(rule_ids)
    return ConclusionTable(index.literals, index.ids,
                           _evaluate(index, active))


def cone(facts: Iterable[tuple[str, Literal]], rules: Sequence[Rule],
         cells: Iterable[tuple[str, str]]) -> tuple[Rule, ...]:
    """The rules of the live backward cone of ``cells``, in ``rules``
    order.

    Each cell is a ``(mode, atom)`` pair, standing for the cell of the
    atom's literal in that mode together with its opposite.  A rule
    headed at a cell of the cone joins it, and adds the cell of each of
    its antecedents, unless it is inert at once: a plain or ``+t``
    antecedent reads a ``(mode, literal)`` that no fact and no rule of
    ``rules`` heads, or a ``-t`` antecedent reads a fact.  Such a rule
    is inert in any compile of ``facts`` and ``rules`` (see the module
    docstring), so the walk neither keeps it nor follows it, and a rule
    reached only through it stays out.  Over rules that are all live no
    rule is inert at once, and the walk is the plain backward cone.
    The literals a fact or a rule head supports (each marked whether it
    is a fact), the rules headed at each atom and the cells seen are
    kept by mode, so the walk builds no ``(mode, literal)`` pair per
    occurrence.  A cell in an unknown mode adds nothing, so ``()``
    answers for it; a fact in one raises ``KeyError``, as in
    ``TheoryIndex``.

    Why the cone answers for its cells: the conditions of a cell
    ``(mode, l)`` read only facts and the cells named by antecedents of
    the rules headed at ``(mode, l)`` or ``(mode, ~l)``, and superiority
    acts only between the rules of one such head-cell pair.  Each cell
    coming with its opposite, the cone's cells read only cone cells,
    through the same rules and pairs, in any theory that holds the
    cone's rules, the same facts and the same pairs among those rules.
    The least fixpoint restricted to those cells is the same in each.
    So over one index, the cone cells have the same statuses in the
    tables of a rule set K and of K restricted to the cone, which is
    how ``game`` slices its claim questions (walking the same cone over
    its index's cells).  Take K to be ``rules`` less the rules inert at
    once: its table is that of ``rules``, since deleting inert rules
    changes no row, and the walk is K's cone.  A one-shot question
    compiles an index of the facts, the superiority pairs and the cone
    alone (``cone_index``).  There an asked cell the smaller index does
    not number reads as refuted at every tag, and that is exactly how
    the whole theory's table reads it: such a cell is no fact, and every
    rule headed at it, if any, is inert at once, so the cell is dead.
    """
    # by mode: whether each literal a fact or a head supports is a fact,
    # the positions of the rules headed at each atom, and the atoms seen
    supported = {EVIDENTIAL: {}, OBLIGATION: {}}
    for mode, literal in facts:
        supported[mode][literal] = True
    headed = {EVIDENTIAL: {}, OBLIGATION: {}}
    for r, rule in enumerate(rules):
        supported[rule.head_mode].setdefault(rule.head, False)
        headed[rule.head_mode].setdefault(rule.head.atom, []).append(r)
    seen = {EVIDENTIAL: set(), OBLIGATION: set()}
    work = [cell for cell in cells if cell[0] in seen]
    for mode, atom in work:
        seen[mode].add(atom)
    kept = bytearray(len(rules))
    while work:
        mode, atom = work.pop()
        for r in headed[mode].get(atom, ()):
            antecedents = rules[r].antecedents
            for ant in antecedents:
                if (supported[ant.mode].get(ant.literal) if ant.sign == MINUS
                        else ant.literal not in supported[ant.mode]):
                    break  # inert at once
            else:
                kept[r] = 1
                for ant in antecedents:
                    if ant.literal.atom not in seen[ant.mode]:
                        seen[ant.mode].add(ant.literal.atom)
                        work.append((ant.mode, ant.literal.atom))
    return tuple(rule for rule, on in zip(rules, kept) if on)


def cone_index(theory: DefeasibleTheory, mode: str,
               literal: Literal) -> TheoryIndex:
    """The facts, the superiority pairs and the rules of the live cone
    of ``(mode, literal)``, compiled: its table answers for that cell as
    the table of the whole theory does (see ``cone``)."""
    return TheoryIndex(theory.facts,
                       cone(theory.facts, theory.rules,
                            ((mode, literal.atom),)),
                       theory.superiority)


def holds(theory: DefeasibleTheory, query: TaggedLiteral) -> str:
    """Status of one signed tagged query against a theory, on the
    table of the queried cell's cone.  The query's sign, tag, mode and
    literal are checked before any walk, and a bad one raises
    ``ValueError``."""
    _wanted(query.sign)
    _check_tag(query.tag)
    _check_moded(query.mode, query.literal)
    return compute_conclusions(
        cone_index(theory, query.mode, query.literal)).query(query)


@dataclass(frozen=True)
class StandardsReport:
    literal: Literal
    mode: str
    met: tuple[str, ...]


def standards_met(theory: DefeasibleTheory, literal: Literal,
                  mode: str = EVIDENTIAL) -> StandardsReport:
    """Which proof standards a literal meets in the given mode.

    The mode and literal are checked first, and a bad one raises
    ``ValueError``.  Only the live cone of ``(mode, literal)`` is
    compiled (``cone_index``), once.  Dialectical validity is read at
    delta on the stripped view of that index, which shares every list
    but ``beaten_by``.  When no superiority pair between live rules of
    the cone takes effect (``beaten_by``) the stripped table is the
    table itself, so it is reused.
    """
    _check_moded(mode, literal)
    index = cone_index(theory, mode, literal)
    table = compute_conclusions(index)
    met = [
        standard for standard in (SCINTILLA, SUBSTANTIAL, PREPONDERANCE, BRD)
        if table.status(STANDARD_TAG[standard], mode, literal) == PROVED
    ]
    if any(index.beaten_by):
        table = compute_conclusions(index.stripped())
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
    for sign, tag in (a, b):
        _wanted(sign)
        _check_tag(tag)
    if sign_a != sign_b:
        raise ValueError("conclusions with different signs are not comparable")
    rank_a, rank_b = _TAG_INDEX[tag_a], _TAG_INDEX[tag_b]
    if sign_a == MINUS:
        rank_a, rank_b = rank_b, rank_a
    return (rank_a > rank_b) - (rank_a < rank_b)
