import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from trialogic import (
    EVIDENTIAL, MINUS, MODES, OBLIGATION, PROVED, REFUTED, TAGS,
    UNDETERMINED, Claim, compute_conclusions, corpus, engine, game,
    parse_theory,
)
from trialogic.engine import ConclusionTable, TheoryIndex

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load(name: str):
    return parse_theory((FIXTURES / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def s1():
    return load("s1.ddt")


@pytest.fixture(scope="session")
def s2():
    return load("s2.ddt")


@pytest.fixture(scope="session")
def s3():
    return load("s3.ddt")


@pytest.fixture(scope="session")
def s4():
    return load("s4.ddt")


@pytest.fixture(scope="session")
def ambiguity():
    return load("ambiguity.ddt")


@pytest.fixture(scope="session")
def annotated():
    return load("annotated.ddt")


@pytest.fixture(scope="session")
def cycle():
    return load("cycle.ddt")


@pytest.fixture(scope="session")
def empty_deontic():
    return load("empty_deontic.ddt")


def established_setup(seed: int, **kwargs):
    """``random_setup(seed, **kwargs)`` with its claim replaced by a
    literal the union theory establishes, picked as the benchmark's
    ``established_claim`` picks one; None when there is none."""
    setup = corpus.random_setup(seed, **kwargs)
    table = compute_conclusions(setup.union_theory())
    ev, de = setup.evidential_standard, setup.deontic_standard
    candidates = [
        literal for literal in sorted(table.literals)
        if table.status(ev, EVIDENTIAL, literal) == PROVED
        and table.status(de, OBLIGATION, literal.complement()) == PROVED]
    if not candidates:
        return None
    claim = random.Random(seed).choice(candidates)
    return replace(setup, claim=Claim((claim,)))


def reference_inert(facts, rules) -> frozenset[int]:
    """The inert closure written out over Rule objects: from no inert
    rule, a rule turns inert while a plain or ``+t`` antecedent reads a
    dead cell (mode, literal), one that is no fact and whose every rule
    is already inert, or a ``-t`` antecedent reads a fact.  The
    positions in ``rules`` of the inert rules."""
    inert = set()

    def dead(cell):
        return cell not in facts and all(
            r in inert for r, rule in enumerate(rules)
            if (rule.head_mode, rule.head) == cell)

    grew = True
    while grew:
        grew = False
        for r, rule in enumerate(rules):
            if r not in inert and any(
                    (ant.mode, ant.literal) in facts
                    if ant.sign == MINUS else dead((ant.mode, ant.literal))
                    for ant in rule.antecedents):
                inert.add(r)
                grew = True
    return frozenset(inert)


def reference_cone(rules, cells) -> frozenset[str]:
    """The backward cone written out by hand: ids of the rules whose
    head cell ``cells`` reach backwards through antecedents, cells taken
    as (mode, atom)."""
    headed = {}
    for rule in rules:
        headed.setdefault((rule.head_mode, rule.head.atom), []).append(rule)
    seen = set(cells)
    work = list(seen)
    cone = set()
    while work:
        for rule in headed.get(work.pop(), ()):
            cone.add(rule.id)
            for ant in rule.antecedents:
                cell = (ant.mode, ant.literal.atom)
                if cell not in seen:
                    seen.add(cell)
                    work.append(cell)
    return frozenset(cone)


def inert_at_once(facts, rules) -> frozenset[int]:
    """The rules inert at once, written out over Rule objects: a plain
    or ``+t`` antecedent reads a cell (mode, literal) that no fact and
    no rule of ``rules`` heads, or a ``-t`` antecedent reads a fact.
    Their positions in ``rules``."""
    supported = set(facts) | {(rule.head_mode, rule.head) for rule in rules}
    return frozenset(
        r for r, rule in enumerate(rules) if any(
            (ant.mode, ant.literal) in facts if ant.sign == MINUS
            else (ant.mode, ant.literal) not in supported
            for ant in rule.antecedents))


def unpruned_rows(facts, rules, superiority, rule_ids=None) -> list:
    """``rows()`` of the table of the rules ``rule_ids`` names (every
    rule when None) over an index of ``rules``, as the least fixpoint
    of the conditions of every such rule, inert ones included:
    ``engine._condition`` swept over every cell until nothing changes,
    with each cell's supporters and attackers and each superiority pair
    read off the rules themselves, not off the index's lists of live
    rules."""
    index = TheoryIndex(facts, rules, superiority)
    active = index.mask(index.positions if rule_ids is None else rule_ids)
    headed = [[] for _ in index.fact]
    for r, h in enumerate(index.head):
        if active[r]:
            headed[h].append(r)
    beaten = [set() for _ in index.rules]
    for stronger, weaker in superiority:
        for s in index.positions.get(stronger, ()):
            for w in index.positions.get(weaker, ()):
                if index.head[s] == index.head[w] ^ 2:
                    beaten[w].add(s)
    view = SimpleNamespace(antecedents=index.antecedents, beaten_by=beaten)
    rows = [[PROVED if fact else None] * len(TAGS) for fact in index.fact]
    changed = True
    while changed:
        changed = False
        for cell, row in enumerate(rows):
            if index.fact[cell]:
                continue
            inputs = (index.fact[cell ^ 2], headed[cell], headed[cell ^ 2])
            for tag, status in enumerate(row):
                if status is None:
                    value = engine._condition(tag, inputs, rows, view)
                    if value:
                        row[tag] = PROVED if value == 1 else REFUTED
                        changed = True
    return [(index.literals[cell >> 1], MODES[cell & 1], tag,
             status or UNDETERMINED)
            for cell, row in enumerate(rows)
            for tag, status in zip(TAGS, row)]


class Computed(NamedTuple):
    """One table the game computed: the index, the rule ids asked for,
    and the table."""
    index: TheoryIndex
    rule_ids: frozenset
    table: ConclusionTable


@pytest.fixture
def computed(monkeypatch):
    """Every table ``game`` computes, in order, as ``Computed``."""
    runs = []
    compute = game.compute_conclusions

    def recording(index, rule_ids):
        table = compute(index, rule_ids)
        runs.append(Computed(index, frozenset(rule_ids), table))
        return table

    monkeypatch.setattr(game, "compute_conclusions", recording)
    return runs
