import random
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import pytest

from trialogic import (
    EVIDENTIAL, OBLIGATION, PROVED, Claim, compute_conclusions, corpus,
    engine, game, parse_theory,
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


class Computed(NamedTuple):
    """One table the game computed: the index, the rule ids asked for,
    whether it grew from a kept table, and the table."""
    index: TheoryIndex
    rule_ids: frozenset
    grown: bool
    table: ConclusionTable


@pytest.fixture
def computed(monkeypatch):
    """Every table ``game`` computes, in order, as ``Computed``; it grew
    when ``engine._grow`` ran while it was computed."""
    runs = []
    grew = []
    compute, grow = game.compute_conclusions, engine._grow

    def growing(*args):
        grew.append(True)
        return grow(*args)

    def recording(index, rule_ids):
        grew.clear()
        table = compute(index, rule_ids)
        runs.append(Computed(index, frozenset(rule_ids), bool(grew), table))
        return table

    monkeypatch.setattr(engine, "_grow", growing)
    monkeypatch.setattr(game, "compute_conclusions", recording)
    return runs
