"""Random theories and game setups for property testing.

Generation is seeded and deterministic.  Two global guarantees keep the
output inside the territory where the engine's metatheory applies and
the oracles are meaningful: the superiority relation is always acyclic
(pairs point from earlier to later in a hidden random rule order) and
facts never contain a complementary pair in the same mode.  Everything
else, including support cycles and rules attacking facts, is fair game
unless ``stratified`` is requested, which forbids support cycles too.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Union

from .model import (
    DELTA, EVIDENTIAL, OBLIGATION, PARTIAL, TAGS, Antecedent, Claim,
    DefeasibleTheory, GameSetup, Literal, Rule,
)

ATOM_POOL = "abcdefghijklmnop"
CLAIM_CHANCE = 0.9

Seed = Union[int, random.Random]


def _rng(seed: Seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _random_literal(rng: random.Random, atoms: list[str],
                    positive_bias: float = 0.75) -> Literal:
    return Literal(rng.choice(atoms), rng.random() < positive_bias)


def random_theory(seed: Seed, *, max_atoms: int = 10, max_rules: int = 14,
                  deontic_ratio: float = 0.3, allow_superiority: bool = True,
                  allow_annotations: bool = False,
                  stratified: bool = False) -> DefeasibleTheory:
    """One random theory.  With ``stratified`` every antecedent atom
    sits strictly below the head atom in a hidden random order, so the
    support graph is a DAG; that is the regime where the failure proofs
    always terminate and the argumentation oracle is exact."""
    rng = _rng(seed)
    atoms = list(ATOM_POOL[:rng.randint(2, max(2, max_atoms))])
    rank = {atom: position for position, atom in enumerate(atoms)}
    rule_count = rng.randint(1, max_rules)
    max_deontic = int(deontic_ratio * rule_count)

    def pick_head() -> Literal:
        return _random_literal(rng, atoms[1:] if stratified else atoms)

    def ant_atoms_for(head: Literal) -> list[str]:
        if stratified:
            return atoms[:rank[head.atom]]
        return atoms

    rules: list[Rule] = []
    deontic_used = 0
    for index in range(rule_count):
        deontic = deontic_used < max_deontic and rng.random() < deontic_ratio
        if deontic:
            deontic_used += 1
        mode = OBLIGATION if deontic else EVIDENTIAL
        head = None
        if rules and rng.random() < 0.45:
            # bias towards conflicts: aim at an existing head
            target = rng.choice(rules)
            if not (stratified and rank[target.head.atom] == 0):
                mode = target.head_mode
                head = target.head.complement() if rng.random() < 0.7 \
                    else target.head
        if head is None:
            head = pick_head()
        antecedents = []
        for _ in range(rng.randint(1, 3)):
            literal = _random_literal(rng, ant_atoms_for(head))
            ant_mode = OBLIGATION if rng.random() < 0.12 else EVIDENTIAL
            if allow_annotations and rng.random() < 0.2:
                sign = "+" if rng.random() < 0.7 else "-"
                antecedents.append(Antecedent(
                    ant_mode, literal, sign=sign, tag=rng.choice(TAGS)))
            else:
                antecedents.append(Antecedent(ant_mode, literal))
        rules.append(Rule(f"r{index + 1}", tuple(antecedents), mode, head))

    facts: set[tuple[str, Literal]] = set()
    for _ in range(rng.randint(1, max(1, len(atoms) // 2))):
        literal = _random_literal(rng, atoms, positive_bias=0.8)
        mode = OBLIGATION if rng.random() < 0.12 else EVIDENTIAL
        if (mode, literal.complement()) in facts:
            continue
        facts.add((mode, literal))

    superiority: set[tuple[str, str]] = set()
    if allow_superiority:
        order = [rule.id for rule in rules]
        rng.shuffle(order)
        rank = {rule_id: position for position, rule_id in enumerate(order)}
        for i, first in enumerate(rules):
            for second in rules[i + 1:]:
                if first.head_mode != second.head_mode:
                    continue
                if first.head != second.head.complement():
                    continue
                if rng.random() < 0.5:
                    pair = (first.id, second.id) \
                        if rank[first.id] < rank[second.id] \
                        else (second.id, first.id)
                    superiority.add(pair)

    return DefeasibleTheory(
        frozenset(facts), tuple(rules), frozenset(superiority))


def random_setup(seed: Seed, *, max_atoms: int = 10, max_rules: int = 14,
                 deontic_ratio: float = 0.3, allow_annotations: bool = False
                 ) -> GameSetup:
    rng = _rng(seed)
    theory = random_theory(
        rng, max_atoms=max_atoms, max_rules=max_rules,
        deontic_ratio=deontic_ratio, allow_annotations=allow_annotations)
    common, pr_pool, def_pool = [], [], []
    for rule in theory.rules:
        bucket = rng.random()
        if bucket < 0.34:
            common.append(rule)
        elif bucket < 0.67:
            pr_pool.append(rule)
        else:
            def_pool.append(rule)
    atoms = sorted({a.literal.atom for r in theory.rules
                    for a in r.antecedents}
                   | {r.head.atom for r in theory.rules}
                   | {f[1].atom for f in theory.facts})
    claim: Optional[Claim] = None
    if rng.random() < CLAIM_CHANCE:
        count = 1 if rng.random() < 0.8 else 2
        literals = {Literal(rng.choice(atoms), rng.random() < 0.85)
                    for _ in range(count)}
        claim = Claim(frozenset(literals))
    evidential = DELTA if rng.random() < 0.6 else rng.choice(TAGS)
    deontic = PARTIAL if rng.random() < 0.7 else DELTA
    return GameSetup(
        facts=theory.facts,
        common_rules=tuple(common),
        pr_rules=tuple(pr_pool),
        def_rules=tuple(def_pool),
        superiority=theory.superiority,
        claim=claim,
        evidential_standard=evidential,
        deontic_standard=deontic,
    )


def theories(count: int, *, start_seed: int = 0,
             **kwargs) -> Iterator[DefeasibleTheory]:
    for offset in range(count):
        yield random_theory(start_seed + offset, **kwargs)


def setups(count: int, *, start_seed: int = 0,
           **kwargs) -> Iterator[GameSetup]:
    for offset in range(count):
        yield random_setup(start_seed + offset, **kwargs)
