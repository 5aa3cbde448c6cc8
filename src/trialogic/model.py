"""Core domain types for defeasible deontic reasoning and disclosure games.

A theory is a set of facts, a set of defeasible rules and a superiority
relation between rule ids.  Literals live in two modes: evidential
(statements about what holds) and obligation (statements about what is
required).  Rules likewise come in two kinds, an evidential rule whose
head is read factually and a deontic rule whose head is read as an
obligation.  Antecedents may optionally be annotated with an explicit
sign and proof tag, in which case they are satisfied only by exactly
that tagged conclusion.

A game setup layers a courtroom reading on top: rules are split between
a common pool and two private pools (prosecutor and defence), a claim
names the statements the prosecutor must establish, and two configurable
proof standards say how strongly the evidential and deontic halves of
the claim must be proved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Optional

# Modes.
EVIDENTIAL = "E"
OBLIGATION = "O"
MODES = (EVIDENTIAL, OBLIGATION)

# Proof tags, strongest to weakest on the positive side.
DELTA = "delta"
PARTIAL = "partial"
SIGMA = "sigma"
SIGMA_MINUS = "sigma_minus"
TAGS = (DELTA, PARTIAL, SIGMA, SIGMA_MINUS)

# Single-letter tag tokens used by the rule language and the CLI.
TAG_FOR_TOKEN = {"d": DELTA, "p": PARTIAL, "s": SIGMA, "w": SIGMA_MINUS}
TOKEN_FOR_TAG = {tag: token for token, tag in TAG_FOR_TOKEN.items()}
GLYPH_FOR_TAG = {DELTA: "δ", PARTIAL: "∂", SIGMA: "σ",
                 SIGMA_MINUS: "σ⁻"}

PLUS = "+"
MINUS = "-"
SIGNS = (PLUS, MINUS)

# Three-valued outcome of a tagged query.
PROVED = "proved"
REFUTED = "refuted"
UNDETERMINED = "undetermined"

# Players.
PR = "pr"
DEF = "def"
PLAYERS = (PR, DEF)

# Atoms, rule ids and the words of the rule language.
ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")


class Literal(NamedTuple):
    """A propositional atom or its negation."""

    atom: str
    positive: bool = True

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __str__(self) -> str:
        return self.atom if self.positive else "~" + self.atom


def lit(text: str) -> Literal:
    """Build a literal from its surface form, e.g. ``"b"`` or ``"~b"``."""
    negated = text.startswith("~")
    atom = text[1:] if negated else text
    if not ATOM_RE.fullmatch(atom):
        raise ValueError(f"bad atom {atom!r}")
    return Literal(atom, not negated)


def complement(literal: Literal) -> Literal:
    return literal.complement()


def literal_sort_key(literal: Literal):
    return (literal.atom, not literal.positive)


class TaggedLiteral(NamedTuple):
    """A signed, tagged, moded literal such as +partial O ~b."""

    sign: str
    tag: str
    mode: str
    literal: Literal

    def render(self) -> str:
        """ASCII query form, e.g. ``"+p O ~b"``."""
        mode = "O " if self.mode == OBLIGATION else ""
        return f"{self.sign}{TOKEN_FOR_TAG[self.tag]} {mode}{self.literal}"

    def render_glyph(self) -> str:
        mode = "O " if self.mode == OBLIGATION else ""
        return f"{self.sign}{GLYPH_FOR_TAG[self.tag]} {mode}{self.literal}"


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"bad mode {mode!r}")


def _check_tag(tag: str) -> None:
    if tag not in TAGS:
        raise ValueError(f"bad tag {tag!r}")


@dataclass(frozen=True)
class Antecedent:
    """One rule premise.

    A plain antecedent (sign and tag absent) is satisfied when its
    literal is proved in its mode at the ambient standard of the rule
    being evaluated.  An annotated antecedent demands exactly the stated
    signed tag and fails only on the opposite sign.
    """

    mode: str
    literal: Literal
    sign: Optional[str] = None
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        _check_mode(self.mode)
        if (self.sign is None) != (self.tag is None):
            raise ValueError("annotation needs both sign and tag")
        if self.sign is not None and self.sign not in SIGNS:
            raise ValueError(f"bad sign {self.sign!r}")
        if self.tag is not None:
            _check_tag(self.tag)

    @property
    def annotated(self) -> bool:
        return self.sign is not None


@dataclass(frozen=True)
class Rule:
    """A defeasible rule with an evidential or deontic head."""

    id: str
    antecedents: tuple[Antecedent, ...]
    head_mode: str
    head: Literal

    def __post_init__(self) -> None:
        if not ATOM_RE.fullmatch(self.id):
            raise ValueError(f"bad rule id {self.id!r}")
        _check_mode(self.head_mode)
        object.__setattr__(self, "antecedents", tuple(self.antecedents))
        if not self.antecedents:
            raise ValueError(f"rule {self.id!r} needs at least one antecedent")


def _sorted_rules(rules: Iterable[Rule]) -> tuple[Rule, ...]:
    return tuple(sorted(rules, key=lambda r: r.id))


def _checked_facts(facts: Iterable[tuple[str, Literal]]
                   ) -> frozenset[tuple[str, Literal]]:
    facts = frozenset(facts)
    for mode, _ in facts:
        _check_mode(mode)
    return facts


@dataclass(frozen=True)
class DefeasibleTheory:
    """Facts, rules and a superiority relation over rule ids.

    Superiority pairs are (stronger, weaker).  The relation only takes
    effect between same-mode rules with complementary heads; any other
    pair is inert (validation flags it).
    """

    facts: frozenset[tuple[str, Literal]]
    rules: tuple[Rule, ...]
    superiority: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "facts", _checked_facts(self.facts))
        object.__setattr__(self, "rules", _sorted_rules(self.rules))
        object.__setattr__(self, "superiority", frozenset(self.superiority))

    def rule_ids(self) -> frozenset[str]:
        return frozenset(r.id for r in self.rules)


@dataclass(frozen=True)
class Claim:
    """The statements the prosecutor must establish.

    Each claim literal carries two goals: prove the literal itself
    evidentially and prove the obligation of its complement.  The
    deontic half is derived, never stored separately.
    """

    literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.literals), key=literal_sort_key))
        if not ordered:
            raise ValueError("claim needs at least one literal")
        object.__setattr__(self, "literals", ordered)


@dataclass(frozen=True)
class GameSetup:
    """A theory partitioned for play, plus claim and proof standards."""

    facts: frozenset[tuple[str, Literal]]
    common_rules: tuple[Rule, ...]
    pr_rules: tuple[Rule, ...]
    def_rules: tuple[Rule, ...]
    superiority: frozenset[tuple[str, str]] = frozenset()
    claim: Optional[Claim] = None
    evidential_standard: str = DELTA
    deontic_standard: str = PARTIAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "facts", _checked_facts(self.facts))
        object.__setattr__(self, "common_rules", _sorted_rules(self.common_rules))
        object.__setattr__(self, "pr_rules", _sorted_rules(self.pr_rules))
        object.__setattr__(self, "def_rules", _sorted_rules(self.def_rules))
        object.__setattr__(self, "superiority", frozenset(self.superiority))
        _check_tag(self.evidential_standard)
        if self.deontic_standard not in (DELTA, PARTIAL):
            raise ValueError("deontic standard must be delta or partial")

    def all_rules(self) -> tuple[Rule, ...]:
        return _sorted_rules(self.common_rules + self.pr_rules + self.def_rules)

    def rule_by_id(self) -> dict[str, Rule]:
        return {r.id: r for r in self.all_rules()}

    def owner_of(self, rule_id: str) -> Optional[str]:
        if any(r.id == rule_id for r in self.pr_rules):
            return PR
        if any(r.id == rule_id for r in self.def_rules):
            return DEF
        if any(r.id == rule_id for r in self.common_rules):
            return "common"
        return None

    def union_theory(self) -> DefeasibleTheory:
        """The omniscient view: every rule regardless of ownership."""
        return self.theory_for(r.id for r in self.all_rules())

    def theory_for(self, rule_ids: Iterable[str]) -> DefeasibleTheory:
        """The theory induced by a subset of rule ids (facts included)."""
        wanted = set(rule_ids)
        # DefeasibleTheory sorts the rules by id, as all_rules() would
        rules = [r for r in self.common_rules + self.pr_rules + self.def_rules
                 if r.id in wanted]
        ids = {r.id for r in rules}
        sup = frozenset(p for p in self.superiority
                        if p[0] in ids and p[1] in ids)
        return DefeasibleTheory(self.facts, rules, sup)


@dataclass(frozen=True)
class Move:
    """One turn: disclosed rule ids plus declared target literals.

    An empty rule set is a pass and declares no targets.
    """

    player: str
    rule_ids: frozenset[str]
    targets: frozenset[tuple[str, Literal]] = frozenset()

    def __post_init__(self) -> None:
        if self.player not in PLAYERS:
            raise ValueError(f"bad player {self.player!r}")
        object.__setattr__(self, "rule_ids", frozenset(self.rule_ids))
        object.__setattr__(self, "targets", frozenset(self.targets))

    @property
    def is_pass(self) -> bool:
        return not self.rule_ids


def player_view(setup: GameSetup, player: str) -> DefeasibleTheory:
    """What one player can see: common rules, their own pool, and the
    superiority pairs among those."""
    if player not in PLAYERS:
        raise ValueError(f"bad player {player!r}")
    own = setup.pr_rules if player == PR else setup.def_rules
    return setup.theory_for([r.id for r in setup.common_rules + own])


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _superiority_cycles(pairs: frozenset[tuple[str, str]]) -> bool:
    """Whether the pairs contain a cycle: repeatedly remove rules that no
    remaining rule is stronger than; a cycle is what can never go."""
    weaker_than: dict[str, list[str]] = {}
    stronger_count: dict[str, int] = {}
    for stronger, weaker in pairs:
        weaker_than.setdefault(stronger, []).append(weaker)
        stronger_count[weaker] = stronger_count.get(weaker, 0) + 1
        stronger_count.setdefault(stronger, 0)
    free = [rule for rule, count in stronger_count.items() if count == 0]
    removed = 0
    while free:
        removed += 1
        for weaker in weaker_than.get(free.pop(), ()):
            stronger_count[weaker] -= 1
            if stronger_count[weaker] == 0:
                free.append(weaker)
    return removed < len(stronger_count)


def _validate_parts(facts, rules, superiority, report: ValidationReport) -> None:
    ids: set[str] = set()
    by_id: dict[str, Rule] = {}
    for rule in rules:
        if rule.id in ids:
            report.errors.append(f"duplicate rule id {rule.id!r}")
        ids.add(rule.id)
        by_id[rule.id] = rule
    for stronger, weaker in sorted(superiority):
        for name in (stronger, weaker):
            if name not in ids:
                report.errors.append(
                    f"superiority references unknown rule id {name!r}")
        if stronger == weaker:
            report.warnings.append(
                f"superiority pair {stronger!r} > {weaker!r} is reflexive")
        a, b = by_id.get(stronger), by_id.get(weaker)
        if a and b and not (a.head_mode == b.head_mode
                            and a.head == b.head.complement()):
            report.warnings.append(
                f"superiority pair {stronger!r} > {weaker!r} does not relate "
                "same-mode rules with complementary heads; it has no effect")
    if _superiority_cycles(superiority):
        report.warnings.append("superiority relation contains a cycle")
    modal = {l for (m, l) in facts if m == OBLIGATION}
    for literal in sorted(modal, key=literal_sort_key):
        if literal.positive and literal.complement() in modal:
            report.warnings.append(
                f"facts oblige both {literal} and {literal.complement()}")


def validate_theory(theory: DefeasibleTheory) -> ValidationReport:
    report = ValidationReport()
    _validate_parts(theory.facts, theory.rules, theory.superiority, report)
    return report


def validate_setup(setup: GameSetup) -> ValidationReport:
    report = ValidationReport()
    pools = {PR: setup.pr_rules, DEF: setup.def_rules, "common": setup.common_rules}
    seen: dict[str, str] = {}
    for owner, rules in pools.items():
        for rule in rules:
            if rule.id in seen and seen[rule.id] != owner:
                report.errors.append(
                    f"rule id {rule.id!r} appears in both "
                    f"{seen[rule.id]} and {owner} pools")
            seen[rule.id] = owner
    _validate_parts(setup.facts, setup.all_rules(), setup.superiority, report)
    return report


def with_standards(setup: GameSetup, evidential: Optional[str] = None,
                   deontic: Optional[str] = None) -> GameSetup:
    """A copy of the setup with one or both proof standards replaced."""
    changes = {}
    if evidential is not None:
        changes["evidential_standard"] = evidential
    if deontic is not None:
        changes["deontic_standard"] = deontic
    return replace(setup, **changes) if changes else setup
