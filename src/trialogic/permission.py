"""Weak permission: conduct is permitted when its prohibition fails.

A literal is weakly permitted at a tag when the obligation of its
complement is refuted at that tag.  Only the two ambiguity-handling
tags make sense here; support is too weak to read anything into its
failure, and obligations proved at support alone can conflict, so the
duality that makes the reading sound does not hold there.

``weakly_permitted`` asks one cell, the obligation of the complement,
so it checks the tag and the literal first and then compiles only that
cell's live backward cone (``engine.cone_index``), whose table reads
the cell as the whole theory's table does.  A theory with no deontic
rule leaves that cone empty, so the obligation is proved by a fact or
refuted at every tag.

The game variant answers from a finished trace: the court's record is
whatever theory the parties ended up disclosing, so permission is read
off the terminal conclusion table, and only for claim literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .engine import compute_conclusions, cone_index
from .model import (
    DELTA, MINUS, OBLIGATION, PARTIAL, PLUS, PROVED, REFUTED, UNDETERMINED,
    DefeasibleTheory, Literal, TaggedLiteral, _check_moded,
)

if TYPE_CHECKING:
    from .game import GameTrace

WEAKLY_PERMITTED = "weakly_permitted"
NOT_PERMITTED = "not_permitted"
PERMISSION_TAGS = (DELTA, PARTIAL)


@dataclass(frozen=True)
class PermissionStatus:
    literal: Literal
    tag: str
    status: str
    witness: Optional[TaggedLiteral]


def _check_tag(tag: str) -> None:
    if tag not in PERMISSION_TAGS:
        raise ValueError(
            f"permission is defined for tags {PERMISSION_TAGS}, not {tag!r}")


def _permission_from_table(table, literal: Literal,
                           tag: str) -> PermissionStatus:
    prohibition = table.status(tag, OBLIGATION, literal.complement())
    if prohibition == REFUTED:
        witness = TaggedLiteral(MINUS, tag, OBLIGATION, literal.complement())
        return PermissionStatus(literal, tag, WEAKLY_PERMITTED, witness)
    if prohibition == PROVED:
        witness = TaggedLiteral(PLUS, tag, OBLIGATION, literal.complement())
        return PermissionStatus(literal, tag, NOT_PERMITTED, witness)
    return PermissionStatus(literal, tag, UNDETERMINED, None)


def weakly_permitted(theory: DefeasibleTheory, literal: Literal,
                     tag: str = PARTIAL) -> PermissionStatus:
    _check_tag(tag)
    _check_moded(OBLIGATION, literal)
    index = cone_index(theory, OBLIGATION, literal.complement())
    return _permission_from_table(compute_conclusions(index), literal, tag)


def game_weakly_permitted(trace: GameTrace, literal: Literal,
                          tag: str = PARTIAL) -> PermissionStatus:
    """Permission as settled by a finished game, on the disclosed
    theory.  Errors on unfinished traces and on literals outside the
    claim: the court only rules on what was actually at issue."""
    from .game import ONGOING

    if trace.outcome == ONGOING:
        raise ValueError("the game is still ongoing; permission is only "
                         "settled by a terminal state")
    claim = trace.setup.claim
    if claim is None or literal not in claim.literals:
        raise ValueError(f"{literal} is not part of the claim")
    _check_tag(tag)
    return _permission_from_table(trace.final_conclusions, literal, tag)


@dataclass(frozen=True)
class DualityReport:
    """Obligation-implies-permission audit over a whole theory.

    ``vacuous`` flags theories outside the guarantee: a superiority
    cycle or a pair of conflicting deontic facts voids it, and any
    violation found there is expected rather than a defect."""

    violations: tuple[tuple[str, Literal], ...]
    checked: int
    vacuous: bool
    reasons: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def check_obligation_permission(theory: DefeasibleTheory) -> DualityReport:
    """For every literal with a proved obligation at a deontic tag, the
    opposite obligation must be refuted at that tag, which is exactly
    weak permission of the obliged literal."""
    from .model import _superiority_cycles

    reasons = []
    if _superiority_cycles(theory.superiority):
        reasons.append("superiority relation has a cycle")
    deontic_facts = {f[1] for f in theory.facts if f[0] == OBLIGATION}
    if any(lit.complement() in deontic_facts for lit in deontic_facts):
        reasons.append("conflicting deontic facts")
    table = compute_conclusions(theory)
    violations = []
    checked = 0
    for literal in sorted(table.literals):
        for tag in PERMISSION_TAGS:
            if table.status(tag, OBLIGATION, literal) != PROVED:
                continue
            checked += 1
            if table.status(tag, OBLIGATION, literal.complement()) != REFUTED:
                violations.append((tag, literal))
    return DualityReport(
        tuple(violations), checked, vacuous=bool(reasons), reasons=tuple(reasons))
