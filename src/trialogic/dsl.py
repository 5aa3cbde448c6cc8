"""The three text formats: theories and game setups, moves files and
queries, read by one tokenizer.

Statements end with a period; ``#`` starts a comment running to the end
of the line.  Atoms and rule ids match ``model.ATOM_RE``; ``~`` is
negation.  The theory statement forms:

    fact O ~b.
    rule r4: g =>O ~b.
    rule r9: +d a, -p O c, e => f.
    sup r10 > r4.
    claim: b.
    game pr: r1, r4.
    standard evidential p.

``=>`` introduces an evidential head, ``=>O`` a deontic one.  A premise
may be annotated with a sign and a tag token (d, p, s, w for the four
proof tags, strongest first) and may carry the obligation marker ``O``.
Rules not listed under any ``game`` section are common.  ``standard``
lines override the default proof standards of the setup; files without
them keep delta for the evidential half and partial for the deontic
half.

A moves file holds one statement per move, ``pr: r1, r4 targets E b.``
or ``def: pass.``, where ``E`` and ``O`` mark evidential and obligation
targets.  A query is one signed, tagged, optionally ``O``-marked
literal such as ``+d b`` or ``-p O ~b``.

The lexer is one regular expression whose alternatives are the token
kinds, run over each line.  Tokens sit in flat lists (kinds, values,
lines, columns) that the parser reads by index; no object is built per
token, and a ``SourceSpan`` only for an error.  Parsing recovers at
statement boundaries, so one bad statement does not hide errors in the
rest of the file.  ``serialize_theory`` emits a canonical form:
statements sorted by kind then content, one per line, defaults omitted.
Parsing a serialized setup reproduces it exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .model import (
    ATOM_RE, DEF, DELTA, EVIDENTIAL, OBLIGATION, PARTIAL, PLAYERS, PR,
    TAG_FOR_TOKEN, TOKEN_FOR_TAG, Antecedent, Claim, GameSetup, Literal,
    Move, Rule, TaggedLiteral, literal_sort_key,
)


class SourceSpan(NamedTuple):
    line: int
    col: int
    length: int


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    message: str

    def render(self) -> str:
        return f"{self.span.line}:{self.span.col}: {self.message}"


class ParseFailure(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(e.render() for e in self.errors))


# One match per token of a line: the spacing before it, then the token,
# a comment, an unexpected character, or the end of the line, which
# takes trailing spacing in one match.  ``\w`` is a character that
# ``str.isalnum`` accepts, or ``_``.  A token that is none of the fixed
# ones in ``_KINDS`` is a WORD.
_TOKENS = re.compile(rf"""
    (\s*)
    (?: ( {ATOM_RE.pattern}     # WORD
        | [>:,.~+-]             # GT COLON COMMA DOT TILDE PLUS MINUS
        | [EO](?!\w)            # MODE, where no word character follows
        | =>O(?!\w)             # DARROW, likewise
        | =>                    # ARROW
        )
      | \#.*
      | (\S)
      | \Z )
    """, re.VERBOSE).findall
_KINDS = {">": "GT", ":": "COLON", ",": "COMMA", ".": "DOT", "~": "TILDE",
          "+": "PLUS", "-": "MINUS", "E": "MODE", "O": "MODE",
          "=>": "ARROW", "=>O": "DARROW"}
_new = tuple.__new__  # makes a Literal without a call to its __new__


def _tokenize(text: str):
    """The tokens of ``text``, ending with EOF, and its lexical errors.

    The one lexer of all three formats.  Lines are those of
    ``str.splitlines``; any whitespace separates tokens, and ``#``
    comments out the rest of its line.  Returns the parallel lists
    kinds, values, lines and columns (from 1), then the errors; a
    token's length is that of its value.
    """
    values: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    errors: list[ParseError] = []
    rows = text.splitlines()
    if text[-1:].splitlines() != [text[-1:]]:
        rows.append("")  # empty text, or a line break ends it
    for line, source in enumerate(rows, start=1):
        col = 1
        for space, token, bad in _TOKENS(source):
            col += len(space)
            if token:
                values.append(token)
                cols.append(col)
                col += len(token)
            elif bad:
                errors.append(ParseError(SourceSpan(line, col, 1),
                                         f"unexpected character {bad!r}"))
                col += 1
        lines += [line] * (len(values) - len(lines))
    kinds = [_KINDS.get(value, "WORD") for value in values]
    kinds.append("EOF")
    values.append("")
    lines.append(len(rows))
    cols.append(len(rows[-1]) + 1)
    return kinds, values, lines, cols, errors


class _Bail(Exception):
    """An error was recorded at the token whose index this carries;
    parsing resumes after the statement that holds it."""


class _Parser:
    """Each production takes the index of its first token and returns
    the index after it, with what it read if anything.  The productions
    most tokens pass through (literals, antecedents, rules and moves)
    test a token's kind inline and call ``expect`` only to report a
    wrong one."""

    def __init__(self, text: str):
        self.kinds, self.values, self.lines, self.cols, self.errors = \
            _tokenize(text)
        self.facts: list[tuple[str, Literal]] = []
        self.rules: list[Rule] = []
        self.rule_ids: set[str] = set()
        self.sup: list[int] = []  # stronger and weaker id, pair by pair
        self.claim: Optional[list[Literal]] = None
        self.sections: dict[str, list[int]] = {}
        self.standards: dict[str, str] = {}
        self.moves: list[Move] = []

    def error(self, i: int, message: str) -> None:
        span = SourceSpan(self.lines[i], self.cols[i], len(self.values[i]))
        self.errors.append(ParseError(span, message))

    def fail(self, i: int, message: str):
        self.error(i, message)
        raise _Bail(i)

    def expect(self, i: int, kind: str, what: str) -> int:
        """The index after token ``i``, which must be of ``kind``."""
        if self.kinds[i] != kind:
            self.fail(i, f"expected {what}, found {self.values[i]!r}")
        return i + 1

    def parse(self, statement) -> None:
        kinds = self.kinds
        i = 0
        while kinds[i] != "EOF":
            try:
                i = statement(self, i)
            except _Bail as bail:
                i = bail.args[0]
                while kinds[i] != "DOT" and kinds[i] != "EOF":
                    i += 1
                if kinds[i] == "DOT":
                    i += 1

    def statement(self, i: int) -> int:
        handler = _STATEMENTS.get(self.values[i])
        if handler is None:
            self.expect(i, "WORD", "a statement keyword")
            self.fail(i, f"unknown statement keyword {self.values[i]!r}")
        return self.expect(handler(self, i + 1), "DOT", "'.'")

    def comma_list(self, item, i: int) -> tuple[int, list]:
        """One or more ``item`` separated by commas."""
        i, found = item(i)
        items = [found]
        while self.kinds[i] == "COMMA":
            i, found = item(i + 1)
            items.append(found)
        return i, items

    def literal(self, i: int) -> tuple[int, Literal]:
        positive = self.kinds[i] != "TILDE"
        if not positive:
            i += 1
        if self.kinds[i] != "WORD":
            self.expect(i, "WORD", "an atom")
        return i + 1, _new(Literal, (self.values[i], positive))

    def antecedent(self, i: int) -> tuple[int, Antecedent]:
        kinds, values = self.kinds, self.values
        sign = tag = None
        if kinds[i] == "PLUS" or kinds[i] == "MINUS":
            sign = values[i]
            tag = TAG_FOR_TOKEN.get(values[i + 1])
            if tag is None:
                self.expect(i + 1, "WORD", "a proof tag (d, p, s or w)")
                self.fail(i + 1, f"unknown proof tag {values[i + 1]!r}")
            i += 2
        mode = EVIDENTIAL
        if values[i] == OBLIGATION:
            mode, i = OBLIGATION, i + 1
        i, literal = self.literal(i)
        return i, Antecedent(mode, literal, sign, tag)

    def fact_stmt(self, i: int) -> int:
        """``O`` marks an obligation; ``E`` marks only move targets, and
        here the literal rejects it."""
        mode = EVIDENTIAL
        if self.values[i] == OBLIGATION:
            mode, i = OBLIGATION, i + 1
        i, literal = self.literal(i)
        self.facts.append((mode, literal))
        return i

    def rule_stmt(self, start: int) -> int:
        kinds, name = self.kinds, self.values[start]
        if kinds[start] != "WORD" or kinds[start + 1] != "COLON":
            self.expect(self.expect(start, "WORD", "a rule id"), "COLON",
                        "':'")
        i, antecedents = self.comma_list(self.antecedent, start + 2)
        arrow = kinds[i]
        if arrow != "ARROW" and arrow != "DARROW":
            self.fail(i, f"expected '=>' or '=>O', found {self.values[i]!r}")
        i, head = self.literal(i + 1)
        if name in self.rule_ids:
            self.error(start, f"duplicate rule id {name!r}")
            return i
        self.rule_ids.add(name)
        self.rules.append(Rule(
            name, tuple(antecedents),
            OBLIGATION if arrow == "DARROW" else EVIDENTIAL, head))
        return i

    def rule_id(self, i: int) -> tuple[int, int]:
        """A rule id, read as its token's index, kept for the spans of
        errors found once every statement is in."""
        return self.expect(i, "WORD", "a rule id"), i

    def sup_stmt(self, i: int) -> int:
        i = self.expect(self.expect(i, "WORD", "a rule id"), "GT", "'>'")
        self.expect(i, "WORD", "a rule id")
        self.sup += (i - 2, i)
        return i + 1

    def claim_stmt(self, i: int) -> int:
        end, literals = self.comma_list(self.literal,
                                        self.expect(i, "COLON", "':'"))
        if self.claim is not None:
            self.error(i, "duplicate claim statement")
        else:
            self.claim = literals
        return end

    def game_stmt(self, i: int) -> int:
        pool = self.values[i]
        self.expect(i, "WORD", "a pool name (pr, def or common)")
        if pool not in (PR, DEF, "common"):
            self.fail(i, f"unknown pool {pool!r}")
        i, ids = self.comma_list(self.rule_id,
                                 self.expect(i + 1, "COLON", "':'"))
        self.sections.setdefault(pool, []).extend(ids)
        return i

    def standard_stmt(self, i: int) -> int:
        which = self.values[i]
        i = self.expect(i, "WORD", "'evidential' or 'deontic'")
        if which not in ("evidential", "deontic"):
            self.fail(i - 1, f"unknown standard kind {which!r}")
        token = self.values[i]
        self.expect(i, "WORD", "a proof tag (d, p, s or w)")
        if token not in TAG_FOR_TOKEN:
            self.fail(i, f"unknown proof tag {token!r}")
        if which == "deontic" and token not in ("d", "p"):
            self.fail(i, "deontic standard must be d or p")
        if which in self.standards:
            self.error(i, f"duplicate {which} standard")
        else:
            self.standards[which] = TAG_FOR_TOKEN[token]
        return i + 1

    def move_stmt(self, i: int) -> int:
        kinds, values = self.kinds, self.values
        player = values[i]
        if player not in PLAYERS:
            self.fail(i, f"expected 'pr' or 'def', found {player!r}")
        i = self.expect(i + 1, "COLON", "':'")
        if values[i] == "pass" and kinds[i + 1] == "DOT":
            move, i = Move(player, frozenset()), i + 1
        else:
            i, ids = self.comma_list(self.move_rule_id, i)
            targets: list = []
            if values[i] == "targets":
                i, targets = self.comma_list(self.target, i + 1)
            elif self.moves:
                self.fail(i, "a non-pass move after the opening needs a "
                             "targets clause")
            move = Move(player, frozenset(ids), frozenset(targets))
        if kinds[i] != "DOT":
            self.expect(i, "DOT", "'.'")
        self.moves.append(move)
        return i + 1

    def move_rule_id(self, i: int) -> tuple[int, str]:
        if self.values[i] == "targets":
            self.fail(i, "expected a rule id, found 'targets'")
        return self.expect(i, "WORD", "a rule id"), self.values[i]

    def target(self, i: int) -> tuple[int, tuple[str, Literal]]:
        end, literal = self.literal(self.expect(i, "MODE",
                                                "a target mode (E or O)"))
        return end, (self.values[i], literal)


_STATEMENTS = {
    "fact": _Parser.fact_stmt, "rule": _Parser.rule_stmt,
    "sup": _Parser.sup_stmt, "claim": _Parser.claim_stmt,
    "game": _Parser.game_stmt, "standard": _Parser.standard_stmt,
}


def parse_theory(text: str) -> GameSetup:
    """Parse a setup file.  Raises ParseFailure carrying every error
    found (recovery is per statement)."""
    parser = _Parser(text)
    parser.parse(_Parser.statement)
    errors, values = parser.errors, parser.values

    for i in parser.sup:
        if values[i] not in parser.rule_ids:
            parser.error(i, "superiority references unknown rule id "
                            f"{values[i]!r}")
    owner: dict[str, str] = {}
    for section, entries in parser.sections.items():
        for i in entries:
            rule_id = values[i]
            if rule_id not in parser.rule_ids:
                parser.error(i, "game section references unknown rule id "
                                f"{rule_id!r}")
            elif owner.get(rule_id) == section:
                parser.error(i, f"rule id {rule_id!r} listed twice in the "
                                f"{section} pool")
            elif rule_id in owner:
                parser.error(i, f"rule id {rule_id!r} assigned to more "
                                "than one pool")
            else:
                owner[rule_id] = section

    if errors:
        raise _failure(errors)

    sup = [values[i] for i in parser.sup]
    pools: dict[str, list[Rule]] = {PR: [], DEF: [], "common": []}
    for rule in parser.rules:
        pools[owner.get(rule.id, "common")].append(rule)
    return GameSetup(
        facts=frozenset(parser.facts),
        common_rules=tuple(pools["common"]),
        pr_rules=tuple(pools[PR]),
        def_rules=tuple(pools[DEF]),
        superiority=frozenset(zip(sup[::2], sup[1::2])),
        claim=Claim(tuple(parser.claim)) if parser.claim is not None else None,
        evidential_standard=parser.standards.get("evidential", DELTA),
        deontic_standard=parser.standards.get("deontic", PARTIAL),
    )


def parse_moves(text: str) -> list[Move]:
    """Parse a moves file, one statement per move:

        pr: r1, r4 targets E b, O ~b.
        def: pass.

    ``pass`` is a pass only as the whole body.  Targets are mandatory
    for non-pass moves after the opening; the opening may omit them
    (they default to the claim).  ``targets`` is a keyword, never a
    rule id.  Raises ParseFailure carrying every error found."""
    parser = _Parser(text)
    parser.parse(_Parser.move_stmt)
    if parser.errors:
        raise _failure(parser.errors)
    return parser.moves


def parse_query(text: str) -> TaggedLiteral:
    """Parse a signed tagged query such as ``"+d b"`` or ``"-p O ~b"``."""
    parser = _Parser(text)
    try:
        if parser.kinds[0] in ("PLUS", "MINUS"):
            i, query = parser.antecedent(0)
            if parser.kinds[i] == "EOF" and not parser.errors:
                return TaggedLiteral(query.sign, query.tag, query.mode,
                                     query.literal)
    except _Bail:
        pass
    raise ParseFailure([ParseError(
        SourceSpan(1, 1, len(text)),
        f"bad query {text!r}: expected e.g. '+d b' or '-p O ~b'")])


def _failure(errors: list[ParseError]) -> ParseFailure:
    return ParseFailure(sorted(errors, key=lambda e: (e.span.line, e.span.col)))


def _render_antecedent(ant: Antecedent) -> str:
    parts = []
    if ant.sign is not None:
        parts.append(f"{ant.sign}{TOKEN_FOR_TAG[ant.tag]}")
    if ant.mode == OBLIGATION:
        parts.append("O")
    parts.append(str(ant.literal))
    return " ".join(parts)


def _render_rule(rule: Rule) -> str:
    ants = ", ".join(_render_antecedent(a) for a in rule.antecedents)
    arrow = "=>O" if rule.head_mode == OBLIGATION else "=>"
    return f"rule {rule.id}: {ants} {arrow} {rule.head}."


def serialize_theory(setup: GameSetup) -> str:
    """Canonical text form.  parse_theory(serialize_theory(s)) == s."""
    lines: list[str] = []
    for mode, literal in sorted(
            setup.facts, key=lambda f: (f[0] != EVIDENTIAL,
                                        literal_sort_key(f[1]))):
        marker = "O " if mode == OBLIGATION else ""
        lines.append(f"fact {marker}{literal}.")
    for rule in setup.all_rules():
        lines.append(_render_rule(rule))
    for stronger, weaker in sorted(setup.superiority):
        lines.append(f"sup {stronger} > {weaker}.")
    if setup.claim is not None:
        body = ", ".join(str(l) for l in setup.claim.literals)
        lines.append(f"claim: {body}.")
    named_pools = setup.pr_rules or setup.def_rules
    for section, rules in ((PR, setup.pr_rules), (DEF, setup.def_rules),
                           ("common", setup.common_rules)):
        if rules and (section != "common" or named_pools):
            ids = ", ".join(r.id for r in rules)
            lines.append(f"game {section}: {ids}.")
    if setup.evidential_standard != DELTA:
        token = TOKEN_FOR_TAG[setup.evidential_standard]
        lines.append(f"standard evidential {token}.")
    if setup.deontic_standard != PARTIAL:
        token = TOKEN_FOR_TAG[setup.deontic_standard]
        lines.append(f"standard deontic {token}.")
    return "".join(line + "\n" for line in lines)
