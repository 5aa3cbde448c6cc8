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

Parsing recovers at statement boundaries, so one bad statement does not
hide errors in the rest of the file.  ``serialize_theory`` emits a
canonical form: statements sorted by kind then content, one per line,
defaults omitted.  Parsing a serialized setup reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .model import (
    ATOM_RE, DEF, DELTA, EVIDENTIAL, MODES, OBLIGATION, PARTIAL, PLAYERS,
    PR, TAG_FOR_TOKEN, TOKEN_FOR_TAG, Antecedent, Claim, GameSetup,
    Literal, Move, Rule, TaggedLiteral, literal_sort_key,
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


class _Token(NamedTuple):
    """A token and where it starts: line and column from 1, and its
    length.  Its ``SourceSpan`` is built only for an error."""

    kind: str
    value: str
    line: int
    col: int
    length: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, self.length)


_PUNCT = {">": "GT", ":": "COLON", ",": "COMMA", ".": "DOT",
          "~": "TILDE", "+": "PLUS", "-": "MINUS"}


def _tokenize(text: str):
    """The tokens of ``text``, ending with EOF, and its lexical errors.

    The one lexer of all three formats.  Lines are those of
    ``str.splitlines``; any whitespace separates tokens, and ``#``
    comments out the rest of its line.
    """
    tokens: list[_Token] = []
    errors: list[ParseError] = []
    lines = text.splitlines()
    if text[-1:].splitlines() != [text[-1:]]:
        lines.append("")  # empty text, or a line break ends it
    for line, source in enumerate(lines, start=1):
        i, n = 0, len(source)
        while i < n:
            ch = source[i]
            if ch.isspace():
                i += 1
            elif ch == "#":
                break
            elif ch in _PUNCT:
                tokens.append(_Token(_PUNCT[ch], ch, line, i + 1, 1))
                i += 1
            elif match := ATOM_RE.match(source, i):
                word = match.group()
                tokens.append(_Token("WORD", word, line, i + 1, len(word)))
                i = match.end()
            elif ch in MODES and not _is_word_char(source[i + 1:i + 2]):
                tokens.append(_Token("MODE", ch, line, i + 1, 1))
                i += 1
            elif source.startswith("=>", i):
                if source[i + 2:i + 3] == OBLIGATION and \
                        not _is_word_char(source[i + 3:i + 4]):
                    tokens.append(_Token("DARROW", "=>O", line, i + 1, 3))
                    i += 3
                else:
                    tokens.append(_Token("ARROW", "=>", line, i + 1, 2))
                    i += 2
            else:
                errors.append(ParseError(SourceSpan(line, i + 1, 1),
                                         f"unexpected character {ch!r}"))
                i += 1
    tokens.append(_Token("EOF", "", len(lines), len(lines[-1]) + 1, 0))
    return tokens, errors


def _is_word_char(ch: str) -> bool:
    return bool(ch) and (ch.isalnum() or ch == "_")


class _Parser:
    def __init__(self, tokens, errors):
        self.tokens = tokens
        self.pos = 0
        self.errors: list[ParseError] = errors
        self.facts: list[tuple[str, Literal]] = []
        self.rules: list[Rule] = []
        self.sup: list[tuple[str, str, _Token]] = []
        self.claim: Optional[list[Literal]] = None
        self.sections: dict[str, list[tuple[str, _Token]]] = {}
        self.standards: dict[str, str] = {}
        self.moves: list[Move] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def fail(self, message: str):
        self.errors.append(ParseError(self.peek().span, message))
        raise _Bail()

    def expect(self, kind: str, what: str) -> _Token:
        if self.peek().kind != kind:
            self.fail(f"expected {what}, found {self.peek().value!r}")
        return self.advance()

    def skip_statement(self) -> None:
        while self.peek().kind not in ("DOT", "EOF"):
            self.advance()
        if self.peek().kind == "DOT":
            self.advance()

    def parse(self, statement) -> None:
        while self.peek().kind != "EOF":
            try:
                statement()
            except _Bail:
                self.skip_statement()

    def statement(self) -> None:
        token = self.peek()
        if token.kind != "WORD":
            self.fail(f"expected a statement keyword, found {token.value!r}")
        handler = {
            "fact": self.fact_stmt, "rule": self.rule_stmt,
            "sup": self.sup_stmt, "claim": self.claim_stmt,
            "game": self.game_stmt, "standard": self.standard_stmt,
        }.get(token.value)
        if handler is None:
            self.fail(f"unknown statement keyword {token.value!r}")
        self.advance()
        handler()
        self.expect("DOT", "'.'")

    def comma_list(self, item) -> list:
        """One or more ``item()`` separated by commas."""
        items = [item()]
        while self.peek().kind == "COMMA":
            self.advance()
            items.append(item())
        return items

    def literal(self) -> Literal:
        negated = False
        if self.peek().kind == "TILDE":
            self.advance()
            negated = True
        word = self.expect("WORD", "an atom")
        return Literal(word.value, not negated)

    def mode(self) -> str:
        """Obligation if the marker ``O`` comes next, else evidential.
        ``E`` marks only move targets; here the literal rejects it."""
        if self.peek().value == OBLIGATION:
            self.advance()
            return OBLIGATION
        return EVIDENTIAL

    def fact_stmt(self) -> None:
        mode = self.mode()
        self.facts.append((mode, self.literal()))

    def antecedent(self) -> Antecedent:
        sign = tag = None
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = "+" if self.advance().kind == "PLUS" else "-"
            token = self.expect("WORD", "a proof tag (d, p, s or w)")
            if token.value not in TAG_FOR_TOKEN:
                self.fail(f"unknown proof tag {token.value!r}")
            tag = TAG_FOR_TOKEN[token.value]
        mode = self.mode()
        return Antecedent(mode, self.literal(), sign, tag)

    def rule_stmt(self) -> None:
        name = self.expect("WORD", "a rule id")
        self.expect("COLON", "':'")
        antecedents = self.comma_list(self.antecedent)
        arrow = self.peek()
        if arrow.kind not in ("ARROW", "DARROW"):
            self.fail(f"expected '=>' or '=>O', found {arrow.value!r}")
        self.advance()
        head_mode = OBLIGATION if arrow.kind == "DARROW" else EVIDENTIAL
        head = self.literal()
        if any(r.id == name.value for r in self.rules):
            self.errors.append(ParseError(
                name.span, f"duplicate rule id {name.value!r}"))
            return
        self.rules.append(Rule(name.value, tuple(antecedents), head_mode, head))

    def sup_stmt(self) -> None:
        stronger = self.expect("WORD", "a rule id")
        self.expect("GT", "'>'")
        weaker = self.expect("WORD", "a rule id")
        self.sup.append((stronger.value, weaker.value, stronger))

    def claim_stmt(self) -> None:
        start = self.peek()
        self.expect("COLON", "':'")
        literals = self.comma_list(self.literal)
        if self.claim is not None:
            self.errors.append(ParseError(start.span,
                                          "duplicate claim statement"))
            return
        self.claim = literals

    def game_stmt(self) -> None:
        token = self.expect("WORD", "a pool name (pr, def or common)")
        if token.value not in (PR, DEF, "common"):
            self.fail(f"unknown pool {token.value!r}")
        self.expect("COLON", "':'")
        ids = self.comma_list(lambda: self.expect("WORD", "a rule id"))
        bucket = self.sections.setdefault(token.value, [])
        bucket.extend((t.value, t) for t in ids)

    def standard_stmt(self) -> None:
        which = self.expect("WORD", "'evidential' or 'deontic'")
        if which.value not in ("evidential", "deontic"):
            self.fail(f"unknown standard kind {which.value!r}")
        token = self.expect("WORD", "a proof tag (d, p, s or w)")
        if token.value not in TAG_FOR_TOKEN:
            self.fail(f"unknown proof tag {token.value!r}")
        if which.value == "deontic" and token.value not in ("d", "p"):
            self.fail("deontic standard must be d or p")
        if which.value in self.standards:
            self.errors.append(ParseError(
                token.span, f"duplicate {which.value} standard"))
            return
        self.standards[which.value] = TAG_FOR_TOKEN[token.value]

    def move_stmt(self) -> None:
        if self.peek().value not in PLAYERS:
            self.fail(f"expected 'pr' or 'def', found {self.peek().value!r}")
        player = self.advance().value
        self.expect("COLON", "':'")
        if self.peek().value == "pass" and \
                self.tokens[self.pos + 1].kind == "DOT":
            self.advance()
            move = Move(player, frozenset())
        else:
            ids = self.comma_list(self.move_rule_id)
            targets = []
            if self.peek().value == "targets":
                self.advance()
                targets = self.comma_list(self.target)
            elif self.moves:
                self.fail("a non-pass move after the opening needs a "
                          "targets clause")
            move = Move(player, frozenset(ids), frozenset(targets))
        self.expect("DOT", "'.'")
        self.moves.append(move)

    def move_rule_id(self) -> str:
        if self.peek().value == "targets":
            self.fail("expected a rule id, found 'targets'")
        return self.expect("WORD", "a rule id").value

    def target(self) -> tuple[str, Literal]:
        mode = self.expect("MODE", "a target mode (E or O)").value
        return mode, self.literal()


class _Bail(Exception):
    pass


def parse_theory(text: str) -> GameSetup:
    """Parse a setup file.  Raises ParseFailure carrying every error
    found (recovery is per statement)."""
    parser = _Parser(*_tokenize(text))
    parser.parse(parser.statement)
    errors = parser.errors

    declared = {rule.id: rule for rule in parser.rules}
    for stronger, weaker, token in parser.sup:
        for name in (stronger, weaker):
            if name not in declared:
                errors.append(ParseError(
                    token.span,
                    f"superiority references unknown rule id {name!r}"))
    owner: dict[str, str] = {}
    for section, entries in parser.sections.items():
        for rule_id, token in entries:
            if rule_id not in declared:
                errors.append(ParseError(
                    token.span,
                    f"game section references unknown rule id {rule_id!r}"))
            elif owner.get(rule_id) == section:
                errors.append(ParseError(
                    token.span, f"rule id {rule_id!r} listed twice in the "
                                f"{section} pool"))
            elif rule_id in owner:
                errors.append(ParseError(
                    token.span,
                    f"rule id {rule_id!r} assigned to more than one pool"))
            else:
                owner[rule_id] = section

    if errors:
        raise _failure(errors)

    pools: dict[str, list[Rule]] = {PR: [], DEF: [], "common": []}
    for rule in parser.rules:
        pools[owner.get(rule.id, "common")].append(rule)
    return GameSetup(
        facts=frozenset(parser.facts),
        common_rules=tuple(pools["common"]),
        pr_rules=tuple(pools[PR]),
        def_rules=tuple(pools[DEF]),
        superiority=frozenset((a, b) for a, b, _ in parser.sup),
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
    parser = _Parser(*_tokenize(text))
    parser.parse(parser.move_stmt)
    if parser.errors:
        raise _failure(parser.errors)
    return parser.moves


def parse_query(text: str) -> TaggedLiteral:
    """Parse a signed tagged query such as ``"+d b"`` or ``"-p O ~b"``."""
    parser = _Parser(*_tokenize(text))
    try:
        if parser.peek().kind in ("PLUS", "MINUS"):
            query = parser.antecedent()
            parser.expect("EOF", "the end of the query")
            if not parser.errors:
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
