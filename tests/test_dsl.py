import string
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from trialogic import (
    DEF, DELTA, EVIDENTIAL, MINUS, MODES, OBLIGATION, PARTIAL, PLAYERS,
    PLUS, PR, SIGMA, TAGS, Antecedent, Claim, GameSetup, Literal, Move,
    ParseFailure, Rule, lit, parse_moves, parse_query, parse_theory,
    serialize_theory,
)
from trialogic.corpus import random_setup
from trialogic.dsl import _tokenize

from conftest import FIXTURES


class TestParsing:
    def test_s1_structure(self, s1):
        assert {r.id for r in s1.pr_rules} == {"r1", "r2", "r3", "r4"}
        assert {r.id for r in s1.def_rules} == {"r4a", "r5", "r6"}
        assert s1.common_rules == ()
        assert s1.claim.literals == (lit("b"),)
        assert s1.facts == {(EVIDENTIAL, lit("a")), (EVIDENTIAL, lit("d")),
                            (EVIDENTIAL, lit("f")), (EVIDENTIAL, lit("g"))}
        assert s1.evidential_standard == DELTA
        assert s1.deontic_standard == PARTIAL

    def test_deontic_rule_head(self, s1):
        r4 = s1.rule_by_id()["r4"]
        assert r4.head_mode == OBLIGATION
        assert r4.head == lit("~b")
        assert r4.antecedents[0].mode == EVIDENTIAL

    def test_standard_statement(self, s2):
        assert s2.evidential_standard == PARTIAL
        assert s2.deontic_standard == PARTIAL

    def test_superiority(self, s3):
        assert s3.superiority == {("r10", "r4")}

    def test_unlisted_rules_default_to_common(self):
        setup = parse_theory(
            "rule r1: a => b. rule r2: a => c. game pr: r1.")
        assert {r.id for r in setup.common_rules} == {"r2"}
        assert {r.id for r in setup.pr_rules} == {"r1"}

    def test_annotated_antecedents(self, annotated):
        n4 = annotated.rule_by_id()["n4"]
        ant = n4.antecedents[0]
        assert ant.annotated
        assert ant.sign == "+"
        assert ant.tag == PARTIAL

    def test_deontic_fact(self):
        setup = parse_theory("fact O ~b.")
        assert setup.facts == {(OBLIGATION, lit("~b"))}

    def test_comments_and_blank_lines(self):
        setup = parse_theory("# nothing\n\nfact a.  # trailing\n")
        assert setup.facts == {(EVIDENTIAL, lit("a"))}


class TestParseErrors:
    def expect(self, text, fragment):
        with pytest.raises(ParseFailure) as exc:
            parse_theory(text)
        rendered = [e.render() for e in exc.value.errors]
        assert any(fragment in line for line in rendered), rendered

    def test_uppercase_atom(self):
        self.expect("fact A.", "unexpected character 'A'")

    def test_missing_antecedent(self):
        self.expect("rule r1: => b.", "expected an atom")

    def test_duplicate_rule(self):
        self.expect("rule r1: a => b. rule r1: a => c.", "duplicate rule id")

    def test_duplicate_rule_reported_once_at_its_second_declaration(self):
        with pytest.raises(ParseFailure) as exc:
            parse_theory("rule r1: a => b.\nrule r2: b => c.\n"
                         "rule r1: a => c.\nrule r3: c => d.\n")
        assert [e.render() for e in exc.value.errors] == [
            "3:6: duplicate rule id 'r1'"]

    def test_long_chain_parses_in_linear_time(self):
        # a duplicate check that scans the earlier rules takes minutes
        # here; a set of the ids declared so far takes well under 5 s
        n = 20_000
        text = "fact x0.\n" + "".join(f"rule r{i}: x{i} => x{i + 1}.\n"
                                      for i in range(n))
        start = time.perf_counter()
        setup = parse_theory(text)
        assert time.perf_counter() - start < 5
        assert len(setup.common_rules) == n

    def test_unknown_superiority_reference(self):
        self.expect("rule r1: a => b. sup r9 > r1.", "unknown rule id 'r9'")

    def test_unknown_pool(self):
        self.expect("game judge: r1.", "unknown pool")

    def test_rule_in_two_pools(self):
        self.expect("rule r1: a => b. game pr: r1. game def: r1.",
                    "more than one pool")

    def test_rule_twice_in_one_pool(self):
        self.expect("rule r1: a => b. game pr: r1, r1.",
                    "rule id 'r1' listed twice in the pr pool")

    def test_game_section_unknown_rule(self):
        self.expect("rule r1: a => b. game pr: r9.",
                    "game section references unknown rule id")

    def test_unknown_annotation_tag(self):
        self.expect("rule r2: +x c => d.", "unknown proof tag 'x'")

    def test_deontic_standard_restricted(self):
        self.expect("standard deontic s.", "deontic standard must be d or p")

    def test_duplicate_claim(self):
        self.expect("claim: b. claim: c.", "duplicate claim")

    def test_duplicate_standard(self):
        self.expect("standard evidential d. standard evidential p.",
                    "duplicate evidential standard")

    def test_missing_arrow(self):
        self.expect("rule r1: a b.", "1:12: expected '=>' or '=>O', found 'b'")

    @pytest.mark.parametrize("text, rendered", [
        ("rule r1: +x a => b.", "1:11: unknown proof tag 'x'"),
        ("game foo: r1.", "1:6: unknown pool 'foo'"),
        ("standard foo d.", "1:10: unknown standard kind 'foo'"),
        ("standard evidential zz.", "1:21: unknown proof tag 'zz'"),
        ("standard deontic s.", "1:18: deontic standard must be d or p"),
        ("rule r1: a => b.\nsup r1 > r9.",
         "2:10: superiority references unknown rule id 'r9'"),
    ])
    def test_error_span_points_at_its_own_token(self, text, rendered):
        with pytest.raises(ParseFailure) as exc:
            parse_theory(text)
        assert [e.render() for e in exc.value.errors] == [rendered]

    def test_recovery_reports_several_errors(self):
        with pytest.raises(ParseFailure) as exc:
            parse_theory("fact A.\nrule r1: => b.\nrule r1: a => b.\n"
                         "rule r1: a => b.\nsup r9 > r1.")
        assert len(exc.value.errors) >= 3
        lines = [e.span.line for e in exc.value.errors]
        assert lines == sorted(lines)


class TestQueries:
    def test_forms(self):
        q = parse_query("+d b")
        assert (q.sign, q.tag, q.mode, q.literal) == \
            ("+", DELTA, EVIDENTIAL, lit("b"))
        q = parse_query("-p O ~b")
        assert (q.sign, q.tag, q.mode, q.literal) == \
            ("-", PARTIAL, OBLIGATION, lit("~b"))
        q = parse_query("+s e")
        assert q.tag == SIGMA

    def test_render_round_trip(self):
        for text in ["+d b", "-p O ~b", "+w x", "-s O q"]:
            assert parse_query(text).render() == text

    def test_bad_queries(self):
        for bad in ["d b", "+z b", "+d", "+d B", "++d b", "+d O", ""]:
            with pytest.raises(ParseFailure):
                parse_query(bad)


class TestOneLexer:
    """Theories, moves files and queries share one tokenizer; ``E`` is
    a mode token there, legal only in move targets."""

    def test_e_is_no_mode_in_theories_or_queries(self):
        with pytest.raises(ParseFailure) as exc:
            parse_theory("fact E a.")
        assert exc.value.errors[0].render().startswith("1:6: ")
        with pytest.raises(ParseFailure):
            parse_theory("rule r1: E a => b.")
        with pytest.raises(ParseFailure):
            parse_query("+d E b")

    def test_move_split_across_lines(self):
        moves = parse_moves("pr: r1,\n  r4.\ndef: r5 targets\nE b. pr: pass.")
        assert moves == [Move("pr", frozenset({"r1", "r4"})),
                         Move("def", frozenset({"r5"}),
                              frozenset({(EVIDENTIAL, lit("b"))})),
                         Move("pr", frozenset())]

    def test_pass_is_a_rule_id_unless_it_is_the_whole_body(self):
        moves = parse_moves("pr: pass, r1.\ndef: pass targets E b.\n"
                            "pr: pass.\n")
        assert moves[0].rule_ids == {"pass", "r1"}
        assert moves[1].rule_ids == {"pass"}
        assert moves[2].is_pass

    def test_bad_target_span_points_at_the_target(self):
        with pytest.raises(ParseFailure) as exc:
            parse_moves("pr: r1.\ndef: r5 targets b.\n")
        assert [e.render() for e in exc.value.errors] == [
            "2:17: expected a target mode (E or O), found 'b'"]

    def test_targets_is_no_rule_id(self):
        with pytest.raises(ParseFailure) as exc:
            parse_moves("pr: targets E b.\n")
        assert [e.render() for e in exc.value.errors] == [
            "1:5: expected a rule id, found 'targets'"]

    def test_query_widenings(self):
        assert parse_query("+ d ~ b # c") == parse_query("+d ~b")
        assert parse_query("-p O~b") == parse_query("-p O ~b")


_REFERENCE_PUNCT = {">": "GT", ":": "COLON", ",": "COMMA", ".": "DOT",
                    "~": "TILDE", "+": "PLUS", "-": "MINUS"}
_WORD_TAIL = string.ascii_letters + string.digits + "_"


def _is_word_char(ch: str) -> bool:
    return bool(ch) and (ch.isalnum() or ch == "_")


def _reference_tokens(text):
    """The lexer as a loop over characters: each token as (kind, value,
    line, column, length), then each lexical error rendered.  It shares
    no code with ``dsl._tokenize``."""
    tokens, errors = [], []
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
            elif ch in _REFERENCE_PUNCT:
                tokens.append((_REFERENCE_PUNCT[ch], ch, line, i + 1, 1))
                i += 1
            elif ch in string.ascii_lowercase:
                end = i + 1
                while end < n and source[end] in _WORD_TAIL:
                    end += 1
                tokens.append(("WORD", source[i:end], line, i + 1, end - i))
                i = end
            elif ch in "EO" and not _is_word_char(source[i + 1:i + 2]):
                tokens.append(("MODE", ch, line, i + 1, 1))
                i += 1
            elif source.startswith("=>", i):
                if source[i + 2:i + 3] == "O" and \
                        not _is_word_char(source[i + 3:i + 4]):
                    tokens.append(("DARROW", "=>O", line, i + 1, 3))
                    i += 3
                else:
                    tokens.append(("ARROW", "=>", line, i + 1, 2))
                    i += 2
            else:
                errors.append(f"{line}:{i + 1}: unexpected character {ch!r}")
                i += 1
    tokens.append(("EOF", "", len(lines), len(lines[-1]) + 1, 0))
    return tokens, errors


# Every str.splitlines boundary, other Unicode spacing, word characters
# outside ASCII, a byte-order mark, and the spellings where a mode or an
# arrow meets a word character.
_LEXER_PIECES = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029", " ", "\t", "\x1f", "\xa0", "\u2003", "\u3000",
    "\ufeff", "\xe9", "\u0663", "\u2177", "_", "9", "A", "a", "z", "rule",
    "r1", "E", "O", "Ea", "aE", "EE", "O_", "\xe9O", "=>", "=>O", "=>Oa",
    "=>O_", "=>O\u0663", "=>E", "=", ">", ":", ",", ".", "~", "+", "-", "#",
    "# c",
]


class TestLexerOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(_LEXER_PIECES), max_size=25).map("".join)
           | st.text(max_size=30))
    def test_tokens_and_errors_match_the_reference(self, text):
        kinds, values, lines, cols, errors = _tokenize(text)
        tokens = list(zip(kinds, values, lines, cols, map(len, values)))
        assert (tokens, [e.render() for e in errors]) == \
            _reference_tokens(text)


_DSL_WORDS = ["fact", "rule", "sup", "claim", "game", "standard", "pr",
              "def", "common", "pass", "targets", "evidential", "deontic",
              "r1", "b", "d", "p", "E", "O", "=>", "=>O", ":", ",", ".",
              "~", "+", "-", ">", "=", "#", " ", "\n", "\r", "\t", "A"]
_WORDS = st.builds(str.__add__, st.sampled_from("abrt"),
                   st.text("aZ9_", max_size=4))
_RULE_IDS = st.sampled_from(
    ["r1", "pass", "mytargets", "targetsx", "r_targets"]) | _WORDS
_LITERALS = st.builds(Literal, _WORDS, st.booleans())


@st.composite
def _move_lists(draw):
    moves = []
    for index in range(draw(st.integers(0, 5))):
        player = draw(st.sampled_from(PLAYERS))
        if draw(st.booleans()):
            moves.append(Move(player, frozenset()))
            continue
        ids = draw(st.frozensets(_RULE_IDS, min_size=1, max_size=3))
        targets = draw(st.frozensets(
            st.tuples(st.sampled_from(MODES), _LITERALS),
            min_size=0 if index == 0 else 1, max_size=3))
        assume(ids != {"pass"} or targets)  # that spelling is a pass
        moves.append(Move(player, ids, targets))
    return moves


def _render_move(move: Move) -> str:
    if move.is_pass:
        return f"{move.player}: pass."
    body = ", ".join(sorted(move.rule_ids))
    if move.targets:
        body += " targets " + ", ".join(
            f"{mode} {literal}" for mode, literal in sorted(move.targets))
    return f"{move.player}: {body}."


# keywords and tag letters are atoms too
_ATOMS = st.sampled_from(
    [w for w in _DSL_WORDS if w.isalpha() and w.islower()] + ["s", "w"]) \
    | _WORDS
_ANY_LITERALS = st.builds(Literal, _ATOMS, st.booleans())
_ANTECEDENTS = (
    st.builds(Antecedent, st.sampled_from(MODES), _ANY_LITERALS)
    | st.builds(Antecedent, st.sampled_from(MODES), _ANY_LITERALS,
                st.sampled_from([PLUS, MINUS]), st.sampled_from(TAGS)))


@st.composite
def _setups(draw):
    """Game setups of any shape the model accepts: keyword-like atoms
    and ids, annotated and deontic premises, obligation facts, inert and
    cyclic superiority, any pools, claim and standards."""
    pools = {"common": [], PR: [], DEF: []}
    ids = draw(st.lists(_RULE_IDS, unique=True, max_size=6))
    for rule_id in ids:
        pools[draw(st.sampled_from(sorted(pools)))].append(Rule(
            rule_id, draw(st.lists(_ANTECEDENTS, min_size=1, max_size=3)),
            draw(st.sampled_from(MODES)), draw(_ANY_LITERALS)))
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    return GameSetup(
        facts=draw(st.frozensets(
            st.tuples(st.sampled_from(MODES), _ANY_LITERALS), max_size=4)),
        common_rules=tuple(pools["common"]),
        pr_rules=tuple(pools[PR]),
        def_rules=tuple(pools[DEF]),
        superiority=draw(st.frozensets(pairs, max_size=4))
        if ids else frozenset(),
        claim=draw(st.none() | st.lists(_ANY_LITERALS, min_size=1, max_size=3)
                   .map(lambda ls: Claim(tuple(ls)))),
        evidential_standard=draw(st.sampled_from(TAGS)),
        deontic_standard=draw(st.sampled_from([DELTA, PARTIAL])))


class TestFuzzing:
    @settings(max_examples=250, deadline=None)
    @given(st.text(max_size=40)
           | st.lists(st.sampled_from(_DSL_WORDS), max_size=30).map("".join))
    def test_any_text_fails_only_with_parse_failure(self, text):
        for parse in (parse_theory, parse_moves, parse_query):
            try:
                parse(text)
            except ParseFailure:
                pass

    @settings(max_examples=100, deadline=None)
    @given(_move_lists(), st.sampled_from(["\n", " ", " # note\n"]))
    def test_rendered_moves_parse_back(self, moves, separator):
        text = separator.join(_render_move(move) for move in moves)
        assert parse_moves(text) == moves


class TestSerialization:
    def test_golden(self):
        text = ("fact a. rule r1: a =>O ~b. claim: b. game pr: r1. "
                "standard evidential s.")
        expected = ("fact a.\n"
                    "rule r1: a =>O ~b.\n"
                    "claim: b.\n"
                    "game pr: r1.\n"
                    "standard evidential s.\n")
        assert serialize_theory(parse_theory(text)) == expected

    def test_defaults_omitted(self):
        out = serialize_theory(parse_theory("fact a."))
        assert "standard" not in out
        assert "game" not in out

    def test_fixture_round_trips(self):
        for path in sorted(FIXTURES.glob("*.ddt")):
            setup = parse_theory(path.read_text(encoding="utf-8"))
            out = serialize_theory(setup)
            assert parse_theory(out) == setup, path.name
            assert serialize_theory(parse_theory(out)) == out, path.name

    @settings(max_examples=100, deadline=None)
    @given(_setups())
    def test_generated_setups_round_trip(self, setup):
        out = serialize_theory(setup)
        assert parse_theory(out) == setup
        assert serialize_theory(parse_theory(out)) == out

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_round_trips(self, seed):
        setup = random_setup(seed, allow_annotations=True)
        out = serialize_theory(setup)
        assert parse_theory(out) == setup
        assert serialize_theory(parse_theory(out)) == out
