import gc
import re

import pytest
from hypothesis import given, settings, strategies as st

from trialogic import (
    BRD, DELTA, DIALECTICAL_VALIDITY, EVIDENTIAL, MINUS, MODES, OBLIGATION,
    PARTIAL, PLUS, PREPONDERANCE, PROVED, REFUTED, SCINTILLA, SIGMA,
    SIGMA_MINUS, SUBSTANTIAL, TAGS, UNDETERMINED, Antecedent,
    NOT_PERMITTED, WEAKLY_PERMITTED, DefeasibleTheory, Literal, Rule, TaggedLiteral,
    compute_conclusions, holds, initial_state, lit, parse_query,
    parse_theory, standards_met, strength_order, weakly_permitted,
)
from trialogic import engine
from trialogic.corpus import ATOM_POOL, random_theory

from conftest import (
    inert_at_once, reference_cone, reference_inert, unpruned_rows,
)

# tag order from strongest positive proof to weakest
_CHAIN = (DELTA, PARTIAL, SIGMA, SIGMA_MINUS)


def probe(theory, text):
    return holds(theory, parse_query(text))


class TestFactsAndVacuity:
    def test_fact_proved_at_every_tag(self):
        theory = DefeasibleTheory(frozenset({(EVIDENTIAL, lit("a"))}), ())
        for tag in "dpsw":
            assert probe(theory, f"+{tag} a") == PROVED

    def test_unmentioned_literal_is_refuted(self):
        theory = DefeasibleTheory(frozenset({(EVIDENTIAL, lit("a"))}), ())
        table = compute_conclusions(theory)
        assert table.status(DELTA, EVIDENTIAL, lit("zz")) == REFUTED
        assert table.is_determined(lit("zz"))

    def test_universe_is_complement_closed(self):
        theory = DefeasibleTheory(frozenset({(EVIDENTIAL, lit("a"))}), ())
        table = compute_conclusions(theory)
        assert lit("~a") in table.literals
        assert table.status(DELTA, EVIDENTIAL, lit("~a")) == REFUTED

    def test_conflicting_facts_both_stand(self):
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a")), (EVIDENTIAL, lit("~a"))}), ())
        assert probe(theory, "+d a") == PROVED
        assert probe(theory, "+d ~a") == PROVED

    def test_fact_refutes_supported_opposite_at_ambiguity_tags(self):
        # a live supporter keeps ~a at bare support, but the opposing
        # fact refutes it at the ambiguity-handling tags regardless.
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a")), (EVIDENTIAL, lit("t"))}),
            (Rule("rx", (Antecedent(EVIDENTIAL, lit("t")),),
                  EVIDENTIAL, lit("~a")),))
        assert probe(theory, "+s ~a") == PROVED
        assert probe(theory, "-p ~a") == PROVED
        assert probe(theory, "-d ~a") == PROVED
        assert probe(theory, "-s ~a") == REFUTED
        assert probe(theory, "+d a") == PROVED


class TestUnmentionedLiteral:
    """A literal whose atom no fact or rule mentions is not numbered by
    the index and answers as refuted everywhere, as an all-refuted row
    would."""

    @pytest.mark.parametrize("text", ["zz", "~zz"])
    def test_every_answer(self, s3, text):
        theory = s3.union_theory()
        literal = lit(text)
        table = compute_conclusions(theory)
        assert literal.atom not in {l.atom for l in table.literals}
        for mode in MODES:
            for tag in TAGS:
                for sign, status in ((PLUS, REFUTED), (MINUS, PROVED)):
                    query = TaggedLiteral(sign, tag, mode, literal)
                    assert holds(theory, query) == status
            assert standards_met(theory, literal, mode).met == ()
        for tag in (DELTA, PARTIAL):
            result = weakly_permitted(theory, literal, tag)
            assert result.status == WEAKLY_PERMITTED
            assert result.witness == TaggedLiteral(
                MINUS, tag, OBLIGATION, literal.complement())
        assert table.is_determined(literal)

    def test_parent_is_keyword_only(self, s1):
        theory = s1.union_theory()
        table = compute_conclusions(theory)
        with pytest.raises(TypeError):
            compute_conclusions(theory, (), table)


class TestAmbiguity:
    """Frozen statuses for the two-chain conflict fixture."""

    EXPECTED = {
        "+s c": PROVED, "+s ~c": PROVED,
        "-p c": PROVED, "-p ~c": PROVED,
        "-d c": PROVED, "-d ~c": PROVED,
        "+w c": PROVED, "+w ~c": PROVED,
        "+p e": PROVED, "-d e": PROVED,
        "+s e": PROVED, "+w e": PROVED,
        "+s ~e": PROVED, "-p ~e": PROVED, "-d ~e": PROVED,
    }

    def test_frozen_table(self, ambiguity):
        theory = ambiguity.union_theory()
        for query, status in self.EXPECTED.items():
            assert probe(theory, query) == status, query

    def test_blocking_and_propagation_differ_on_e(self, ambiguity):
        theory = ambiguity.union_theory()
        assert probe(theory, "+p e") == PROVED
        assert probe(theory, "+d e") == REFUTED


class TestDeonticChaining:
    def test_s3_union_table(self, s3):
        theory = s3.union_theory()
        assert probe(theory, "+d O b") == PROVED
        assert probe(theory, "-p O ~b") == PROVED
        assert probe(theory, "-s O ~b") == PROVED
        assert probe(theory, "+w O ~b") == PROVED
        assert probe(theory, "+d b") == PROVED

    def test_s4_support_conflict(self, s4):
        theory = s4.union_theory()
        assert probe(theory, "+s O b") == PROVED
        assert probe(theory, "+s O ~b") == PROVED
        assert probe(theory, "-p O b") == PROVED
        assert probe(theory, "-p O ~b") == PROVED

    def test_obligation_does_not_feed_evidence(self, s4):
        # O b is supported, but nothing supports b evidentially, so the
        # evidential side is definitively refuted at every tag
        theory = s4.union_theory()
        assert probe(theory, "+s b") == REFUTED
        assert probe(theory, "-w b") == PROVED

    def test_deontic_antecedent(self):
        theory = DefeasibleTheory(
            frozenset({(OBLIGATION, lit("q"))}),
            (Rule("r1", (Antecedent(OBLIGATION, lit("q")),),
                  EVIDENTIAL, lit("s")),))
        assert probe(theory, "+d s") == PROVED


class TestCycles:
    def test_everything_undetermined(self, cycle):
        theory = cycle.union_theory()
        for atom in ("p", "q"):
            for sign in "+-":
                for tag in "dpsw":
                    assert probe(theory, f"{sign}{tag} {atom}") == \
                        UNDETERMINED, (sign, tag, atom)

    def test_cycle_plus_fact_resolves(self):
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("p"))}),
            (Rule("loop", (Antecedent(EVIDENTIAL, lit("p")),),
                  EVIDENTIAL, lit("p")),))
        assert probe(theory, "+d p") == PROVED


def _other(tag):
    """A tag other than ``tag``."""
    return TAGS[(TAGS.index(tag) + 1) % len(TAGS)]


# (sign, tag) of one antecedent on c, ambient tag, status of the key the
# antecedent reads (None: missing), and the rule's expected state.
_STATE_CASES = [
    ((None, None), ambient, status, state)
    for ambient in TAGS
    for status, state in ((None, 0), (PROVED, 1), (REFUTED, -1))
] + [
    ((sign, tag), _other(tag), status, state)
    for sign, outcomes in ((PLUS, (0, 1, -1)), (MINUS, (0, -1, 1)))
    for tag in TAGS
    for status, state in zip((None, PROVED, REFUTED), outcomes)
]


class _Compiled:
    """The index of some rules, with an open row for every cell, as a
    running fixpoint has them before any status is written."""

    def __init__(self, *rules):
        self.index = engine.TheoryIndex(frozenset(), rules)
        self.rows = [[None] * len(TAGS)
                     for _ in range(2 * len(self.index.literals))]

    def put(self, tag, literal, status):
        """Write one evidential status into the row of ``literal``."""
        cell = 2 * self.index.ids[literal] + MODES.index(EVIDENTIAL)
        self.rows[cell][TAGS.index(tag)] = status

    def state(self, rule, ambient):
        position, = self.index.positions[rule.id]
        return engine._state(self.rows, self.index.antecedents[position],
                             TAGS.index(ambient))


class TestRuleState:
    @pytest.mark.parametrize("annotation, ambient, status, expected",
                             _STATE_CASES)
    def test_one_antecedent(self, annotation, ambient, status, expected):
        sign, tag = annotation
        c = lit("c")
        rule = Rule("r", (Antecedent(EVIDENTIAL, c, sign, tag),),
                    EVIDENTIAL, lit("h"))
        compiled = _Compiled(rule)
        if tag is not None:
            # an annotated antecedent ignores the ambient tag
            compiled.put(ambient, c, REFUTED)
        if status is not None:
            compiled.put(tag or ambient, c, status)
        assert compiled.state(rule, ambient) == expected

    @pytest.mark.parametrize("statuses, expected", [
        ((PROVED, PROVED), 1),
        ((PROVED, None), 0),
        ((None, REFUTED), -1),
        ((REFUTED, PROVED), -1),
    ])
    def test_failure_outweighs_open(self, statuses, expected):
        atoms = [lit(f"a{i}") for i in range(len(statuses))]
        rule = Rule("r", tuple(Antecedent(EVIDENTIAL, a) for a in atoms),
                    EVIDENTIAL, lit("h"))
        compiled = _Compiled(rule)
        for atom, status in zip(atoms, statuses):
            if status is not None:
                compiled.put(DELTA, atom, status)
        assert compiled.state(rule, DELTA) == expected

    def test_open_sole_supporter_settles_neither_sign(self):
        # p's only supporter waits on p itself, so it stays open: that
        # is neither applicable for +sigma_minus nor discarded for
        # -sigma_minus
        loop = Rule("loop", (Antecedent(EVIDENTIAL, lit("p")),),
                    EVIDENTIAL, lit("p"))
        table = compute_conclusions(DefeasibleTheory(frozenset(), (loop,)))
        assert table.status(SIGMA_MINUS, EVIDENTIAL, lit("p")) == \
            UNDETERMINED


class TestIndex:
    def test_table_keeps_no_index(self, s1):
        # tables outlive the index of a one-shot call, and a game's
        # cache must not pin its index through every table it holds
        for table in (compute_conclusions(s1.union_theory()),
                      initial_state(s1).conclusions):
            assert not any(isinstance(referent, engine.TheoryIndex)
                           for referent in gc.get_referents(table))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.sampled_from([dict(allow_annotations=True),
                            dict(max_atoms=16, max_rules=40)]))
    def test_whole_table_equals_the_table_of_every_id(self, seed, kwargs):
        # the unmasked fixpoint reads heads and readers as they are; the
        # masked one, with every id asked for, filters them to the same
        theory = random_theory(seed, **kwargs)
        index = engine.TheoryIndex(theory.facts, theory.rules,
                                   theory.superiority)
        masked = compute_conclusions(index, list(index.positions))
        assert compute_conclusions(theory).rows() == masked.rows()

    def test_whole_table_is_kept_nowhere(self, monkeypatch, s3):
        compiled = []
        original = engine.TheoryIndex.__init__

        def recording(index, *args, **kwargs):
            compiled.append(index)
            original(index, *args, **kwargs)

        monkeypatch.setattr(engine.TheoryIndex, "__init__", recording)
        theory = s3.union_theory()
        table = compute_conclusions(theory)
        (index,) = compiled
        # the engine keeps no table, whole or of rule ids: each call
        # builds a new one
        again = compute_conclusions(index)
        assert again == table
        assert again is not table
        ids = frozenset(index.positions)
        first, second = (compute_conclusions(index, ids) for _ in range(2))
        assert first == second == table
        assert first is not second
        assert not hasattr(index, "tables")


def _reference_index(facts, rules, superiority):
    """The fields of ``engine.TheoryIndex`` built plainly: a Literal
    lookup per occurrence, a set of read cells per rule, and the inert
    closure over Rule objects (``reference_inert``), whose rules leave
    ``heads``, ``readers`` and ``beaten_by``.  The reference for the
    one-pass compile."""
    facts, rules = tuple(facts), tuple(rules)
    atoms = {literal.atom for _, literal in facts}
    for rule in rules:
        atoms.add(rule.head.atom)
        atoms.update(ant.literal.atom for ant in rule.antecedents)
    literals = tuple(Literal(atom, positive) for atom in sorted(atoms)
                     for positive in (True, False))
    ids = {literal: i for i, literal in enumerate(literals)}
    cells = 2 * len(literals)
    fact = bytearray(cells)
    for mode, literal in facts:
        fact[2 * ids[literal] + MODES.index(mode)] = 1
    inert = reference_inert(frozenset(facts), rules)
    positions, head, antecedents = {}, [], []
    heads, readers = [()] * cells, [()] * cells
    for r, rule in enumerate(rules):
        positions[rule.id] = positions.get(rule.id, ()) + (r,)
        h = 2 * ids[rule.head] + MODES.index(rule.head_mode)
        head.append(h)
        read = tuple((2 * ids[ant.literal] + MODES.index(ant.mode),
                      None if ant.tag is None else TAGS.index(ant.tag),
                      REFUTED if ant.sign == MINUS else PROVED)
                     for ant in rule.antecedents)
        antecedents.append(read)
        if r in inert:
            continue
        heads[h] += (r,)
        for c in {c for c, _, _ in read}:
            readers[c] += (r,)
    beaten = {}
    for stronger, weaker in superiority:
        for s in positions.get(stronger, ()):
            for w in positions.get(weaker, ()):
                if head[s] == head[w] ^ 2 and not {s, w} & inert:
                    beaten.setdefault(w, set()).add(s)
    beaten_by = [frozenset(beaten[r]) if r in beaten else ()
                 for r in range(len(rules))]
    return {"literals": literals, "ids": ids, "fact": fact,
            "positions": positions, "head": head,
            "antecedents": antecedents,
            "inert": bytearray(r in inert for r in range(len(rules))),
            "heads": heads, "readers": readers, "beaten_by": beaten_by}


class TestCompile:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.data())
    def test_index_matches_reference(self, seed, data):
        # few atoms and many rules, so rules share head cells
        theory = random_theory(seed, max_atoms=3, max_rules=24,
                               allow_annotations=True)
        rules = list(theory.rules)
        first = rules[0]
        ant = first.antecedents[0]
        plain = Antecedent(ant.mode, ant.literal)
        # a fact under the rules that read ``plain``, so they are live
        facts = theory.facts | {(ant.mode, ant.literal)}
        other_mode = MODES[1 - MODES.index(first.head_mode)]
        rules += [
            # reads one cell twice, plain and annotated
            Rule(first.id + "x",
                 (ant, Antecedent(ant.mode, ant.literal, PLUS, SIGMA)),
                 first.head_mode, first.head.complement()),
            # complementary head literal in the other mode
            Rule(first.id + "o", (ant,), other_mode,
                 first.head.complement()),
            # a live complementary pair
            Rule(first.id + "y", (plain,), first.head_mode, first.head),
            Rule(first.id + "z", (plain,), first.head_mode,
                 first.head.complement()),
        ]
        # an id repeated across pools, as in a setup's rules
        twin = data.draw(st.sampled_from(rules))
        rules.append(Rule(twin.id, twin.antecedents, twin.head_mode,
                          twin.head.complement()))
        rules = data.draw(st.permutations(rules))
        names = sorted({rule.id for rule in rules})
        superiority = data.draw(st.sets(st.tuples(st.sampled_from(names),
                                                  st.sampled_from(names))))
        superiority |= {(first.id + "x", first.id),  # effective unless inert
                        (first.id + "y", first.id + "z"),  # effective
                        (first.id + "o", first.id),  # inert: cross-mode
                        ("zz", first.id)}            # inert: unknown id
        index = engine.TheoryIndex(facts, rules, superiority)
        reference = _reference_index(facts, rules, superiority)
        assert any(index.beaten_by)
        for name, expected in reference.items():
            assert getattr(index, name) == expected, name
        # a plain tuple equals a Literal, so the comparison above does not
        # see a compile that numbers tuples; every table's literal must
        # be a Literal, and ids must be keyed by those same objects
        assert all(type(literal) is Literal for literal in index.literals)
        assert all(key is literal
                   for key, literal in zip(index.ids, index.literals))

    def test_unknown_fact_mode_rejected(self):
        # DefeasibleTheory refuses such a fact; an index given one
        # directly must not read it as E
        with pytest.raises(KeyError):
            engine.TheoryIndex(frozenset({("X", lit("a"))}), ())


class TestAnnotatedAntecedents:
    EXPECTED = {
        "+p O c": PROVED,   # fires on bare support for ambiguous c
        "+p O d": REFUTED,  # needs c at the blocking tag, which fails
        "-d O d": PROVED,
        "+p O f": PROVED,   # fires on the refutation of e
        "+d O f": PROVED,
    }

    def test_frozen_statuses(self, annotated):
        theory = annotated.union_theory()
        for query, status in self.EXPECTED.items():
            assert probe(theory, query) == status, query

    def test_annotation_is_exact(self, annotated):
        # +s c is satisfied, so the rule gated on it fires even at
        # tags where plain c would be discarded.
        theory = annotated.union_theory()
        assert probe(theory, "+s c") == PROVED
        assert probe(theory, "-p c") == PROVED
        assert probe(theory, "+d O c") == PROVED


class TestSuperiority:
    def test_beaten_attacker_restores_proof(self, s3):
        # with the priority the conflict resolves; without it the two
        # obligations refute each other
        theory = s3.union_theory()
        assert probe(theory, "+p O b") == PROVED
        stripped = DefeasibleTheory(theory.facts, theory.rules, frozenset())
        assert probe(stripped, "+p O b") == REFUTED
        assert probe(stripped, "+p O ~b") == REFUTED

    def test_delta_discarded_team_member_cannot_defend(self):
        # rt beats the attacker rs, but its antecedent x is ambiguous:
        # proved at sigma, refuted at delta.  At delta the team needs rt
        # delta-applicable, so the sigma-applicable rs refutes +d c.
        fact = Antecedent(EVIDENTIAL, lit("f"))
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("f"))}),
            (Rule("rx", (fact,), EVIDENTIAL, lit("x")),
             Rule("rnx", (fact,), EVIDENTIAL, lit("~x")),
             Rule("rc", (fact,), EVIDENTIAL, lit("c")),
             Rule("rt", (Antecedent(EVIDENTIAL, lit("x")),),
                  EVIDENTIAL, lit("c")),
             Rule("rs", (fact,), EVIDENTIAL, lit("~c"))),
            frozenset({("rt", "rs")}))
        assert probe(theory, "+s x") == PROVED
        assert probe(theory, "-d x") == PROVED
        assert probe(theory, "-d c") == PROVED

    @pytest.mark.parametrize("seed, cells", [
        (427, [(EVIDENTIAL, "c"), (OBLIGATION, "c")]),
        (696, [(OBLIGATION, "~d")]),
    ])
    def test_corpus_team_defeat_refutes_delta(self, seed, cells):
        table = compute_conclusions(random_theory(seed))
        for mode, text in cells:
            assert table.status(DELTA, mode, lit(text)) == REFUTED

    @pytest.mark.parametrize("pair", [("r1", "zz"), ("zz", "r2"),
                                      ("zz", "yy")])
    def test_pair_naming_an_absent_rule_is_inert(self, s3, pair):
        theory = s3.union_theory()
        widened = DefeasibleTheory(theory.facts, theory.rules,
                                   theory.superiority | {pair})
        assert compute_conclusions(widened) == compute_conclusions(theory)

    def test_cross_mode_superiority_is_inert(self):
        base = [
            Rule("r1", (Antecedent(EVIDENTIAL, lit("a")),),
                 EVIDENTIAL, lit("b")),
            Rule("r2", (Antecedent(EVIDENTIAL, lit("a")),),
                 OBLIGATION, lit("~b")),
        ]
        facts = frozenset({(EVIDENTIAL, lit("a"))})
        with_sup = DefeasibleTheory(facts, tuple(base),
                                    frozenset({("r1", "r2")}))
        without = DefeasibleTheory(facts, tuple(base))
        assert compute_conclusions(with_sup) == compute_conclusions(without)


class TestQuerySemantics:
    def test_negative_query_statuses(self, ambiguity):
        theory = ambiguity.union_theory()
        assert probe(theory, "-d e") == PROVED
        assert probe(theory, "-p e") == REFUTED
        assert probe(theory, "+d e") == REFUTED

    def test_undetermined_query(self, cycle):
        assert probe(cycle.union_theory(), "+d p") == UNDETERMINED

    def test_table_equals_only_tables(self):
        table = compute_conclusions(DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a"))}), ()))
        assert table.__eq__(object()) is NotImplemented
        assert table != "a"

    def test_repr_counts_determined_statuses(self):
        table = compute_conclusions(DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a"))}), ()))
        # a and ~a in both modes: four rows of four settled tags
        assert repr(table) == \
            "<ConclusionTable 16 determined over 2 literals>"


class TestUnknownKeys:
    """A sign, tag or mode outside the vocabulary is no question: it
    raises rather than reading as refuted, whatever the literal."""

    @pytest.mark.parametrize("text", ["a", "zz"])
    def test_status_and_derived(self, s1, text):
        table = compute_conclusions(s1.union_theory())
        literal = lit(text)
        for tag, mode in (("delta", "e"), ("delta", "evidential"),
                          ("strict", EVIDENTIAL)):
            with pytest.raises(ValueError, match="bad (tag|mode)"):
                table.status(tag, mode, literal)
            with pytest.raises(ValueError, match="bad (tag|mode)"):
                table.derived(MINUS, tag, mode, literal)
        with pytest.raises(ValueError, match="bad sign"):
            table.derived("-x", DELTA, EVIDENTIAL, literal)

    def test_query(self, s1):
        table = compute_conclusions(s1.union_theory())
        for sign, tag, mode in (("?", DELTA, EVIDENTIAL),
                                (PLUS, "d", EVIDENTIAL),
                                (MINUS, DELTA, "obligation")):
            with pytest.raises(ValueError, match="bad (sign|tag|mode)"):
                table.query(TaggedLiteral(sign, tag, mode, lit("a")))

    def test_literal_that_is_no_literal(self, s1):
        # "a" once read as refuted while lit("a") reads proved
        table = compute_conclusions(s1.union_theory())
        for asked in ("a", "zz", ("E", "a"), None):
            message = re.escape(f"bad literal {asked!r}")
            with pytest.raises(ValueError, match=message):
                table.status(DELTA, EVIDENTIAL, asked)
            with pytest.raises(ValueError, match=message):
                table.derived(PLUS, DELTA, EVIDENTIAL, asked)
            with pytest.raises(ValueError, match=message):
                table.query(TaggedLiteral(PLUS, DELTA, EVIDENTIAL, asked))
            with pytest.raises(ValueError, match=message):
                table.is_determined(asked)
        assert table.status(DELTA, EVIDENTIAL, lit("a")) == PROVED
        assert table.is_determined(lit("a"))

    def test_known_keys_still_answer(self, s1):
        table = compute_conclusions(s1.union_theory())
        assert table.status(DELTA, EVIDENTIAL, lit("a")) == PROVED
        assert table.status(DELTA, EVIDENTIAL, lit("zz")) == REFUTED
        assert table.derived(MINUS, DELTA, OBLIGATION, lit("zz"))

    @staticmethod
    def _count_walks(monkeypatch):
        walks = []
        original = engine.cone

        def counting(*args):
            walks.append(args)
            return original(*args)

        monkeypatch.setattr(engine, "cone", counting)
        return walks

    def test_holds_checks_the_query_before_the_cone(self, monkeypatch, s1):
        walks = self._count_walks(monkeypatch)
        theory = s1.union_theory()
        for sign, tag, mode, literal in (
                ("?", DELTA, EVIDENTIAL, lit("a")),
                (PLUS, "d", EVIDENTIAL, lit("a")),
                (MINUS, DELTA, "obligation", lit("a")),
                (PLUS, DELTA, EVIDENTIAL, "a")):
            with pytest.raises(ValueError,
                               match="bad (sign|tag|mode|literal)"):
                holds(theory, TaggedLiteral(sign, tag, mode, literal))
        assert walks == []
        assert holds(theory, parse_query("+d a")) == PROVED
        assert len(walks) == 1

    def test_one_shot_questions_check_the_literal_before_the_cone(
            self, monkeypatch, s1):
        walks = self._count_walks(monkeypatch)
        theory = s1.union_theory()
        with pytest.raises(ValueError, match="bad literal 'b'"):
            standards_met(theory, "b")
        with pytest.raises(ValueError, match="bad literal 'b'"):
            weakly_permitted(theory, "b")
        assert walks == []

    def test_standards_check_the_mode_before_any_table(self, monkeypatch,
                                                        s1):
        calls = TestStandards._count_tables(monkeypatch)
        with pytest.raises(ValueError, match="bad mode"):
            standards_met(s1.union_theory(), lit("a"), "evidential")
        assert calls == []


class TestNewlyDetermined:
    def test_flip_counts_as_new(self, s1):
        opened = compute_conclusions(s1.theory_for({"r2", "r3", "r4"}))
        extended = compute_conclusions(
            s1.theory_for({"r2", "r3", "r4", "r4a", "r5"}))
        fresh = {entry.render() for entry in extended.newly_determined(opened)}
        assert "-d b" in fresh
        assert "+s ~b" in fresh

    def test_no_change_is_empty(self, s1):
        table = compute_conclusions(s1.theory_for({"r1"}))
        assert table.newly_determined(table) == ()

    LEAVING = ("fact f.\n"
               "rule c1: f => a.\n"
               "rule r0: ~b => ~b.\n")

    def test_literal_that_leaves_the_theory(self):
        # without r0, ~b is refuted at every tag; with it, undetermined
        setup = parse_theory(self.LEAVING)
        theory = setup.union_theory()
        index = engine.TheoryIndex(theory.facts, theory.rules)
        leaves = [TaggedLiteral(MINUS, tag, EVIDENTIAL, lit("~b"))
                  for tag in TAGS]
        for without, with_r0 in (
                (compute_conclusions(index, {"c1"}),
                 compute_conclusions(index, {"c1", "r0"})),
                (compute_conclusions(setup.theory_for({"c1"})),
                 compute_conclusions(setup.theory_for({"c1", "r0"})))):
            assert with_r0.status(DELTA, EVIDENTIAL, lit("~b")) == UNDETERMINED
            assert list(without.newly_determined(with_r0)) == leaves
            assert with_r0.newly_determined(without) == ()


class TestStandards:
    def test_ambiguity_fixture(self, ambiguity):
        report = standards_met(ambiguity.union_theory(), lit("e"))
        assert report.met == (SCINTILLA, SUBSTANTIAL, PREPONDERANCE)

    def test_brd_without_dialectical_validity(self, s3):
        report = standards_met(s3.union_theory(), lit("b"), OBLIGATION)
        assert BRD in report.met
        assert DIALECTICAL_VALIDITY not in report.met

    def test_dialectical_validity_when_unopposed(self):
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a"))}),
            (Rule("r1", (Antecedent(EVIDENTIAL, lit("a")),),
                  EVIDENTIAL, lit("b")),))
        report = standards_met(theory, lit("b"))
        assert report.met == (SCINTILLA, SUBSTANTIAL, PREPONDERANCE, BRD,
                              DIALECTICAL_VALIDITY)

    def test_nothing_met(self, cycle):
        report = standards_met(cycle.union_theory(), lit("p"))
        assert report.met == ()

    @staticmethod
    def _count_tables(monkeypatch):
        calls = []
        original = engine.compute_conclusions

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "compute_conclusions", counting)
        return calls

    def test_one_table_without_superiority(self, monkeypatch, ambiguity):
        calls = self._count_tables(monkeypatch)
        theory = ambiguity.union_theory()
        assert not theory.superiority
        standards_met(theory, lit("e"))
        assert len(calls) == 1

    def test_two_tables_with_superiority(self, monkeypatch, s3):
        calls = self._count_tables(monkeypatch)
        standards_met(s3.union_theory(), lit("b"), OBLIGATION)
        assert len(calls) == 2

    def test_one_index_per_call(self, monkeypatch, s3):
        compiled = []
        original = engine.TheoryIndex.__init__

        def counting(index, *args, **kwargs):
            compiled.append(index)
            original(index, *args, **kwargs)

        monkeypatch.setattr(engine.TheoryIndex, "__init__", counting)
        calls = self._count_tables(monkeypatch)
        standards_met(s3.union_theory(), lit("b"), OBLIGATION)
        assert len(compiled) == 1
        assert len(calls) == 2

    def test_one_table_when_every_pair_is_inert(self, monkeypatch):
        # r1 > r2 relates b and O ~b, cells of two modes: it has no
        # effect, so the stripped table is the table itself
        a = (Antecedent(EVIDENTIAL, lit("a")),)
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a"))}),
            (Rule("r1", a, EVIDENTIAL, lit("b")),
             Rule("r2", a, OBLIGATION, lit("~b"))),
            frozenset({("r1", "r2")}))
        calls = self._count_tables(monkeypatch)
        report = standards_met(theory, lit("b"))
        assert len(calls) == 1
        assert DIALECTICAL_VALIDITY in report.met

    def test_one_table_when_the_only_pair_has_an_inert_side(
            self, monkeypatch):
        # r2 > r1 would let r2 beat r1, but nothing supports x, so r2 can
        # never fire and the pair has no effect
        theory = parse_theory("fact a.\n"
                              "rule r1: a => b.\n"
                              "rule r2: x => ~b.\n"
                              "sup r2 > r1.\n").union_theory()
        views = []
        stripped = engine.TheoryIndex.stripped

        def counting(index):
            views.append(index)
            return stripped(index)

        monkeypatch.setattr(engine.TheoryIndex, "stripped", counting)
        calls = self._count_tables(monkeypatch)
        report = standards_met(theory, lit("b"))
        assert views == []
        assert len(calls) == 1
        assert report.met == (SCINTILLA, SUBSTANTIAL, PREPONDERANCE, BRD,
                              DIALECTICAL_VALIDITY)

    def test_stripped_view_shares_the_index(self, monkeypatch, s3):
        built = []
        original = engine.compute_conclusions

        def recording(index, *args):
            table = original(index, *args)
            built.append((index, table))
            return table

        monkeypatch.setattr(engine, "compute_conclusions", recording)
        theory = s3.union_theory()
        standards_met(theory, lit("b"), OBLIGATION)
        (index, table), (view, view_table) = built
        assert index is not view
        for name in engine.TheoryIndex.__slots__:
            if name != "beaten_by":
                assert getattr(view, name) is getattr(index, name), name
        assert any(index.beaten_by)
        assert view.beaten_by == [()] * len(index.rules)
        # the index holds the facts, the pairs and the cone of (O, b):
        # the two deontic rules, not r1, which heads (E, b)
        assert {rule.id for rule in index.rules} == {"r4", "r10"}
        # the base table is the cone theory's full table
        rules = engine.cone(theory.facts, theory.rules, [(OBLIGATION, "b")])
        assert table == original(
            DefeasibleTheory(theory.facts, rules, theory.superiority))
        assert view_table == original(DefeasibleTheory(theory.facts, rules))
        assert table != view_table
        # and the asked cell reads as in the whole theory's tables
        whole = original(theory)
        whole_stripped = original(
            DefeasibleTheory(theory.facts, theory.rules))
        for tag in TAGS:
            assert table.status(tag, OBLIGATION, lit("b")) == \
                whole.status(tag, OBLIGATION, lit("b"))
            assert view_table.status(tag, OBLIGATION, lit("b")) == \
                whole_stripped.status(tag, OBLIGATION, lit("b"))

    def test_reports_with_superiority_match_stripped_theory(self):
        checked = 0
        for seed in range(150):
            theory = random_theory(seed, allow_annotations=True)
            if not theory.superiority:
                continue
            checked += 1
            full = compute_conclusions(theory)
            stripped = compute_conclusions(
                DefeasibleTheory(theory.facts, theory.rules))
            for literal in sorted({r.head for r in theory.rules}):
                for mode in MODES:
                    expected = [
                        standard for standard in
                        (SCINTILLA, SUBSTANTIAL, PREPONDERANCE, BRD)
                        if full.status(engine.STANDARD_TAG[standard], mode,
                                       literal) == PROVED]
                    if stripped.status(DELTA, mode, literal) == PROVED:
                        expected.append(DIALECTICAL_VALIDITY)
                    report = standards_met(theory, literal, mode)
                    assert report.met == tuple(expected), (seed, literal)
        assert checked > 50

    def test_stratified_reports_match_stripped_recomputation(self):
        # without superiority, dialectical validity read off the first
        # table must agree with a separate fixpoint on the stripped theory
        for seed in range(100):
            theory = random_theory(seed, allow_superiority=False,
                                   stratified=True)
            stripped = compute_conclusions(
                DefeasibleTheory(theory.facts, theory.rules, frozenset()))
            full = compute_conclusions(theory)
            for literal in sorted({r.head for r in theory.rules}):
                for mode in MODES:
                    expected = [
                        standard for standard in
                        (SCINTILLA, SUBSTANTIAL, PREPONDERANCE, BRD)
                        if full.status(engine.STANDARD_TAG[standard], mode,
                                       literal) == PROVED]
                    if stripped.status(DELTA, mode, literal) == PROVED:
                        expected.append(DIALECTICAL_VALIDITY)
                    report = standards_met(theory, literal, mode)
                    assert report.met == tuple(expected), (seed, literal)


class TestOneShotCones:
    """The one-literal questions compile only the asked cell's cone, and
    answer as the whole theory's tables do."""

    # (random_theory keywords) of each class checked
    CLASSES = (
        dict(allow_annotations=True),
        dict(),
        dict(max_atoms=16, max_rules=40),
        dict(allow_superiority=False, stratified=True),
    )

    @staticmethod
    def _reference(full, stripped, literal, mode):
        """The standards, the permission status at each tag and the
        status of every query of ``(mode, literal)``, read off the
        theory's full table and its table with superiority stripped."""
        met = [standard
               for standard in (SCINTILLA, SUBSTANTIAL, PREPONDERANCE, BRD)
               if full.status(engine.STANDARD_TAG[standard], mode,
                              literal) == PROVED]
        if stripped.status(DELTA, mode, literal) == PROVED:
            met.append(DIALECTICAL_VALIDITY)
        permission = []
        for tag in (DELTA, PARTIAL):
            prohibition = full.status(tag, OBLIGATION, literal.complement())
            permission.append({REFUTED: WEAKLY_PERMITTED,
                               PROVED: NOT_PERMITTED}.get(prohibition,
                                                          UNDETERMINED))
        queries = [full.query(TaggedLiteral(sign, tag, mode, literal))
                   for sign in (PLUS, MINUS) for tag in TAGS]
        return tuple(met), permission, queries

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(range(len(CLASSES))))
    def test_answers_match_the_whole_theory(self, seed, cls):
        theory = random_theory(seed, **self.CLASSES[cls])
        full = compute_conclusions(theory)
        stripped = compute_conclusions(
            DefeasibleTheory(theory.facts, theory.rules))
        # every literal the theory mentions, and one it does not
        literals = sorted(full.literals) + [lit("unmentioned")]
        for literal in literals:
            for mode in MODES:
                met, permission, queries = self._reference(
                    full, stripped, literal, mode)
                assert standards_met(theory, literal, mode).met == met
                if mode == OBLIGATION:  # permission reads O of ~literal
                    assert [weakly_permitted(theory, literal, tag).status
                            for tag in (DELTA, PARTIAL)] == permission
                assert [holds(theory, TaggedLiteral(sign, tag, mode, literal))
                        for sign in (PLUS, MINUS) for tag in TAGS] == queries

    def test_cone_keeps_rules_in_order_and_follows_antecedents(self):
        theory = parse_theory(
            "fact f.\n"
            "rule r1: f => a.\n"
            "rule r2: a =>O ~b.\n"
            "rule r3: c => b.\n"
            "rule r4: f =>O b.\n"
            "rule r5: d => c.\n"
            "rule r6: f => d0.\n").union_theory()
        # (O, b) takes r2 and r4, then (E, a) through r2 takes r1
        assert [rule.id for rule in engine.cone(
            theory.facts, theory.rules, [(OBLIGATION, "b")])] == \
            ["r1", "r2", "r4"]
        # r5 reads d, which no fact and no rule supports, so it is inert
        # at once and (E, d) is never walked
        assert [rule.id for rule in engine.cone(
            theory.facts, theory.rules, [(EVIDENTIAL, "b")])] == ["r3"]
        assert engine.cone(theory.facts, theory.rules,
                           [(OBLIGATION, "zz")]) == ()
        assert engine.cone(theory.facts, theory.rules, [("X", "b")]) == ()

    @pytest.mark.parametrize("text, asked, kept, inert", [
        # (O, g) is a fact but (E, g) is not, so -d g holds and r1 stays
        ("fact f.\nfact O g.\nrule r1: f, -d g => b.\n", "b", ["r1"], [0]),
        # (E, f) is a fact, but no rule or fact supports (O, f), so r2 is
        # inert at once
        ("fact f.\nrule r2: O f => c.\n", "c", [], [1]),
    ], ids=["o_fact_is_no_e_fact", "e_fact_supports_no_o_antecedent"])
    def test_cone_keeps_the_modes_apart(self, text, asked, kept, inert):
        theory = parse_theory(text).union_theory()
        assert [rule.id for rule in engine.cone(
            theory.facts, theory.rules, [(EVIDENTIAL, asked)])] == kept
        assert [rule.id for rule in engine.cone_index(
            theory, EVIDENTIAL, lit(asked)).rules] == kept
        assert list(engine.TheoryIndex(theory.facts, theory.rules).inert) \
            == inert

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(range(len(CLASSES))))
    def test_pruned_cone_tables_match_the_whole_theory(self, seed, cls):
        # the walk keeps no rule inert at once and follows none, and the
        # cone index's table, with superiority and stripped of it, reads
        # both cells of the asked atom as the whole theory's tables do
        theory = random_theory(seed, **self.CLASSES[cls])
        skipped = inert_at_once(theory.facts, theory.rules)
        walked = [rule for r, rule in enumerate(theory.rules)
                  if r not in skipped]
        stripped = DefeasibleTheory(theory.facts, theory.rules)
        whole = [compute_conclusions(theory), compute_conclusions(stripped)]
        atoms = sorted({literal.atom for literal in whole[0].literals})
        for atom in atoms + ["unmentioned"]:
            for mode in MODES:
                rules = engine.cone(theory.facts, theory.rules,
                                    [(mode, atom)])
                assert {rule.id for rule in rules} == reference_cone(
                    walked, [(mode, atom)])
                for asked in (theory, stripped):
                    index = engine.cone_index(asked, mode, Literal(atom))
                    assert index.rules == rules
                    table = compute_conclusions(index)
                    full = whole[asked is stripped]
                    for literal in (Literal(atom), Literal(atom, False)):
                        assert [table.status(tag, mode, literal)
                                for tag in TAGS] == \
                            [full.status(tag, mode, literal) for tag in TAGS]

    def test_a_rule_reached_only_through_an_inert_rule_is_left_out(self):
        # r1 reads x, which nothing supports, so it is inert at once; r2
        # is live, but only r1 links it to b
        theory = parse_theory("fact f.\n"
                              "rule r1: x, c => b.\n"
                              "rule r2: f => c.\n").union_theory()
        index = engine.cone_index(theory, EVIDENTIAL, lit("b"))
        assert index.rules == ()
        assert not any(engine.TheoryIndex(
            theory.facts, theory.rules).inert[1:])
        assert [probe(theory, f"-{tag} b") for tag in "dpsw"] == \
            [PROVED] * 4
        assert compute_conclusions(theory).status(
            SIGMA_MINUS, EVIDENTIAL, lit("c")) == PROVED

    def test_a_minus_antecedent_on_a_fact_keeps_its_rule_out(self):
        theory = parse_theory("fact f.\n"
                              "fact g.\n"
                              "rule r1: f, -d g => b.\n").union_theory()
        assert engine.cone_index(theory, EVIDENTIAL, lit("b")).rules == ()
        assert [probe(theory, f"+{tag} b") for tag in "dpsw"] == \
            [REFUTED] * 4

    def test_a_minus_antecedent_on_an_unsupported_cell_keeps_its_rule(self):
        # g is no fact and no rule heads it, so -d g holds: r1 fires
        theory = parse_theory("fact f.\n"
                              "rule r1: f, -d g => b.\n").union_theory()
        assert [rule.id for rule in engine.cone_index(
            theory, EVIDENTIAL, lit("b")).rules] == ["r1"]
        assert [probe(theory, f"+{tag} b") for tag in "dpsw"] == \
            [PROVED] * 4


class TestInertRules:
    """A one-shot table skips the inert rules: it is the least fixpoint
    of the conditions of every rule, and it and the one-literal
    questions answer as the theory with its inert rules deleted."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.sampled_from(range(len(TestOneShotCones.CLASSES))))
    def test_one_shot_answers_skip_inert_rules(self, seed, cls):
        theory = random_theory(seed, **TestOneShotCones.CLASSES[cls])
        table = compute_conclusions(theory)
        mentioned = {literal for _, literal in theory.facts}
        for rule in theory.rules:
            mentioned.add(rule.head)
            mentioned.update(ant.literal for ant in rule.antecedents)
        assert table.literals == mentioned | {
            literal.complement() for literal in mentioned}
        assert table.rows() == unpruned_rows(theory.facts, theory.rules,
                                             theory.superiority)
        inert = reference_inert(theory.facts, theory.rules)
        live = tuple(rule for r, rule in enumerate(theory.rules)
                     if r not in inert)
        pruned = compute_conclusions(
            DefeasibleTheory(theory.facts, live, theory.superiority))
        stripped = compute_conclusions(DefeasibleTheory(theory.facts, live))
        for literal in sorted(table.literals):
            for mode in MODES:
                assert [table.status(tag, mode, literal) for tag in TAGS] \
                    == [pruned.status(tag, mode, literal) for tag in TAGS]
                met, permission, queries = TestOneShotCones._reference(
                    pruned, stripped, literal, mode)
                assert standards_met(theory, literal, mode).met == met
                if mode == OBLIGATION:  # permission reads O of ~literal
                    assert [weakly_permitted(theory, literal, tag).status
                            for tag in (DELTA, PARTIAL)] == permission
                assert [holds(theory, TaggedLiteral(sign, tag, mode, literal))
                        for sign in (PLUS, MINUS) for tag in TAGS] == queries


class TestMetamorphic:
    """ROADMAP item 2's M3, over the corpus classes: compiling the same
    rules in another order changes no row, and adding a rule that can
    change nothing else changes no row of the other cells.
    ``TestAgenda.test_rule_order_does_not_matter`` renames the ids so
    that ``DefeasibleTheory`` sorts the rules differently."""

    @staticmethod
    def _drawn(seed, cls):
        theory = random_theory(seed, **TestOneShotCones.CLASSES[cls])
        return theory, compute_conclusions(theory).rows()

    @staticmethod
    def _rows_of(theory, rule, old_rows):
        """The rows of ``theory`` plus ``rule`` for the literals of
        ``old_rows``."""
        literals = {row[0] for row in old_rows}
        table = compute_conclusions(DefeasibleTheory(
            theory.facts, theory.rules + (rule,), theory.superiority))
        return [row for row in table.rows() if row[0] in literals]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.sampled_from(range(len(TestOneShotCones.CLASSES))),
           st.randoms(use_true_random=False))
    def test_compile_order_changes_no_row(self, seed, cls, rng):
        theory, rows = self._drawn(seed, cls)
        order = list(theory.rules)
        rng.shuffle(order)
        index = engine.TheoryIndex(theory.facts, order, theory.superiority)
        assert compute_conclusions(index).rows() == rows

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.sampled_from(range(len(TestOneShotCones.CLASSES))),
           st.randoms(use_true_random=False))
    def test_rule_on_an_unsupported_antecedent_changes_no_row(
            self, seed, cls, rng):
        theory, rows = self._drawn(seed, cls)
        supported = set(theory.facts) | {(rule.head_mode, rule.head)
                                         for rule in theory.rules}
        cells = [(mode, literal) for literal, mode, _, _ in rows[::len(TAGS)]
                 if (mode, literal) not in supported]
        mode, literal = rng.choice(cells + [(OBLIGATION, lit("e_fresh"))])
        # the head may be any other cell, so the rule would matter if it
        # fired; headed at its own antecedent it would support that
        head, head_mode, _, _ = rng.choice(
            [row for row in rows if (row[1], row[0]) != (mode, literal)])
        antecedents = [Antecedent(mode, literal)] + [
            Antecedent(ant_mode, ant) for ant, ant_mode, _, _ in
            rng.sample(rows, rng.randint(0, 2))]
        rng.shuffle(antecedents)
        rule = Rule("zz_new", tuple(antecedents), head_mode, head)
        assert self._rows_of(theory, rule, rows) == rows

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.sampled_from(range(len(TestOneShotCones.CLASSES))),
           st.randoms(use_true_random=False), st.sampled_from(MODES),
           st.booleans())
    def test_rule_with_a_fresh_head_changes_no_other_row(
            self, seed, cls, rng, head_mode, positive):
        theory, rows = self._drawn(seed, cls)
        antecedents = tuple(
            Antecedent(mode, literal) for literal, mode, _, _ in
            rng.sample(rows, rng.randint(1, 3)))
        # numbered between the theory's atoms, so later ids shift
        rule = Rule("zz_new", antecedents, head_mode,
                    Literal("e_fresh", positive))
        assert self._rows_of(theory, rule, rows) == rows


class TestStrengthOrder:
    def test_positive_chain(self):
        assert strength_order(("+", DELTA), ("+", PARTIAL)) == -1
        assert strength_order(("+", SIGMA_MINUS), ("+", SIGMA)) == 1
        assert strength_order(("+", SIGMA), ("+", SIGMA)) == 0

    def test_negative_chain_reversed(self):
        assert strength_order(("-", SIGMA_MINUS), ("-", DELTA)) == -1
        assert strength_order(("-", DELTA), ("-", PARTIAL)) == 1

    def test_mixed_signs_rejected(self):
        with pytest.raises(ValueError):
            strength_order(("+", DELTA), ("-", DELTA))

    def test_bad_sign_or_tag_rejected(self):
        with pytest.raises(ValueError, match="bad sign"):
            strength_order(("+", DELTA), ("*", DELTA))
        with pytest.raises(ValueError, match="bad tag"):
            strength_order(("+", "zz"), ("+", DELTA))


class TestInclusions:
    """The proof-strength ladder on random theories, both modes."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_ladder(self, seed):
        theory = random_theory(seed, allow_annotations=False)
        table = compute_conclusions(theory)
        for literal in table.literals:
            for mode in (EVIDENTIAL, OBLIGATION):
                statuses = [table.status(tag, mode, literal)
                            for tag in _CHAIN]
                for stronger, weaker in zip(statuses, statuses[1:]):
                    if stronger == PROVED:
                        assert weaker == PROVED, (literal, mode, statuses)
                    if weaker == REFUTED:
                        assert stronger == REFUTED, (literal, mode, statuses)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_no_coherence_violations(self, seed):
        # every key holds one status; TestKleeneCondition checks that
        # it agrees with both two-valued conditions
        theory = random_theory(seed, allow_annotations=True)
        table = compute_conclusions(theory)
        for literal in table.literals:
            for mode in (EVIDENTIAL, OBLIGATION):
                for tag in TAGS:
                    assert table.status(tag, mode, literal) in (
                        PROVED, REFUTED, UNDETERMINED)


def _two_valued(tag, inputs, need, rows, index):
    """The two-valued condition of ``+tag``, counting a rule applicable
    when its state is at least ``need`` and discarded when it is at most
    ``-need``: ``+tag`` itself with ``need`` 1, and with ``need`` 0 the
    condition whose failure is ``-tag``.  The reference for the Kleene
    value of ``engine._condition``."""
    opposed_fact, supporters, attackers = inputs
    antecedents, beaten_by = index.antecedents, index.beaten_by
    state = engine._state
    W, S, P, D = (TAGS.index(t) for t in (SIGMA_MINUS, SIGMA, PARTIAL,
                                          DELTA))
    if tag == W:
        return any(state(rows, antecedents[r], W) >= need
                   for r in supporters)
    if tag == S:
        return any(
            state(rows, antecedents[r], S) >= need and all(
                state(rows, antecedents[s], D) <= -need
                for s in attackers if s in beaten_by[r])
            for r in supporters)
    if opposed_fact:
        return False
    ambient, guard = (P, P) if tag == P else (D, S)
    return any(
        state(rows, antecedents[r], ambient) >= need and all(
            state(rows, antecedents[s], guard) <= -need or any(
                state(rows, antecedents[t], ambient) >= need
                and t in beaten_by[s]
                for t in supporters)
            for s in attackers)
        for r in supporters)


class TestKleeneCondition:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.data())
    def test_value_matches_two_valued_reference(self, seed, data):
        # any rows, not only fixpoint ones: every status open or settled
        # either way, so rule states take all three values.  Superiority
        # is drawn over every pair of rules with complementary heads,
        # and with many rules over few atoms many rules share a head, so
        # an attacker is often beaten by more than one supporter.
        theory = random_theory(seed, max_atoms=3, max_rules=24,
                               allow_annotations=True)
        rivals = [(a.id, b.id) for a in theory.rules for b in theory.rules
                  if (a.head_mode, a.head.complement()) ==
                  (b.head_mode, b.head)]
        superiority = [pair for pair in rivals if data.draw(st.booleans())]
        index = engine.TheoryIndex(theory.facts, theory.rules, superiority)
        cells = 2 * len(index.literals)
        rows = [data.draw(st.lists(st.sampled_from((None, PROVED, REFUTED)),
                                   min_size=len(TAGS), max_size=len(TAGS)))
                for _ in range(cells)]
        for cell in range(cells):
            if index.fact[cell]:
                continue
            inputs = (index.fact[cell ^ 2], list(index.heads[cell]),
                      list(index.heads[cell ^ 2]))
            for tag in range(len(TAGS)):
                value = engine._condition(tag, inputs, rows, index)
                assert value in (-1, 0, 1)
                key = (cell, TAGS[tag], rows)
                assert (value == 1) == \
                    _two_valued(tag, inputs, 1, rows, index), key
                assert (value == -1) == \
                    (not _two_valued(tag, inputs, 0, rows, index)), key


def _reverse_chain(n):
    """``n`` rules from one fact in which every head sorts before its
    antecedent, so a sweep in sorted order settles one link per pass."""
    atoms = [f"c{i:04d}" for i in range(n + 1)]
    rules = tuple(
        Rule(f"r{i}", (Antecedent(EVIDENTIAL, Literal(atoms[i])),),
             EVIDENTIAL, Literal(atoms[i - 1]))
        for i in range(1, n + 1))
    return DefeasibleTheory(
        frozenset({(EVIDENTIAL, Literal(atoms[n]))}), rules)


class TestAgenda:
    @pytest.mark.parametrize("n", [50, 200, 400])
    def test_reverse_chain_is_linear(self, monkeypatch, n):
        calls = [0]
        original = engine._condition

        def counting(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(engine, "_condition", counting)
        table = compute_conclusions(_reverse_chain(n))
        keys = len(table.literals) * len(MODES) * len(TAGS)
        # one call decides both signs of a key
        assert calls[0] <= keys, (calls[0], keys)
        assert table.status(DELTA, EVIDENTIAL, lit("c0000")) == PROVED

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.booleans(),
           st.lists(st.builds(Literal, st.sampled_from(ATOM_POOL + "xyz"),
                              st.booleans()), max_size=3),
           st.data())
    def test_rule_order_does_not_matter(self, seed, annotations, extra,
                                        data):
        theory = random_theory(seed, max_rules=20,
                               allow_annotations=annotations)
        order = data.draw(st.permutations(theory.rules))
        # DefeasibleTheory sorts rules by id, so renaming them by their
        # drawn position is what puts them in the drawn order
        ids = {rule.id: f"q{position:03d}"
               for position, rule in enumerate(order)}
        permuted = DefeasibleTheory(
            theory.facts,
            tuple(Rule(ids[r.id], r.antecedents, r.head_mode, r.head)
                  for r in order),
            frozenset((ids[a], ids[b]) for a, b in theory.superiority))
        assert [(r.antecedents, r.head) for r in permuted.rules] == \
            [(r.antecedents, r.head) for r in order]
        table = compute_conclusions(theory)
        assert compute_conclusions(permuted) == table
        for literal in extra:
            assert [compute_conclusions(permuted).status(tag, mode, literal)
                    for mode in MODES for tag in TAGS] == \
                [table.status(tag, mode, literal)
                 for mode in MODES for tag in TAGS]
