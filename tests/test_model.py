import pytest

from trialogic import (
    DEF, DELTA, EVIDENTIAL, OBLIGATION, PARTIAL, PR, SIGMA,
    Antecedent, Claim, DefeasibleTheory, GameSetup, Literal, Move, Rule,
    TaggedLiteral, complement, lit, player_view, validate_setup,
    validate_theory, with_standards,
)


def rule(rid, ants, mode, head):
    return Rule(rid, tuple(Antecedent(EVIDENTIAL, lit(a)) for a in ants),
                mode, lit(head))


class TestLiteral:
    def test_parse_and_render(self):
        assert lit("b") == Literal("b", True)
        assert lit("~b") == Literal("b", False)
        assert str(lit("~b")) == "~b"
        assert str(lit("b")) == "b"

    def test_complement_involution(self):
        assert complement(lit("b")) == lit("~b")
        assert complement(complement(lit("~x"))) == lit("~x")

    def test_rejects_garbage(self):
        for bad in ("", "B", "~", "1a", "a b", "~~a"):
            with pytest.raises(ValueError):
                lit(bad)


class TestTaggedLiteral:
    def test_render_ascii(self):
        entry = TaggedLiteral("+", PARTIAL, OBLIGATION, lit("~b"))
        assert entry.render() == "+p O ~b"
        entry = TaggedLiteral("-", DELTA, EVIDENTIAL, lit("a"))
        assert entry.render() == "-d a"

    def test_render_glyph(self):
        entry = TaggedLiteral("+", PARTIAL, OBLIGATION, lit("~b"))
        assert entry.render_glyph() == "+∂ O ~b"


class TestAntecedent:
    def test_annotation_needs_both_parts(self):
        with pytest.raises(ValueError):
            Antecedent(EVIDENTIAL, lit("a"), sign="+")
        with pytest.raises(ValueError):
            Antecedent(EVIDENTIAL, lit("a"), tag=DELTA)

    def test_bad_mode_tag_or_sign(self):
        with pytest.raises(ValueError, match="bad mode"):
            Antecedent("X", lit("a"))
        with pytest.raises(ValueError, match="bad tag"):
            Antecedent(EVIDENTIAL, lit("a"), sign="+", tag="zz")
        with pytest.raises(ValueError, match="bad sign"):
            Antecedent(EVIDENTIAL, lit("a"), sign="*", tag=DELTA)

    def test_annotated_flag(self):
        plain = Antecedent(EVIDENTIAL, lit("a"))
        assert not plain.annotated
        ann = Antecedent(EVIDENTIAL, lit("a"), sign="-", tag=SIGMA)
        assert ann.annotated


class TestRule:
    def test_needs_antecedent(self):
        with pytest.raises(ValueError):
            Rule("r1", (), EVIDENTIAL, lit("b"))

    def test_bad_id(self):
        with pytest.raises(ValueError):
            rule("R1", ["a"], EVIDENTIAL, "b")


class TestClaim:
    def test_sorted_and_deduplicated(self):
        claim = Claim((lit("c"), lit("b"), lit("c")))
        assert claim.literals == (lit("b"), lit("c"))

    def test_nonempty(self):
        with pytest.raises(ValueError):
            Claim(())


class TestTheory:
    def test_rules_sorted_by_id(self):
        theory = DefeasibleTheory(
            frozenset(), (rule("r2", ["a"], EVIDENTIAL, "c"),
                          rule("r1", ["a"], EVIDENTIAL, "b")))
        assert [r.id for r in theory.rules] == ["r1", "r2"]

    def test_duplicate_ids_flagged(self):
        theory = DefeasibleTheory(
            frozenset(), (rule("r1", ["a"], EVIDENTIAL, "b"),
                          rule("r1", ["a"], EVIDENTIAL, "c")))
        report = validate_theory(theory)
        assert any("duplicate" in e for e in report.errors)

    def test_unknown_superiority_id_flagged(self):
        theory = DefeasibleTheory(
            frozenset(), (rule("r1", ["a"], EVIDENTIAL, "b"),),
            frozenset({("r1", "zz")}))
        report = validate_theory(theory)
        assert any("unknown rule id" in e for e in report.errors)

    def test_inert_superiority_warned(self):
        theory = DefeasibleTheory(
            frozenset(), (rule("r1", ["a"], EVIDENTIAL, "b"),
                          rule("r2", ["a"], EVIDENTIAL, "c")),
            frozenset({("r1", "r2")}))
        report = validate_theory(theory)
        assert report.ok
        assert any("no effect" in w for w in report.warnings)

    def test_reflexive_superiority_warned(self):
        theory = DefeasibleTheory(
            frozenset(), (rule("r1", ["a"], EVIDENTIAL, "b"),),
            frozenset({("r1", "r1")}))
        report = validate_theory(theory)
        assert report.ok
        assert "superiority pair 'r1' > 'r1' is reflexive" in report.warnings

    def test_cycle_warned(self):
        theory = DefeasibleTheory(
            frozenset(), (rule("r1", ["a"], EVIDENTIAL, "b"),
                          rule("r2", ["a"], EVIDENTIAL, "~b")),
            frozenset({("r1", "r2"), ("r2", "r1")}))
        report = validate_theory(theory)
        assert any("cycle" in w for w in report.warnings)

    @pytest.mark.parametrize("closed", [False, True])
    def test_long_superiority_chain(self, closed):
        # rules alternate heads b / ~b, so every pair is effective
        n = 3000
        rules = tuple(rule(f"r{i}", ["a"], EVIDENTIAL, "~b" if i % 2 else "b")
                      for i in range(n))
        pairs = {(f"r{i + 1}", f"r{i}") for i in range(n - 1)}
        if closed:
            pairs.add(("r0", f"r{n - 1}"))
        theory = DefeasibleTheory(frozenset(), rules, frozenset(pairs))
        report = validate_theory(theory)
        assert report.ok
        assert any("cycle" in w for w in report.warnings) == closed

    @pytest.mark.parametrize("mode", ["X", "evidential", None])
    def test_bad_fact_mode(self, mode):
        # a fact in no mode used to construct and fail later, inside the
        # engine, as a KeyError
        with pytest.raises(ValueError, match="bad mode"):
            DefeasibleTheory(frozenset({(mode, lit("a"))}), ())

    def test_modal_fact_conflict_warned(self):
        theory = DefeasibleTheory(
            frozenset({(OBLIGATION, lit("b")), (OBLIGATION, lit("~b"))}),
            (rule("r1", ["a"], EVIDENTIAL, "b"),))
        report = validate_theory(theory)
        assert any("oblige both" in w for w in report.warnings)


class TestGameSetup:
    def setup_method(self):
        self.setup = GameSetup(
            facts=frozenset({(EVIDENTIAL, lit("a"))}),
            common_rules=(rule("c1", ["a"], EVIDENTIAL, "x"),),
            pr_rules=(rule("p1", ["x"], EVIDENTIAL, "b"),),
            def_rules=(rule("d1", ["x"], EVIDENTIAL, "~b"),),
            superiority=frozenset({("p1", "d1")}),
            claim=Claim((lit("b"),)),
        )

    def test_owner_of(self):
        assert self.setup.owner_of("p1") == PR
        assert self.setup.owner_of("d1") == DEF
        assert self.setup.owner_of("c1") == "common"
        assert self.setup.owner_of("zz") is None

    def test_union_theory(self):
        theory = self.setup.union_theory()
        assert theory.rule_ids() == {"c1", "p1", "d1"}
        assert theory.superiority == {("p1", "d1")}

    def test_theory_for_restricts_superiority(self):
        theory = self.setup.theory_for({"c1", "d1"})
        assert theory.rule_ids() == {"c1", "d1"}
        assert theory.superiority == frozenset()

    def test_player_view(self):
        pr_view = player_view(self.setup, PR)
        assert pr_view.rule_ids() == {"c1", "p1"}
        def_view = player_view(self.setup, DEF)
        assert def_view.rule_ids() == {"c1", "d1"}
        with pytest.raises(ValueError, match="bad player"):
            player_view(self.setup, "judge")

    def test_move_needs_a_player(self):
        with pytest.raises(ValueError, match="bad player"):
            Move("judge", frozenset())

    def test_pool_overlap_is_error(self):
        clash = GameSetup(
            facts=frozenset(),
            common_rules=(rule("r1", ["a"], EVIDENTIAL, "b"),),
            pr_rules=(rule("r1", ["a"], EVIDENTIAL, "b"),),
            def_rules=())
        report = validate_setup(clash)
        assert not report.ok
        assert any("pools" in e for e in report.errors)

    def test_bad_fact_mode(self):
        with pytest.raises(ValueError, match="bad mode"):
            GameSetup(facts=frozenset({("evidential", lit("a"))}),
                      common_rules=(), pr_rules=(), def_rules=())

    def test_with_standards(self):
        changed = with_standards(self.setup, evidential=SIGMA)
        assert changed.evidential_standard == SIGMA
        assert changed.deontic_standard == self.setup.deontic_standard
        assert with_standards(self.setup) is self.setup

    def test_deontic_standard_restricted(self):
        with pytest.raises(ValueError):
            with_standards(self.setup, deontic=SIGMA)
