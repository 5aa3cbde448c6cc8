import pytest
from hypothesis import given, settings, strategies as st

from trialogic import (
    EVIDENTIAL, OBLIGATION, UNDETERMINED, Antecedent, DefeasibleTheory,
    Rule, build_arguments, build_attack_graph, delta_equivalence_check,
    grounded_extension, lit,
)
from trialogic.arguments import FACT
from trialogic.corpus import random_theory


def simple_rule(rid, ants, head, mode=EVIDENTIAL):
    return Rule(rid, tuple(Antecedent(EVIDENTIAL, lit(a)) for a in ants),
                mode, lit(head))


class TestConstruction:
    def test_fact_arguments(self):
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a")), (OBLIGATION, lit("q"))}), ())
        args = build_arguments(theory)
        assert {(a.conclusion, a.top_rule) for a in args} == {
            ((EVIDENTIAL, lit("a")), FACT),
            ((OBLIGATION, lit("q")), FACT),
        }

    def test_chained_argument(self):
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a"))}),
            (simple_rule("r1", ["a"], "b"), simple_rule("r2", ["b"], "c")))
        args = build_arguments(theory)
        conclusions = {a.conclusion for a in args}
        assert (EVIDENTIAL, lit("c")) in conclusions
        top = next(a for a in args if a.conclusion == (EVIDENTIAL, lit("c")))
        assert top.rule_ids == {"r1", "r2"}

    def test_no_rule_repetition_on_a_branch(self):
        theory = DefeasibleTheory(
            frozenset(),
            (simple_rule("loop", ["p"], "p"),))
        assert build_arguments(theory) == ()

    def test_cycle_with_seed_fact_stays_finite(self):
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("p"))}),
            (simple_rule("loop", ["p"], "p"),))
        args = build_arguments(theory)
        # the fact argument and one rule application on top of it
        assert len(args) == 2

    def test_multiple_proofs_give_multiple_arguments(self):
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a")), (EVIDENTIAL, lit("d"))}),
            (simple_rule("r1", ["a"], "b"), simple_rule("r2", ["d"], "b")))
        b_args = [a for a in build_arguments(theory)
                  if a.conclusion == (EVIDENTIAL, lit("b"))]
        assert len(b_args) == 2

    def test_annotated_antecedents_rejected(self, annotated):
        with pytest.raises(ValueError, match="annotated"):
            build_arguments(annotated.union_theory())

    def test_explosion_limit(self):
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a"))}),
            tuple(simple_rule(f"r{i}", ["a"], "b") for i in range(9)))
        with pytest.raises(ValueError, match="explosion"):
            build_arguments(theory, limit=5)


class TestAttacks:
    def test_facts_are_unattackable(self):
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a")), (EVIDENTIAL, lit("t"))}),
            (simple_rule("rx", ["t"], "~a"),))
        graph = build_attack_graph(theory)
        fact_index = next(
            i for i, arg in enumerate(graph.arguments)
            if arg.is_fact and arg.conclusion == (EVIDENTIAL, lit("a")))
        assert graph.attackers_of(fact_index) == frozenset()
        rule_index = next(
            i for i, arg in enumerate(graph.arguments)
            if arg.top_rule == "rx")
        assert graph.attackers_of(rule_index) != frozenset()

    def test_attack_on_subargument(self):
        # attacking c undermines the argument for e built on top of it
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a")), (EVIDENTIAL, lit("b"))}),
            (simple_rule("n1", ["a"], "c"),
             simple_rule("n2", ["b"], "~c"),
             simple_rule("n3", ["c"], "e")))
        graph = build_attack_graph(theory)
        e_index = next(i for i, arg in enumerate(graph.arguments)
                       if arg.conclusion == (EVIDENTIAL, lit("e")))
        attackers = {graph.arguments[i].top_rule
                     for i in graph.attackers_of(e_index)}
        assert attackers == {"n2"}

    def test_superiority_blocks_attack(self, s3):
        theory = s3.union_theory()
        graph = build_attack_graph(theory)
        r10_index = next(i for i, arg in enumerate(graph.arguments)
                         if arg.top_rule == "r10")
        r4_index = next(i for i, arg in enumerate(graph.arguments)
                        if arg.top_rule == "r4")
        assert (r10_index, r4_index) in graph.attacks
        assert (r4_index, r10_index) not in graph.attacks


class TestGroundedExtension:
    def test_ambiguity_fixture_keeps_only_facts(self, ambiguity):
        theory = ambiguity.union_theory()
        graph = build_attack_graph(theory)
        accepted = grounded_extension(graph)
        assert all(arg.is_fact for arg in accepted)
        assert len(accepted) == 3

    def test_defended_argument_is_in(self, s3):
        theory = s3.union_theory()
        accepted = grounded_extension(build_attack_graph(theory))
        conclusions = {arg.conclusion for arg in accepted}
        assert (OBLIGATION, lit("b")) in conclusions
        assert (OBLIGATION, lit("~b")) not in conclusions

    def test_unopposed_chain_is_in(self):
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a"))}),
            (simple_rule("r1", ["a"], "b"), simple_rule("r2", ["b"], "c")))
        accepted = grounded_extension(build_attack_graph(theory))
        assert {arg.conclusion for arg in accepted} == {
            (EVIDENTIAL, lit("a")), (EVIDENTIAL, lit("b")),
            (EVIDENTIAL, lit("c"))}


class TestEquivalence:
    def test_fixtures_agree(self, s1, s2, s4, ambiguity, empty_deontic):
        for setup in (s1, s2, s4, ambiguity, empty_deontic):
            report = delta_equivalence_check(setup.union_theory())
            assert report.agrees, report.discrepancies
            assert report.authoritative

    def test_superiority_marked_advisory(self, s3):
        report = delta_equivalence_check(s3.union_theory())
        assert not report.authoritative
        assert report.caveats == ("superiority",)

    def test_support_cycle_marked_advisory(self, cycle):
        report = delta_equivalence_check(cycle.union_theory())
        assert report.agrees
        assert report.caveats == ("support cycles",)

    def test_support_cycle_can_genuinely_diverge(self):
        # A literal with no finite argument cannot always be refuted by
        # the engine: here refuting a means exhausting "loop", whose
        # body needs a refuted first.  So the unattacked duty argument
        # is justified while the engine stays undetermined on O a.
        # This is exactly why reports carry the support-cycles caveat.
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("b"))}),
            (simple_rule("loop", ["a"], "a"),
             simple_rule("duty", ["b"], "a", mode=OBLIGATION),
             simple_rule("undercut", ["a"], "~a", mode=OBLIGATION)))
        report = delta_equivalence_check(theory)
        assert report.caveats == ("support cycles",)
        assert report.discrepancies == (
            (OBLIGATION, lit("a"), UNDETERMINED, True),)

    def test_stratified_seed_971_disagrees(self):
        # A known disagreement: the engine's sigma ignores the opposing
        # fact ~c, so c, c => ~d blocks d at delta, while the oracle
        # lets the fact [~c] defeat the argument for c and justifies d.
        # Pinned until the semantics is settled.
        theory = random_theory(971, allow_superiority=False,
                               stratified=True)
        report = delta_equivalence_check(theory)
        assert report.authoritative
        assert report.discrepancies == (("E", lit("d"), "refuted", True),)

    def test_stratified_seed_403915_disagrees(self):
        # The class of seed 971, within the seeds the property below
        # draws: c is supported by a => c and opposed by the fact ~c.
        # The engine's sigma ignores that fact, so c =>O ~e blocks
        # b =>O e at delta, while the oracle lets [~c] defeat the
        # argument for c and justifies O e.  Such seeds make the
        # property below fail now and then; pinned with seed 971.
        theory = random_theory(403915, allow_superiority=False,
                               stratified=True)
        report = delta_equivalence_check(theory)
        assert report.authoritative
        assert report.discrepancies == (("O", lit("e"), "refuted", True),)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_stratified_theories_agree(self, seed):
        theory = random_theory(seed, allow_superiority=False,
                               allow_annotations=False, stratified=True)
        report = delta_equivalence_check(theory)
        assert report.authoritative
        assert report.agrees, report.discrepancies
