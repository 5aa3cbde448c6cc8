import pytest

from trialogic import (
    DELTA, EVIDENTIAL, NOT_PERMITTED, OBLIGATION, PARTIAL, PR, SIGMA,
    UNDETERMINED, WEAKLY_PERMITTED, Antecedent, DefeasibleTheory, Move,
    Rule, check_obligation_permission, game_weakly_permitted, lit,
    parse_moves, run_game, weakly_permitted,
)
from trialogic import engine


class TestTheoryPermission:
    def test_vacuous_permission(self, empty_deontic):
        theory = empty_deontic.union_theory()
        for tag in (DELTA, PARTIAL):
            result = weakly_permitted(theory, lit("x"), tag)
            assert result.status == WEAKLY_PERMITTED
            assert result.witness.render() == f"-{'d' if tag == DELTA else 'p'} O ~x"

    def test_prohibited_conduct(self, s1):
        result = weakly_permitted(s1.union_theory(), lit("b"))
        assert result.status == NOT_PERMITTED
        assert result.witness.render() == "+p O ~b"

    def test_beaten_prohibition_permits(self, s3):
        theory = s3.union_theory()
        for tag in (DELTA, PARTIAL):
            assert weakly_permitted(theory, lit("b"), tag).status == \
                WEAKLY_PERMITTED

    def test_undetermined_prohibition(self):
        theory = DefeasibleTheory(
            frozenset(),
            (Rule("loop", (Antecedent(EVIDENTIAL, lit("p")),),
                  EVIDENTIAL, lit("p")),
             Rule("ob", (Antecedent(EVIDENTIAL, lit("p")),),
                  OBLIGATION, lit("~q"))))
        result = weakly_permitted(theory, lit("q"))
        assert result.status == UNDETERMINED
        assert result.witness is None

    @staticmethod
    def _count_compiles(monkeypatch):
        compiled = []
        original = engine.TheoryIndex.__init__

        def counting(index, *args, **kwargs):
            compiled.append(index)
            original(index, *args, **kwargs)

        monkeypatch.setattr(engine.TheoryIndex, "__init__", counting)
        return compiled

    def test_support_tag_rejected(self, monkeypatch, s1):
        # before any index is compiled
        compiled = self._count_compiles(monkeypatch)
        with pytest.raises(ValueError, match="permission is defined"):
            weakly_permitted(s1.union_theory(), lit("b"), SIGMA)
        assert compiled == []

    def test_reverse_chain_compiles_no_rule(self, monkeypatch):
        # an evidential chain of rules, each head sorting before its
        # antecedent: the obligation of ~c0 has an empty cone
        atoms = [f"c{i}" for i in range(20)]
        rules = tuple(
            Rule(f"r{i}", (Antecedent(EVIDENTIAL, lit(atoms[i])),),
                 EVIDENTIAL, lit(atoms[i - 1]))
            for i in range(1, len(atoms)))
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit(atoms[-1]))}), rules)
        compiled = self._count_compiles(monkeypatch)
        result = weakly_permitted(theory, lit(atoms[0]))
        assert result.status == WEAKLY_PERMITTED
        assert [index.rules for index in compiled] == [()]


class TestGamePermission:
    def test_settled_by_lost_game(self, s3):
        from trialogic import auto_play
        trace = auto_play(s3)
        assert trace.outcome == "def_succeeds"
        assert game_weakly_permitted(trace, lit("b")).status == \
            WEAKLY_PERMITTED
        assert game_weakly_permitted(trace, lit("b"), DELTA).status == \
            WEAKLY_PERMITTED

    def test_defence_win_does_not_imply_permission(self, s1, fixtures_dir):
        moves = parse_moves(
            (fixtures_dir / "s1_play_b.moves").read_text(encoding="utf-8"))
        trace = run_game(s1, moves)
        assert trace.outcome == "def_succeeds"
        assert game_weakly_permitted(trace, lit("b")).status == NOT_PERMITTED

    def test_ongoing_trace_rejected(self, s1):
        trace = run_game(s1, [Move(PR, frozenset({"r1", "r4"}))])
        assert trace.outcome == "ongoing"
        with pytest.raises(ValueError, match="ongoing"):
            game_weakly_permitted(trace, lit("b"))

    def test_literal_outside_claim_rejected(self, s3):
        from trialogic import auto_play
        trace = auto_play(s3)
        with pytest.raises(ValueError, match="not part of the claim"):
            game_weakly_permitted(trace, lit("c"))


class TestDuality:
    def test_holds_on_fixtures(self, s1, s2, s3, empty_deontic):
        for setup in (s1, s2, s3, empty_deontic):
            report = check_obligation_permission(setup.union_theory())
            assert not report.vacuous
            assert report.holds, report.violations

    def test_conflicting_deontic_facts_flagged_vacuous(self):
        theory = DefeasibleTheory(
            frozenset({(OBLIGATION, lit("b")), (OBLIGATION, lit("~b"))}), ())
        report = check_obligation_permission(theory)
        assert report.vacuous
        assert any("deontic facts" in r for r in report.reasons)
        assert not report.holds

    def test_superiority_cycle_flagged_vacuous(self):
        rules = (
            Rule("r1", (Antecedent(EVIDENTIAL, lit("a")),),
                 OBLIGATION, lit("b")),
            Rule("r2", (Antecedent(EVIDENTIAL, lit("a")),),
                 OBLIGATION, lit("~b")),
        )
        theory = DefeasibleTheory(
            frozenset({(EVIDENTIAL, lit("a"))}), rules,
            frozenset({("r1", "r2"), ("r2", "r1")}))
        report = check_obligation_permission(theory)
        assert report.vacuous
        assert any("cycle" in r for r in report.reasons)
