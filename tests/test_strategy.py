from dataclasses import replace

import pytest

from trialogic import (
    DEF, DEF_SUCCEEDS, EVIDENTIAL, FULL_DISCLOSURE, GREEDY_MINIMAL,
    OBLIGATION, POLICIES, PR, PR_SUCCEEDS, SIGMA_MINUS, WINNER_FOR_OUTCOME,
    Antecedent, BoundExceeded, Claim, GameSetup, Rule, analyze, auto_play,
    corpus, exhaustive_winner, game, lit, minimal_winning_opening,
    opening_is_winning, parse_moves, parse_theory, run_game, with_standards,
)


def _rule(rid, ant, head, mode=EVIDENTIAL):
    return Rule(rid, (Antecedent(EVIDENTIAL, lit(ant)),), mode, lit(head))


class TestRobustOpenings:
    def test_minimal_opening_discloses_the_counter(self, s2):
        assert minimal_winning_opening(s2) == ("r1", "r4", "r7")

    def test_small_opening_is_fragile(self, s2):
        assert not opening_is_winning(s2, {"r1", "r4"})

    def test_minimal_opening_s1(self, s1):
        assert minimal_winning_opening(s1) == ("r1", "r4")
        assert opening_is_winning(s1, {"r1", "r4"})

    def test_overshared_opening_is_fragile(self, s1):
        assert not opening_is_winning(s1, {"r1", "r2", "r3", "r4"})

    def test_rebuttal_outside_the_claim_cone_still_counts(self):
        # at scintilla b and ~b are both proved, so the opening both
        # establishes and refutes the claim; d1 cannot touch the claim,
        # but disclosing it is a rebuttal that leaves the claim refuted
        setup = GameSetup(
            facts=frozenset({(EVIDENTIAL, lit("a"))}),
            common_rules=(_rule("c1", "a", "b"), _rule("c2", "a", "~b")),
            pr_rules=(_rule("p1", "a", "~b", OBLIGATION),),
            def_rules=(_rule("d1", "a", "z"),),
            claim=Claim((lit("b"),)), evidential_standard=SIGMA_MINUS)
        assert game.claim_established(
            game.open_game(setup, {"p1"}).conclusions, setup)
        assert not opening_is_winning(setup, {"p1"})
        assert minimal_winning_opening(setup) is None

    def test_none_when_no_robust_opening(self, s3):
        assert minimal_winning_opening(s3) is None

    def test_none_at_stricter_standard(self, s2):
        strict = with_standards(s2, evidential="delta")
        assert minimal_winning_opening(strict) is None

    def test_unowned_opening_rejected(self, s1):
        with pytest.raises(ValueError, match="not in the pr pool"):
            opening_is_winning(s1, {"r6"})


class TestExhaustive:
    def test_s1(self, s1):
        assert exhaustive_winner(s1) == PR

    def test_s2_preponderance(self, s2):
        assert exhaustive_winner(s2) == PR

    def test_s2_beyond_reasonable_doubt(self, s2):
        assert exhaustive_winner(with_standards(s2, evidential="delta")) == DEF

    def test_s3(self, s3):
        assert exhaustive_winner(s3) == DEF

    def test_analysis_bundle(self, s2):
        result = analyze(s2)
        assert result.winner == PR
        assert result.minimal_opening == ("r1", "r4", "r7")
        assert result.states_explored > 0

    def test_no_opening_adjudicates_initial_position(self):
        setup = GameSetup(
            facts=frozenset({(EVIDENTIAL, lit("a"))}),
            common_rules=(),
            pr_rules=(_rule("p1", "z", "q"),),
            def_rules=(_rule("d1", "a", "x"),),
            claim=Claim((lit("q"),)))
        assert exhaustive_winner(setup) == DEF
        assert minimal_winning_opening(setup) is None

    def test_bound(self, s1):
        with pytest.raises(BoundExceeded):
            exhaustive_winner(s1, bound=3)
        assert exhaustive_winner(s1, bound=7) == PR

    def test_refused_search_computes_no_table(self, s1, s4, monkeypatch):
        tables = []
        monkeypatch.setattr(game, "compute_conclusions",
                            lambda *args, **kwargs: tables.append(args))
        for search in (analyze, exhaustive_winner):
            with pytest.raises(BoundExceeded):
                search(s1, bound=3)
            with pytest.raises(ValueError, match="no claim"):
                search(s4)
        assert tables == []

    def test_deterministic(self, s2):
        assert analyze(s2) == analyze(s2)


class TestGreedyPolicy:
    def test_s1_trace(self, s1):
        trace = auto_play(s1, GREEDY_MINIMAL)
        assert trace.outcome == PR_SUCCEEDS
        assert trace.records[0].rule_ids == ("r1", "r4")
        assert [r.player for r in trace.records] == ["pr", "def", "pr"]
        assert trace.records[1].rule_ids == ()
        assert trace.records[2].rule_ids == ()

    def test_s3_trace(self, s3):
        trace = auto_play(s3, GREEDY_MINIMAL)
        assert trace.outcome == DEF_SUCCEEDS
        assert trace.records[0].rule_ids == ("r4",)
        assert trace.records[1].rule_ids == ("r10",)

    def test_opening_is_smallest_accepted(self, s2):
        trace = auto_play(s2, GREEDY_MINIMAL)
        assert trace.records[0].rule_ids == ("r1", "r4")


class TestFullDisclosurePolicy:
    def test_s1_trace(self, s1):
        trace = auto_play(s1, FULL_DISCLOSURE)
        assert trace.outcome == DEF_SUCCEEDS
        assert trace.records[0].rule_ids == ("r1", "r2", "r3", "r4")
        assert trace.records[1].rule_ids == ("r4a", "r5", "r6")

    def test_falls_back_when_full_opening_breaks_claim(self):
        setup = GameSetup(
            facts=frozenset({(EVIDENTIAL, lit("a"))}),
            common_rules=(),
            pr_rules=(_rule("r1", "a", "b"),
                      _rule("rd", "a", "~b", OBLIGATION),
                      _rule("rx", "a", "~b")),
            def_rules=(),
            claim=Claim((lit("b"),)))
        trace = auto_play(setup, FULL_DISCLOSURE)
        assert trace.records[0].rule_ids == ("r1", "rd")
        assert trace.outcome == PR_SUCCEEDS

    def test_move_may_target_only_complements(self):
        # r3 decides x, which had no status before, so only ~x can be
        # named; the move is still legal and the policy plays it
        setup = parse_theory(
            "fact f.\nfact c.\n"
            "rule r: x => x.\nrule r2: x =>O x.\n"
            "rule r0: c => k.\nrule r0o: c =>O ~k.\nrule r3: f => x.\n"
            "claim: k.\n"
            "game common: r, r2.\ngame pr: r0, r0o.\ngame def: r3.\n")
        trace = auto_play(setup, FULL_DISCLOSURE)
        assert trace.records[1].rule_ids == ("r3",)
        assert trace.records[1].targets == (
            (EVIDENTIAL, lit("~x")), (OBLIGATION, lit("~x")))
        replay = run_game(setup, trace.moves())
        assert replay.outcome == trace.outcome
        assert [_record_fields(r) for r in replay.records] == \
            [_record_fields(r) for r in trace.records]

    def test_unknown_policy(self, s1):
        with pytest.raises(ValueError, match="unknown policy"):
            auto_play(s1, "timid")


class TestPolicyAgainstExhaustive:
    def test_greedy_matches_search_on_scenarios(self, s1, s2, s3):
        # the greedy policy happens to find the game value in these
        # scenarios; this is a regression anchor, not a theorem
        for setup in (s1, s2, s3):
            trace = auto_play(setup, GREEDY_MINIMAL)
            assert WINNER_FOR_OUTCOME[trace.outcome] == \
                exhaustive_winner(setup)


# Corpus setups (seed, claim) whose claim the union theory establishes,
# chosen for variety: defence moves under full disclosure, defence wins
# by adjudication, and a game decided by the opening alone.
CORPUS_GAMES = ((430, "b"), (1657, "~a"), (814, "~a"), (629, "~a"))


def _corpus_game(seed, claim):
    setup = corpus.random_setup(seed, max_rules=14, deontic_ratio=0.5)
    return replace(setup, claim=Claim((lit(claim),)))


@pytest.fixture(scope="module")
def game_setups(s1, s2, s3):
    return [s1, s2, s3] + [_corpus_game(*game) for game in CORPUS_GAMES]


def _record_fields(record):
    return (record.player, record.rule_ids, record.targets,
            record.newly_determined, record.conclusions.rows())


class TestOneTransition:
    def test_auto_play_trace_replays_under_run_game(self, game_setups):
        for setup in game_setups:
            for policy in POLICIES:
                trace = auto_play(setup, policy)
                assert trace.records
                replay = run_game(setup, trace.moves())
                assert replay.outcome == trace.outcome
                assert replay.initial_conclusions.rows() == \
                    trace.initial_conclusions.rows()
                assert [_record_fields(r) for r in replay.records] == \
                    [_record_fields(r) for r in trace.records]

    def test_analysis_agrees_with_separate_searches(self, game_setups):
        for setup in game_setups:
            result = analyze(setup)
            assert result.winner == exhaustive_winner(setup)
            assert result.minimal_opening == minimal_winning_opening(setup)


class TestOneCachePerCall:
    @pytest.fixture
    def computed(self, monkeypatch):
        keys = []
        compute = game.compute_conclusions

        def recording(theory, **parent):
            keys.append(frozenset(rule.id for rule in theory.rules))
            return compute(theory, **parent)

        monkeypatch.setattr(game, "compute_conclusions", recording)
        return keys

    def test_no_table_computed_twice(self, computed, s1, s2, fixtures_dir):
        script = parse_moves(
            (fixtures_dir / "s1_play_b.moves").read_text(encoding="utf-8"))
        calls = [lambda: run_game(s1, script)]
        for setup in (s1, s2, _corpus_game(*CORPUS_GAMES[0])):
            calls.append(lambda setup=setup: analyze(setup))
            calls.extend(lambda setup=setup, policy=policy:
                         auto_play(setup, policy) for policy in POLICIES)
        for call in calls:
            computed.clear()
            call()
            assert computed
            assert len(computed) == len(set(computed))
