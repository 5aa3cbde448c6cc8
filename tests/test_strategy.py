from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from trialogic import (
    DEF, DEF_SUCCEEDS, EVIDENTIAL, FULL_DISCLOSURE, GREEDY_MINIMAL,
    OBLIGATION, ONGOING, POLICIES, PR, PR_SUCCEEDS, SIGMA_MINUS, STALLED,
    WINNER_FOR_OUTCOME, Analysis, Antecedent, BoundExceeded, Claim,
    GameSetup, OpeningRejected, Rule, analyze, auto_play, corpus,
    exhaustive_winner, game, lit, minimal_winning_opening,
    opening_is_winning, parse_moves, parse_theory, run_game, strategy,
    with_standards,
)

from conftest import established_setup


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

    def test_rejected_opening_is_not_winning(self, s1):
        with pytest.raises(OpeningRejected):
            game.open_game(s1, {"r1"})
        assert not opening_is_winning(s1, {"r1"})

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

    def test_refused_search_computes_no_table(self, s1, s4, computed):
        for search in (analyze, exhaustive_winner):
            with pytest.raises(BoundExceeded):
                search(s1, bound=3)
            with pytest.raises(ValueError, match="no claim"):
                search(s4)
        assert computed == []

    def test_deterministic(self, s2):
        assert analyze(s2) == analyze(s2)

    def test_cut_search_on_a_large_setup(self):
        # 5 pr and 7 def rules; the uncut search expands 6,144 positions
        setup = established_setup(71, max_rules=20, deontic_ratio=0.5)
        assert analyze(setup) == Analysis(PR, (), 129)


_RANKING = {PR: (PR_SUCCEEDS, STALLED, DEF_SUCCEEDS),
            DEF: (DEF_SUCCEEDS, STALLED, PR_SUCCEEDS)}


def _uncut_winner(setup, memoised=True):
    """Backward induction over every legal move of every position, with
    no cutoff, and over every opening the claim accepts; unless
    ``memoised``, a position reached twice is searched twice."""
    memo = {}

    def outcome(state):
        settled = game.settle(state)
        if settled != ONGOING:
            return settled
        key = (state.pr_ids, state.def_ids, state.mover,
               state.consecutive_passes)
        if key not in memo:
            pool = state.pr_ids if state.mover == PR else state.def_ids
            outcomes = [outcome(game.step(state, frozenset())[0])]
            for disclosed in game.subsets(pool, include_empty=False):
                nxt, targets = game.step(state, disclosed)
                if targets:
                    outcomes.append(outcome(nxt))
            best = min(outcomes, key=_RANKING[state.mover].index)
            if not memoised:
                return best
            memo[key] = best
        return memo[key]

    start = game.initial_state(setup)
    outcomes = []
    for opening in game.subsets(start.pr_ids):
        try:
            outcomes.append(outcome(game._open(start, opening)))
        except OpeningRejected:
            pass
    if not outcomes:
        return WINNER_FOR_OUTCOME[game.adjudicate(start)]
    return WINNER_FOR_OUTCOME[min(outcomes, key=_RANKING[PR].index)]


def _small_setup(seed, annotated, established):
    """A corpus setup or, when ``established`` and the seed has one, a
    setup of the benchmark's game corpus whose claim the union theory
    establishes."""
    if established:
        setup = established_setup(seed, max_rules=14, deontic_ratio=0.5,
                                  allow_annotations=annotated)
        if setup is not None:
            return setup
    return corpus.random_setup(seed, allow_annotations=annotated)


class TestCutSearch:
    """The cut search finds the game value the uncut one finds."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.booleans(),
           st.booleans())
    def test_exhaustive_winner_equals_uncut_search(self, seed, annotated,
                                                   established):
        setup = _small_setup(seed, annotated, established)
        assume(setup.claim is not None
               and len(setup.pr_rules) + len(setup.def_rules) <= 8)
        assert exhaustive_winner(setup) == _uncut_winner(setup)

    def test_search_goes_past_a_losing_first_opening(self):
        # the first accepted opening, h1 and h2, proves c, which is all
        # d1 needs to beat both routes to b; r1 and r2 prove b without c
        setup = parse_theory(
            "fact a.\nfact d.\n"
            "rule ob: a =>O ~b.\n"
            "rule h1: d => c.\nrule h2: c => b.\n"
            "rule r1: a => x.\nrule r2: x => b.\n"
            "rule d1: c => ~b.\n"
            "sup d1 > h2.\nsup d1 > r2.\n"
            "claim: b.\n"
            "game pr: h1, h2, r1, r2.\ngame def: d1.\n")
        start = game.initial_state(setup)
        first, opened = next(game.accepted_openings(start))
        assert first == {"h1", "h2"}
        assert game.step(opened, frozenset({"d1"}))[1]
        assert exhaustive_winner(setup) == _uncut_winner(setup) == PR
        assert analyze(setup).minimal_opening == ("r1", "r2")

    def test_search_goes_past_a_stalled_outcome(self):
        # x1 leaves b undetermined at delta (its premise c is only
        # sigma_minus, since sc > rc and e is circular); after pr passes,
        # a pass by def is adjudicated stalled, as r2 could still prove
        # b and y1 could still refute it, while y1 itself wins for def
        setup = parse_theory(
            "fact a.\n"
            "rule ob: a =>O ~b.\n"
            "rule rc: a => c.\nrule sc: e => ~c.\nrule le: e => e.\n"
            "sup sc > rc.\n"
            "rule p1: a => b.\nrule r2: a => b.\n"
            "rule x1: c => ~b.\nrule y1: a => ~b.\n"
            "sup r2 > x1.\nsup y1 > r2.\nsup y1 > p1.\n"
            "claim: b.\n"
            "game pr: p1, r2.\ngame def: x1, y1.\n")
        opened = game.open_game(setup, {"p1"})
        doubted, _ = game.step(opened, frozenset({"x1"}))
        passed, _ = game.step(doubted, frozenset())
        assert game.settle(game.step(passed, frozenset())[0]) == STALLED
        assert exhaustive_winner(setup) == _uncut_winner(setup) == DEF

    def test_uncut_search_on_the_fixtures(self, s1, s2, s3):
        for setup in (s1, s2, s3, with_standards(s2, evidential="delta")):
            assert exhaustive_winner(setup) == _uncut_winner(setup)

    @pytest.mark.parametrize("seed, winner, opening, explored", [
        (814, DEF, None, 70), (1644, PR, ("r4",), 13), (451, PR, ("r6",), 65)])
    def test_transpositions_are_searched_once(self, seed, winner, opening,
                                              explored):
        # these games reach one position along several move orders; a
        # search that expanded it each time would explore 108, 17 and
        # 195 positions
        setup = established_setup(seed, max_rules=14, deontic_ratio=0.5)
        assert _uncut_winner(setup, memoised=False) == winner
        assert analyze(setup) == Analysis(winner, opening, explored)


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


class TestUnsupportableClaim:
    def test_trace_without_moves_ends_on_its_initial_table(self):
        # nothing proves z, so no opening can support q
        setup = parse_theory(
            "fact a.\nrule r0: a =>O ~q.\n"
            "rule p1: z => q.\nrule d1: a => x.\n"
            "claim: q.\n"
            "game common: r0.\ngame pr: p1.\ngame def: d1.\n")
        for policy in POLICIES:
            trace = auto_play(setup, policy)
            assert trace.records == []
            assert trace.outcome == DEF_SUCCEEDS
            assert trace.final_conclusions is trace.initial_conclusions


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


def _reference_policy_move(state, policy):
    """``strategy._policy_move`` computing each candidate's full table
    first and counting coverage condition by condition off
    ``game.claim_conditions``, the order before coverage was screened on
    sliced tables."""
    mover = state.mover
    pool = state.pr_ids if mover == PR else state.def_ids

    def coverage(table):
        return sum(table.derived(*condition)
                   for condition in game.claim_conditions(state.setup, mover))

    if policy == FULL_DISCLOSURE:
        candidates = [pool] if pool else []
    else:
        candidates = game.subsets(pool, include_empty=False)
    baseline = coverage(state.conclusions)
    for disclosed in candidates:
        nxt, targets = game.step(state, disclosed)
        if not targets:
            continue
        if policy == GREEDY_MINIMAL and coverage(nxt.conclusions) <= baseline:
            continue
        own = targets & {(entry.mode, entry.literal)
                         for entry in nxt.newly_determined}
        return game.Move(mover, disclosed, own or targets)
    return game.Move(mover, frozenset())


class TestGreedyScreen:
    """Greedy play screens coverage on sliced tables before it computes
    a candidate's full table; the move it picks is the same."""

    @pytest.mark.parametrize("make", [
        corpus.random_setup,
        lambda seed: established_setup(seed, max_rules=14, deontic_ratio=0.5),
        lambda seed: established_setup(seed, max_rules=20, deontic_ratio=0.5),
    ], ids=["random", "established14", "established20"])
    def test_traces_equal_the_full_table_reference(self, monkeypatch, make):
        played = 0
        for seed in range(400):
            setup = make(seed)
            if setup is None or setup.claim is None:
                continue
            trace = auto_play(setup, GREEDY_MINIMAL)
            with monkeypatch.context() as patched:
                patched.setattr(strategy, "_policy_move",
                                _reference_policy_move)
                reference = auto_play(setup, GREEDY_MINIMAL)
            assert trace.outcome == reference.outcome
            assert trace.initial_conclusions == reference.initial_conclusions
            assert [_record_fields(r) for r in trace.records] == \
                [_record_fields(r) for r in reference.records]
            played += len(trace.records) > 1
        assert played


class TestOneCachePerCall:
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
            keys = [run.rule_ids.intersection(run.index.positions)
                    for run in computed]
            assert keys
            assert len(keys) == len(set(keys))
