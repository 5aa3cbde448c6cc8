import sys

import pytest
from hypothesis import given, settings, strategies as st

from trialogic import (
    DEF, DEF_SUCCEEDS, EVIDENTIAL, MODES, OBLIGATION, ONGOING, POLICIES, PR,
    PR_SUCCEEDS, STALLED, TAGS, Antecedent, Claim, ConclusionTable, GameSetup,
    IllegalMove, Literal, Move, OpeningRejected, ParseFailure, Rule,
    adjudicate, analyze, apply_move, auto_play, compute_conclusions, corpus,
    game, initial_state, legal_move, lit, open_game, parse_moves,
    parse_theory, run_game, termination_status,
)


def move(player, ids, targets=()):
    return Move(player, frozenset(ids),
                frozenset((m, lit(s)) for m, s in targets))


class TestOpening:
    def test_accepted(self, s1):
        state = open_game(s1, {"r1", "r4"})
        assert state.common_ids == {"r1", "r4"}
        assert state.pr_ids == {"r2", "r3"}
        assert state.mover == DEF

    def test_rejected_without_obligation(self, s1):
        with pytest.raises(OpeningRejected) as exc:
            open_game(s1, {"r1"})
        assert any("obligation" in r for r in exc.value.reasons)

    def test_rejected_without_evidence(self, s1):
        with pytest.raises(OpeningRejected) as exc:
            open_game(s1, {"r4"})
        assert any("not proved evidentially" in r for r in exc.value.reasons)

    def test_unowned_rules(self, s1):
        with pytest.raises(ValueError, match="not in the pr pool"):
            open_game(s1, {"r1", "r6"})

    def test_needs_claim(self, s4):
        with pytest.raises(ValueError, match="no claim"):
            open_game(s4, set())

    def test_empty_opening_allowed_when_common_suffices(self):
        setup = GameSetup(
            facts=frozenset({(EVIDENTIAL, lit("a"))}),
            common_rules=(
                _rule("c1", "a", "b", EVIDENTIAL),
                _rule("c2", "a", "~b", OBLIGATION),
            ),
            pr_rules=(_rule("p1", "a", "q", EVIDENTIAL),),
            def_rules=(),
            claim=Claim((lit("b"),)))
        state = open_game(setup, set())
        assert state.common_ids == {"c1", "c2"}


def _rule(rid, ant, head, mode):
    return Rule(rid, (Antecedent(EVIDENTIAL, lit(ant)),), mode, lit(head))


class TestLegality:
    def test_inert_disclosure_is_illegal(self, s1):
        # without r2 in the open, c is unreachable, so these rules
        # change nothing and cannot name a fresh target
        state = open_game(s1, {"r1", "r4"})
        report = legal_move(state, move(DEF, {"r4a", "r5"},
                                        [(EVIDENTIAL, "b")]))
        assert not report.legal
        assert any("determines nothing new" in r for r in report.reasons)

    def test_effective_disclosure_is_legal(self, s1):
        state = open_game(s1, {"r2", "r3", "r4"})
        report = legal_move(state, move(DEF, {"r4a", "r5"},
                                        [(EVIDENTIAL, "b")]))
        assert report.legal

    def test_turn_order(self, s1):
        state = open_game(s1, {"r1", "r4"})
        report = legal_move(state, move(PR, {"r2"}, [(EVIDENTIAL, "c")]))
        assert not report.legal
        assert any("turn order" in r for r in report.reasons)

    def test_ownership(self, s1):
        state = open_game(s1, {"r1", "r4"})
        report = legal_move(state, move(DEF, {"r2"}, [(EVIDENTIAL, "c")]))
        assert not report.legal
        assert any("ownership" in r for r in report.reasons)

    def test_pass_always_legal(self, s1):
        state = open_game(s1, {"r1", "r4"})
        assert legal_move(state, Move(DEF, frozenset())).legal

    def test_pass_declares_no_targets(self, s1):
        state = open_game(s1, {"r1", "r4"})
        report = legal_move(
            state, Move(DEF, frozenset(), frozenset({(EVIDENTIAL, lit("b"))})))
        assert not report.legal

    def test_non_pass_needs_targets(self, s1):
        state = open_game(s1, {"r2", "r3", "r4"})
        report = legal_move(state, move(DEF, {"r4a", "r5"}))
        assert not report.legal
        assert any("at least one target" in r for r in report.reasons)

    def test_target_unaffected_by_move_is_illegal(self, s1):
        state = open_game(s1, {"r2", "r3", "r4"})
        report = legal_move(state, move(DEF, {"r4a", "r5"},
                                        [(OBLIGATION, "~b")]))
        assert not report.legal

    def test_apply_move_raises(self, s1):
        state = open_game(s1, {"r1", "r4"})
        with pytest.raises(IllegalMove):
            apply_move(state, move(DEF, {"r4a", "r5"}, [(EVIDENTIAL, "b")]))


class TestTermination:
    def test_strict_defence_win(self, s3):
        state = open_game(s3, {"r4"})
        state = apply_move(state, move(DEF, {"r10"}, [(OBLIGATION, "~b")]))
        assert termination_status(state) == DEF_SUCCEEDS

    def test_strict_defence_win_when_prosecution_empties(self, s1):
        state = open_game(s1, {"r1", "r2", "r3", "r4"})
        state = apply_move(
            state, move(DEF, {"r4a", "r5", "r6"}, [(EVIDENTIAL, "b")]))
        assert termination_status(state) == DEF_SUCCEEDS

    def test_strict_prosecution_win_when_defence_empties(self, s2):
        # the whole defence pool lands at once but c stays ambiguous,
        # so the claim survives and nothing is left to answer with
        state = open_game(s2, {"r1", "r4", "r7"})
        state = apply_move(
            state, move(DEF, {"r6", "r7a", "r8"}, [(EVIDENTIAL, "c")]))
        assert termination_status(state) == PR_SUCCEEDS

    def test_ongoing_while_answers_remain(self, s1):
        state = open_game(s1, {"r1", "r4"})
        assert termination_status(state) == ONGOING

    def test_defence_condition_checked_first(self):
        setup = GameSetup(
            facts=frozenset({(EVIDENTIAL, lit("b")),
                             (OBLIGATION, lit("b")),
                             (OBLIGATION, lit("~b"))}),
            common_rules=(), pr_rules=(), def_rules=(),
            claim=Claim((lit("b"),)))
        trace = run_game(setup, [])
        assert trace.outcome == DEF_SUCCEEDS


class TestAdjudication:
    def test_prosecution_wins_stalled_exchange(self, s1):
        trace = run_game(s1, [
            move(PR, {"r1", "r4"}),
            Move(DEF, frozenset()),
            Move(PR, frozenset()),
        ])
        assert trace.outcome == PR_SUCCEEDS

    def test_defence_wins_after_successful_rebuttal(self, s1, fixtures_dir):
        moves = parse_moves(
            (fixtures_dir / "s1_play_b.moves").read_text(encoding="utf-8"))
        trace = run_game(s1, moves)
        assert trace.outcome == DEF_SUCCEEDS

    def test_stalled_when_both_defeated(self):
        # q and its prohibition hang on a support cycle: undetermined
        # forever, so neither goal is reachable from either pool
        setup = GameSetup(
            facts=frozenset({(EVIDENTIAL, lit("a"))}),
            common_rules=(_rule("cy", "q", "q", EVIDENTIAL),
                          _rule("dcy", "q", "~q", OBLIGATION)),
            pr_rules=(_rule("p1", "z", "q", EVIDENTIAL),),
            def_rules=(_rule("d1", "z", "x", EVIDENTIAL),),
            claim=Claim((lit("q"),)))
        state = initial_state(setup)
        assert adjudicate(state) == STALLED

    def test_unprovable_claim_adjudicates_to_defence(self):
        # an untouchable claim literal is vacuously refuted, which is
        # already the defence's goal
        setup = GameSetup(
            facts=frozenset({(EVIDENTIAL, lit("a"))}),
            common_rules=(),
            pr_rules=(_rule("p1", "z", "q", EVIDENTIAL),),
            def_rules=(_rule("d1", "a", "x", EVIDENTIAL),),
            claim=Claim((lit("q"),)))
        state = initial_state(setup)
        assert adjudicate(state) == DEF_SUCCEEDS


class TestRunGame:
    def test_records_and_conclusions(self, s1):
        trace = run_game(s1, [move(PR, {"r1", "r4"})])
        assert trace.outcome == ONGOING
        assert len(trace.records) == 1
        record = trace.records[0]
        assert record.player == PR
        assert record.rule_ids == ("r1", "r4")
        assert (EVIDENTIAL, lit("b")) in record.targets
        assert (OBLIGATION, lit("~b")) in record.targets
        rendered = {e.render() for e in record.newly_determined}
        assert "+d b" in rendered and "+p O ~b" in rendered

    def test_first_move_must_be_pr(self, s1):
        with pytest.raises(IllegalMove, match="opening move belongs to pr"):
            run_game(s1, [Move(DEF, frozenset({"r6"}))])

    def test_opening_rejection_propagates(self, s1):
        with pytest.raises(OpeningRejected):
            run_game(s1, [Move(PR, frozenset({"r1"}))])

    def test_moves_after_end_rejected(self, s3):
        moves = [
            move(PR, {"r4"}),
            move(DEF, {"r10"}, [(OBLIGATION, "~b")]),
            Move(PR, frozenset()),
        ]
        with pytest.raises(IllegalMove, match="already ended"):
            run_game(s3, moves)

    def test_trace_replays_itself(self, s1, fixtures_dir):
        moves = parse_moves(
            (fixtures_dir / "s1_play_b.moves").read_text(encoding="utf-8"))
        trace = run_game(s1, moves)
        again = run_game(s1, trace.moves())
        assert again.outcome == trace.outcome
        assert [r.rule_ids for r in again.records] == \
            [r.rule_ids for r in trace.records]


    def test_each_move_diffs_its_tables_once(self, s1, fixtures_dir,
                                             monkeypatch):
        moves = parse_moves(
            (fixtures_dir / "s1_play_b.moves").read_text(encoding="utf-8"))
        calls = [0]
        original = ConclusionTable.newly_determined

        def counting(self, old):
            calls[0] += 1
            return original(self, old)

        monkeypatch.setattr(ConclusionTable, "newly_determined", counting)
        run_game(s1, moves)
        # the opening and the defence's move; the two passes need none
        assert calls[0] == 2


class TestMovesParsing:
    def test_good_file(self, fixtures_dir):
        moves = parse_moves(
            (fixtures_dir / "s1_play_b.moves").read_text(encoding="utf-8"))
        assert len(moves) == 4
        assert moves[0].rule_ids == {"r2", "r3", "r4"}
        assert moves[1].targets == {(EVIDENTIAL, lit("b"))}
        assert moves[2].is_pass and moves[3].is_pass

    def test_bad_line(self):
        with pytest.raises(ParseFailure):
            parse_moves("pr r1.\n")

    def test_bad_target(self):
        with pytest.raises(ParseFailure):
            parse_moves("pr: r1.\ndef: r5 targets X b.\n")

    def test_targets_required_after_opening(self):
        with pytest.raises(ParseFailure) as exc:
            parse_moves("pr: r1.\ndef: r5.\n")
        assert any("targets clause" in e.message for e in exc.value.errors)

    def test_opening_may_omit_targets(self):
        moves = parse_moves("pr: r1, r4.\n")
        assert moves[0].targets == frozenset()

    def test_targets_inside_a_rule_id_is_not_the_keyword(self):
        moves = parse_moves(
            "pr: r1, mytargets.\ndef: r2, targetsx targets E b.\n")
        assert moves[0].rule_ids == {"r1", "mytargets"}
        assert moves[0].targets == frozenset()
        assert moves[1].rule_ids == {"r2", "targetsx"}
        assert moves[1].targets == {(EVIDENTIAL, lit("b"))}


def _statuses(table, literals):
    return [table.status(tag, mode, literal) for literal in sorted(literals)
            for mode in MODES for tag in TAGS]


@pytest.fixture
def computed(monkeypatch):
    """Every table computed, as (theory, grown, table)."""
    runs = []
    compute = game.compute_conclusions

    def recording(theory, parent=None, added=None):
        table = compute(theory, parent=parent, added=added)
        runs.append((theory, parent is not None, table))
        return table

    monkeypatch.setattr(game, "compute_conclusions", recording)
    return runs


class TestIncrementalTables:
    """A table grown from its one-rule-smaller parent equals the table
    computed in full."""

    def test_requested_tables_equal_full_computation(self, computed, s1, s2,
                                                     s3):
        claimed = [setup for setup in corpus.setups(25)
                   if setup.claim is not None]
        for setup in [s1, s2, s3] + claimed:
            analyze(setup)
            for policy in POLICIES:
                auto_play(setup, policy)
        grown = [run for run in computed if run[1]]
        assert len(grown) > len(computed) // 2
        claims = {literal for setup in [s1, s2, s3] + claimed
                  for literal in setup.claim.literals}
        for theory, _, table in grown:
            full = compute_conclusions(theory)
            assert table == full
            assert _statuses(table, claims) == _statuses(full, claims)

    def test_analyze_grows_all_but_the_first_table(self, computed, s1):
        for setup, grown in ((s1, 50),
                             (corpus.random_setup(273, max_rules=20), 1023)):
            computed.clear()
            analyze(setup)
            assert [run[1] for run in computed] == [False] + [True] * grown

    def test_unknown_rule_id_is_no_parent(self, computed, s1):
        state = initial_state(s1)
        table = state.table_after(frozenset({"nosuchrule"}))
        assert [run[1] for run in computed] == [False, False]
        assert table == state.conclusions

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.booleans(), st.randoms(use_true_random=False))
    def test_any_disclosure_order(self, seed, annotated, rng):
        setup = corpus.random_setup(seed, max_rules=12,
                                    allow_annotations=annotated)
        state = initial_state(setup)
        private = sorted(state.pr_ids | state.def_ids)
        rng.shuffle(private)
        requests = [frozenset(private[:size])
                    for size in range(1, len(private) + 1)]
        requests += [
            frozenset(rng.sample(private, rng.randint(0, len(private))))
            for _ in range(4)]
        claim = setup.claim.literals if setup.claim else ()
        for disclosed in requests:
            full = compute_conclusions(
                setup.theory_for(state.common_ids | disclosed))
            grown = state.table_after(disclosed)
            assert grown == full
            assert _statuses(grown, claim) == _statuses(full, claim)


def _chain_setup(owners, strays, obliged):
    """A claim ``x<n>`` at the end of a chain ``x0 => x1 => ... => x<n>``
    from the fact ``x0``, each link owned by common, pr or def.  Stray
    rules read a chain atom and head a chain atom or one of ``y0``,
    ``y1`` outside it, in either mode and polarity; when ``obliged`` a
    common rule obliges ``~x<n>``."""
    pools = {"common": [], PR: [], DEF: []}

    def add(owner, rid, source, mode, head):
        pools[owner].append(Rule(
            rid, (Antecedent(EVIDENTIAL, lit(f"x{source}")),), mode, head))

    for i, owner in enumerate(owners, start=1):
        add(owner, f"r{i}", i - 1, EVIDENTIAL, lit(f"x{i}"))
    for i, (owner, source, target, mode, positive) in enumerate(strays):
        atom = f"x{target}" if target <= len(owners) else f"y{target % 2}"
        add(owner, f"s{i}", min(source, len(owners)), mode,
            Literal(atom, positive))
    claim = lit(f"x{len(owners)}")
    if obliged:
        add("common", "ob", 0, OBLIGATION, claim.complement())
    return GameSetup(
        facts=frozenset({(EVIDENTIAL, lit("x0"))}),
        common_rules=tuple(pools["common"]), pr_rules=tuple(pools[PR]),
        def_rules=tuple(pools[DEF]), claim=Claim((claim,)))


_OWNERS = st.sampled_from(["common", PR, DEF])
chain_setups = st.builds(
    _chain_setup,
    st.lists(_OWNERS, min_size=1, max_size=5),
    st.lists(st.tuples(_OWNERS, st.integers(0, 5), st.integers(0, 7),
                       st.sampled_from([EVIDENTIAL, OBLIGATION]),
                       st.booleans()),
             max_size=4),
    st.booleans())
corpus_setups = st.builds(
    lambda seed, annotated: corpus.random_setup(
        seed, max_rules=12, allow_annotations=annotated),
    st.integers(min_value=0, max_value=10**6), st.booleans())


class TestClaimSlicing:
    """Claim questions read the table of a key restricted to the common
    rules and the claim's backward cone."""

    def test_cone_follows_the_antecedents_of_common_rules(self):
        # c1 is common and heads the claim; only its antecedent a leads
        # to the private p1, so the cone must be closed through c1
        setup = parse_theory(
            "fact f.\n"
            "rule r0: f =>O ~b.\n"
            "rule c1: a => b.\n"
            "rule p1: f => a.\n"
            "claim: b.\n"
            "game pr: p1.\n")
        assert "p1" in initial_state(setup).tables.keep
        result = analyze(setup)
        assert result.winner == PR
        assert result.minimal_opening == ("p1",)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(chain_setups, corpus_setups),
           st.randoms(use_true_random=False))
    def test_sliced_key_settles_the_claim_alike(self, setup, rng):
        if setup.claim is None:
            return
        state = initial_state(setup)
        private = state.pr_ids | state.def_ids
        if len(private) > 5:
            keys = [frozenset(rng.sample(sorted(private),
                                         rng.randint(0, len(private))))
                    for _ in range(12)]
        else:
            keys = game.subsets(private)
        for disclosed in keys:
            full = state.table_after(disclosed)
            sliced = state.claim_table_after(disclosed)
            assert game.claim_established(full, setup) == \
                game.claim_established(sliced, setup)
            assert game.claim_refuted(full, setup) == \
                game.claim_refuted(sliced, setup)

    @pytest.mark.parametrize("seed", [9, 199])
    def test_analyze_needs_one_table_without_relevant_rules(self, computed,
                                                            seed):
        # seed 273 is pinned at 1024 tables by TestIncrementalTables
        analyze(corpus.random_setup(seed, max_rules=20))
        assert len(computed) == 1

    @pytest.mark.parametrize("seed, keys", [(9, 1), (199, 1), (273, 1024)])
    def test_accepted_openings_test_each_sliced_key_once(self, monkeypatch,
                                                         seed, keys):
        # 2^9, 2^10 and 2^11 openings, walked twice by analyze: once
        # for the game tree and once for the minimal opening
        tested = []
        established = game.claim_established

        def recording(table, setup):
            if sys._getframe(1).f_code.co_name == "accepted_openings":
                tested.append(table)
            return established(table, setup)

        monkeypatch.setattr(game, "claim_established", recording)
        analyze(corpus.random_setup(seed, max_rules=20))
        assert len(tested) == keys
        assert len(set(map(id, tested))) == keys
