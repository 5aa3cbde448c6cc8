import functools
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from trialogic import (
    DEF, DEF_SUCCEEDS, DELTA, EVIDENTIAL, MINUS, MODES, OBLIGATION, ONGOING,
    PLUS, POLICIES, PR, PR_SUCCEEDS, PROVED, REFUTED, STALLED, TAGS,
    UNDETERMINED,
    Antecedent, Claim, ConclusionTable, GameSetup, IllegalMove, Literal, Move,
    OpeningRejected, ParseFailure, Rule, TaggedLiteral,
    adjudicate, analyze, apply_move, auto_play, compute_conclusions, corpus,
    engine, game, initial_state, legal_move, lit, open_game, parse_moves,
    parse_theory, run_game, strategy, termination_status,
)
from trialogic.engine import TheoryIndex

from conftest import (
    established_setup, inert_at_once, load, reference_cone, reference_inert,
    unpruned_rows,
)


# Seeds whose ``established_setup(seed, max_rules=14, deontic_ratio=0.5)``
# claim is established, so that analysis and play search many tables.
SEARCHED_SEEDS = (24, 28, 82, 166)


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


def _state_fields(state):
    return (state.turn, state.common_ids, state.pr_ids, state.def_ids,
            state.consecutive_passes, state.newly_determined)


class TestOpeningMove:
    """At turn 0, ``legal_move`` and ``apply_move`` judge a pr move as
    ``open_game`` judges its rules; declared targets stay optional."""

    def test_every_opening_of_s1_agrees_with_open_game(self, s1):
        start = initial_state(s1)
        openings = list(game.subsets(start.pr_ids))
        assert len(openings) == 16
        accepted = 0
        for opening in openings:
            for targets in ((), [(EVIDENTIAL, "b")]):
                played = move(PR, opening, targets)
                report = legal_move(start, played)
                try:
                    opened = open_game(s1, opening)
                except OpeningRejected as rejected:
                    assert not report.legal
                    assert report.reasons == rejected.reasons
                    with pytest.raises(OpeningRejected) as again:
                        apply_move(start, played)
                    assert again.value.reasons == rejected.reasons
                    continue
                accepted += 1
                assert report == game.LegalityReport(True)
                applied = apply_move(start, played)
                assert _state_fields(applied) == _state_fields(opened)
                assert applied.conclusions == opened.conclusions
        # r4 with r1, or with r2 and r3: five openings, each played
        # with and without a target
        assert accepted == 2 * 5

    def test_opening_that_leaves_a_gap_is_illegal(self, s1):
        report = legal_move(initial_state(s1),
                            move(PR, {"r1"}, [(EVIDENTIAL, "b")]))
        assert not report.legal
        assert report.reasons == ("obligation of ~b is not proved",)

    def test_stray_opening_rules(self, s1):
        start = initial_state(s1)
        opening = move(PR, {"r1", "r4", "r6"})
        reasons = ("ownership: rules not in the mover's private pool: r6",)
        assert legal_move(start, opening).reasons == reasons
        with pytest.raises(IllegalMove) as exc:
            apply_move(start, opening)
        assert (exc.value.turn, exc.value.player, exc.value.reasons) == \
            (0, PR, reasons)

    def test_opening_belongs_to_pr(self, s1):
        report = legal_move(initial_state(s1), move(DEF, {"r6"}))
        assert any("turn order" in r for r in report.reasons)

    def test_opening_targets_outside_the_claim_are_illegal(self, s1):
        # s1's claim b has the conditions E b and O ~b; zz and q are not
        # even atoms of s1, and O b is b in the wrong mode
        start = initial_state(s1)
        opening = move(PR, {"r1", "r4"},
                       [(EVIDENTIAL, "b"), (EVIDENTIAL, "zz"),
                        (OBLIGATION, "q"), (OBLIGATION, "b")])
        reason = ("opening targets outside the claim's conditions: "
                  "E zz, O b, O q",)
        assert legal_move(start, opening).reasons == reason
        with pytest.raises(IllegalMove) as exc:
            apply_move(start, opening)
        assert (exc.value.turn, exc.value.player, exc.value.reasons) == \
            (0, PR, reason)
        with pytest.raises(IllegalMove) as exc:
            run_game(s1, [opening, move(DEF, ()), move(PR, ())])
        assert exc.value.reasons == reason

    def test_opening_may_target_part_of_the_claim(self, s1):
        # the trace keeps the targets the moves declare, and an opening
        # that declares none targets every claim condition
        for targets, recorded in (
                ([(OBLIGATION, "~b")], ((OBLIGATION, lit("~b")),)),
                ((), ((EVIDENTIAL, lit("b")), (OBLIGATION, lit("~b"))))):
            trace = run_game(s1, [move(PR, {"r1", "r4"}, targets)])
            assert trace.records[0].targets == recorded


class TestNoClaim:
    @pytest.mark.parametrize("call", [
        lambda setup: adjudicate(initial_state(setup)),
        lambda setup: termination_status(initial_state(setup)),
        lambda setup: game.claim_established(
            initial_state(setup).conclusions, setup),
        lambda setup: legal_move(initial_state(setup), Move(PR, frozenset())),
        lambda setup: open_game(setup, set()),
        lambda setup: run_game(setup, []),
        lambda setup: analyze(setup),
        lambda setup: auto_play(setup),
        lambda setup: strategy.minimal_winning_opening(setup),
    ])
    def test_every_claim_check_refuses(self, s4, call):
        assert s4.claim is None
        with pytest.raises(ValueError, match="setup has no claim"):
            call(s4)


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

    def test_undetermined_target_is_illegal(self):
        # p is circular in both modes, so no status of p is determined
        setup = parse_theory(
            "fact a.\n"
            "rule loop: p => p.\nrule lo: p =>O p.\n"
            "rule r1: a => b.\nrule r2: a =>O ~b.\nrule d1: a => ~b.\n"
            "claim: b.\n"
            "game common: loop, lo.\ngame pr: r1, r2.\ngame def: d1.\n")
        state = open_game(setup, {"r1", "r2"})
        report = legal_move(state, move(DEF, {"d1"}, [(EVIDENTIAL, "p")]))
        assert report.reasons == (
            "target precondition: p has no determined status in the "
            "current theory",)

    def test_apply_move_raises(self, s1):
        state = open_game(s1, {"r1", "r4"})
        with pytest.raises(IllegalMove):
            apply_move(state, move(DEF, {"r4a", "r5"}, [(EVIDENTIAL, "b")]))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_legal_move_reports_what_apply_move_refuses(self, s1, data):
        # at the start, or after an accepted opening and up to two
        # passes, either player discloses ids of either pool, an unknown
        # id or none, and declares any targets over the setup's literals
        setup = data.draw(st.sampled_from([s1] + _legality_setups()))
        state = initial_state(setup)
        ids = sorted(state.pr_ids | state.def_ids | {"zz9"})
        literals = sorted(state.conclusions.literals) + [lit("zz")]
        openings = list(game.accepted_openings(state))
        if openings and data.draw(st.booleans()):
            state = apply_move(
                state, Move(PR, data.draw(st.sampled_from(openings))))
            for _ in range(data.draw(st.integers(0, 2))):
                state = apply_move(state, Move(state.mover, frozenset()))
        # the player is the mover two times in three, and draws the ids
        # from their own pool half the time
        player = data.draw(st.sampled_from([state.mover, PR, DEF]))
        own = sorted(state.pr_ids if player == PR else state.def_ids)
        pool = data.draw(st.sampled_from([own, ids])) if own else ids
        played = Move(
            player,
            data.draw(st.frozensets(st.sampled_from(pool),
                                    max_size=min(3, len(pool)))),
            data.draw(st.frozensets(
                st.tuples(st.sampled_from(MODES), st.sampled_from(literals)),
                max_size=3)))
        report = legal_move(state, played)
        try:
            apply_move(state, played)
        except (IllegalMove, OpeningRejected) as refused:
            assert not report.legal
            assert report.reasons == refused.reasons
        else:
            assert report.legal


@functools.cache
def _legality_setups():
    """Claimed corpus setups: two whose pr pool establishes no claim,
    and the established claims of SEARCHED_SEEDS, which open."""
    claimed = [setup for setup in corpus.setups(25)
               if setup.claim is not None][:2]
    return claimed + [established_setup(seed, max_rules=14,
                                        deontic_ratio=0.5)
                      for seed in SEARCHED_SEEDS]


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

    def test_stalled_when_both_pools_empty(self):
        # d1 reads the circular p, so it neither beats b nor lets it
        # stand: the claim is neither established nor refuted
        setup = parse_theory(
            "fact a.\n"
            "rule loop: p => p.\nrule r1: a => b.\nrule r2: a =>O ~b.\n"
            "rule d1: p => ~b.\nrule d2: a => q.\n"
            "claim: b.\n"
            "game pr: r1, r2.\ngame def: d1, d2.\n")
        state = apply_move(open_game(setup, {"r1", "r2"}),
                           move(DEF, {"d1", "d2"}, [(EVIDENTIAL, "q")]))
        assert not state.pr_ids and not state.def_ids
        assert termination_status(state) == STALLED
        trace = run_game(setup, parse_moves(
            "pr: r1, r2.\ndef: d1, d2 targets E q.\n"))
        assert len(trace.records) == 2
        assert trace.outcome == STALLED

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
        with pytest.raises(IllegalMove) as exc:
            run_game(s1, [Move(DEF, frozenset({"r6"}))])
        assert exc.value.reasons == ("turn order: it is pr's turn, not def's",)

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


class TestTableCache:
    """Each table the game computes as play goes on is computed once per
    live key, kept by the game's ``_Tables``, and equals the table
    computed in full afresh."""

    def test_requested_tables_equal_full_computation(self, computed, s1, s2,
                                                     s3):
        # most corpus claims no subset of the pr pool can support, so
        # their searches stop at the first table; the established claims
        # of SEARCHED_SEEDS keep the searches going, over many tables
        claimed = [setup for setup in corpus.setups(25)
                   if setup.claim is not None]
        claimed += [established_setup(seed, max_rules=14, deontic_ratio=0.5)
                    for seed in SEARCHED_SEEDS]
        runs = []
        for setup in [s1, s2, s3] + claimed:
            computed.clear()
            analyze(setup)
            for policy in POLICIES:
                auto_play(setup, policy)
            runs += [(setup, run) for run in computed]
        claims = {literal for setup in [s1, s2, s3] + claimed
                  for literal in setup.claim.literals}
        for setup, (_, rule_ids, table) in runs:
            # a fresh index, and a theory compiled afresh
            full = compute_conclusions(
                TheoryIndex(setup.facts, setup.all_rules(),
                            setup.superiority), rule_ids)
            fresh = compute_conclusions(setup.theory_for(rule_ids))
            assert table == full
            assert table == fresh
            assert table.rows() == full.rows()
            assert _statuses(table, claims) == _statuses(full, claims)
            assert _statuses(table, claims) == _statuses(fresh, claims)

    def test_analyze_computes_each_table_once(self, computed, s1):
        # 12 of seed 71's 17 rules are inert, so its 128 keys fold into
        # 2, and none of its private rules lies in the claim's cone, so
        # the search scores its empty opening statically and reads no
        # table but the start's; seed 72 has no inert rule
        for setup, tables in (
                (s1, 15),
                (established_setup(71, max_rules=20, deontic_ratio=0.5), 1),
                (established_setup(72, max_rules=20, deontic_ratio=0.5),
                 128)):
            computed.clear()
            analyze(setup)
            assert len(computed) == tables
            assert len({run.rule_ids for run in computed}) == tables

    def test_greedy_play_computes_each_table_once(self, computed):
        # seed 71's claim cone holds no live private rule, so greedy play
        # reads one table; seed 72 has no inert rule
        for seed, tables in ((71, 1), (72, 159)):
            computed.clear()
            auto_play(established_setup(seed, max_rules=20,
                                        deontic_ratio=0.5))
            assert len(computed) == tables
            assert len({run.rule_ids for run in computed}) == tables

    def test_unknown_rule_id_changes_no_table(self, computed, s1):
        state = initial_state(s1)
        table = state.table_after(frozenset({"nosuchrule"}))
        assert len(computed) == 2
        assert table == state.conclusions

    CACHED = (
        "fact f.\n"
        "rule c1: f => a.\n"
        "rule p1: a => b.\n"
        "rule p2: nowhere => b.\n"
        "rule d1: f => ~b.\n"
        "claim: b.\n"
        "game pr: p1, p2.\n"
        "game def: d1.\n")

    def test_game_keeps_one_table_per_live_key(self, computed):
        # nothing supports nowhere, so p2 is inert
        setup = parse_theory(self.CACHED)
        state = initial_state(setup)
        tables = state.tables
        assert tables.inert == {"p2"}
        table = state.table_after(frozenset({"p1"}))
        assert len(computed) == 2
        # a repeated request, and keys that differ only in inert ids,
        # read the kept table and compute nothing
        assert state.table_after(frozenset({"p1"})) is table
        assert game.conclusions_for({"c1", "p1"}, tables) is table
        assert state.table_after(frozenset({"p1", "p2"})) is table
        assert state.table_after(frozenset({"p2"})) is state.conclusions
        assert len(computed) == 2
        assert tables.tables == {frozenset({"c1"}): state.conclusions,
                                 frozenset({"c1", "p1"}): table}
        assert tables.tables[frozenset({"c1", "p1"})] is table
        assert table == compute_conclusions(
            setup.theory_for({"c1", "p1", "p2"}))

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
            table = state.table_after(disclosed)
            assert table == full
            assert _statuses(table, claim) == _statuses(full, claim)


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
            sliced = game.conclusions_for(
                (state.common_ids | disclosed) & state.tables.keep,
                state.tables)
            assert game.claim_established(full, setup) == \
                game.claim_established(sliced, setup)
            assert game.claim_refuted(full, setup) == \
                game.claim_refuted(sliced, setup)

    @pytest.mark.parametrize("seed", [9, 199])
    def test_analyze_needs_one_table_without_relevant_rules(self, computed,
                                                            seed):
        analyze(corpus.random_setup(seed, max_rules=20))
        assert len(computed) == 1

    @pytest.mark.parametrize("seed, openings, keys",
                             [(2372, 64, 1), (48, 32, 2), (1284, 128, 1)])
    def test_accepted_openings_read_one_table_per_sliced_key(
            self, monkeypatch, seed, openings, keys):
        # walked twice from one start, as analyze walks it once for the
        # game tree and once for the minimal opening; the claim is one
        # the support bound lets through
        read = []
        established = game._Tables.established

        def recording(tables, table):
            if sys._getframe(1).f_code.co_name == "accepted_openings":
                read.append(table)
            return established(tables, table)

        monkeypatch.setattr(game._Tables, "established", recording)
        start = initial_state(established_setup(seed, max_rules=20))
        assert 2 ** len(start.pr_ids) == openings
        list(game.accepted_openings(start))
        first = set(map(id, read))
        assert len(read) == openings
        assert len(first) == keys
        list(game.accepted_openings(start))
        assert len(read) == 2 * openings
        assert set(map(id, read)) == first

    @staticmethod
    def _pruning_setup():
        """pr's p1 alone heads the claim, and ten rules of each pool
        head atoms the claim never reads."""
        return parse_theory(
            "fact f.\n"
            "rule r0: f =>O ~b.\n"
            "rule p1: f => b.\n"
            + "".join(f"rule p{i}: f => y{i}.\n" for i in range(2, 12))
            + "".join(f"rule d{i}: f => x{i}.\n" for i in range(1, 11))
            + "claim: b.\n"
            "game pr: " + ", ".join(f"p{i}" for i in range(1, 12)) + ".\n"
            "game def: " + ", ".join(f"d{i}" for i in range(1, 11)) + ".\n")

    def test_robustness_walks_only_the_kept_pool(self, computed):
        # the start and the opening; walking the whole defence pool
        # would add its 1,023 nonempty rebuttals
        assert strategy.minimal_winning_opening(self._pruning_setup()) \
            == ("p1",)
        assert len(computed) == 2

    def test_greedy_play_screens_coverage_on_sliced_tables(self, computed):
        # the start and the opening: no other candidate raises either
        # side's coverage on its sliced table, which is one of those
        # two; computing each candidate's full table first took 2,048
        trace = auto_play(self._pruning_setup())
        assert [record.rule_ids for record in trace.records] == \
            [("p1",), (), ()]
        assert len(computed) == 2

    def test_adjudication_walks_only_the_kept_pools(self, computed):
        # the current table answers both pools' out-of-cone rules;
        # walking the whole defence pool would compute 1,023 tables
        state = open_game(self._pruning_setup(), {"p1"})
        for player in (DEF, PR):
            state = apply_move(state, Move(player, frozenset()))
        computed.clear()
        assert adjudicate(state) == PR_SUCCEEDS
        assert computed == []


def _with_claim(setup, *literals):
    return replace(setup, claim=Claim(tuple(lit(text) for text in literals)))


# The claim literal ``nowhere`` is one no rule or fact mentions.
_GOAL_SETUPS = (
    [established_setup(seed, max_rules=14, deontic_ratio=0.5)
     for seed in SEARCHED_SEEDS]
    + [setup for setup in corpus.setups(12) if setup.claim is not None]
    + [_with_claim(established_setup(24, max_rules=14, deontic_ratio=0.5),
                   *claim)
       for claim in (("nowhere",), ("~nowhere", "a"))]
    + [_with_claim(load("s1.ddt"), "b", "nowhere"),
       _with_claim(load("s2.ddt"), "~nowhere")])


class TestCompiledGoals:
    """Each player's goal, compiled once per game into keys over the
    game's index, reads every table the game reaches as the public claim
    checks and the per-condition counts read it."""

    @pytest.mark.parametrize("setup", _GOAL_SETUPS)
    def test_keys_read_as_the_claim_checks(self, monkeypatch, setup):
        starts = []
        start_of = strategy.initial_state

        def recording(setup):
            starts.append(start_of(setup))
            return starts[-1]

        monkeypatch.setattr(strategy, "initial_state", recording)
        analyze(setup)
        for policy in POLICIES:
            auto_play(setup, policy)
        # every table of the game, full and sliced, is kept by its
        # _Tables
        reached = [(start.tables, table) for start in starts
                   for table in start.tables.tables.values()]
        assert len(starts) == 3
        assert reached
        for tables, table in reached:
            assert tables.established(table) == \
                game.claim_established(table, setup)
            assert tables.refuted(table) == game.claim_refuted(table, setup)
            for player in (PR, DEF):
                assert tables.met(table, player) == sum(
                    table.derived(*condition)
                    for condition in game.claim_conditions(setup, player))

    def test_literal_no_rule_mentions_is_refuted(self, s1):
        # the opening r1, r4 establishes b and leaves it unrefuted;
        # nowhere reads as refuted at every tag in both modes
        met = []
        for claim in (("b",), ("b", "nowhere")):
            start = initial_state(_with_claim(s1, *claim))
            table = start.table_after(frozenset({"r1", "r4"}))
            tables = start.tables
            met.append((tables.established(table), tables.refuted(table),
                        tables.met(table, PR), tables.met(table, DEF)))
        assert met == [(True, False, 2, 0), (False, True, 2, 2)]


_ATOMS = ("a", "b", "c")
_LITERALS = st.builds(Literal, st.sampled_from(_ATOMS), st.booleans())
_CELLS = st.tuples(st.sampled_from([EVIDENTIAL, OBLIGATION]), _LITERALS)
_ANTECEDENTS = st.builds(
    lambda cell, note: Antecedent(*cell, *note), _CELLS,
    st.one_of(st.just(()), st.tuples(st.sampled_from(["+", "-"]),
                                      st.sampled_from(TAGS))))


@st.composite
def support_setups(draw):
    """Small setups over three atoms: evidential and obligation facts,
    annotated antecedents of either sign, rules of every owner and
    superiority between conflicting rules."""
    pools = {"common": [], PR: [], DEF: []}
    rules = []
    for index in range(draw(st.integers(1, 7))):
        rule = Rule(f"r{index}",
                    tuple(draw(st.lists(_ANTECEDENTS, min_size=1,
                                        max_size=2))),
                    *draw(_CELLS))
        rules.append(rule)
        pools[draw(st.sampled_from(list(pools)))].append(rule)
    superiority = {
        (first.id, second.id)
        for first in rules for second in rules
        if first.head_mode == second.head_mode
        and first.head == second.head.complement()
        and first.id < second.id and draw(st.booleans())}
    return GameSetup(
        facts=frozenset(draw(st.lists(_CELLS, max_size=3))),
        common_rules=tuple(pools["common"]), pr_rules=tuple(pools[PR]),
        def_rules=tuple(pools[DEF]), superiority=frozenset(superiority),
        claim=Claim((draw(_LITERALS),)),
        evidential_standard=draw(st.sampled_from(TAGS)),
        deontic_standard=draw(st.sampled_from(TAGS[:2])))


def _reference_supportable(setup, keep, rule_ids):
    """``game._Tables.supportable`` over Rule objects: the Horn closure of
    cells (mode, literal) from the facts under the kept rules of
    ``rule_ids``, a ``-t`` antecedent counting as met."""
    rules = setup.rule_by_id()
    cells = set(setup.facts)
    pending = [rules[rule_id] for rule_id in rule_ids & keep]
    grew = True
    while grew:
        grew = False
        for rule in pending:
            head = (rule.head_mode, rule.head)
            if head not in cells and all(
                    ant.sign == MINUS or (ant.mode, ant.literal) in cells
                    for ant in rule.antecedents):
                cells.add(head)
                grew = True
    return all((mode, literal) in cells
               for _, _, mode, literal in game.claim_conditions(setup, PR))


def _reference_inert(setup):
    """``game._Tables.inert`` over Rule objects: the ids of which every
    rule is inert (``reference_inert``)."""
    rules = setup.all_rules()
    inert = reference_inert(setup.facts, rules)
    return frozenset(rule.id for rule in rules) - {
        rule.id for r, rule in enumerate(rules) if r not in inert}


class TestIndexWalks:
    """The claim cone, the inert rules and the support bound, walked over
    the cells and rule positions of the game's index, agree with the
    same walks written out over Rule objects, and ``engine.cone``, which
    ``cone_index`` walks over Rule objects, agrees with them too."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(support_setups(), chain_setups, corpus_setups),
           st.randoms(use_true_random=False))
    def test_walks_agree_with_the_rule_level_references(self, setup, rng):
        # every literal the setup mentions, and one it does not, in
        # turn as the claim; the kept rules are the claim cone over the
        # live rules, since a rule that reaches a claim cell only through
        # an inert rule cannot move it
        common = {rule.id for rule in setup.common_rules}
        inert = _reference_inert(setup)
        dead = reference_inert(setup.facts, setup.all_rules())
        live = [rule for r, rule in enumerate(setup.all_rules())
                if r not in dead]
        first = inert_at_once(setup.facts, setup.all_rules())
        at_once = [rule for r, rule in enumerate(setup.all_rules())
                   if r not in first]
        ids = sorted({rule.id for rule in setup.all_rules()})
        id_sets = [frozenset(ids)] + [
            frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            for _ in range(4)]
        for literal in _union_literals(setup):
            claimed = replace(setup, claim=Claim((literal,)))
            tables = game._Tables(claimed)
            cells = [(mode, literal.atom) for mode in MODES]
            # over every rule engine.cone skips the rules inert at once;
            # over the live rules none is, and it walks the game's cone
            live_cone = reference_cone(live, cells)
            assert {rule.id for rule in engine.cone(
                setup.facts, setup.all_rules(), cells)} == \
                reference_cone(at_once, cells)
            assert {rule.id for rule in engine.cone(
                setup.facts, live, cells)} == live_cone
            assert tables.inert == inert
            assert tables.keep == (live_cone | common) - inert
            for rule_ids in id_sets:
                assert tables.supportable(rule_ids) == \
                    _reference_supportable(claimed, tables.keep, rule_ids)


class TestClaimMemos:
    """``_Tables`` counts each (table, player) and closes each kept key
    of the support bound once per game, and answers every repeat from
    its memos as a fresh read of the table or of the rules would."""

    @pytest.mark.parametrize("setup", [
        load("s2.ddt"),
        established_setup(463, max_rules=26, deontic_ratio=0.5)],
        ids=["s2", "corpus-463"])
    def test_analyze_counts_each_table_and_closes_each_key_once(
            self, monkeypatch, setup):
        # every asked table and _Tables is kept in the lists, so no id
        # is reused while they are compared
        asked, counted, bounded, closed = [], [], [], []
        met, holding = game._Tables.met, ConclusionTable.holding
        supportable, closes = game._Tables.supportable, game._Tables._closes

        def asking(tables, table, player):
            asked.append((tables, table, player))
            return met(tables, table, player)

        def counting(table, keys):
            counted.append(table)
            return holding(table, keys)

        def bounding(tables, rule_ids):
            bounded.append((tables, rule_ids & tables.keep))
            return supportable(tables, rule_ids)

        def closing(tables, kept):
            closed.append((tables, kept))
            return closes(tables, kept)

        monkeypatch.setattr(game._Tables, "met", asking)
        monkeypatch.setattr(ConclusionTable, "holding", counting)
        monkeypatch.setattr(game._Tables, "supportable", bounding)
        monkeypatch.setattr(game._Tables, "_closes", closing)
        analyze(setup)
        pairs = {(id(tables), id(table), player)
                 for tables, table, player in asked}
        keys = {(id(tables), kept) for tables, kept in bounded}
        assert len(asked) > len(pairs)
        assert len(counted) == len(pairs)
        assert len(bounded) > len(keys)
        assert len(closed) == len(keys)
        assert {(id(tables), kept) for tables, kept in closed} == keys

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(support_setups(), chain_setups, corpus_setups),
           st.randoms(use_true_random=False))
    def test_goal_keys_are_the_cells_of_the_claim_conditions(self, setup,
                                                              rng):
        # _goal reaches the other cells of an atom by flipping bits; the
        # reference asks the index for each condition's own cell, in
        # claim_conditions order, a literal it does not number included
        claimed = replace(
            setup, claim=Claim(tuple(rng.sample(_union_literals(setup), 2))),
            evidential_standard=rng.choice(TAGS),
            deontic_standard=rng.choice(TAGS[:2]))  # delta or partial
        tables = game._Tables(claimed)
        index, goals = tables.index, tables.goals
        for player in (PR, DEF):
            conditions = list(game.claim_conditions(claimed, player))
            cells = [index.cell(mode, literal)
                     for _, _, mode, literal in conditions]
            keys = tuple((cell, TAGS.index(tag),
                          PROVED if sign == PLUS else REFUTED)
                         for cell, (sign, tag, _, _) in zip(cells, conditions)
                         if cell is not None)
            fixed = sum(cell is None and sign == MINUS
                        for cell, (sign, _, _, _) in zip(cells, conditions))
            assert goals[player] == (keys, fixed, len(conditions))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(support_setups(), chain_setups, corpus_setups),
           st.randoms(use_true_random=False))
    def test_repeated_questions_answer_as_fresh_reads(self, setup, rng):
        literals = _union_literals(setup)
        claims = [Claim((rng.choice(literals),)),
                  Claim(tuple(rng.sample(literals, 2)))]
        if setup.claim is not None:
            claims.append(setup.claim)
        for claim in claims:
            claimed = replace(setup, claim=claim)
            tables = game._Tables(claimed)
            ids = sorted(tables.index.positions)
            keys = [frozenset(ids)] + [
                frozenset(rng.sample(ids, rng.randint(0, len(ids))))
                for _ in range(3)]
            reached = [game.conclusions_for(key, tables) for key in keys]
            reached += [tables.sliced(key) for key in keys]
            questions = [("supportable", key) for key in keys]
            for table in reached:
                questions += [("established", table), ("refuted", table)]
                questions += [("met", table, player) for player in (PR, DEF)]
            questions *= 3
            rng.shuffle(questions)
            for question in questions:
                if question[0] == "supportable":
                    assert tables.supportable(question[1]) == \
                        _reference_supportable(claimed, tables.keep,
                                               question[1])
                elif question[0] == "met":
                    _, table, player = question
                    goal, fixed, _ = tables.goals[player]
                    assert tables.met(table, player) == \
                        fixed + table.holding(goal) == sum(
                            table.derived(*condition) for condition
                            in game.claim_conditions(claimed, player))
                elif question[0] == "established":
                    assert tables.established(question[1]) == \
                        game.claim_established(question[1], claimed)
                else:
                    assert tables.refuted(question[1]) == \
                        game.claim_refuted(question[1], claimed)


class TestInertRules:
    """A rule that can never fire leaves every table as it is, so the
    game keys its tables without the inert rules."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(corpus_setups, chain_setups, support_setups()),
           st.randoms(use_true_random=False))
    def test_inert_rules_leave_every_table(self, setup, rng):
        inert = game._Tables(setup).inert
        ids = sorted({rule.id for rule in setup.all_rules()})
        keys = [frozenset(ids)] + [
            frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            for _ in range(3)]
        for key in keys:
            # each table on a fresh index, away from the game's tables
            with_inert, without = (
                compute_conclusions(TheoryIndex(
                    setup.facts, setup.all_rules(), setup.superiority),
                    rule_ids).rows()
                for rule_ids in (key, key - inert))
            assert with_inert == without
            # and both are the fixpoint of every rule of the key
            assert with_inert == unpruned_rows(
                setup.facts, setup.all_rules(), setup.superiority, key)

    @staticmethod
    def _inert_of(setup):
        inert = game._Tables(setup).inert
        assert inert == _reference_inert(setup)
        return inert

    def test_negative_antecedent_on_a_fact(self):
        # -d a can never hold once a is a fact; -d x holds, since no
        # rule and no fact supports x
        setup = parse_theory(
            "fact a.\n"
            "fact f.\n"
            "rule r1: -d a => b.\n"
            "rule r2: -d x => b.\n"
            "rule r3: f => c.\n")
        assert self._inert_of(setup) == {"r1"}

    def test_dead_cells_kill_the_rules_that_read_them(self):
        # nothing heads E x, so r1 is inert, then E y, then r2, then
        # E z, then r3; r4 heads O x, another cell
        setup = parse_theory(
            "fact f.\n"
            "rule r1: x => y.\n"
            "rule r2: y, f => z.\n"
            "rule r3: +s z => w.\n"
            "rule r4: f =>O x.\n")
        assert self._inert_of(setup) == {"r1", "r2", "r3"}

    def test_a_cell_that_dies_later_keeps_its_negative_readers(self):
        # E y is supported, so r2 and r3 are live at once; r1 reads the
        # dead x, then E y dies, which kills r3 (it wants y proved) but
        # not r2, which reads y only as -d and is met by the dead y
        setup = parse_theory(
            "fact f.\n"
            "rule r1: x => y.\n"
            "rule r2: -d y, f => z.\n"
            "rule r3: -d y, y => w.\n")
        assert self._inert_of(setup) == {"r1", "r3"}
        index = game._Tables(setup).index
        r2 = index.positions["r2"]
        assert index.readers[index.cell(EVIDENTIAL, lit("y"))] == r2
        assert compute_conclusions(index).status(
            DELTA, EVIDENTIAL, lit("z")) == PROVED

    def test_self_support_is_not_inert(self):
        # p => p leaves p undetermined, so it is not refuted and the rule
        # is live; q => p reads a dead q
        setup = parse_theory("rule r1: p => p.\nrule r2: q => p.\n")
        assert self._inert_of(setup) == {"r2"}
        table = compute_conclusions(setup.union_theory())
        assert [table.status(tag, EVIDENTIAL, lit("p")) for tag in TAGS] \
            == [UNDETERMINED] * len(TAGS)

    def test_an_id_is_inert_only_at_every_position(self):
        # r1 reads the dead x at one position and the fact f at the
        # other; both positions of r2 read dead cells
        f, x = lit("f"), lit("x")

        def rule(rule_id, source, head):
            return Rule(rule_id, (Antecedent(EVIDENTIAL, source),),
                        EVIDENTIAL, lit(head))

        setup = GameSetup(
            facts=frozenset({(EVIDENTIAL, f)}),
            common_rules=(rule("r1", x, "b"), rule("r1", f, "c"),
                          rule("r2", x, "d"), rule("r2", lit("y"), "e")),
            pr_rules=(), def_rules=())
        assert self._inert_of(setup) == {"r2"}
        index = TheoryIndex(setup.facts, setup.all_rules())
        assert compute_conclusions(index, {"r1", "r2"}).rows() == \
            compute_conclusions(index, {"r1"}).rows()

    @pytest.mark.parametrize("seed, inert, tables",
                             [(291, 23, 2), (463, 12, 35), (71, 12, 1),
                              (162, 0, 517)])
    def test_analyze_computes_one_table_per_live_key(self, computed, seed,
                                                     inert, tables):
        setup = established_setup(seed, max_rules=26, deontic_ratio=0.5)
        assert len(game._Tables(setup).inert) == inert
        analyze(setup)
        assert len(computed) == tables


class TestSupportBound:
    """When the kept rules of the common and pr pools cannot reach a pr
    claim cell from the facts, no opening establishes the claim."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(support_setups(), corpus_setups))
    def test_unsupportable_claim_has_no_accepted_opening(self, setup):
        if setup.claim is None:
            return
        start = initial_state(setup)
        if start.tables.supportable(start.common_ids | start.pr_ids):
            return
        assert not any(
            game.claim_established(start.table_after(opening), setup)
            for opening in game.subsets(start.pr_ids))

    def test_negative_antecedent_counts_as_supported(self):
        # ~x has no support at all, so -delta E x holds and p1 applies
        setup = parse_theory(
            "fact f.\n"
            "fact O ~b.\n"
            "rule p1: f, -d x => b.\n"
            "claim: b.\n"
            "game pr: p1.\n")
        start = initial_state(setup)
        assert start.tables.supportable(start.pr_ids)
        assert list(game.accepted_openings(start)) == [frozenset({"p1"})]

    def test_analyze_of_unsupportable_claim_computes_one_table(
            self, computed):
        # 2^11 openings, none of which the bound lets through
        setup = corpus.random_setup(273, max_rules=20)
        start = initial_state(setup)
        assert len(start.pr_ids) == 11
        assert not start.tables.supportable(start.common_ids | start.pr_ids)
        computed.clear()
        assert analyze(setup).minimal_opening is None
        assert len(computed) == 1


# (seed, annotated) pairs whose ``established_setup(seed, max_rules=14,
# deontic_ratio=0.5, allow_annotations=annotated)`` accepts some but not
# every opening, or has pr rules outside the kept ones; few corpus and
# support setups accept any opening.
_OPENING_SEEDS = ((24, False), (28, False), (166, False), (212, False),
                  (216, False), (252, False), (259, False), (275, False),
                  (386, False), (37, True), (138, True), (164, True),
                  (185, True))
opening_setups = st.sampled_from(_OPENING_SEEDS).map(
    lambda pair: established_setup(pair[0], max_rules=14, deontic_ratio=0.5,
                                   allow_annotations=pair[1]))


class TestAcceptedOpenings:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(support_setups(), corpus_setups, opening_setups))
    def test_accepted_openings_are_the_subsets_open_game_accepts(self,
                                                                 setup):
        # each opening opened on its own start, so on full tables of a
        # fresh index, with no slicing and no support bound
        if setup.claim is None:
            return
        start = initial_state(setup)
        accepted = []
        for opening in game.subsets(start.pr_ids):
            try:
                open_game(setup, opening)
            except OpeningRejected:
                continue
            accepted.append(opening)
        assert list(game.accepted_openings(start)) == accepted


def _union_literals(setup):
    """Every literal the union theory mentions, their complements, and
    one literal no setup here mentions."""
    literals = {literal for _, literal in setup.facts}
    for rule in setup.all_rules():
        literals.add(rule.head)
        literals.update(ant.literal for ant in rule.antecedents)
    literals |= {literal.complement() for literal in literals}
    return sorted(literals | {lit("zz")})


def _assert_same_table(table, fresh, literals):
    """``table``, over the whole setup's index, has a row for every
    literal of the setup; ``fresh`` numbers only the literals of its own
    theory.  Their rows are equal, and every other row is refuted."""
    assert table == fresh
    assert fresh == table
    rows = table.rows()
    assert [row for row in rows if row[0] in fresh.literals] == fresh.rows()
    assert all(status == REFUTED for literal, _, _, status in rows
               if literal not in fresh.literals)
    assert fresh.literals <= table.literals
    for literal in literals:
        assert table.is_determined(literal) == fresh.is_determined(literal)
    assert _statuses(table, literals) == _statuses(fresh, literals)


class TestIndexParity:
    """A game table, a rule mask over the index the game compiles once,
    equals the table computed afresh from the theory its key induces."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(support_setups(), corpus_setups, chain_setups),
           st.randoms(use_true_random=False))
    def test_game_tables_equal_fresh_theories(self, setup, rng):
        tables = initial_state(setup).tables
        ids = sorted(tables.index.positions)
        literals = _union_literals(setup)
        keys = []
        for _ in range(3):
            key = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
            if rng.random() < 0.5:
                key |= {"nosuchrule"}
            keys.append(key)
            # one rule at a time, so that each table adds one rule to the
            # last
            for rule_id in rng.sample(ids, min(3, len(ids))):
                key |= {rule_id}
                keys.append(key)
        pairs = []
        for key in keys:
            table = game.conclusions_for(key, tables)
            fresh = compute_conclusions(setup.theory_for(key))
            _assert_same_table(table, fresh, literals)
            pairs.append((table, fresh))
        for (old, old_fresh), (new, new_fresh) in zip(pairs, pairs[1:]):
            expected = new_fresh.newly_determined(old_fresh)
            assert new.newly_determined(old) == expected
            assert new.newly_determined(old_fresh) == expected
            assert new_fresh.newly_determined(old) == expected

    SETUP = (
        "fact f.\n"
        "rule c1: f => a.\n"
        "rule p1: a => zz.\n"
        "rule d1: +s zz =>O ~a.\n"
        "sup d1 > p1.\n"
        "claim: a.\n"
        "game pr: p1.\n"
        "game def: d1.\n")

    def test_literal_only_an_inactive_rule_mentions_is_refuted(self):
        setup = parse_theory(self.SETUP)
        state = initial_state(setup)
        table = state.conclusions
        zz = lit("zz")
        assert zz in table.literals
        assert [row for row in table.rows() if row[0] == zz] == [
            (zz, mode, tag, REFUTED) for mode in MODES for tag in TAGS]
        assert table.status(DELTA, EVIDENTIAL, zz) == REFUTED
        assert table.is_determined(zz)
        _assert_same_table(table, compute_conclusions(
            setup.theory_for({"c1"})), _union_literals(setup))
        after = state.table_after(frozenset({"p1"}))
        assert zz in after.literals
        fresh = compute_conclusions(setup.theory_for({"c1", "p1"}))
        _assert_same_table(after, fresh, _union_literals(setup))
        assert after.newly_determined(table) == fresh.newly_determined(
            compute_conclusions(setup.theory_for({"c1"})))
        assert TaggedLiteral(PLUS, DELTA, EVIDENTIAL, zz) in \
            after.newly_determined(table)

    def test_id_that_names_no_rule_is_ignored(self):
        setup = parse_theory(self.SETUP)
        tables = initial_state(setup).tables
        for key in ({"nosuchrule"}, {"c1", "nosuchrule"},
                    {"c1", "p1", "d1", "nosuchrule"}):
            _assert_same_table(
                game.conclusions_for(key, tables),
                compute_conclusions(setup.theory_for(key)),
                _union_literals(setup))
