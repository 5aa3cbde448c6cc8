"""Write ``expected.json``: the item pools and the expected records.

    python3 bench/make_expected.py

Run it from the root of the repository.  It records what the program at
the current commit computes, so run it only when the benchmark's inputs
change, never to make a changed program pass.  Pools are ordered by the
number of calls each item makes, which the same program repeats exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Buckets per stratum, items per bucket, and the pool each stratum's
# buckets are cut from.  A pool several times the size of the buckets
# keeps the items of one bucket close in cost.
QUERY_BUCKETS, QUERY_BUCKET_SIZE, QUERY_POOL = 60, 4, 1200
ANALYSIS_GROUPS = ((4, 5, 6), (7, 8))
ANALYSIS_BUCKETS, ANALYSIS_BUCKET_SIZE, ANALYSIS_POOL = 20, 3, 200
PLAY_GROUPS = ((2, 3, 4), (5, 6), (7, 8))
PLAY_BUCKETS, PLAY_BUCKET_SIZE, PLAY_POOL = 20, 3, 120
SCAN_LIMIT = 60000


def cost(fn) -> int:
    """Python and builtin calls made by ``fn()``: a measure of its work
    that, unlike a timing, is the same on every run."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def buckets(entries: list, costs: list[int], count: int,
            size: int) -> list[list]:
    """``count`` buckets of ``size`` entries next to each other in cost,
    centred on evenly spaced quantiles of the pool's costs."""
    ordered = [entry for _, entry in sorted(zip(costs, entries),
                                            key=lambda pair: pair[0])]
    if len(ordered) < count * size:
        raise SystemExit(f"a pool of {len(ordered)} cannot fill "
                         f"{count} buckets of {size}")
    out = []
    for index in range(count):
        centre = int((index + 0.5) * len(ordered) / count)
        start = min(max(centre - size // 2, 0), len(ordered) - size)
        out.append(ordered[start:start + size])
    return out


def normal(record):
    return json.loads(json.dumps(record))


def queries(T) -> dict:
    work = W.Queries()
    strata, records = {}, {}
    for cls, params in W.QUERY_CLASSES.items():
        seeds = list(range(QUERY_POOL))
        costs = []
        for seed in seeds:
            theory = T.corpus.random_theory(seed, **params)
            arg = (theory, W.query_literal(theory, seed), None)
            costs.append(cost(lambda: work.run(T, arg)))
        strata[cls] = buckets(seeds, costs, QUERY_BUCKETS, QUERY_BUCKET_SIZE)
        for bucket in strata[cls]:
            for seed in bucket:
                theory = T.corpus.random_theory(seed, **params)
                arg = (theory, W.query_literal(theory, seed), None)
                records[f"{cls}:{seed}"] = normal(
                    work.record(arg, work.run(T, arg)))
    for n in W.CHAIN_LENGTHS:
        arg = W.reverse_chain(T, n, random.Random(n))
        records[f"chain:{n}"] = normal(work.record(arg, work.run(T, arg)))
    return {"strata": strata, "records": records}


def game_pools(T):
    """Scan corpus seeds for setups with an established claim until every
    analysis and play stratum is full."""
    analysis_need, play_need = ANALYSIS_POOL, PLAY_POOL
    analysis = {group: [] for group in ANALYSIS_GROUPS}
    play = {group: [] for group in PLAY_GROUPS}
    for seed in range(SCAN_LIMIT):
        if all(len(v) >= analysis_need for v in analysis.values()) and all(
                len(v) >= play_need for v in play.values()):
            break
        claim = W.established_claim(T, seed)
        if claim is None:
            continue
        setup = W.game_setup(T, seed, claim)
        private = len(setup.pr_rules) + len(setup.def_rules)
        group = next((g for g in ANALYSIS_GROUPS if private in g), None)
        if group and len(analysis[group]) < analysis_need:
            analysis[group].append([seed, claim])
        group = next((g for g in PLAY_GROUPS if private in g), None)
        if group and len(play[group]) < play_need and all(
                T.strategy.auto_play(setup, policy).records
                for policy in T.strategy.POLICIES):
            play[group].append([seed, claim])
    else:
        raise SystemExit(f"fewer game setups than needed in {SCAN_LIMIT} seeds")
    return analysis, play


def analysis(T, pool: dict) -> dict:
    work = W.Analysis()
    strata, records = {}, {}
    fixed = work.build(T, ROOT, random.Random(0), {"strata": {}})
    for item in fixed:
        records[item.key] = normal(work.record(item.arg, work.run(T, item.arg)))
    for group, entries in pool.items():
        setups = [W.game_setup(T, seed, claim) for seed, claim in entries]
        costs = [cost(lambda: work.run(T, setup)) for setup in setups]
        chosen = buckets(entries, costs, ANALYSIS_BUCKETS,
                         ANALYSIS_BUCKET_SIZE)
        strata["private" + "-".join(map(str, group))] = chosen
        for bucket in chosen:
            for seed, claim in bucket:
                setup = W.game_setup(T, seed, claim)
                records[f"game:{seed}"] = normal(
                    work.record(setup, work.run(T, setup)))
    return {"strata": strata, "records": records}


def play(T, pool: dict) -> dict:
    work = W.Play()
    strata, records = {}, {}
    for group, entries in pool.items():
        texts = [T.dsl.serialize_theory(W.game_setup(T, seed, claim))
                 for seed, claim in entries]
        costs = [cost(lambda: work.run(T, text)) for text in texts]
        chosen = buckets(list(zip(entries, texts)), costs, PLAY_BUCKETS,
                         PLAY_BUCKET_SIZE)
        strata["private" + "-".join(map(str, group))] = [
            [entry for entry, _ in bucket] for bucket in chosen]
        for bucket in chosen:
            for (seed, _), text in bucket:
                records[f"game:{seed}"] = normal(
                    work.record(text, work.run(T, text)))
    return {"strata": strata, "records": records}


def cli(T) -> dict:
    """Every alternative of every slot, run through the CLI in-process."""
    records = {}
    for path in sorted((ROOT / W.FIXTURES).glob("*.ddt")):
        setup = T.dsl.parse_theory(path.read_text(encoding="utf-8"))
        for slot in W.cli_slots(path.name, setup):
            for argv in slot:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = T.cli.run(argv)
                records[" ".join(argv)] = normal(
                    W.cli_answer(argv, code, out.getvalue()))
    return {"records": records}


def main() -> None:
    os.chdir(ROOT)
    T = W.load_program(ROOT)
    analysis_pool, play_pool = game_pools(T)
    expected = {
        "queries": queries(T),
        "analysis": analysis(T, analysis_pool),
        "play": play(T, play_pool),
        "cli": cli(T),
    }
    (HERE / "expected.json").write_text(
        json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
