"""Write ``game_record.json``: what analysis and play give on a fixed
corpus of game setups, and the rows of a fixed corpus of tables.

    PYTHONPATH=src python3 tests/make_game_record.py

Run it from the root of the repository.  It records what the program at
the current commit computes, so run it only when an output is meant to
change, never to make a changed program pass; ``test_game_record.py``
replays the record.

``setups`` maps a label to one entry per claimed setup: ``winner`` and
``minimal_opening`` of ``analyze``, its ``states_explored``, and one
sha256 over both ``auto_play`` policies' traces.  A trace contributes
its outcome, each record's player, rules, targets and newly determined
conclusions, and the statuses of its initial table and of each record's
table.  Statuses are read through ``ConclusionTable.status`` over the
setup's own literal set: every literal its union theory mentions, its
claim literals and their complements.  So the digest does not depend on
which literals a table lists in ``rows()``, only on what it answers.

A label names how its setup is built (see ``build``):

* ``plain:S`` and ``annotated:S``: ``random_setup(S)`` and
  ``random_setup(S, allow_annotations=True)`` for the seeds 0-299 that
  draw a claim;
* ``large:S``: ``random_setup(S, max_rules=20)`` for S in 9, 199, 273;
* ``analysis:S:C`` and ``play:S:C``: the benchmark pools of
  ``bench/expected.json``, ``random_setup(S, max_rules=14,
  deontic_ratio=0.5)`` with the claim replaced by the literal C.

``tables`` holds the ``rows()`` of the one-shot table of 13,000 corpus
theories: seeds 0-999 of each class in ``TABLE_CLASSES``, each with and
without its superiority, and seeds 0-999 of stratified theories.  It
maps a class and variant to ``STRIDE`` digests, one per seed residue.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from trialogic import (
    MODES, POLICIES, TAGS, Claim, DefeasibleTheory, analyze, auto_play,
    compute_conclusions, lit,
)
from trialogic.corpus import random_setup, random_theory
from trialogic.model import literal_sort_key

HERE = Path(__file__).resolve().parent
RECORD = HERE / "game_record.json"
BENCH_POOLS = HERE.parent / "bench" / "expected.json"

CORPUS_SEEDS = range(300)
LARGE_SEEDS = (9, 199, 273)
POOL_ARGS = dict(max_rules=14, deontic_ratio=0.5)

TABLE_SEEDS = range(1000)
# class name -> (random_theory arguments, variants): "sup" is the theory
# as drawn, "bare" the same theory with its superiority stripped.
TABLE_CLASSES = {
    f"{atoms}x{rules}{'-annotated' if annotated else ''}": (dict(
        max_atoms=atoms, max_rules=rules, allow_annotations=annotated),
        ("sup", "bare"))
    for atoms, rules in ((10, 14), (16, 40), (16, 100))
    for annotated in (False, True)
}
TABLE_CLASSES["stratified"] = (
    dict(allow_superiority=False, stratified=True), ("sup",))
# The replay checks one part in STRIDE of the tables: the seeds of
# residue 0.
STRIDE = 4


def build(label: str):
    """The setup a label names."""
    kind, seed, *claim = label.split(":")
    seed = int(seed)
    if kind == "plain":
        return random_setup(seed)
    if kind == "annotated":
        return random_setup(seed, allow_annotations=True)
    if kind == "large":
        return random_setup(seed, max_rules=20)
    setup = random_setup(seed, **POOL_ARGS)
    return replace(setup, claim=Claim((lit(claim[0]),)))


def labels() -> list[str]:
    out = []
    for kind in ("plain", "annotated"):
        out += [f"{kind}:{seed}" for seed in CORPUS_SEEDS
                if build(f"{kind}:{seed}").claim is not None]
    out += [f"large:{seed}" for seed in LARGE_SEEDS]
    pools = json.loads(BENCH_POOLS.read_text(encoding="utf-8"))
    for workload in ("analysis", "play"):
        out += [f"{workload}:{seed}:{claim}"
                for buckets in pools[workload]["strata"].values()
                for bucket in buckets for seed, claim in bucket]
    return out


def setup_literals(setup) -> list:
    """Every literal the union theory mentions, the claim literals, and
    their complements, in ``literal_sort_key`` order."""
    literals = {literal for _, literal in setup.facts}
    for rule in setup.all_rules():
        literals.add(rule.head)
        literals.update(ant.literal for ant in rule.antecedents)
    literals.update(setup.claim.literals)
    literals.update([literal.complement() for literal in literals])
    return sorted(literals, key=literal_sort_key)


def statuses(table, literals) -> str:
    return " ".join(
        "".join(table.status(tag, mode, literal)[0]
                for mode in MODES for tag in TAGS)
        for literal in literals)


def trace_lines(trace, literals):
    yield trace.outcome
    yield statuses(trace.initial_conclusions, literals)
    for record in trace.records:
        yield " ".join((record.player, ",".join(record.rule_ids)))
        yield " ".join(f"{mode}:{literal}" for mode, literal in record.targets)
        yield " ".join(entry.render() for entry in record.newly_determined)
        yield statuses(record.conclusions, literals)


def play_digest(setup) -> str:
    literals = setup_literals(setup)
    h = hashlib.sha256()
    for policy in POLICIES:
        h.update(f"policy {policy}\n".encode())
        for line in trace_lines(auto_play(setup, policy), literals):
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def setup_entry(label: str) -> dict:
    setup = build(label)
    result = analyze(setup)
    opening = result.minimal_opening
    return {"winner": result.winner,
            "minimal_opening": None if opening is None else list(opening),
            "states_explored": result.states_explored,
            "play": play_digest(setup)}


def table_digests(name: str, residues=range(STRIDE)) -> dict:
    """For each variant of a table class, one sha256 per residue of the
    seed modulo ``STRIDE``: over the ``rows()`` of the one-shot table of
    every theory whose seed has that residue, in seed order."""
    arguments, variants = TABLE_CLASSES[name]
    hashes = {(variant, residue): hashlib.sha256()
              for variant in variants for residue in residues}
    for seed in TABLE_SEEDS:
        if seed % STRIDE not in residues:
            continue
        theory = random_theory(seed, **arguments)
        for variant in variants:
            if variant == "bare":
                theory = DefeasibleTheory(theory.facts, theory.rules,
                                          frozenset())
            h = hashes[variant, seed % STRIDE]
            for row in compute_conclusions(theory).rows():
                h.update(" ".join(map(str, row)).encode() + b"\n")
            h.update(b"\n")
    return {f"{name}-{variant}": [hashes[variant, residue].hexdigest()
                                  for residue in residues]
            for variant in variants}


def make() -> dict:
    return {"setups": {label: setup_entry(label) for label in labels()},
            "tables": {key: digests for name in TABLE_CLASSES
                       for key, digests in table_digests(name).items()}}


def render(record: dict) -> str:
    """The record as JSON with one setup or one class per line."""
    def lines(mapping) -> str:
        return "{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(value)}"
            for key, value in mapping.items()) + "\n}"

    return (f'{{"setups": {lines(record["setups"])},\n'
            f'"tables": {lines(record["tables"])}}}\n')


def main() -> None:
    RECORD.write_text(render(make()), encoding="utf-8")


if __name__ == "__main__":
    main()
