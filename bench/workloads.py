"""The benchmark's four workloads.

Each workload draws its item list from a seed (``build``), runs one item
per timed call (``run``), turns an output into the record that
``expected.json`` holds for it (``record``), and makes the checks that
need no stored record (``check``).  Only ``run`` is timed.

Items come from pools stored in ``expected.json``.  A pool is split into
strata by size (query theories) or by private-rule count (game setups),
and each stratum into buckets of items of similar cost at the commit
that wrote the file.  A seed picks one item from every bucket, so every
seed gets the same amount of work in a different draw.

``T`` is a namespace of the ``trialogic`` modules.  Every call goes
through a module attribute, looked up at call time, so the tracer's
wrappers see it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

# ``random_theory`` arguments of each query size class, (atoms, rules).
# The ``oracle`` class is stratified and has no superiority, where the
# argument oracle is exact; ``delta_equivalence_check`` runs on it.
QUERY_CLASSES = {
    "small": dict(max_atoms=10, max_rules=14),
    "medium": dict(max_atoms=16, max_rules=40),
    "large": dict(max_atoms=16, max_rules=100),
    "oracle": dict(max_atoms=10, max_rules=14, allow_superiority=False,
                   stratified=True),
}
CHAIN_LENGTHS = (50, 100, 200)

# ``random_setup`` arguments of the generated game setups.  With these
# only about one seed in twenty has a literal the union theory
# establishes; the claim is replaced by one of those literals.
GAME_CORPUS = dict(max_rules=14, deontic_ratio=0.5)
ANALYSIS_FIXTURES = ("s1.ddt", "s2.ddt")
ANALYSIS_SEEDS = (9, 199, 273)
ANALYSIS_MAX_RULES = 20

FIXTURES = Path("tests") / "fixtures"
GAME_RUNS = (("s1.ddt", "s1_play_b.moves"),)
CLI_TIMEOUT_S = 60


MODULES = ("model", "engine", "dsl", "game", "strategy", "permission",
           "arguments", "corpus", "cli")


def load_program(root: Path) -> SimpleNamespace:
    """Import ``trialogic`` afresh from this checkout's ``src``."""
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules
                 if n == "trialogic" or n.startswith("trialogic.")]:
        del sys.modules[name]
    T = SimpleNamespace(**{name: importlib.import_module(f"trialogic.{name}")
                           for name in MODULES})
    if not Path(T.model.__file__).resolve().is_relative_to(root / "src"):
        raise ImportError(f"trialogic imported from {T.model.__file__}, "
                          f"not from {src}")
    return T


class Item(NamedTuple):
    key: str
    arg: object


def draw(strata: dict, rng: random.Random) -> list:
    """One entry from every bucket of every stratum, with the name of
    its stratum."""
    return [(name, rng.choice(bucket))
            for name, buckets in strata.items() for bucket in buckets]


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def rows_digest(table, rename=None) -> str:
    """Digest of every row of a conclusion table, atoms renamed."""
    def name(literal):
        atom = rename[literal.atom] if rename else literal.atom
        return atom if literal.positive else "~" + atom
    return digest(f"{name(literal)} {mode} {tag} {status}"
                  for literal, mode, tag, status in table.rows())


def ladder_problem(T, table, label: str):
    """A proof at a stronger tag must hold at every weaker one, and a
    refutation at a weaker tag at every stronger one."""
    m = T.model
    tags = (m.DELTA, m.PARTIAL, m.SIGMA, m.SIGMA_MINUS)
    for literal in table.literals:
        for mode in m.MODES:
            status = [table.status(tag, mode, literal) for tag in tags]
            for i in range(3):
                if (status[i] == m.PROVED and status[i + 1] != m.PROVED) or (
                        status[i + 1] == m.REFUTED and status[i] != m.REFUTED):
                    return f"{label}: strength ladder broken at {mode} {literal}"
    return None


def game_setup(T, seed: int, claim: str):
    """A corpus setup whose claim is replaced by ``claim``."""
    setup = T.corpus.random_setup(seed, **GAME_CORPUS)
    return replace(setup, claim=T.model.Claim((T.model.lit(claim),)))


def established_claim(T, seed: int):
    """A literal the union theory of the corpus setup establishes: proved
    evidentially and its complement's obligation proved, at the setup's
    standards.  None when there is no such literal."""
    setup = T.corpus.random_setup(seed, **GAME_CORPUS)
    table = T.engine.compute_conclusions(setup.union_theory())
    m = T.model
    ev, de = setup.evidential_standard, setup.deontic_standard
    candidates = [
        literal for literal in sorted(table.literals)
        if table.status(ev, m.EVIDENTIAL, literal) == m.PROVED
        and table.status(de, m.OBLIGATION, literal.complement()) == m.PROVED]
    if not candidates:
        return None
    return str(random.Random(seed).choice(candidates))


def reverse_chain(T, n: int, rng: random.Random):
    """A chain of ``n`` rules from one fact in which every head atom sorts
    before its antecedent's.  Atom names come from ``rng``; ``rename``
    maps them to names fixed by chain position, for the stored record."""
    m = T.model
    names: set[str] = set()
    while len(names) < n + 1:
        names.add(rng.choice("abcdefghijklmnopqrstuvwxyz")
                  + str(rng.randrange(10 ** 6)))
    ordered = sorted(names)
    rules = tuple(
        m.Rule(f"r{i}", (m.Antecedent(m.EVIDENTIAL, m.Literal(ordered[i])),),
               m.EVIDENTIAL, m.Literal(ordered[i - 1]))
        for i in range(1, n + 1))
    theory = m.DefeasibleTheory(
        frozenset({(m.EVIDENTIAL, m.Literal(ordered[n]))}), rules)
    rename = {atom: f"c{i:04d}" for i, atom in enumerate(ordered)}
    return theory, m.Literal(ordered[0]), rename


def query_literal(theory, seed: int):
    """The literal a query item asks about: a rule head picked by the
    theory's corpus seed."""
    return random.Random(seed).choice(sorted({r.head for r in theory.rules}))


class Queries:
    """One-shot questions on a theory: the whole table, the standards a
    literal meets and its weak permission."""

    name = "queries"

    def build(self, T, root, rng, pool):
        items = []
        for cls, seed in draw(pool["strata"], rng):
            theory = T.corpus.random_theory(seed, **QUERY_CLASSES[cls])
            items.append(Item(f"{cls}:{seed}",
                              (theory, query_literal(theory, seed), None)))
        for n in CHAIN_LENGTHS:
            items.append(Item(f"chain:{n}", reverse_chain(T, n, rng)))
        rng.shuffle(items)
        return items

    def run(self, T, arg):
        theory, literal, _ = arg
        return (T.engine.compute_conclusions(theory),
                T.engine.standards_met(theory, literal),
                T.permission.weakly_permitted(theory, literal))

    def record(self, arg, result):
        table, standards, permission = result
        return {"rows": rows_digest(table, arg[2]),
                "standards": list(standards.met),
                "permission": permission.status}

    def check(self, T, items, results):
        problems = []
        for item, (table, _, _) in zip(items, results):
            problems.append(ladder_problem(T, table, item.key))
            if item.key.startswith("oracle:"):
                report = T.arguments.delta_equivalence_check(item.arg[0])
                if not (report.agrees and report.authoritative):
                    problems.append(f"{item.key}: argument oracle disagrees "
                                    f"{report.discrepancies} {report.caveats}")
        return problems


class Analysis:
    """Exhaustive game analysis and the minimal winning opening."""

    name = "analysis"

    def build(self, T, root, rng, pool):
        items = [Item(f"fixture:{name}", T.dsl.parse_theory(
            (root / FIXTURES / name).read_text(encoding="utf-8")))
            for name in ANALYSIS_FIXTURES]
        items += [Item(f"corpus:{seed}", T.corpus.random_setup(
            seed, max_rules=ANALYSIS_MAX_RULES)) for seed in ANALYSIS_SEEDS]
        items += [Item(f"game:{seed}", game_setup(T, seed, claim))
                  for _, (seed, claim) in draw(pool["strata"], rng)]
        rng.shuffle(items)
        return items

    def run(self, T, setup):
        return T.strategy.analyze(setup)

    def record(self, setup, analysis):
        # states_explored is left out: it is known to undercount.
        opening = analysis.minimal_opening
        return {"winner": analysis.winner,
                "minimal_opening": None if opening is None else list(opening)}

    def check(self, T, items, results):
        return []


def moves_text(trace) -> str:
    """A trace written out in the moves-file format."""
    lines = []
    for record in trace.records:
        if not record.rule_ids:
            lines.append(f"{record.player}: pass.")
            continue
        targets = ", ".join(f"{mode} {literal}"
                            for mode, literal in record.targets)
        lines.append(f"{record.player}: {', '.join(record.rule_ids)} "
                     f"targets {targets}.")
    return "".join(line + "\n" for line in lines)


def _turns(trace):
    return [list(record.rule_ids) for record in trace.records]


class Play:
    """The interactive path on a small setup: parse and validate its
    text, play both policies, write each trace as a moves file, parse
    and replay it, and read the permission the game settled."""

    name = "play"

    def build(self, T, root, rng, pool):
        items = [Item(f"game:{seed}",
                      T.dsl.serialize_theory(game_setup(T, seed, claim)))
                 for _, (seed, claim) in draw(pool["strata"], rng)]
        rng.shuffle(items)
        return items

    def run(self, T, text):
        setup = T.dsl.parse_theory(text)
        report = T.model.validate_setup(setup)
        games = []
        for policy in T.strategy.POLICIES:
            trace = T.strategy.auto_play(setup, policy)
            replay = T.game.run_game(
                setup, T.game.parse_moves(moves_text(trace)))
            permits = [
                T.permission.game_weakly_permitted(replay, literal).status
                for literal in setup.claim.literals]
            games.append((trace, replay, permits))
        return report, games

    def record(self, text, result):
        report, games = result
        return {"valid": report.ok,
                "games": [[trace.outcome, _turns(trace), replay.outcome,
                           _turns(replay), permits]
                          for trace, replay, permits in games]}

    def check(self, T, items, results):
        return [ladder_problem(T, record.conclusions, item.key)
                for item, (_, games) in zip(items, results)
                for trace, replay, _ in games
                for record in trace.records + replay.records]


def fixture_literals(setup) -> list[str]:
    literals = {literal for _, literal in setup.facts}
    for rule in setup.all_rules():
        literals.add(rule.head)
        literals.update(ant.literal for ant in rule.antecedents)
    literals |= {literal.complement() for literal in literals}
    return [str(literal) for literal in sorted(literals)]


def cli_slots(name: str, setup) -> list[list[list[str]]]:
    """The invocations on one fixture, as slots of alternatives; a seed
    picks one alternative per slot."""
    path = str(FIXTURES / name)
    literals = fixture_literals(setup)
    slots = [
        [["check", path]],
        [["prove", path, "--all"]],
        [["prove", path, f"--query={sign}{tag} {mode}{literal}"]
         for literal in literals for sign in "+-" for tag in "dpsw"
         for mode in ("", "O ")],
        [["standards", path, "--literal", literal, "--mode", mode]
         for literal in literals for mode in "EO"],
        [["permission", path, "--literal", literal, "--tag", tag]
         for literal in literals for tag in "dp"],
    ]
    if setup.claim is not None:
        slots += [[["game", "auto", path]],
                  [["game", "auto", path, "--policy", "full"]],
                  [["game", "analyze", path]]]
    slots += [[["game", "run", path, "--moves", str(FIXTURES / moves)]]
              for fixture, moves in GAME_RUNS if fixture == name]
    return [[argv + ["--json"] for argv in slot] for slot in slots]


def cli_answer(argv: list[str], code: int, stdout: str):
    """Exit code and the answer fields of one ``--json`` invocation."""
    payload = json.loads(stdout)
    command = argv[1] if argv[0] == "game" else argv[0]
    if command == "check":
        answer = payload["ok"]
    elif command == "prove" and "--all" in argv:
        answer = digest(f"{row['literal']} {row['mode']} {row['tag']} "
                        f"{row['status']}" for row in payload)
    elif command in ("prove", "permission"):
        answer = payload["status"]
    elif command == "standards":
        answer = payload["met"]
    elif command in ("auto", "run"):
        answer = [payload["outcome"],
                  [turn["rules"] for turn in payload["turns"]]]
    else:
        answer = [payload["winner"], payload["minimal_opening"]]
    return [code, answer]


class Cli:
    """Cold ``python -m trialogic ... --json`` processes, one at a time."""

    name = "cli"

    def build(self, T, root, rng, pool):
        self.root = root
        self.env = child_env(root)
        items = []
        for path in sorted((root / FIXTURES).glob("*.ddt")):
            setup = T.dsl.parse_theory(path.read_text(encoding="utf-8"))
            for slot in cli_slots(path.name, setup):
                argv = rng.choice(slot)
                items.append(Item(" ".join(argv), argv))
        rng.shuffle(items)
        return items

    def run(self, T, argv):
        done = subprocess.run(
            [sys.executable, "-m", "trialogic", *argv], cwd=self.root,
            env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        return done.returncode, done.stdout.decode("utf-8")

    def record(self, argv, result):
        return cli_answer(argv, *result)

    def check(self, T, items, results):
        return []


def child_env(root: Path) -> dict:
    """The environment of a CLI process: this checkout's sources first."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (Queries, Analysis, Play, Cli)}
