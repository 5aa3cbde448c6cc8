"""Write ``cli_record.json``: what the CLI prints on every fixture.

    PYTHONPATH=src python3 tests/make_cli_record.py

Run it from the root of the repository.  It records what the program at
the current commit prints, so run it only when the fixtures or the
intended output change, never to make a changed program pass;
``test_cli_record.py`` replays the record.

Most invocations are stored exactly: stdout, stderr and exit code of
``check``, ``prove --all``, ``game auto`` (both policies), ``game
analyze`` (default and ``--bound 3``) and ``game run`` on every
fixture, human and ``--json``, under each standard override.  The
per-literal sweeps of ``prove --query``, ``standards`` and
``permission`` are stored as one digest per fixture and subcommand.
Each distinct output text is stored once, in ``outputs``, and a run
``[argv, exit code, stdout, stderr]`` names its texts by index.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from trialogic import lit, parse_theory
from trialogic.cli import run

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
RECORD = HERE / "cli_record.json"
MOVES = "s1_play_b.moves"

FORMATS = ((), ("--json",))
# Every evidential and every deontic standard appears at least once.
OVERRIDES = (
    (),
    ("--evidential-standard", "w"),
    ("--evidential-standard", "s", "--deontic-standard", "d"),
    ("--evidential-standard", "d", "--deontic-standard", "p"),
    ("--evidential-standard", "p"),
)
# (subcommand words, options after the file)
EXACT = (
    (("check",), ()),
    (("prove",), ("--all",)),
    (("game", "auto"), ("--policy", "greedy")),
    (("game", "auto"), ("--policy", "full")),
    (("game", "analyze"), ()),
    (("game", "analyze"), ("--bound", "3")),
    (("game", "run"), ("--moves", MOVES)),
)
SWEEPS = ("prove", "standards", "permission")
# A literal no fixture mentions, which answers from outside the universe.
ABSENT = "zz"


def fixtures() -> list[str]:
    return sorted(path.name for path in FIXTURES.glob("*.ddt"))


def invoke(argv: list[str]) -> list:
    """``[argv, exit code, stdout, stderr]`` of one in-process run, with
    the fixtures directory as the working directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(cwd)
    return [argv, code, out.getvalue(), err.getvalue()]


def exact_argvs(name: str) -> list[list[str]]:
    return [[*words, name, *options, *override, *fmt]
            for words, options in EXACT
            for override in OVERRIDES
            for fmt in FORMATS]


def sweep_literals(name: str) -> list[str]:
    """Every literal the fixture mentions, its complement, and
    ``ABSENT``, sorted as text."""
    setup = parse_theory((FIXTURES / name).read_text(encoding="utf-8"))
    literals = {literal for _, literal in setup.facts}
    for rule in setup.all_rules():
        literals.add(rule.head)
        literals.update(ant.literal for ant in rule.antecedents)
    if setup.claim is not None:
        literals.update(setup.claim.literals)
    literals.update([literal.complement() for literal in literals])
    literals.add(lit(ABSENT))
    return sorted(str(literal) for literal in literals)


def sweep_argvs(name: str, subcommand: str) -> list[list[str]]:
    argvs = []
    for literal in sweep_literals(name):
        if subcommand == "prove":
            asks = [("--query", f"{sign}{tag} {mode}{literal}")
                    for sign in "+-" for tag in "dpsw"
                    for mode in ("", "O ")]
        elif subcommand == "standards":
            asks = [("--literal", literal, "--mode", mode)
                    for mode in ("E", "O")]
        else:
            asks = [("--literal", literal, "--tag", tag) for tag in "dp"]
        argvs += [[subcommand, name, *ask, *fmt]
                  for ask in asks for fmt in FORMATS]
    return argvs


def digest(argvs: list[list[str]]) -> str:
    runs = [invoke(argv) for argv in argvs]
    return hashlib.sha256(json.dumps(runs).encode("utf-8")).hexdigest()


def make() -> dict:
    outputs: dict[str, int] = {}

    def indexed(argv):
        argv, code, out, err = invoke(argv)
        return [argv, code, outputs.setdefault(out, len(outputs)),
                outputs.setdefault(err, len(outputs))]

    exact = {name: [indexed(argv) for argv in exact_argvs(name)]
             for name in fixtures()}
    return {
        "outputs": list(outputs),
        "exact": exact,
        "sweeps": {name: {subcommand: digest(sweep_argvs(name, subcommand))
                          for subcommand in SWEEPS}
                   for name in fixtures()},
    }


def render(record: dict) -> str:
    """The record as JSON with one output text or one run per line."""
    def lines(items) -> str:
        return "[\n" + ",\n".join(
            json.dumps(item, ensure_ascii=False) for item in items) + "\n]"

    exact = ",\n".join(f"{json.dumps(name)}: {lines(runs)}"
                       for name, runs in record["exact"].items())
    sweeps = json.dumps(record["sweeps"], indent=1)
    return (f'{{"outputs": {lines(record["outputs"])},\n'
            f'"exact": {{\n{exact}\n}},\n"sweeps": {sweeps}}}\n')


def main() -> None:
    RECORD.write_text(render(make()), encoding="utf-8")


if __name__ == "__main__":
    main()
