"""Command line front end.

Subcommands operate on a theory file; game subcommands need its claim
and pool sections.  Proof, standards, and permission queries run on the
union of every rule in the file regardless of pools, since they ask
about the theory, not about what a player would reveal.

Exit codes: 0 success, 1 parse or validation failure, 2 rejected
opening, illegal move or usage error (argparse's own exit), 3
exhaustive search bound exceeded.

Each handler imports the modules it runs, and maps the refusals they
raise to exit codes 2 and 3 itself, so a process loads only what its
subcommand needs: ``check`` never loads the engine, and only the game
subcommands load ``game`` and ``strategy``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .dsl import ParseFailure, parse_moves, parse_query, parse_theory
from .model import (
    EVIDENTIAL, GLYPH_FOR_TAG, OBLIGATION, TAG_FOR_TOKEN, GameSetup, lit,
    validate_setup, with_standards,
)

if TYPE_CHECKING:
    from .game import GameTrace

# The ``--policy`` names of ``strategy.POLICIES``, in the same order.
_POLICY_NAMES = ("greedy", "full")


class _ValidationFailed(Exception):
    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


def _emit(payload) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def _read(path: str) -> str:
    """A setup or moves file, without the byte-order mark some editors
    write before UTF-8 text."""
    return Path(path).read_text(encoding="utf-8-sig")


def _load_setup(args) -> GameSetup:
    setup = parse_theory(_read(args.file))
    evidential = TAG_FOR_TOKEN.get(args.evidential_standard)
    deontic = TAG_FOR_TOKEN.get(args.deontic_standard)
    setup = with_standards(setup, evidential, deontic)
    report = validate_setup(setup)
    if report.errors:
        raise _ValidationFailed(report.errors)
    return setup


def _glyph_key(tag: str, mode: str, literal) -> str:
    prefix = f"{GLYPH_FOR_TAG[tag]} "
    if mode == OBLIGATION:
        prefix += "O "
    return prefix + str(literal)


def _cmd_check(args) -> int:
    try:
        setup = parse_theory(_read(args.file))
    except ParseFailure as failure:
        if not args.json:
            raise  # run renders it
        _emit({
            "ok": False,
            "errors": [error.render() for error in failure.errors],
            "warnings": [],
        })
        return 1
    report = validate_setup(setup)
    if args.json:
        _emit({
            "ok": report.ok,
            "errors": list(report.errors),
            "warnings": list(report.warnings),
        })
    else:
        for error in report.errors:
            print(f"error: {error}", file=sys.stderr)
        for warning in report.warnings:
            print(f"warning: {warning}")
        if report.ok:
            rules = len(setup.all_rules())
            facts = len(setup.facts)
            print(f"ok: {facts} facts, {rules} rules")
    return 0 if report.ok else 1


def _cmd_prove(args) -> int:
    from .engine import compute_conclusions, holds

    setup = _load_setup(args)
    theory = setup.union_theory()
    if args.query is None and not args.all:
        print("prove needs --query or --all", file=sys.stderr)
        return 1
    if args.all:
        table = compute_conclusions(theory)
        rows = table.rows()
        if args.json:
            _emit([
                {"literal": str(literal), "mode": mode, "tag": tag,
                 "status": status}
                for literal, mode, tag, status in rows
            ])
        else:
            for literal, mode, tag, status in rows:
                print(f"{_glyph_key(tag, mode, literal)}: {status}")
        return 0
    query = parse_query(args.query)
    status = holds(theory, query)
    if args.json:
        _emit({"query": query.render(), "status": status})
    else:
        print(f"{query.render_glyph()}: {status}")
    return 0


def _cmd_standards(args) -> int:
    from .engine import standards_met

    setup = _load_setup(args)
    report = standards_met(
        setup.union_theory(), lit(args.literal), args.mode)
    if args.json:
        _emit({
            "literal": str(report.literal),
            "mode": report.mode,
            "met": list(report.met),
        })
    else:
        if report.met:
            print(f"{report.literal} meets: " + ", ".join(report.met))
        else:
            print(f"{report.literal} meets no standard")
    return 0


def _cmd_permission(args) -> int:
    from .permission import weakly_permitted

    setup = _load_setup(args)
    tag = TAG_FOR_TOKEN[args.tag]
    result = weakly_permitted(setup.union_theory(), lit(args.literal), tag)
    if args.json:
        _emit({
            "literal": str(result.literal),
            "tag": result.tag,
            "status": result.status,
        })
    else:
        witness = f" ({result.witness.render_glyph()})" if result.witness \
            else ""
        print(f"{result.literal}: {result.status}{witness}")
    return 0


def _render_trace(args, trace: GameTrace) -> None:
    if args.json:
        _emit({
            "turns": [
                {
                    "player": record.player,
                    "rules": list(record.rule_ids),
                    "targets": [[mode, str(literal)]
                                for mode, literal in record.targets],
                    "newly": [entry.render()
                              for entry in record.newly_determined],
                }
                for record in trace.records
            ],
            "outcome": trace.outcome,
        })
        return
    for number, record in enumerate(trace.records, start=1):
        if record.rule_ids:
            played = "plays " + ", ".join(record.rule_ids)
        elif number == 1:  # an opening is never a pass
            played = "opens with no rules"
        else:
            played = "passes"
        if record.targets:
            played += "; targets " + ", ".join(
                f"{mode} {literal}" for mode, literal in record.targets)
        print(f"{number}. {record.player} {played}")
        if record.newly_determined:
            shown = ", ".join(
                entry.render_glyph() for entry in record.newly_determined)
            print(f"   new: {shown}")
    print(f"outcome: {trace.outcome}")


def _cmd_game_run(args) -> int:
    from .game import IllegalMove, OpeningRejected, run_game

    setup = _load_setup(args)
    moves = parse_moves(_read(args.moves))
    try:
        trace = run_game(setup, moves)
    except (OpeningRejected, IllegalMove) as exc:
        print(exc, file=sys.stderr)
        return 2
    _render_trace(args, trace)
    return 0


def _cmd_game_auto(args) -> int:
    from .strategy import POLICIES, auto_play

    setup = _load_setup(args)
    trace = auto_play(setup, POLICIES[_POLICY_NAMES.index(args.policy)])
    _render_trace(args, trace)
    return 0


def _cmd_game_analyze(args) -> int:
    from .strategy import DEFAULT_BOUND, BoundExceeded, analyze

    setup = _load_setup(args)
    try:
        result = analyze(
            setup, DEFAULT_BOUND if args.bound is None else args.bound)
    except BoundExceeded as exc:
        print(exc, file=sys.stderr)
        return 3
    if args.json:
        minimal: Optional[list[str]] = (
            list(result.minimal_opening)
            if result.minimal_opening is not None else None)
        _emit({
            "winner": result.winner,
            "minimal_opening": minimal,
            "states_explored": result.states_explored,
        })
    else:
        print(f"winner: {result.winner}")
        if result.minimal_opening is None:
            print("minimal opening: none")
        elif not result.minimal_opening:
            print("minimal opening: no rules")
        else:
            print("minimal opening: " + ", ".join(result.minimal_opening))
        print(f"states explored: {result.states_explored}")
    return 0


def _bound(text: str) -> int:
    """A ``--bound`` value: a count of rules, so 0 or more."""
    try:
        bound = int(text)
    except ValueError:
        bound = -1
    if bound < 0:
        raise argparse.ArgumentTypeError(
            f"not a count of rules: {text!r}")
    return bound


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("file", help="theory file")
    shared.add_argument("--json", action="store_true",
                        help="machine readable output")
    shared.add_argument("--evidential-standard", choices=["d", "p", "s", "w"],
                        default=None, metavar="TAG",
                        help="override the evidential standard (d, p, s, w)")
    shared.add_argument("--deontic-standard", choices=["d", "p"],
                        default=None, metavar="TAG",
                        help="override the deontic standard (d, p)")

    parser = argparse.ArgumentParser(
        prog="trialogic",
        description="Defeasible deontic reasoning and disclosure games")
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check", parents=[shared], help="parse and validate a theory file")
    check.set_defaults(func=_cmd_check)

    prove = commands.add_parser(
        "prove", parents=[shared], help="evaluate tagged queries")
    prove.add_argument("--query", help="signed query like '+d b' or '-p O ~b'")
    prove.add_argument("--all", action="store_true",
                       help="print the whole conclusion table")
    prove.set_defaults(func=_cmd_prove)

    standards = commands.add_parser(
        "standards", parents=[shared],
        help="which proof standards a literal meets")
    standards.add_argument("--literal", required=True)
    standards.add_argument("--mode", choices=[EVIDENTIAL, OBLIGATION],
                           default=EVIDENTIAL)
    standards.set_defaults(func=_cmd_standards)

    permission = commands.add_parser(
        "permission", parents=[shared],
        help="weak permission status of a literal")
    permission.add_argument("--literal", required=True)
    permission.add_argument("--tag", choices=["d", "p"], default="p")
    permission.set_defaults(func=_cmd_permission)

    game = commands.add_parser("game", help="dialogue game commands")
    game_commands = game.add_subparsers(dest="game_command", required=True)

    run = game_commands.add_parser(
        "run", parents=[shared], help="replay a moves file")
    run.add_argument("--moves", required=True, help="moves file")
    run.set_defaults(func=_cmd_game_run)

    auto = game_commands.add_parser(
        "auto", parents=[shared], help="let both sides play a policy")
    auto.add_argument("--policy", choices=_POLICY_NAMES,
                      default=_POLICY_NAMES[0])
    auto.set_defaults(func=_cmd_game_auto)

    analyze_parser = game_commands.add_parser(
        "analyze", parents=[shared],
        help="exhaustive winner and minimal winning opening")
    analyze_parser.add_argument("--bound", type=_bound,
                                help="private-rule limit for the search")
    analyze_parser.set_defaults(func=_cmd_game_analyze)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as failure:
        for error in failure.errors:
            print(error.render(), file=sys.stderr)
        return 1
    except _ValidationFailed as failure:
        for error in failure.errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
