"""Write ``dsl_record.json``: what the three parsers make of many texts.

    PYTHONPATH=src python3 tests/make_dsl_record.py

Run it from the root of the repository.  It records what the parsers at
the current commit return, so run it only when the text formats or
their error messages are meant to change, never to make a changed
parser pass; ``test_dsl_record.py`` replays the record.

The texts are seeded and built here, not stored: every truncation and
every one-character deletion of each fixture, serialized corpus setups
with one token inserted, moves files and queries, every other one with
one token inserted, and token soups.  Each text is run through
``parse_theory``, ``parse_moves`` and ``parse_query``; an outcome is
the canonical result (the serialized setup, the moves, the query) or
the exact rendered error list.  The record keeps, per group of texts,
one short digest of the three outcomes of each text, so a replay names
every text whose outcome changed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from trialogic import (
    ParseFailure, corpus, parse_moves, parse_query, parse_theory,
    serialize_theory,
)

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
RECORD = HERE / "dsl_record.json"

SETUPS = 400
MOVES_FILES = 600
QUERIES = 600
SOUPS = 3000
# What an inserted token or a soup is made of: the words, marks and
# spacing of the three formats, and characters that only look like them.
VOCAB = (
    "fact", "rule", "sup", "claim", "game", "standard", "pr", "def",
    "common", "pass", "targets", "evidential", "deontic", "r1", "r4", "b",
    "d", "p", "s", "w", "x", "E", "O", "EO", "Ea", "aO", "=>", "=>O",
    "=>Oa", "=>E", "=", ":", ",", ".", "~", "+", "-", ">", "#", "# c\n",
    " ", "  ", "\n", "\r", "\r\n", "\t", "\x0b", "\x0c", "\x1c", "\x1f",
    "\x85", "\xa0", "\u2028", "\u3000", "\ufeff", "A", "_", "9", "\xe9",
    "\u0663", "\u2177",
)
SEPARATORS = ("", " ", "\n")


def outcome(parse, text: str):
    """The canonical result of ``parse(text)``, or its rendered errors."""
    try:
        result = parse(text)
    except ParseFailure as failure:
        return ["error", [error.render() for error in failure.errors]]
    if parse is parse_theory:
        return ["setup", serialize_theory(result)]
    if parse is parse_moves:
        return ["moves", [[move.player, sorted(move.rule_ids),
                           sorted([mode, str(literal)]
                                  for mode, literal in move.targets)]
                          for move in result]]
    return ["query", [result.sign, result.tag, result.mode,
                      str(result.literal)]]


def digest(text: str) -> str:
    outcomes = [outcome(parse, text)
                for parse in (parse_theory, parse_moves, parse_query)]
    return hashlib.sha256(json.dumps(outcomes).encode("utf-8")).hexdigest()[:8]


def inserted(rng: random.Random, text: str) -> str:
    at = rng.randint(0, len(text))
    return text[:at] + rng.choice(VOCAB) + text[at:]


def moves_file(rng: random.Random) -> str:
    """A moves file of up to five well-formed moves."""
    moves = []
    for index in range(rng.randint(1, 5)):
        player = rng.choice(("pr", "def"))
        if rng.random() < 0.3:
            moves.append(f"{player}: pass.")
            continue
        ids = ", ".join(rng.sample(("r1", "r2", "r4", "pass", "x_9"),
                                   rng.randint(1, 3)))
        targets = ", ".join(f"{rng.choice('EO')} {rng.choice(('', '~'))}"
                            f"{rng.choice('abz')}"
                            for _ in range(rng.randint(0, 2)))
        moves.append(f"{player}: {ids} targets {targets}." if targets
                     else f"{player}: {ids}.")
    return "\n".join(moves) + "\n"


def query(rng: random.Random) -> str:
    """A signed tagged query, spaced in one of several ways."""
    space = rng.choice(("", " ", "  ", "\t"))
    mode = rng.choice(("", "O ", "O", "E "))
    return (f"{rng.choice('+-')}{space}{rng.choice('dpswx')} {mode}"
            f"{rng.choice(('', '~', '~ '))}{rng.choice(('b', 'x_1', 'pr'))}")


def groups() -> dict[str, list[str]]:
    """Every recorded text, by group, in a fixed order."""
    texts: dict[str, list[str]] = {}
    for path in sorted(FIXTURES.iterdir()):
        text = path.read_text(encoding="utf-8")
        texts[f"truncations of {path.name}"] = [
            text[:end] for end in range(len(text) + 1)]
        texts[f"deletions of {path.name}"] = [
            text[:at] + text[at + 1:] for at in range(len(text))]
    rng = random.Random(35)
    texts["corpus setups with a token inserted"] = [
        inserted(rng, serialize_theory(corpus.random_setup(
            seed, allow_annotations=seed % 2 == 1)))
        for seed in range(SETUPS)]
    moves = [moves_file(rng) for _ in range(MOVES_FILES)]
    texts["moves files, every other with a token inserted"] = [
        inserted(rng, text) if index % 2 else text
        for index, text in enumerate(moves)]
    queries = [query(rng) for _ in range(QUERIES)]
    texts["queries, every other with a token inserted"] = [
        inserted(rng, text) if index % 2 else text
        for index, text in enumerate(queries)]
    texts["token soups"] = [
        rng.choice(SEPARATORS).join(
            rng.choice(VOCAB) for _ in range(rng.randint(0, 30)))
        for _ in range(SOUPS)]
    return texts


def make() -> dict[str, list[str]]:
    return {name: [digest(text) for text in texts]
            for name, texts in groups().items()}


def render(record: dict[str, list[str]]) -> str:
    """The record as JSON with one group of digests per line."""
    return "{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(digests)}"
        for name, digests in record.items()) + "\n}\n"


def main() -> None:
    RECORD.write_text(render(make()), encoding="utf-8")


if __name__ == "__main__":
    main()
