"""The examples of ``README.md`` print what it shows.

The README's ``case.ddt`` is the ``s1.ddt`` fixture.  Each ``$ trialogic
... case.ddt`` example whose output the README shows in full, with no
``...`` line, runs against that fixture and must print exactly that.
The library example runs beside a copy of it, and each expression
statement evaluates to what the comment after it shows.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from trialogic import parse_theory
from trialogic.cli import run

from conftest import FIXTURES, load

README = Path(__file__).resolve().parent.parent / "README.md"
CASE = "case.ddt"


def _blocks() -> list[str]:
    """The text of every fenced block of the README."""
    return README.read_text(encoding="utf-8").split("```")[1::2]


def examples() -> list[tuple[str, str]]:
    """(command, output) of each ``case.ddt`` example shown in full."""
    found = []
    for block in _blocks():
        command = None
        for line in block.splitlines():
            if line.startswith("$ trialogic "):
                command = line[2:]
                found.append([command, []])
            elif command is not None:
                found[-1][1].append(line)
    return [(command, "\n".join(lines).strip("\n") + "\n")
            for command, lines in found
            if CASE in shlex.split(command)
            and not any(line.strip() == "..." for line in lines)]


def test_case_is_the_s1_fixture():
    case = [block for block in _blocks() if "\nclaim: " in block]
    assert len(case) == 1
    assert parse_theory(case[0]) == load("s1.ddt")


def test_examples_are_found():
    assert [command.split()[1] for command, _ in examples()] == [
        "check", "prove", "standards", "game", "game"]


@pytest.mark.parametrize("command, output", examples(),
                         ids=[command for command, _ in examples()])
def test_example_prints_what_the_readme_shows(capsys, command, output):
    argv = [str(FIXTURES / "s1.ddt") if word == CASE else word
            for word in shlex.split(command)[1:]]
    assert run(argv) == 0
    assert capsys.readouterr().out == output


def test_library_example_evaluates_to_its_comments(monkeypatch, tmp_path):
    [source] = [block[len("python\n"):] for block in _blocks()
                if block.startswith("python\n")]
    (tmp_path / CASE).write_bytes((FIXTURES / "s1.ddt").read_bytes())
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    shown = []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README", "eval")
            shown.append(repr(eval(code, namespace)))
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"),
                 namespace)
    assert shown == re.findall(r"# ('.*')", source) == [
        "'refuted'", "'not_permitted'", "'pr_succeeds'"]
