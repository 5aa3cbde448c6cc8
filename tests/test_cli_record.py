"""The CLI prints, byte for byte, what ``cli_record.json`` recorded.

``make_cli_record.py`` writes the record and says what it holds and
when to write it again.
"""

import json

import pytest

import make_cli_record as record

RECORD = json.loads(record.RECORD.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", record.fixtures())
def test_output_matches_record(name):
    texts = RECORD["outputs"]
    expected = [[argv, code, texts[out], texts[err]]
                for argv, code, out, err in RECORD["exact"][name]]
    assert [run[0] for run in expected] == record.exact_argvs(name)
    for run in expected:
        assert record.invoke(run[0]) == run


@pytest.mark.parametrize("subcommand", record.SWEEPS)
@pytest.mark.parametrize("name", record.fixtures())
def test_sweep_matches_record_digest(name, subcommand):
    argvs = record.sweep_argvs(name, subcommand)
    assert record.digest(argvs) == RECORD["sweeps"][name][subcommand]
