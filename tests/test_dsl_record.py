"""The parsers make of every recorded text what ``dsl_record.json``
recorded.

``make_dsl_record.py`` writes the record and says what it holds and
when to write it again.
"""

import json

import pytest

import make_dsl_record as record

RECORD = json.loads(record.RECORD.read_text(encoding="utf-8"))
GROUPS = record.groups()


def test_record_covers_every_group():
    assert list(RECORD) == list(GROUPS)


@pytest.mark.parametrize("name", list(GROUPS))
def test_outcomes_match_record(name):
    texts = GROUPS[name]
    assert len(texts) == len(RECORD[name])
    changed = [text for text, digest in zip(texts, RECORD[name])
               if record.digest(text) != digest]
    assert not changed, [
        (text, [record.outcome(parse, text) for parse in (
            record.parse_theory, record.parse_moves, record.parse_query)])
        for text in changed[:3]]
