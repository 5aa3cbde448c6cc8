"""Analysis, play and one-shot tables give what ``game_record.json``
recorded.

``make_game_record.py`` writes the record and says what it holds and
when to write it again.  The replay checks every setup of the record,
and one part in ``record.STRIDE`` of the tables: the seeds of residue 0.
"""

import json

import pytest

import make_game_record as record

RECORD = json.loads(record.RECORD.read_text(encoding="utf-8"))
LABELS = list(RECORD["setups"])


def test_record_covers_every_claimed_setup():
    assert LABELS == record.labels()


@pytest.mark.parametrize("kind", ["plain", "annotated", "large", "analysis",
                                  "play"])
def test_setups_match_record(kind):
    for label in LABELS:
        if label.split(":")[0] == kind:
            assert record.setup_entry(label) == RECORD["setups"][label], label


@pytest.mark.parametrize("name", list(record.TABLE_CLASSES))
def test_table_rows_match_record(name):
    for key, digests in record.table_digests(name, residues=(0,)).items():
        assert digests == RECORD["tables"][key][:1], key
