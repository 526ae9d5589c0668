"""The benchmark records at the root of the repository: every claimed speedup
commits a BENCH_<topic>.json with its before and after numbers, and each
must stay a readable record of what was measured, where and how."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
#: what every record states: what it measured, on which machine, by which
#: method, and its end-to-end numbers
REQUIRED = ("topic", "machine", "method", "end_to_end")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_parses_and_says_what_it_measured(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    missing = [key for key in REQUIRED if key not in record]
    assert not missing, f"{path.name} lacks {missing}"
    assert isinstance(record["topic"], str) and record["topic"].strip()
    assert isinstance(record["machine"], dict) and record["machine"]
    assert isinstance(record["method"], dict) and record["method"]
    assert isinstance(record["end_to_end"], dict) and record["end_to_end"]
