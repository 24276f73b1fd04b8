"""``docs/operations.md``'s fault-point table cannot drift from the code.

Every ``fault_point("<name>", ...)`` literal under ``src/repro`` must be
a row of the table, and every point the table names must be compiled
into the code.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CALL = re.compile(r'fault_point\(\s*"([a-z_.]+)"')
_ROW_NAME = re.compile(r"`([a-z_]+\.[a-z_]+)`")


def documented() -> set[str]:
    text = (ROOT / "docs" / "operations.md").read_text()
    table = text.split("| point | where it fires |", 1)[1].split("\n\n", 1)[0]
    names = set()
    for row in table.splitlines()[2:]:  # past the header's own line and the rule
        names.update(_ROW_NAME.findall(row.split("|")[1]))
    return names


def in_the_code() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        names.update(_CALL.findall(path.read_text()))
    return names


def test_fault_point_table_matches_the_code():
    named, code = documented(), in_the_code()
    assert code, "no fault_point literal found — the collector is broken"
    assert not code - named, f"missing from the table: {sorted(code - named)}"
    assert not named - code, f"the table names points the code lacks: {sorted(named - code)}"
