"""Source scans that pin which module owns a decision: only `dual` knows how a
jet is stored and assembles one from its parts, and only `cases` names a
catalog entry."""

import re
from pathlib import Path

import pytest

import dskg

SRC = Path(dskg.__file__).parent

RULES = {
    "dual.py": re.compile(r"\.(val|grad|hess)\b|isinstance\([^)]*Dual\)|Dual\.constant|\bDual\("),
    "cases.py": re.compile(r"CaseId\.G[0-9]"),
}


@pytest.mark.parametrize("owner", sorted(RULES))
def test_only_the_owner_matches(owner):
    pattern = RULES[owner]
    sources = sorted(SRC.glob("*.py"))
    assert SRC / owner in sources
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sources if path.name != owner
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []
