"""Source scans that pin which module owns a decision: only `dual` knows how a
jet is stored and assembles one from its parts, and only `cases` names a
catalog entry.  A third scan pins the grid route: `src` seeds a point jet only
in the two operator applications that the benchmark spans."""

import ast
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


def seed_callers():
    """The qualified name of the def around every `Dual.seed(...)` call in `src`."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "seed"
                    and isinstance(func.value, ast.Name) and func.value.id == "Dual"):
                found.append(".".join(scope))
            walk(child, scope)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), [path.stem])
    return found


def test_point_jets_are_seeded_only_by_the_spanned_applications():
    # every command and every oracle pair in src runs on grid seeds
    # (`Dual.seed_grid`); the point route must not grow back
    assert sorted(seed_callers()) == ["operators.DiffOp1.apply", "operators.DiffOp2.apply_scaled"]
