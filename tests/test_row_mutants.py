"""Generator-row mutants stop `verify`: the first slice of the registry's
mutation audit (ROADMAP item 11).

Each mutant adds ROW_BUMP to one component of one generator row of one entry,
is swapped into the registry for one run of `verify --case <entry>` (at
`--a 1` for the families), and must make that run exit non-zero.  An entry
of dimension one has no bracket to derive, so most of its row mutants still
pass: they are listed below and may only shrink.
"""

import io
from dataclasses import replace

import pytest

from dskg import cases, cli
from dskg.cases import CASES

ROW_BUMP = 1e-3

RECT_VS_AMBIENT = "verify does not yet compare rect with the pushforward of the rows (ROADMAP item 7)"

# (entry, row, component) of the mutants that `verify` still passes
SURVIVORS = {
    ("g1_1", 0, 0): RECT_VS_AMBIENT,
    ("g1_1", 0, 1): RECT_VS_AMBIENT,
    ("g1_1", 0, 3): RECT_VS_AMBIENT,
    ("g1_1", 0, 4): RECT_VS_AMBIENT,
    ("g1_1", 0, 5): RECT_VS_AMBIENT,
    ("g1_2", 0, 0): RECT_VS_AMBIENT,
    ("g1_2", 0, 1): RECT_VS_AMBIENT,
    ("g1_2", 0, 2): RECT_VS_AMBIENT,
    ("g1_2", 0, 4): RECT_VS_AMBIENT,
    ("g1_2", 0, 5): RECT_VS_AMBIENT,
    ("g1_3a", 0, 0): RECT_VS_AMBIENT,
    ("g1_3a", 0, 1): RECT_VS_AMBIENT,
    ("g1_3a", 0, 2): RECT_VS_AMBIENT,
    ("g1_3a", 0, 3): RECT_VS_AMBIENT,
    ("g1_3a", 0, 4): RECT_VS_AMBIENT,
    ("g1_3a", 0, 5): RECT_VS_AMBIENT,
    ("g1_4", 0, 1): RECT_VS_AMBIENT,
    ("g1_4", 0, 2): RECT_VS_AMBIENT,
    ("g1_4", 0, 3): RECT_VS_AMBIENT,
    ("g1_4", 0, 4): RECT_VS_AMBIENT,
    ("g1_4", 0, 5): RECT_VS_AMBIENT,
}


def _mutant_generators(generators, row, component):
    def mutant(a):
        rows = [list(r) for r in generators(a)]
        rows[row][component] += ROW_BUMP
        return rows
    return mutant


def surviving_row_mutants(spec):
    """The (entry, row, component) of every row mutant of ``spec`` under which
    `verify --case <entry>` still exits 0."""
    argv = ["verify", "--case", spec.case_id.value] + (["--a", "1"] if spec.parameterized else [])
    survivors = []
    for row in range(spec.dim):
        for component in range(6):
            mutant = replace(spec, generators=_mutant_generators(spec.generators, row, component))
            cases._BY_ID[spec.case_id] = mutant
            try:
                code = cli.main(argv, io.StringIO(), io.StringIO())
            finally:
                cases._BY_ID[spec.case_id] = spec
            if code == 0:
                survivors.append((spec.case_id.value, row, component))
    return survivors


@pytest.mark.parametrize("spec", CASES, ids=[s.case_id.value for s in CASES])
def test_row_mutants_stop_verify(spec):
    listed = sorted(key for key in SURVIVORS if key[0] == spec.case_id.value)
    if spec.dim >= 2:
        assert not listed
    assert surviving_row_mutants(spec) == listed
