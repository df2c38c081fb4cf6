"""Registry invariants: every catalog spec is internally consistent.

``fields.chi_residual`` zips generator components against chi functions, so a
spec whose lists disagree in length would silently skip a generator; these
checks catch that at the registry.
"""

import pytest

from dskg import cases
from dskg.cases import CASES, CaseId, resolve
from dskg.fields import FieldConfig


def _ids(specs):
    return [s.case_id.value for s in specs]


def test_registry_is_the_catalog_in_order():
    assert [s.case_id for s in CASES] == list(CaseId)
    assert cases.ALL_CASES == list(CaseId)


@pytest.mark.parametrize("spec", CASES, ids=_ids(CASES))
def test_spec_parts_agree(spec):
    a = 1.0 if spec.parameterized else None
    rows, brackets = spec.algebra(a)
    n = len(rows)
    assert spec.dim == n
    assert all(len(row) == 6 for row in rows)
    assert all(0 <= A < B < n and len(vec) == n for (A, B), vec in brackets.items())
    assert len(spec.rect(a)) == n
    assert all(len(comp) == 3 for comp in spec.rect(a))
    cfg = FieldConfig(spec.case_id, parameter_a=a)
    assert len(spec.field.chi(cfg)) == n
    assert len(spec.field.gauge(cfg)) == 3
    assert 1 <= spec.chart.r <= 3
    assert len(spec.chart.coord_names) == len(spec.chart.domain) == 3
    assert len(spec.table3_reference) == 6
    assert spec.table3_reference[0] == n + 1  # dimension of the central extension


@pytest.mark.parametrize("spec", CASES, ids=_ids(CASES))
def test_parameterized_iff_a_is_required_and_used(spec):
    rows_1, brackets_1 = spec.algebra(1.0)
    rows_2, brackets_2 = spec.algebra(2.0)
    uses_a = rows_1 != rows_2 or brackets_1 != brackets_2
    assert spec.parameterized == uses_a
    if spec.parameterized:
        with pytest.raises(ValueError):
            resolve(spec.case_id)
        with pytest.raises(ValueError):
            resolve(spec.case_id, 0.0)
        assert resolve(spec.case_id, 0.5) == (spec, 0.5)
    else:
        assert resolve(spec.case_id, 0.5) == (spec, None)


@pytest.mark.parametrize("spec", CASES, ids=_ids(CASES))
def test_integrable_specs_carry_every_integration_part(spec):
    integ = spec.integration
    assert (integ is None) == (spec.case_id not in cases.INTEGRABLE_CASES)
    if integ is None:
        with pytest.raises(ValueError):
            cases.integration(spec.case_id)
        return
    for part in (integ.lambda_rep, integ.kg_operator, integ.ansatz, integ.reduced_ode,
                 integ.basis):
        assert callable(part)
    assert isinstance(integ.lam, complex)
    assert len(integ.grid) == 3 and all(lo < hi for lo, hi in integ.grid)
    cfg = FieldConfig(spec.case_id, parameter_a=1.0 if spec.parameterized else None)
    rows, _ = integ.lambda_rep(1.0, cfg)
    assert len(rows) == spec.dim
