"""Invariant 2-forms, gauges and chi functions across the whole catalog."""

import math

import numpy as np
import pytest

from dskg import dual
from dskg.dual import Dual
from dskg.fields import (FORM_TOL, FieldConfig, TwoForm, chi_residual, closedness_residual,
                         cocycle_from_config, gauge_one_form, gauge_residual,
                         invariance_residual, invariant_two_form, lie_derivative, solve_chi)
from dskg.geometry import generator_jets
from dskg.lie_core import ALL_CASES, CaseId, Cocycle, coboundary_solve, \
    standard_cocycle, subalgebra

from conftest import chart_points, make_config, perturbed_form


def gauge_at(case, cfg, p):
    s = Dual.seed(p)
    return gauge_residual([a(s) for a in gauge_one_form(case, cfg)],
                          invariant_two_form(case, cfg).jets(s))


def chi_at(case, cfg, p):
    s = Dual.seed(p)
    return chi_residual([chi(s) for chi in solve_chi(case, cfg)],
                        generator_jets(case, s, cfg.parameter_a),
                        invariant_two_form(case, cfg).jets(s))


def invariance_at(case, cfg, p, f=None):
    s = Dual.seed(p)
    f = f or invariant_two_form(case, cfg)
    return invariance_residual(generator_jets(case, s, cfg.parameter_a), f.jets(s))


@pytest.mark.parametrize("case", ALL_CASES)
def test_closedness_and_invariance(case):
    cfg = make_config(case)
    f = invariant_two_form(case, cfg)
    for p in chart_points(case, 20):
        assert closedness_residual(f.jets(Dual.seed(p))) < 1e-10
        m = f.matrix(Dual.seed(p))
        assert np.max(np.abs(m + m.T)) < 1e-14
        assert invariance_at(case, cfg, p, f) < 1e-10


@pytest.mark.parametrize("case", ALL_CASES)
def test_gauge_consistency(case):
    cfg = make_config(case)
    for p in chart_points(case, 12):
        assert gauge_at(case, cfg, p) < 1e-10


@pytest.mark.parametrize("case", ALL_CASES)
def test_chi_solves_the_gradient_equation(case):
    cfg = make_config(case)
    for p in chart_points(case, 12):
        assert chi_at(case, cfg, p) < 1e-10


def test_two_form_specific_entries():
    cfg = make_config(CaseId.G32, mu=2.0)
    f = invariant_two_form(CaseId.G32, cfg)
    m = f.matrix(Dual.seed((0.4, -0.2, 0.1)))
    assert abs(m[0, 1] - 2.0) < 1e-15
    assert abs(m[0, 2]) == 0.0

    cfg = make_config(CaseId.G34, mu=1.0)
    f = invariant_two_form(CaseId.G34, cfg)
    m = f.matrix(Dual.seed((0.7, 0.0, 0.3)))
    assert abs(m[0, 1] - 1.0) < 1e-15  # cos(0) = 1

    f = invariant_two_form(CaseId.G41, make_config(CaseId.G41))
    assert np.max(np.abs(f.matrix(Dual.seed((0.2, 0.3, 0.1))))) == 0.0


@pytest.mark.parametrize("case", ALL_CASES)
def test_two_form_evaluates_each_stored_entry_once(case):
    # the mirrored component is the stored one's jet negated, not a second call
    calls = []

    def counted(key, fn):
        def entry(coords):
            calls.append(key)
            return fn(coords)
        return entry

    stored = invariant_two_form(case, make_config(case)).entries
    seed = Dual.seed((0.2, 0.3, 0.1))
    form = TwoForm({key: counted(key, fn) for key, fn in stored.items()}).jets(seed)
    assert sorted(calls) == sorted(stored)
    for (a, b), fn in stored.items():
        assert dual.value(form[a][b]) == dual.value(fn(seed)) == -dual.value(form[b][a])
    assert all(form[a][a] == 0.0 for a in range(3))


def test_potential_reference_gauges():
    cfg = make_config(CaseId.G34, mu=0.9)
    a34 = gauge_one_form(CaseId.G34, cfg)
    vals = [dual.value(a([0.1, 0.5, -0.2])) for a in a34]
    assert abs(vals[0] + 0.9 * math.sin(0.5)) < 1e-15
    assert vals[1] == 0.0 and vals[2] == 0.0

    cfg = make_config(CaseId.G32, mu=1.4)
    a32 = gauge_one_form(CaseId.G32, cfg)
    vals = [dual.value(a([0.3, -0.6, 0.0])) for a in a32]
    assert abs(vals[0] - 0.5 * 1.4 * 0.6) < 1e-15
    assert abs(vals[1] - 0.5 * 1.4 * 0.3) < 1e-15


def test_chi_closed_forms_match_operator_scalars():
    cfg = make_config(CaseId.G34, mu=0.8)
    chis = solve_chi(CaseId.G34, cfg)
    q = [0.4, 0.25, 0.1]
    assert abs(dual.value(chis[1](q)) - 0.8 * math.sin(0.4) * math.cos(0.25)) < 1e-15
    cfg = make_config(CaseId.G32, mu=1.1)
    chis = solve_chi(CaseId.G32, cfg)
    assert abs(dual.value(chis[2](q)) - 0.5 * 1.1 * (0.4 ** 2 + 0.25 ** 2)) < 1e-15
    # zero field: all chi vanish
    cfg = make_config(CaseId.G41)
    assert all(dual.value(chi(q)) == 0.0 for chi in solve_chi(CaseId.G41, cfg))


def test_lie_derivative_detects_broken_invariance():
    cfg = make_config(CaseId.G32)
    f = invariant_two_form(CaseId.G32, cfg)
    eps = 1e-3
    broken = perturbed_form(f, (0, 2), lambda c: eps * c[0])  # q1-dependent dq1^du1 piece
    worst = 0.0
    for p in chart_points(CaseId.G32, 12):
        s = Dual.seed(p)
        x = generator_jets(CaseId.G32, s)[2]
        worst = max(worst, float(np.max(np.abs(lie_derivative(x, broken.jets(s))))))
    assert worst >= eps / 2


def test_lie_derivative_coordinate_example():
    # F with a q1-dependent coefficient against the translation field
    f = perturbed_form(invariant_two_form(CaseId.G32, make_config(CaseId.G32)),
                       (0, 1), lambda c: 0.5 * c[0] * c[0])
    one = [1.0, 0.0, 0.0]
    point = (0.7, -0.3, 0.2)
    lie = lie_derivative(one, f.jets(Dual.seed(point)))
    assert abs(lie[0, 1] - 0.7) < 1e-12  # d/dq1 of the added coefficient


def test_lie_derivative_zero_form():
    zero = invariant_two_form(CaseId.G41, make_config(CaseId.G41))
    one = [1.0, 0.0, 0.0]
    assert np.max(np.abs(lie_derivative(one, zero.jets(Dual.seed((0.1, 0.2, 0.3)))))) == 0.0


@pytest.mark.parametrize("case", ALL_CASES)
def test_cocycle_matches_standard(case):
    cfg = make_config(case, mu=0.9)
    pts = chart_points(case, 6)
    coc = cocycle_from_config(case, cfg, pts)
    sub = subalgebra(case, cfg.parameter_a)
    want = standard_cocycle(case, 0.9)
    assert np.max(np.abs(coc.F - want.F)) < 1e-10
    coc.validate(sub.algebra, tol=1e-10)


@pytest.mark.parametrize("case", [CaseId.G31, CaseId.G33a, CaseId.G34, CaseId.G35])
def test_integrable_cases_extend_trivially(case):
    cfg = make_config(case)
    coc = cocycle_from_config(case, cfg, chart_points(case, 6))
    sub = subalgebra(case, cfg.parameter_a)
    lam, res = coboundary_solve(sub.algebra, Cocycle(coc.F))
    assert lam is not None and res < 1e-10


def test_magnetic_case_extension_is_nontrivial():
    cfg = make_config(CaseId.G32, mu=1.0)
    coc = cocycle_from_config(CaseId.G32, cfg, chart_points(CaseId.G32, 6))
    assert abs(coc.F[0, 1] - 1.0) < 1e-12
    sub = subalgebra(CaseId.G32)
    lam, _ = coboundary_solve(sub.algebra, Cocycle(coc.F))
    assert lam is None


def test_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(CaseId.G31, zeta=0.3)
    with pytest.raises(ValueError):
        FieldConfig(CaseId.G33a)  # missing a
    cfg = FieldConfig(CaseId.G31, zeta=1.0 / 6.0)
    assert abs(cfg.mass_term - (0.25 + 1.0)) < 1e-15
    d = cfg.to_dict()
    assert d["case"] == "g3_1"


@pytest.mark.parametrize("case, f1, derived", [
    (CaseId.G11, lambda u1, u2: 2.0, [(0, 1), (0, 2)]),
    (CaseId.G23, lambda u1: 2.0, [(0, 2)]),
], ids=["g1_1", "g2_3"])
def test_constant_profile_f1(case, f1, derived):
    # the 2-form components built from partials of a constant f1 vanish
    cfg = make_config(case, f1=f1)
    form = invariant_two_form(case, cfg)
    for p in chart_points(case, 6):
        m = form.matrix(Dual.seed(p))
        for a, b in derived:
            assert m[a, b] == 0 and m[b, a] == 0
        assert closedness_residual(form.jets(Dual.seed(p))) <= FORM_TOL
        assert invariance_at(case, cfg, p, form) <= FORM_TOL


def test_custom_profile_without_needed_antiderivative_rejected():
    with pytest.raises(ValueError, match="g2_1: a custom f1 needs f1_antideriv"):
        FieldConfig(CaseId.G21, f1=lambda u: u)
    with pytest.raises(ValueError, match="g2_2: a custom f2 needs f2_antideriv"):
        FieldConfig(CaseId.G22, f2=lambda u: u)
    with pytest.raises(ValueError, match="g1_1: a custom f2 needs f2_antideriv"):
        FieldConfig(CaseId.G11, f2=lambda u1, u2: u1)
    cfg = FieldConfig(CaseId.G21, f1=lambda u: u, f1_antideriv=lambda u: 0.5 * u * u)
    assert gauge_at(CaseId.G21, cfg, (0.1, 0.5, 0.6)) < 1e-10
    assert chi_at(CaseId.G21, cfg, (0.1, 0.5, 0.6)) < 1e-10
    # the orbit-1 gauge uses f1 itself, so a bare f1 is complete there
    FieldConfig(CaseId.G11, f1=lambda u1, u2: u1 * u2)


def test_custom_profile_functions():
    # a non-default profile still satisfies every pointwise identity
    cfg = FieldConfig(CaseId.G23,
                      f1=lambda u: dual.sin(u),
                      f2=lambda u: dual.cos(u),
                      f2_antideriv=lambda u: dual.sin(u))
    for p in chart_points(CaseId.G23, 8):
        assert closedness_residual(invariant_two_form(CaseId.G23, cfg).jets(Dual.seed(p))) \
            < 1e-10
        assert invariance_at(CaseId.G23, cfg, p) < 1e-10
        assert gauge_at(CaseId.G23, cfg, p) < 1e-10
        assert chi_at(CaseId.G23, cfg, p) < 1e-10
