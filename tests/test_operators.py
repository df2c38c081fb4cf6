"""Operator calculus: commutators, table fits, the wave operator and its
symmetries.  Includes ten fixed regression commutators derived by hand."""

import math

import numpy as np
import pytest

from dskg import dual, operators
from dskg.cases import case_spec, const
from dskg.fields import gauge_one_form, invariant_two_form
from dskg.lie_core import ALL_CASES, CaseId, INTEGRABLE_CASES, standard_cocycle, subalgebra
from dskg.dual import Dual
from dskg.operators import (DiffOp1, DiffOp2, commutation_table_fit, commutator,
                            kg_cross_residual, kg_generic_coefficients, kg_operator,
                            operator_jets, random_probe, representation_residual,
                            symmetry_check, symmetry_operators)

import pointwise
from pointwise import DualProbe
from conftest import chart_points, grid_jets, make_config


def commutator_at(A, B, point):
    vals, grads, _ = operator_jets([A, B], Dual.seed(point))
    return commutator((vals[0], grads[0]), (vals[1], grads[1]))


def op1(coeffs, scalar=None):
    zero = lambda c: 0.0
    cs = [c if c is not None else zero for c in coeffs]
    return DiffOp1(cs, scalar if scalar is not None else zero)


def test_apply_partial_derivative():
    d1 = op1([lambda c: 1.0, None, None])
    f = DualProbe({(1, 1, 0): 1.0}, (0, 0, 0))  # q1 q2
    assert abs(d1.apply(f, (1.0, 2.0, 0.0)) - 2.0) < 1e-14


def test_apply_second_order():
    # pure Laplace-Beltrami part of the translation-dilation case acting on q3
    cfg = make_config(CaseId.G31, e=0.0, m=0.0, zeta=0.0)
    h = kg_operator(CaseId.G31, cfg)
    f = DualProbe({(0, 0, 1): 1.0}, (0, 0, 0))  # f = q3
    for p in chart_points(CaseId.G31, 5):
        assert abs(h.apply_scaled(f, p)[0] - 2.0) < 1e-13


# ten fixed commutator regressions, expected values derived by hand
def _regression_pairs():
    z = lambda c: 0.0
    one = lambda c: 1.0
    q1 = lambda c: c[0]
    q2 = lambda c: c[1]
    q3 = lambda c: c[2]
    eq1 = lambda c: dual.exp(c[0])
    sq2 = lambda c: dual.sin(c[1])
    return [
        # ([A], [B], point, expected coeffs, expected scalar)
        (op1([one, None, None]), op1([q1, None, None]),
         (0.3, 0.1, 0.2), [1.0, 0.0, 0.0], 0.0),
        (op1([one, None, None]), op1([one, None, None]),
         (0.5, -0.2, 0.1), [0.0, 0.0, 0.0], 0.0),
        (op1([None, q1, None]), op1([q2, None, None]),
         (0.4, 0.7, 0.0), [0.4, -0.7, 0.0], 0.0),   # [q1 d2, q2 d1] = q1 d1 - q2 d2
        (op1([one, None, None]), op1([None, None, None], q1),
         (1.1, 0.0, 0.0), [0.0, 0.0, 0.0], 1.0),    # [d1, q1] = 1
        (op1([one, None, None]), op1([None, None, None], sq2),
         (0.0, 0.6, 0.0), [0.0, 0.0, 0.0], 0.0),    # scalar independent of q1
        (op1([None, one, None]), op1([None, None, None], sq2),
         (0.0, 0.6, 0.0), [0.0, 0.0, 0.0], math.cos(0.6)),
        (op1([eq1, None, None]), op1([one, None, None]),
         (0.2, 0.0, 0.0), [-math.exp(0.2), 0.0, 0.0], 0.0),
        (op1([one, None, None], q2), op1([None, one, None], q1),
         (0.8, -0.3, 0.0), [0.0, 0.0, 0.0], 0.0),   # d1 q1 - d2 q2 applied: 1 - 1 = 0
        (op1([q1, None, None]), op1([None, q2, None]),
         (0.5, 0.7, 0.0), [0.0, 0.0, 0.0], 0.0),    # disjoint variables commute
        (op1([None, None, q3]), op1([None, None, one]),
         (0.0, 0.0, 0.9), [0.0, 0.0, -1.0], 0.0),   # [q3 d3, d3] = -d3
    ]


def test_commutator_regressions():
    for A, B, pt, coeffs, scalar in _regression_pairs():
        s = commutator_at(A, B, pt)
        assert np.max(np.abs(s[:3] - np.array(coeffs, dtype=complex))) < 1e-13
        assert abs(s[3] - scalar) < 1e-13


def test_commutator_mixed_pair_derivation():
    # [q1 d2, q2 d1] at (a, b): coefficients (q1 d2(q2)) d1? expand:
    # [A,B]^1 = A(q2) - B(0) = q1, [A,B]^2 = A(0) - B(q1) = -q2
    A = op1([None, lambda c: c[0], None])
    B = op1([lambda c: c[1], None, None])
    s = commutator_at(A, B, (0.4, 0.7, 0.0))
    assert abs(s[0] - 0.4) < 1e-14
    assert abs(s[1] + 0.7) < 1e-14


def test_covariant_derivative_commutator_is_field_strength():
    case = CaseId.G34
    cfg = make_config(case, mu=0.8)
    gauge = gauge_one_form(case, cfg)
    f2 = invariant_two_form(case, cfg)
    e = cfg.e
    ds = []
    for a in range(3):
        coeffs = [lambda c: 0.0] * 3
        coeffs[a] = lambda c: 1.0
        ds.append(DiffOp1(coeffs, lambda c, a=a: -1j * e * gauge[a](c)))
    for p in chart_points(case, 6):
        m = f2.matrix(Dual.seed(p))
        for a in range(3):
            for b in range(3):
                s = commutator_at(ds[a], ds[b], p)
                assert np.max(np.abs(s[:3])) < 1e-14
                assert abs(s[3] - (-1j * e * m[a, b])) < 1e-10


@pytest.mark.parametrize("case", ALL_CASES)
def test_commutation_table_fit_recovers_catalog(case):
    cfg = make_config(case)
    sub = subalgebra(case, cfg.parameter_a)
    ops = symmetry_operators(case, cfg)
    pts = [tuple(p) for p in chart_points(case, 12)]
    fit = commutation_table_fit(grid_jets(ops, pts), 1j * cfg.e)
    assert fit.residual < 1e-9
    assert np.max(np.abs(fit.structure - sub.algebra.structure_constants)) < 1e-9
    want = standard_cocycle(case, cfg.mu)
    assert np.max(np.abs(fit.central - want.F)) < 1e-9


@pytest.mark.parametrize("mu", [0.25, 0.5, 1.0, 2.0, 3.5])
def test_fitted_central_charge_equals_mu(mu):
    # cross-module: the operator-level fit and the field-level cocycle agree
    from dskg.fields import cocycle_from_config
    cfg = make_config(CaseId.G32, mu=mu)
    ops = symmetry_operators(CaseId.G32, cfg)
    pts = chart_points(CaseId.G32, 10)
    fit = commutation_table_fit(grid_jets(ops, pts), 1j * cfg.e)
    assert abs(fit.central[0, 1] - mu) < 1e-10
    coc = cocycle_from_config(CaseId.G32, cfg, pts[:5])
    assert np.max(np.abs(fit.central - coc.F)) < 1e-10


def test_minimal_and_chi_parts_cancel_on_constants():
    # the rotation entry's first operator is a bare derivative in its gauge
    cfg = make_config(CaseId.G34, mu=0.8)
    ops = symmetry_operators(CaseId.G34, cfg)
    one = DualProbe({(0, 0, 0): 1.0}, (0, 0, 0))
    for p in chart_points(CaseId.G34, 5):
        assert abs(ops[0].apply(one, p)) < 1e-15


def test_chi_constant_shift_transforms_central_charge(rng):
    # F'_AB = F_AB - C_AB^C lambda_C, exactly
    cfg = make_config(CaseId.G32, mu=1.0)
    sub = subalgebra(CaseId.G32)
    pts = [tuple(p) for p in chart_points(CaseId.G32, 10)]
    for _ in range(20):
        lam = rng.uniform(-2, 2, 3)
        ops = symmetry_operators(CaseId.G32, cfg, chi_extra=[const(x) for x in lam])
        fit = commutation_table_fit(grid_jets(ops, pts), 1j * cfg.e)
        want = standard_cocycle(CaseId.G32, 1.0).F \
            - np.einsum("abc,c->ab", sub.algebra.structure_constants, lam)
        assert np.max(np.abs(fit.central - want)) < 1e-9


def test_non_closed_set_is_reported_not_fatal():
    cfg = make_config(CaseId.G31)
    ops = symmetry_operators(CaseId.G31, cfg)
    # drop the dilation, add an alien operator outside the span
    alien = DiffOp1([lambda c: c[0] * c[0], lambda c: 0.0, lambda c: 0.0],
                    lambda c: 0.0)
    pts = [tuple(p) for p in chart_points(CaseId.G31, 10)]
    fit = commutation_table_fit(grid_jets([ops[0], alien], pts), 1j * cfg.e)
    assert not fit.closed
    assert fit.residual > 1e-3


# ---------------------------------------------------------------- wave operator

def test_kg_operator_on_constants():
    cfg = make_config(CaseId.G31, e=0.1, m=0.5, zeta=0.0, mu1=0.3, mu2=0.4)
    h = kg_operator(CaseId.G31, cfg)
    one = DualProbe({(0, 0, 0): 1.0}, (0, 0, 0))
    for p in chart_points(CaseId.G31, 5):
        hh = math.exp(p[2]) * (0.3 * p[0] + 0.4 * p[1])
        want = -3j * 0.1 * hh - (0.1 * hh) ** 2 + 0.25
        assert abs(h.apply_scaled(one, p)[0] - want) < 1e-12
    # free constant mode
    cfg0 = make_config(CaseId.G31, e=0.0, m=0.5, zeta=1.0 / 6.0)
    h0 = kg_operator(CaseId.G31, cfg0)
    assert abs(h0.apply_scaled(one, (0.2, -0.1, 0.4))[0] - (0.25 + 1.0)) < 1e-14


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_kg_cross_construction_agreement(case):
    cfg = make_config(case)
    assert kg_cross_residual(case, cfg, chart_points(case, 20)) < 1e-10


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_kg_cross_residual_catches_every_coefficient(case, monkeypatch):
    # 1e-6 on any one closed-form coefficient (9 second-order, 3 first-order,
    # 1 scalar) must show, far above the agreement bound
    cfg = make_config(case)
    pts = chart_points(case, 20)
    h = kg_operator(case, cfg)
    for slot in range(13):
        coeffs = [c for row in h.second for c in row] + h.first + [h.scalar]
        coeffs[slot] = lambda c, f=coeffs[slot]: f(c) + 1e-6
        op = DiffOp2([coeffs[0:3], coeffs[3:6], coeffs[6:9]], coeffs[9:12], coeffs[12])
        monkeypatch.setattr(operators, "kg_operator", lambda *_: op)
        assert kg_cross_residual(case, cfg, pts) > 1e-10, slot


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_apply_jet_equals_apply(case):
    # contracting an evaluated jet is exactly applying the operator to f
    cfg = make_config(case)
    h = kg_operator(case, cfg)
    ops = symmetry_operators(case, cfg)
    rng = np.random.default_rng(23)
    for p in chart_points(case, 4):
        f = DualProbe.of(random_probe(rng))
        fv = f(Dual.seed(p))
        assert h.apply_jet(fv, p) == h.apply_scaled(f, p)
        for op in ops:
            assert op.apply_jet(fv, p) == op.apply(f, p)


def test_kg_generic_assembly_zero_charge_reduces_to_wave():
    # with e = 0 the generic assembly is the pure Laplace-Beltrami operator:
    # real coefficients, and no scalar part
    cfg = make_config(CaseId.G35, e=0.0, m=0.0, zeta=0.0)
    coords = Dual.seed_grid(dual.columns(chart_points(CaseId.G35, 4)))
    _, first, scalar = kg_generic_coefficients(CaseId.G35, cfg, coords)
    assert np.max(np.abs(first.imag)) < 1e-12
    assert np.max(np.abs(scalar)) < 1e-12


def test_kg_operator_rejects_nonintegrable():
    with pytest.raises(ValueError):
        kg_operator(CaseId.G21, make_config(CaseId.G21))


# ---------------------------------------------------------------- symmetry

def check_symmetry(case, cfg, pts, n_probes, chi_extra=None):
    ops = symmetry_operators(case, cfg, chi_extra=chi_extra)
    return symmetry_check(kg_operator(case, cfg), grid_jets(ops, pts), pts, n_probes)


def test_probe_derivatives_match_the_dual_probe():
    # the closed-form derivatives of every order against the jets of the
    # same function, with partials taken term by term
    rng = np.random.default_rng(3301)
    for _ in range(60):
        probe = random_probe(rng)
        pts = rng.uniform(-1.5, 1.5, (12, 3))
        cols = dual.columns(pts)
        f = DualProbe.of(probe)
        coords = Dual.seed_grid(cols)
        vals, grads, hess = dual.arrays([f(coords)] + [f.partial(a)(coords) for a in range(3)],
                                        3)
        want = (vals[:, 0], vals[:, 1:], grads[:, 1:], hess[:, 1:])
        for order, (got, ref) in enumerate(zip(probe.derivatives(cols), want)):
            assert got.shape == ref.shape == (12,) + (3,) * order
            assert np.all(np.abs(got - ref) <= 1e-14 * (1 + np.abs(ref))), order


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_symmetry_commutators_vanish(case):
    cfg = make_config(case)
    pts = [tuple(p) for p in chart_points(case, 10)]
    assert check_symmetry(case, cfg, pts, 3) < 1e-8


def test_symmetry_check_free_field_killing_only():
    cfg = make_config(CaseId.G34, e=0.0)
    pts = [tuple(p) for p in chart_points(CaseId.G34, 8)]
    assert check_symmetry(CaseId.G34, cfg, pts, 2) < 1e-8


def _reference_symmetry_check(h, ops, points, n_probes):
    """symmetry_check as one jet of X f and one of H f per operator and point."""
    rng = np.random.default_rng(operators.PROBE_SEED)
    worst = 0.0
    for _ in range(n_probes):
        f = DualProbe.of(random_probe(rng))
        hf = pointwise.as_function(h, f)
        for op in ops:
            xf = pointwise.as_function(op, f)
            for pt in points:
                lhs, _ = h.apply_scaled(xf, pt)
                rhs = op.apply(hf, pt)
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    return worst


@pytest.mark.parametrize("chi_extra", [None, [lambda c: 1e-3 * c[0], None, None]])
def test_symmetry_check_matches_reference_loop(chi_extra):
    # sharing the jets of f, its partials and H f across operators changes no
    # bit of the per-point route, the oracle of the batched symmetry_check
    cfg = make_config(CaseId.G32, mu=1.0)
    h = kg_operator(CaseId.G32, cfg)
    ops = symmetry_operators(CaseId.G32, cfg, chi_extra=chi_extra)
    pts = [tuple(p) for p in chart_points(CaseId.G32, 6)]
    assert pointwise.symmetry(h, ops, pts, 2) == _reference_symmetry_check(h, ops, pts, 2)


def _counted(fn, calls):
    def wrapper(*args):
        calls[wrapper] += 1
        return fn(*args)
    calls[wrapper] = 0
    return wrapper


@pytest.mark.parametrize("n_probes", [1, 3])
@pytest.mark.parametrize("case", [CaseId.G32, CaseId.G35])
def test_symmetry_check_evaluates_each_coefficient_once(monkeypatch, case, n_probes):
    # every coefficient of H and of each X_A runs once per call, whatever the
    # number of probes, and the probes build no jets: a call makes as many jet
    # products as one without probes
    cfg = make_config(case)
    pts = [tuple(p) for p in chart_points(case, 6)]
    products = {}
    monkeypatch.setattr(Dual, "__mul__", _counted(Dual.__mul__, products))
    monkeypatch.setattr(Dual, "__rmul__", _counted(Dual.__rmul__, products))
    seen = []
    for probes in (0, n_probes):
        calls = {}
        h = kg_operator(case, cfg)
        h.second = [[_counted(c, calls) for c in row] for row in h.second]
        h.first = [_counted(c, calls) for c in h.first]
        h.scalar = _counted(h.scalar, calls)
        ops = symmetry_operators(case, cfg)
        for op in ops:
            op.coeffs = [_counted(c, calls) for c in op.coeffs]
            op.scalar = _counted(op.scalar, calls)
        products.update(dict.fromkeys(products, 0))
        assert symmetry_check(h, grid_jets(ops, pts), pts, probes) < 1e-8
        assert len(calls) == 13 + 4 * case_spec(case).dim
        assert set(calls.values()) == {1}
        seen.append(sum(products.values()))
    assert seen[0] == seen[1] > 0


def test_symmetry_check_at_a_singular_point_is_nan():
    # sin(u1) = 0 is singular for the g3_5 wave operator; the lane it puts
    # NaN in must fail the check, not drop out of the maximum
    cfg = make_config(CaseId.G35)
    pts = [tuple(p) for p in chart_points(CaseId.G35, 4)] + [(0.1, 0.2, 0.0)]
    with np.errstate(divide="ignore", invalid="ignore"):
        assert math.isnan(check_symmetry(CaseId.G35, cfg, pts, 1))


def test_perturbed_chi_is_detected():
    eps = 1e-3
    cfg = make_config(CaseId.G32, mu=1.0)
    pts = [tuple(p) for p in chart_points(CaseId.G32, 8)]
    clean = check_symmetry(CaseId.G32, cfg, pts, 2)
    broken = check_symmetry(CaseId.G32, cfg, pts, 2,
                            chi_extra=[lambda c: eps * c[0], None, None])
    assert clean < 1e-10
    assert broken > eps * 1e-3  # detectably nonzero against a ~1e-16 baseline
    assert broken > 100 * clean


def test_lambda_style_representation_residual():
    # representation check utility on a hand-built sl2-like triple
    ops = [
        DiffOp1([lambda c: c[0]], lambda c: 0.5),
        DiffOp1([lambda c: 0.0], lambda c: 1j * c[0]),
        DiffOp1([lambda c: 0.0], lambda c: 1j * 2.0 * c[0]),
    ]
    # [l1, l2] = l2 and [l1, l3] = l3 for l1 = x d/dx + 1/2, l2 = ix, l3 = 2ix
    structure = np.zeros((3, 3, 3))
    structure[0, 1, 1] = 1.0
    structure[1, 0, 1] = -1.0
    structure[0, 2, 2] = 1.0
    structure[2, 0, 2] = -1.0
    central = np.zeros((3, 3))
    res = representation_residual(ops, structure, central, -1j * 0.1,
                                  [(0.4,), (0.9,)])
    assert res < 1e-14
