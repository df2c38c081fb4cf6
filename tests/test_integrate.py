"""Lambda-representations, joint-system ansatz, reduced equations, solution
bases and the end-to-end wave-equation residual."""

import cmath
import math
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from dskg import dual, specfun
from dskg.cases import integration
from dskg.dual import Dual
from dskg.fields import FieldConfig
from dskg.integrate import (BranchPointError, ansatz, default_grid, grid_axes,
                            joint_system_residual, lambda_rep, reduced_ode,
                            reduction_coefficients, reduction_residual, solution_basis)
from dskg.lie_core import CaseId, INTEGRABLE_CASES, standard_cocycle, subalgebra
from dskg.operators import (FIT_TOL, DiffOp1, commutation_table_fit, kg_operator,
                            representation_residual, symmetry_operators)
from dskg.specfun import ODESolverConfig, ode_integrate

import pointwise
from conftest import grid_jets, make_config

LAMBDA_PROBES = [(0.35,), (0.8,), (-0.6,), (1.3,)]


def run_points(case, n=8, seed=311):
    rng = np.random.default_rng(seed)
    box = integration(case).grid
    return [[rng.uniform(lo, hi) for lo, hi in box] for _ in range(n)]


# ---------------------------------------------------------------- lambda reps

def test_lambda_rep_g31_verbatim_values():
    rep = lambda_rep(CaseId.G31, 2.0, make_config(CaseId.G31))
    lam = 0.7
    # l1 = i J lam, l2 = i lam, l3 = lam d/dlam + 1/2
    assert abs(rep.ops[0].scalar([lam]) - 2j * lam) < 1e-15
    assert abs(rep.ops[1].scalar([lam]) - 1j * lam) < 1e-15
    assert abs(rep.ops[2].coeffs[0]([lam]) - lam) < 1e-15
    assert abs(rep.ops[2].scalar([lam]) - 0.5) < 1e-15
    assert rep.ell0 == -1j * 0.1


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_lambda_rep_reproduces_operator_tables(case):
    cfg = make_config(case)
    rep = lambda_rep(case, 1.0, cfg)
    sub = subalgebra(case, cfg.parameter_a)
    res = representation_residual(rep.ops, sub.algebra.structure_constants,
                                  standard_cocycle(case, cfg.mu),
                                  rep.ell0, LAMBDA_PROBES)
    assert res < 1e-10


def test_lambda_rep_g34_bracket_fits_with_unit_coefficient():
    # at a generic J the three operators are independent and the fit is well posed
    cfg = make_config(CaseId.G34)
    rep = lambda_rep(CaseId.G34, 1.7, cfg)
    fit = commutation_table_fit(grid_jets(rep.ops, [(0.3,), (0.8,), (-0.5,)]), rep.ell0)
    assert fit.residual <= FIT_TOL
    assert abs(fit.structure[0, 1, 2] - 1.0) < 1e-10


def test_lambda_rep_g32_central_charge():
    cfg = make_config(CaseId.G32, mu=0.9)
    rep = lambda_rep(CaseId.G32, 1.0, cfg)
    fit = commutation_table_fit(grid_jets(rep.ops, [(0.2,), (0.9,), (-0.4,)]), rep.ell0)
    assert abs(fit.central[0, 1] - 0.9) < 1e-12


def test_lambda_rep_parameter_ranges():
    cfg = make_config(CaseId.G34)
    with pytest.raises(ValueError):
        lambda_rep(CaseId.G34, 0.0, cfg)
    cfg = make_config(CaseId.G35)
    with pytest.raises(ValueError):
        lambda_rep(CaseId.G35, -0.5, cfg)
    with pytest.raises(ValueError):
        lambda_rep(CaseId.G21, 1.0, make_config(CaseId.G21))


# ---------------------------------------------------------------- ansatz

def test_ansatz_characteristic_variables():
    cfg = make_config(CaseId.G31)
    a31 = ansatz(CaseId.G31, cfg, 1.0, 0.7)
    assert abs(a31.char([0.2, 0.3, 0.5], 0.7) - 0.7 * math.exp(-0.5)) < 1e-15
    a34 = ansatz(CaseId.G34, make_config(CaseId.G34), 1.0, 0.3)
    assert abs(a34.char([0.1, 0.2, 0.83], 0.3) - 0.83) < 1e-15
    cfg33 = make_config(CaseId.G33a)
    a33 = ansatz(CaseId.G33a, cfg33, 1.0, 0.2)
    assert abs(a33.char([0.1, 0.2, 0.45], 0.2) - 0.25) < 1e-15


def test_ansatz_g31_phase_closed_form():
    cfg = make_config(CaseId.G31, mu1=0.3, mu2=0.4, e=0.1)
    a = ansatz(CaseId.G31, cfg, 2.0, 0.7)
    q = [0.2, -0.1, 0.3]
    want = cmath.exp(-1j * 0.7 * (2.0 * 0.2 - 0.1) - 0.15
                     + 1j * 0.1 * math.exp(0.3) * (0.3 * 0.2 - 0.4 * 0.1))
    assert abs(a.phase(q, 0.7) - want) < 1e-15


def test_ansatz_branch_point_reported():
    cfg = make_config(CaseId.G32)
    a = ansatz(CaseId.G32, cfg, 0.5, 0.0 + 0.0j)  # non-integer exponent
    with pytest.raises(BranchPointError):
        a.phase([-1.0, 0.0, 0.0], 0.0)  # base = -1: on the cut


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_ansatz_defaults_to_the_entry_lambda(case):
    cfg = make_config(case)
    own = ansatz(case, cfg, 1.0, integration(case).lam)
    default = ansatz(case, cfg, 1.0)
    assert default.lam == own.lam == complex(integration(case).lam)
    q = run_points(case, 1)[0]
    assert default.phase(q, default.lam) == own.phase(q, own.lam)


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_joint_system(case):
    cfg = make_config(case)
    rep = lambda_rep(case, 1.0, cfg)
    ans = ansatz(case, cfg, 1.0, integration(case).lam)
    assert joint_system_residual(ans, rep, run_points(case)) < 1e-8


def point_joint_system_residual(ans, rep, points):
    # oracle: the per-point route, one 4-variable jet per probe
    ops = symmetry_operators(ans.case_id, ans.config)
    worst = 0.0
    for pt in points:
        *qs, lam = Dual.seed([complex(p) for p in pt] + [ans.lam])
        phase = ans.phase(qs, lam)
        for f in (phase, phase * ans.char(qs, lam)):
            for op, lop in zip(ops, rep.ops):
                xphi = op.scalar(qs) * f
                for u in range(3):
                    xphi = xphi + op.coeffs[u](qs) * dual.partial(f, u)
                lphi = lop.scalar([lam]) * f + lop.coeffs[0]([lam]) * dual.partial(f, 3)
                xphi, lphi = dual.value(xphi), dual.value(lphi)
                worst = max(worst, abs(xphi + lphi) / (1.0 + abs(xphi) + abs(lphi)))
    return worst


def coefficient_jet_joint_system_residual(ans, rep, points):
    # oracle: the same grid jet, with every operator coefficient evaluated as
    # a 4-variable 2-jet and the operators applied through pointwise.combine1
    ops = symmetry_operators(ans.case_id, ans.config)
    with np.errstate(divide="ignore", invalid="ignore"):
        *qs, lam = Dual.seed_grid(dual.columns(points) + [np.full(len(points), ans.lam)])
        phase = ans.phase(qs, lam)
        res = []
        for f in (phase, phase * ans.char(qs, lam)):
            df = [dual.partial(f, u) for u in range(4)]
            for op, lop in zip(ops, rep.ops):
                xphi = dual.value(pointwise.combine1(op, qs, f, df[:3]))
                lphi = dual.value(pointwise.combine1(lop, [lam], f, df[3:]))
                res.append(np.abs(xphi + lphi) / (1.0 + np.abs(xphi) + np.abs(lphi)))
    return float(np.max(res))


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_joint_system_values_match_the_coefficient_jets(case):
    # plain coefficient values give the bits of the coefficient jets' values
    cfg = make_config(case)
    rep = lambda_rep(case, 1.0, cfg)
    ans = ansatz(case, cfg, 1.0, integration(case).lam)
    points = run_points(case, seed=20813)
    assert joint_system_residual(ans, rep, points) \
        == coefficient_jet_joint_system_residual(ans, rep, points)


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_joint_system_sees_a_shifted_lambda_scalar(case):
    cfg = make_config(case)
    rep = lambda_rep(case, 1.0, cfg)
    lop = rep.ops[0]
    shifted = DiffOp1(lop.coeffs, lambda c, s=lop.scalar: s(c) + 1e-3)
    rep = replace(rep, ops=[shifted] + rep.ops[1:])
    ans = ansatz(case, cfg, 1.0, integration(case).lam)
    points = run_points(case)
    batched = joint_system_residual(ans, rep, points)
    assert batched > 1e-4
    assert abs(batched - point_joint_system_residual(ans, rep, points)) <= 1e-12 * batched


def test_probe_on_the_cut_is_nan():
    # the batch must not swallow a probe lost at a branch point
    cfg = make_config(CaseId.G32)
    a = ansatz(CaseId.G32, cfg, 0.5, 0.0 + 0.0j)
    probes = [(0.3, 0.2, 0.1), (-1.0, 0.0, 0.0)]
    assert math.isnan(joint_system_residual(a, lambda_rep(CaseId.G32, 0.5, cfg), probes))
    h = kg_operator(CaseId.G32, cfg)
    p, q, _ = reduction_coefficients(a, h, probes)
    assert np.isfinite(p[0]) and np.isfinite(q[0]) and np.isnan(p[1]) and np.isnan(q[1])
    basis = solution_basis(CaseId.G32, cfg, 0.5)
    phi, residual = reduction_residual(a, h, basis.phi1, probes)
    assert np.isfinite(phi[0]) and np.isnan(phi[1])
    assert math.isnan(np.max(residual))


# ---------------------------------------------------------------- reduced ODEs

def test_reduced_ode_g31_coefficients():
    cfg = make_config(CaseId.G31, e=0.1, m=0.5, zeta=0.0, mu1=0.3, mu2=0.4)
    ode = reduced_ode(CaseId.G31, cfg, 1.0)
    v = 0.8
    c0 = 0.25 + 0.01 * (0.09 + 0.16) - 0.75
    want = (1.0 + 1.0) + (-2.0 * 0.1 * (0.3 + 0.4) * v + c0) / (v * v)
    assert abs(ode.q(v) - want) < 1e-14
    assert ode.p(v) == 0.0
    with pytest.raises(ZeroDivisionError):
        ode.q(0.0)


def test_reduced_ode_g32_coefficients():
    cfg = make_config(CaseId.G32, e=0.1, m=0.5, zeta=0.0, mu=0.3)
    ode = reduced_ode(CaseId.G32, cfg, 1.0)
    v = 0.4
    assert abs(ode.q(v) - (0.25 - 0.1 * 0.3 * 3.0 * math.exp(0.8))) < 1e-14
    assert ode.p(v) == -2.0


def test_reduced_ode_g34_coefficients():
    cfg = make_config(CaseId.G34, e=0.1, m=0.5, zeta=0.0, mu=0.3)
    ode = reduced_ode(CaseId.G34, cfg, 1.0)
    v = -0.6
    want = 0.25 + (2.0 - 0.0009) / math.cosh(v) ** 2
    assert abs(ode.q(v) - want) < 1e-14
    assert abs(ode.p(v) - 2.0 * math.tanh(v)) < 1e-15


def test_reduced_ode_g35_singularity():
    ode = reduced_ode(CaseId.G35, make_config(CaseId.G35), 1.0)
    with pytest.raises(ZeroDivisionError):
        ode.q(math.pi)


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_reduction_extraction_matches_closed_form(case):
    cfg = make_config(case)
    ode = reduced_ode(case, cfg, 1.0)
    for p_num, q_num, v in zip(*reduction_coefficients(ansatz(case, cfg, 1.0),
                                                       kg_operator(case, cfg),
                                                       run_points(case, 5))):
        assert abs(p_num - ode.p(v)) < 1e-9
        assert abs(q_num - ode.q(v)) < 1e-9


def point_reduction_coefficients(case, cfg, J, lam, point):
    # oracle: the per-point extraction, one jet and one apply per monomial
    class Monomial:
        def __init__(self, degree):
            self.degree = degree

        def jet(self, v):
            v = complex(v)
            return [(1.0 + 0j, 0j, 0j), (v, 1.0 + 0j, 0j), (v ** 2, 2.0 * v, 2.0 + 0j)][self.degree]

    ans = ansatz(case, cfg, J, lam)
    h = kg_operator(case, cfg)
    q = [complex(c) for c in point]
    emr = dual.value(ans.phase(q, ans.lam))
    v = dual.value(ans.char(q, ans.lam))
    gamma, h1, h2 = (h.apply_scaled(ans.assemble(Monomial(deg)), point)[0] / emr
                      for deg in range(3))
    beta = h1 - v * gamma
    alpha = (h2 - 2.0 * v * beta - v * v * gamma) / 2.0
    return beta / alpha, gamma / alpha, v


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_batched_reduction_coefficients_match_the_point_route(case):
    cfg = make_config(case)
    lam = integration(case).lam
    points = run_points(case, 5)
    batched = np.array(reduction_coefficients(ansatz(case, cfg, 1.0, lam),
                                              kg_operator(case, cfg), points))
    assert batched.shape == (3, 5)
    for lane, pt in zip(batched.T, points):
        want = np.array(point_reduction_coefficients(case, cfg, 1.0, lam, pt))
        # relative to the point's largest coefficient: g3_1's p is 0 up to rounding
        assert np.max(np.abs(lane - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------- solution bases

def vgrid(case, n=11):
    lo, hi = {
        CaseId.G31: (0.25, 1.1), CaseId.G32: (-0.5, 0.5), CaseId.G33a: (-0.7, 0.3),
        CaseId.G34: (-1.2, 1.2), CaseId.G35: (0.8, math.pi - 0.8),
    }[case]
    return np.linspace(lo, hi, n)


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
@pytest.mark.parametrize("e", [0.1, 0.0], ids=["charged", "neutral"])
def test_a_registry_basis_returns_plain_members(case, e):
    # the registry hands back two functions v -> (Phi, Phi', Phi'') in plain
    # complex arithmetic, series members too; solution_basis alone wraps them
    cfg = make_config(case, e=e)
    spec = integration(case)
    phi1, phi2, record = spec.basis(cfg, 1.0, spec.lam)
    basis = solution_basis(case, cfg, 1.0)
    assert isinstance(record, dict) and record == basis.record
    for phi, wrapped in ((phi1, basis.phi1), (phi2, basis.phi2)):
        assert callable(phi) and not hasattr(phi, "jet")
        for v in vgrid(case, 4).tolist():
            jet = phi(complex(v))
            assert type(jet) is tuple and len(jet) == 3
            assert all(type(x) is complex for x in jet), jet
            assert wrapped.jet(v) == jet


def test_solution_records():
    cfg = make_config(CaseId.G34, e=0.1, m=0.5, zeta=0.0, mu=0.3)
    rec = solution_basis(CaseId.G34, cfg, 1.0).record
    assert abs(rec["nu"] - (math.sqrt(2.25 - 0.0009) - 0.5)) < 1e-14
    assert abs(rec["sigma"] - math.sqrt(0.75)) < 1e-14

    rec = solution_basis(CaseId.G35, make_config(CaseId.G35), 1.0).record
    assert abs(rec["sigma"] - cmath.sqrt(0.0009 - 1.0)) < 1e-14

    rec = solution_basis(CaseId.G31, make_config(CaseId.G31), 1.0).record
    assert abs(rec["beta"] - cmath.sqrt(1 - 0.25 - 0.01 * 0.18)) < 1e-14
    assert abs(rec["alpha"] - 1j * 0.1 * 0.6 / math.sqrt(2.0)) < 1e-14
    assert abs(rec["z_scale"] - 2j * math.sqrt(2.0)) < 1e-14

    rec = solution_basis(CaseId.G32, make_config(CaseId.G32), 1.0).record
    assert abs(rec["order"] - math.sqrt(0.75)) < 1e-14

    rec = solution_basis(CaseId.G33a, make_config(CaseId.G33a), 1.0).record
    assert sorted(rec) == ["kind", "segments", "span", "terms"]
    assert rec["kind"] == "taylor_series" and rec["span"] == [-1.8, 1.8]
    assert rec["terms"] == 40 and rec["segments"] >= 36


@pytest.mark.parametrize("lam,span", [(0.2, (-1.8, 1.8)), (-1.3, (-1.8, 1.8)),
                                      (2.0, (-2.5, 1.8)), (-1.5 + 0.3j, (-1.8, 2.0))])
def test_g33a_series_span_is_the_hull_with_the_grid_v_range(lam, span):
    # v = q3 - lambda over q3 in [-0.5, 0.5]; inside the default span the
    # series is the one built at the entry's own lambda, bit for bit
    cfg = make_config(CaseId.G33a)
    basis = solution_basis(CaseId.G33a, cfg, 1.0, lam)
    assert basis.record["span"] == list(span)
    if span == (-1.8, 1.8):
        plain = solution_basis(CaseId.G33a, cfg, 1.0)
        assert basis.record == plain.record
        for v in np.linspace(-1.8, 1.8, 13):
            assert basis.phi1.jet(v) == plain.phi1.jet(v)
            assert basis.phi2.jet(v) == plain.phi2.jet(v)
    ode = reduced_ode(CaseId.G33a, cfg, 1.0)
    for v in np.linspace(*span, 9):
        assert ode.residual(basis.phi1, v) < 1e-8


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_solution_basis_satisfies_reduced_ode(case):
    cfg = make_config(case)
    ode = reduced_ode(case, cfg, 1.0)
    basis = solution_basis(case, cfg, 1.0)
    for v in vgrid(case):
        assert ode.residual(basis.phi1, v) < 1e-8
        assert ode.residual(basis.phi2, v) < 1e-8


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_solution_basis_wronskian_nonvanishing(case):
    basis = solution_basis(case, make_config(case), 1.0)
    for v in vgrid(case, 7):
        assert abs(basis.wronskian(v)) > 1e-8


def test_neutral_g32_basis_solves_the_reduced_ode():
    # e = 0: Phi'' - 2 Phi' + m_t Phi = 0, with rates 1 +- sqrt(1 - m_t) that
    # meet at m_t = 1 (m = 1)
    for m in (0.5, 1.0, 1.3):
        cfg = make_config(CaseId.G32, e=0.0, m=m)
        ode = reduced_ode(CaseId.G32, cfg, 1.0)
        basis = solution_basis(CaseId.G32, cfg, 1.0)
        assert basis.record["kind"] == "exponential"
        for v in vgrid(CaseId.G32):
            assert ode.residual(basis.phi1, v) < 1e-14
            assert ode.residual(basis.phi2, v) < 1e-14
            assert abs(basis.wronskian(v)) > 1e-3


# the closed-form entries, the order whose near-integer values lose digits,
# and the v-range that `solve` reads on the default grid
CLOSED_FORM = {
    CaseId.G31: (lambda rec: 2.0 * rec["beta"], (0.7 * math.exp(-1.0), 0.7 * math.exp(0.5))),
    CaseId.G32: (lambda rec: rec["order"], (-0.5, 0.5)),
    CaseId.G34: (lambda rec: rec["sigma"], (-1.2, 1.2)),
    CaseId.G35: (lambda rec: rec["sigma"], (0.8, math.pi - 0.8)),
}


def generic_bases(case, n, seed):
    """n bases of ``case`` at seeded parameters whose order keeps
    |sin(pi order)| >= 0.1, so no member takes an offset path."""
    rng = np.random.default_rng(seed)
    order = CLOSED_FORM[case][0]
    while n:
        J = rng.uniform(0.25, 4.0)
        e, mu, mu1, mu2 = rng.uniform(0.05, 1.0, 4)
        cfg = make_config(case, e=e, mu=mu, mu1=mu1, mu2=mu2, m=rng.uniform(0.0, 1.5))
        basis = solution_basis(case, cfg, J)
        if abs(cmath.sin(math.pi * order(basis.record))) >= 0.1:
            n -= 1
            yield basis


@pytest.mark.parametrize("case", sorted(CLOSED_FORM))
def test_plain_complex_members_match_the_dual_composition(case):
    # bound fixed before the first run: 1e-13 of the oracle jet's largest entry
    lo, hi = CLOSED_FORM[case][1]
    rng = np.random.default_rng(1801)
    for basis in generic_bases(case, 4, 1802):
        oracles = pointwise.dual_members(basis.record)
        for v in rng.uniform(lo, hi, 10):
            for phi, oracle in zip((basis.phi1, basis.phi2), oracles):
                want = np.array(pointwise.solution_jet(oracle, v))
                got = np.array(phi.jet(v))
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), \
                    (basis.record, v)


def offset_draws(seed):
    """(case, k, J) whose members take the offset limits: 2 beta = 1 (Whittaker
    W), order 1 and 0 (Bessel Y and J_0), sigma = 1 (Ferrers P and Q) and 0 (Q).
    ``k`` stands in for the field config; a basis reads only these fields."""
    rng = np.random.default_rng(seed)
    e, mu1, mu2 = rng.uniform(0.05, 1.0, 3)
    J = rng.uniform(0.25, 4.0)

    def k(**kw):
        return SimpleNamespace(**{"e": e, "mu": mu1, "mu1": mu1, "mu2": mu2,
                                  "mass_term": 0.5, **kw})
    yield CaseId.G31, k(mass_term=0.75 - e * e * (mu1 * mu1 + mu2 * mu2)), J
    yield CaseId.G32, k(mass_term=0.0), J
    yield CaseId.G32, k(mass_term=1.0), J
    yield CaseId.G35, k(mu=math.sqrt(J * J + 1.0) / e), J
    yield CaseId.G35, k(e=J, mu=1.0), J


@pytest.mark.parametrize("seed", [1901, 1902, 1903])
def test_bound_members_match_the_dual_composition_on_offset_paths(seed):
    # bound fixed before the first run: 1e-13 of the oracle jet's largest entry.
    # Each of these frames hands the evaluators the oracle's argument bit for
    # bit; tanh(v) of g3_4 does not, and the offset weights ~ 1/sin(pi sigma)
    # would amplify that last bit.  phi2 follows phi1 at every node, so it
    # reads the series objects phi1 left
    rng = np.random.default_rng(seed + 100)
    for case, k, J in offset_draws(seed):
        phi1, phi2, record = integration(case).basis(k, J, integration(case).lam)
        assert abs(cmath.sin(math.pi * CLOSED_FORM[case][0](record))) < 1e-6, record
        lo, hi = CLOSED_FORM[case][1]
        mid = 0.5 * (lo + hi)
        for v in np.concatenate([rng.uniform(lo, mid, 3), rng.uniform(mid, hi, 3)]):
            for phi, oracle in zip((phi1, phi2), pointwise.dual_members(record)):
                want = np.array(pointwise.solution_jet(oracle, v))
                got = np.array(phi(complex(v)))
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), \
                    (record, v)


def count_calls(monkeypatch, name):
    """Count the calls of specfun's ``name`` from inside specfun.  specfun keeps no
    module-level cache, so a basis built after this starts from nothing."""
    calls = [0]

    def counted(*args, _fn=getattr(specfun, name)):
        calls[0] += 1
        return _fn(*args)
    monkeypatch.setattr(specfun, name, counted)
    return calls


# nodes on both sides of x = 0 for the Ferrers entries (x = tanh v, cos v)
COST_NODES = {CaseId.G31: (0.4, 0.9, 0.6), CaseId.G32: (-0.3, 0.4, 0.1),
              CaseId.G34: (0.7, -0.5, 0.2, -1.1), CaseId.G35: (1.0, 2.1, 1.3, 1.9)}
REFLECTED = {CaseId.G34: lambda v: v < 0, CaseId.G35: lambda v: v > math.pi / 2}


@pytest.mark.parametrize("case", sorted(COST_NODES))
def test_each_node_sums_two_series(monkeypatch, case):
    # phi2 reuses phi1's series: M for U, J_nu for Y, P^sigma (and at x < 0
    # P^-sigma) for Q
    series = count_calls(monkeypatch, "_series_jet")
    basis = solution_basis(case, make_config(case), 1.0)
    for v in COST_NODES[case]:
        before = series[0]
        basis.phi1.jet(v), basis.phi2.jet(v)
        assert series[0] - before == 2, v


@pytest.mark.parametrize("case", sorted(COST_NODES))
def test_a_basis_evaluates_each_ratio_once(monkeypatch, case):
    # a series' ratio table gets row n the first time a sum needs it, so a
    # second sweep over the same nodes sums as many series and makes no row
    made = []
    grow = specfun._Ratios.grow

    def counted(table):
        made.append((id(table), len(table)))
        grow(table)
    monkeypatch.setattr(specfun._Ratios, "grow", counted)
    series = count_calls(monkeypatch, "_series_jet")
    phi1, phi2, _ = integration(case).basis(make_config(case), 1.0, integration(case).lam)
    nodes = [complex(v) for v in np.linspace(*CLOSED_FORM[case][1], 12)]
    sweeps = []
    for _ in range(2):
        rows, sums = len(made), series[0]
        for v in nodes:
            phi1(v), phi2(v)
        sweeps.append((len(made) - rows, series[0] - sums))
    assert len(set(made)) == len(made)
    assert sweeps[0][0] > 0 and sweeps[1] == (0, sweeps[0][1])


@pytest.mark.parametrize("case", sorted(COST_NODES))
def test_a_basis_calls_gamma_only_at_its_first_node(monkeypatch, case):
    # the connection weights depend on the parameters alone; a Ferrers basis
    # needs the reflected ones first at its first node with x < 0
    gamma_calls = count_calls(monkeypatch, "gamma")
    basis = solution_basis(case, make_config(case), 1.0)
    reflected = REFLECTED.get(case, lambda v: False)
    first = {}
    for v in COST_NODES[case]:
        before = gamma_calls[0]
        basis.phi1.jet(v), basis.phi2.jet(v)
        if reflected(v) in first:
            assert gamma_calls[0] == before, v
        first.setdefault(reflected(v), gamma_calls[0] - before)
    assert first[False] > 0


def test_rk_cross_oracle_g34():
    # RK integration from Legendre initial data stays on the Legendre solution
    cfg = make_config(CaseId.G34)
    ode = reduced_ode(CaseId.G34, cfg, 1.0)
    basis = solution_basis(CaseId.G34, cfg, 1.0)
    v0, v1 = -1.2, 1.0
    f0, f1, _ = basis.phi1.jet(v0)
    sol = ode_integrate(ode.p, ode.q, v0, f0, f1, v1)
    for v in np.linspace(v0, v1, 12):
        assert abs(sol(v)[0] - basis.phi1.jet(v)[0]) < 1e-7


def test_rk_cross_oracle_g31_whittaker():
    cfg = make_config(CaseId.G31)
    ode = reduced_ode(CaseId.G31, cfg, 1.0)
    basis = solution_basis(CaseId.G31, cfg, 1.0)
    v0, v1 = 0.3, 1.2
    f0, f1, _ = basis.phi1.jet(v0)
    sol = ode_integrate(ode.p, ode.q, v0, f0, f1, v1)
    for v in np.linspace(v0, v1, 10):
        assert abs(sol(v)[0] - basis.phi1.jet(v)[0]) < 1e-7


def test_g33a_numeric_basis_self_convergence():
    cfg = make_config(CaseId.G33a, e=0.1, m=0.5, zeta=0.0, mu1=0.1, mu2=0.1)
    ode = reduced_ode(CaseId.G33a, cfg, 1.0)
    vals = []
    for rtol in (1e-10, 5e-11):
        sol = ode_integrate(ode.p, ode.q, 0.0, 1.0, 0.0, 2.0,
                            ODESolverConfig(rtol=rtol, atol=1e-13))
        vals.append(sol(2.0)[0])
    assert abs(vals[0] - vals[1]) < 1e-8


def g33a_config(J, a, e, mu, mu1, mu2, m, zeta):
    return FieldConfig(CaseId.G33a, mu=mu, mu1=mu1, mu2=mu2, e=e, m=m, zeta=zeta,
                       parameter_a=a)


# the parameter box of the benchmark's basis draws
@seed(3301)
@settings(max_examples=10, deadline=None, database=None)
@given(J=st.floats(0.25, 4.0), a=st.floats(0.5, 2.0), e=st.floats(0.05, 1.0),
       mu=st.floats(0.05, 1.0), mu1=st.floats(0.05, 1.0), mu2=st.floats(0.05, 1.0),
       m=st.floats(0.0, 1.5), zeta=st.sampled_from([0.0, 1.0 / 6.0]))
def test_g33a_series_matches_tight_rk(J, a, e, mu, mu1, mu2, m, zeta):
    # oracle: Dormand-Prince from the same initial data at v = -1.8, run far
    # tighter than its default (which is itself about 1e-9 off)
    cfg = g33a_config(J, a, e, mu, mu1, mu2, m, zeta)
    ode = reduced_ode(CaseId.G33a, cfg, J)
    basis = solution_basis(CaseId.G33a, cfg, J)
    tight = ODESolverConfig(rtol=1e-13, atol=1e-15)
    vs = np.linspace(-1.8, 1.8, 37)
    for phi, (f0, f1) in ((basis.phi1, (1.0, 0.0)), (basis.phi2, (0.0, 1.0))):
        sol = ode_integrate(ode.p, ode.q, -1.8, f0, f1, 1.8, tight)
        series = np.array([phi.jet(v)[0] for v in vs])
        rk = np.array([sol(v)[0] for v in vs])
        assert np.max(np.abs(series - rk)) <= 1e-8 * np.max(np.abs(series))
        assert max(ode.residual(phi, v) for v in vs) <= 1e-12


def test_g33a_series_matches_mpmath_odefun():
    # a 20-digit Taylor integration of the cos/sin form of q, written out here,
    # from the series' own (Phi, Phi') at v = -0.7 (both are real)
    J, a, e, mu1, mu2 = 1.2, 1.1, 0.4, 0.3, 0.6
    cfg = g33a_config(J, a, e, 0.5, mu1, mu2, 0.7, 0.0)
    basis = solution_basis(CaseId.G33a, cfg, J)
    vs = np.linspace(-0.7, 0.3, 11)
    with mpmath.workdps(20):
        A = mpmath.mpf(a)
        den = 1 + A * A

        def q(v):
            osc = (A * mu1 - mu2) * mpmath.cos(v) + (mu1 + A * mu2) * mpmath.sin(v)
            return (-2 * e * A * A * J * mpmath.exp(-A * v) * osc / den
                    + (A * J) ** 2 * mpmath.exp(-2 * A * v)
                    + A * A * cfg.mass_term + (e * A) ** 2 * (mu1 ** 2 + mu2 ** 2) / den)

        def rhs(v, y):
            qv = q(v)
            return [y[1], -2 * A * y[1] - qv * y[0], y[3], -2 * A * y[3] - qv * y[2]]
        start = [x.real for phi in (basis.phi1, basis.phi2) for x in phi.jet(-0.7)[:2]]
        sol = mpmath.odefun(rhs, -0.7, start)
        ref = np.array([[complex(y) for y in sol(v)] for v in vs])
    for i, phi in enumerate((basis.phi1, basis.phi2)):
        series = np.array([phi.jet(v)[:2] for v in vs])
        assert np.max(np.abs(series - ref[:, 2 * i:2 * i + 2])) \
            <= 1e-12 * np.max(np.abs(series[:, 0]))


# ---------------------------------------------------------------- end to end

@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_end_to_end_wave_residual(case):
    cfg = make_config(case)
    ans, h = ansatz(case, cfg, 1.0), kg_operator(case, cfg)
    basis = solution_basis(case, cfg, 1.0)
    grid = default_grid(case, (5, 5, 5))
    for phi in (basis.phi1, basis.phi2):
        assert np.max(reduction_residual(ans, h, phi, grid)[1]) < 1e-6


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_default_grid_is_the_nested_axis_product(case):
    counts = (3, 4, 5)
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(integration(case).grid, counts)]
    nested = [(a, b, c) for a in axes[0] for b in axes[1] for c in axes[2]]
    grid = default_grid(case, counts)
    assert grid.dtype == np.float64 and grid.shape == (60, 3)
    # the per-axis values that solve formats once are the grid's own
    assert all((got == want).all() for got, want in
               zip(grid_axes(integration(case).grid, counts), axes, strict=True))
    assert [tuple(row) for row in grid.tolist()] == [tuple(map(float, pt)) for pt in nested]
    for got, want in zip(dual.columns(grid), dual.columns(nested)):
        assert got.dtype == want.dtype and (got == want).all()


@pytest.mark.parametrize("case,lam,n,drops", [(c, None, 4, 0) for c in INTEGRABLE_CASES]
                         + [(CaseId.G34, 1j, 5, 15)])
def test_grid_jet_matches_the_point_jets(case, lam, n, drops):
    # oracle: the point route, one jet and one apply_jet per node; a node where
    # it raises at a branch point must be a NaN lane of the grid
    cfg = make_config(case)
    lam = integration(case).lam if lam is None else lam
    h = kg_operator(case, cfg)
    ans, phi1 = ansatz(case, cfg, 1.0, lam), solution_basis(case, cfg, 1.0).phi1
    f = ans.assemble(phi1)
    grid = default_grid(case, (n, n, n))
    phi, residual = reduction_residual(ans, h, phi1, grid)
    assert phi.shape == residual.shape == (len(grid),)
    dropped = []
    for i, pt in enumerate(grid):
        try:
            fv = f(Dual.seed(pt))
            h.apply_jet(fv, h.values(pt))
        except BranchPointError:
            dropped.append(i)
            continue
        want = dual.value(fv)
        assert abs(phi[i] - want) <= 1e-14 * abs(want)
        assert residual[i] <= 1e-6
    assert len(dropped) == drops
    assert np.flatnonzero(np.isnan(phi)).tolist() == dropped


def test_zero_solution_gives_zero_residual():
    class Zero:
        def jet(self, v):
            return 0j, 0j, 0j
    cfg = make_config(CaseId.G34)
    _, r = reduction_residual(ansatz(CaseId.G34, cfg, 1.0, 0.3), kg_operator(CaseId.G34, cfg),
                              Zero(), [(0.1, 0.1, 0.4)])
    assert np.max(r) == 0.0


def test_non_solution_has_visible_residual():
    class One:
        def jet(self, v):
            return 1.0 + 0j, 0j, 0j
    cfg = make_config(CaseId.G34)
    _, r = reduction_residual(ansatz(CaseId.G34, cfg, 1.0, 0.3), kg_operator(CaseId.G34, cfg),
                              One(), [(0.1, 0.1, 0.4), (0.2, -0.1, 0.8)])
    assert np.max(r) > 1e-3


def test_counting_identities_match_classification():
    # s, l, m_tilde of the five integrable rows
    from dskg.lie_core import case_extension, integrability_check, subalgebra
    for case in INTEGRABLE_CASES:
        rec = integrability_check(case_extension(subalgebra(case, 1.0)))
        assert (rec.s, rec.l, rec.m_tilde) == (1, 1, 1)
        assert rec.dim - rec.ind == 2 * rec.s
        assert rec.l == rec.ind - 1
        assert rec.m_tilde == 3 - (rec.dim + rec.ind) // 2 + 1
