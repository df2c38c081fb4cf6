"""Lambda-representations, joint-system ansatz, reduced equations, solution
bases and the end-to-end wave-equation residual."""

import cmath
import math

import numpy as np
import pytest

from dskg import dual
from dskg.cases import integration
from dskg.dual import Dual
from dskg.fields import FieldConfig
from dskg.integrate import (BranchPointError, ansatz, default_grid, grid_residuals,
                            joint_system_residual, lambda_rep, reduced_ode,
                            reduction_coefficients, reduction_residual, solution_basis)
from dskg.lie_core import CaseId, INTEGRABLE_CASES, standard_cocycle, subalgebra
from dskg.operators import commutation_table_fit, kg_operator, representation_residual
from dskg.specfun import ODESolverConfig, ode_integrate

from conftest import case_param_a

LAMBDA_PROBES = [(0.35,), (0.8,), (-0.6,), (1.3,)]


def make_config(case, **kw):
    return FieldConfig(case, parameter_a=case_param_a(case), **kw)


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
    assert rep.measure == "lebesgue"
    assert rep.ell0 == -1j * 0.1


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_lambda_rep_reproduces_operator_tables(case):
    cfg = make_config(case)
    rep = lambda_rep(case, 1.0, cfg)
    sub = subalgebra(case, cfg.parameter_a)
    res = representation_residual(rep.ops, sub.algebra.structure_constants,
                                  standard_cocycle(case, cfg.mu).F,
                                  rep.ell0, LAMBDA_PROBES)
    assert res < 1e-10


def test_lambda_rep_g34_bracket_fits_with_unit_coefficient():
    # at a generic J the three operators are independent and the fit is well posed
    cfg = make_config(CaseId.G34)
    rep = lambda_rep(CaseId.G34, 1.7, cfg)
    fit = commutation_table_fit(rep.ops, [(0.3,), (0.8,), (-0.5,)], rep.ell0)
    assert fit.closed
    assert abs(fit.structure[0, 1, 2] - 1.0) < 1e-10


def test_lambda_rep_g32_central_charge():
    cfg = make_config(CaseId.G32, mu=0.9)
    rep = lambda_rep(CaseId.G32, 1.0, cfg)
    fit = commutation_table_fit(rep.ops, [(0.2,), (0.9,), (-0.4,)], rep.ell0)
    assert abs(fit.central[0, 1] - 0.9) < 1e-12
    assert rep.measure == "gaussian(e)"


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
def test_joint_system(case):
    cfg = make_config(case)
    rep = lambda_rep(case, 1.0, cfg)
    ans = ansatz(case, cfg, 1.0, integration(case).lam)
    assert joint_system_residual(ans, rep, run_points(case)) < 1e-8


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
    lam = integration(case).lam
    for pt in run_points(case, 5):
        p_num, q_num, v = reduction_coefficients(case, cfg, 1.0, lam, pt)
        assert abs(p_num - ode.p(v)) < 1e-9
        assert abs(q_num - ode.q(v)) < 1e-9


# ---------------------------------------------------------------- solution bases

def vgrid(case, n=11):
    lo, hi = {
        CaseId.G31: (0.25, 1.1), CaseId.G32: (-0.5, 0.5), CaseId.G33a: (-0.7, 0.3),
        CaseId.G34: (-1.2, 1.2), CaseId.G35: (0.8, math.pi - 0.8),
    }[case]
    return np.linspace(lo, hi, n)


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


# ---------------------------------------------------------------- end to end

@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_end_to_end_wave_residual(case):
    cfg = make_config(case)
    lam = integration(case).lam
    basis = solution_basis(case, cfg, 1.0)
    grid = default_grid(case, (5, 5, 5))
    for phi in (basis.phi1, basis.phi2):
        assert reduction_residual(case, cfg, 1.0, lam, phi, grid) < 1e-6


@pytest.mark.parametrize("case,lam,n,drops", [(c, None, 4, 0) for c in INTEGRABLE_CASES]
                         + [(CaseId.G34, 1j, 5, 15)])
def test_grid_jet_matches_the_point_jets(case, lam, n, drops):
    # oracle: the point route, one jet and one apply_jet per node; a node where
    # it raises at a branch point must be a NaN lane of the grid
    cfg = make_config(case)
    lam = integration(case).lam if lam is None else lam
    h = kg_operator(case, cfg)
    f = ansatz(case, cfg, 1.0, lam).assemble(solution_basis(case, cfg, 1.0).phi1)
    grid = default_grid(case, (n, n, n))
    phi, residual = grid_residuals(f, h, grid)
    assert phi.shape == residual.shape == (len(grid),)
    dropped = []
    for i, pt in enumerate(grid):
        try:
            fv = f(Dual.seed(pt))
            h.apply_jet(fv, pt)
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
    r = reduction_residual(CaseId.G34, cfg, 1.0, 0.3, Zero(), [(0.1, 0.1, 0.4)])
    assert r == 0.0


def test_non_solution_has_visible_residual():
    class One:
        def jet(self, v):
            return 1.0 + 0j, 0j, 0j
    cfg = make_config(CaseId.G34)
    r = reduction_residual(CaseId.G34, cfg, 1.0, 0.3, One(),
                           [(0.1, 0.1, 0.4), (0.2, -0.1, 0.8)])
    assert r > 1e-3


def test_counting_identities_match_classification():
    # s, l, m_tilde of the five integrable rows
    from dskg.lie_core import case_extension, integrability_check
    for case in INTEGRABLE_CASES:
        rec = integrability_check(case_extension(case))
        assert (rec.s, rec.l, rec.m_tilde) == (1, 1, 1)
        assert rec.dim - rec.ind == 2 * rec.s
        assert rec.l == rec.ind - 1
        assert rec.m_tilde == 3 - (rec.dim + rec.ind) // 2 + 1
