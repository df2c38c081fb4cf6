"""Acceptance suite: the eleven exit criteria, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Expected values marked as reference-table rows are frozen here;
the single classification row that is inconsistent with its own index
definition is tracked as a strict xfail (see the catalog diff machinery).
"""

import cmath
import math
import time

import numpy as np
import pytest

from dskg import dual
from dskg.dual import Dual
from dskg.fields import (closedness_residual, cocycle_from_config,
                         invariance_residual, invariant_two_form, lie_derivative)
from dskg.geometry import (chart_for, chart_jets, generator_jets, pushforward, rect_components,
                           rectify, sample_domain)
from dskg.cases import case_spec
from dskg.integrate import (ansatz, default_grid, lambda_rep, reduced_ode,
                            reduction_residual, solution_basis)
from dskg.lie_core import (ALL_CASES, CaseId, INTEGRABLE_CASES,
                           PARAMETERIZED_CASES, case_extension,
                           coboundary_shift, coboundary_solve, derive_structure,
                           integrability_check, standard_cocycle, subalgebra)
from dskg.operators import (commutation_table_fit, kg_cross_residual, kg_operator,
                            representation_residual, symmetry_check, symmetry_operators)
from dskg.specfun import ode_integrate

from conftest import case_param_a, chart_points, grid_jets, make_config, perturbed_form
from pointwise import solution_jet
from test_geometry import so12_generators, so12_section


def report(num, name, value, budget_note=""):
    print(f"ACCEPTANCE {num:02d} {name}: PASS {budget_note}".rstrip())
    return value


# ------------------------------------------------------------------ 1

TABLE3_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="reference row (5,3,1,3,0) is inconsistent with the index "
           "definition applied to its own commutation relations; the "
           "computed record is (5,1,2,0,1) and the catalog reports the diff")


@pytest.mark.parametrize("case", [
    pytest.param(c, marks=TABLE3_XFAIL) if c == CaseId.G41 else c for c in ALL_CASES
])
def test_criterion_01_table3_rows(case):
    t0 = time.time()
    rec = integrability_check(case_extension(case, mu=1.0, a=1.0))
    assert time.time() - t0 < 5.0
    ref = case_spec(case).table3_reference
    assert rec == ref, f"{case}: computed {tuple(rec)} vs reference {ref}"
    report(1, f"classification row {case.value}", rec)


# ------------------------------------------------------------------ 2

def test_criterion_02_catalog_closure():
    t0 = time.time()
    worst = 0.0
    for case in ALL_CASES:
        for a in (0.5, 1.0, 2.0) if case in PARAMETERIZED_CASES else (None,):
            rows = subalgebra(case, a).generator_coeffs
            worst = max(worst, float(derive_structure(rows, case.value)[1].max()))
    elapsed = time.time() - t0
    assert worst < 1e-12
    assert elapsed < 5.0
    report(2, "catalog closure", worst, f"(max residual {worst:.2e}, {elapsed:.2f}s)")


# ------------------------------------------------------------------ 3

def test_criterion_03_chart_validity():
    t0 = time.time()
    worst_hyp = 0.0
    worst_push = 0.0
    for case in ALL_CASES:
        a = case_param_a(case)
        chart = chart_for(case, a)
        rng = np.random.default_rng(20813)
        pts = sample_domain(chart, 1000, rng)
        vals, jac, _ = chart_jets(chart, Dual.seed_grid(dual.columns(pts)))
        worst_hyp = max(worst_hyp, float(np.max(np.abs(
            vals[:, 0] ** 2 - vals[:, 1] ** 2 - vals[:, 2] ** 2 - vals[:, 3] ** 2 + 1.0))))
        push = pushforward(case, pts, a)  # push[p, generator, component]
        # J v = M x: the pushforward is tangent to the chart
        mats = subalgebra(case, a).generator_matrices()
        worst_push = max(worst_push, float(np.max(np.abs(
            np.einsum("pia,pAa->pAi", jac, push) - np.einsum("Aij,pj->pAi", mats, vals)))))
        comps = rect_components(case, a)
        for p, v in zip(pts, push):
            want = [[dual.value(fn([complex(x) for x in p])).real for fn in comp]
                    for comp in comps]
            worst_push = max(worst_push, float(np.max(np.abs(v - want))))
    elapsed = time.time() - t0
    assert worst_hyp < 1e-12
    assert worst_push < 1e-10
    assert elapsed < 30.0
    report(3, "chart validity", (worst_hyp, worst_push),
           f"(hyperboloid {worst_hyp:.1e}, pushforward {worst_push:.1e}, {elapsed:.1f}s)")


# ------------------------------------------------------------------ 4

def test_criterion_04_rectification_oracle():
    t0 = time.time()
    gens = so12_generators()
    rng = np.random.default_rng(7)
    worst_free = 0.0
    for _ in range(200):
        q1, q2 = rng.uniform(-1.5, 1.5, 2)
        u1, u2 = rng.uniform(-0.8, 0.8, 2)
        got = rectify(gens, so12_section, (q1, q2), (u1, u2))
        w = u2 + 1.0
        want = np.array([-w * math.sinh(q1) * math.cos(q2),
                         w * math.cosh(q1) * math.cos(q2),
                         w * math.sin(q2), u1])
        worst_free = max(worst_free, float(np.max(np.abs(got - want))))
    worst_chart = 0.0
    chart = chart_for(CaseId.G35)
    for _ in range(200):
        q1, q2 = rng.uniform(-1.5, 1.5, 2)
        u = rng.uniform(0.2, math.pi - 0.2)
        got = rectify(gens, so12_section, (q1, q2), (math.cos(u), math.sin(u) - 1.0))
        want = np.array(chart.embed((q1, q2, u)))
        worst_chart = max(worst_chart, float(np.max(np.abs(got - want))))
    elapsed = time.time() - t0
    assert worst_free < 1e-12
    assert worst_chart < 1e-12
    assert elapsed < 5.0
    report(4, "rectification oracle", (worst_free, worst_chart),
           f"(ambient {worst_free:.1e}, restricted {worst_chart:.1e})")


# ------------------------------------------------------------------ 5

def test_criterion_05_field_invariance():
    t0 = time.time()
    worst = 0.0
    eps = 1e-3
    min_detect = math.inf
    for case in ALL_CASES:
        cfg = make_config(case)
        f = invariant_two_form(case, cfg)
        pts = chart_points(case, 30)
        for p in pts:
            s = Dual.seed(p)
            worst = max(worst, closedness_residual(f.jets(s)),
                        invariance_residual(generator_jets(case, s, cfg.parameter_a), f.jets(s)))
        # every chart carries X1 = d/dq1, so a q1-dependent entry must be seen
        broken = perturbed_form(f, (0, 1), lambda c: eps * c[0])
        detected = max(float(np.max(np.abs(lie_derivative(
            generator_jets(case, Dual.seed(p), cfg.parameter_a)[0],
            broken.jets(Dual.seed(p)))))) for p in pts[:10])
        min_detect = min(min_detect, detected)
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert min_detect >= 5e-4
    assert elapsed < 30.0
    report(5, "field invariance", worst,
           f"(residual {worst:.1e}, weakest detection {min_detect:.1e}, {elapsed:.1f}s)")


# ------------------------------------------------------------------ 6

def test_criterion_06_symmetry_algebra_tables():
    t0 = time.time()
    worst = 0.0
    for case in ALL_CASES:
        cfg = make_config(case)
        sub = subalgebra(case, cfg.parameter_a)
        ops = symmetry_operators(case, cfg)
        pts = [tuple(p) for p in chart_points(case, 12)]
        fit = commutation_table_fit(grid_jets(ops, pts), 1j * cfg.e)
        worst = max(worst, fit.residual,
                    float(np.max(np.abs(fit.structure - sub.algebra.structure_constants))),
                    float(np.max(np.abs(fit.central
                                        - standard_cocycle(case, cfg.mu)))))
    assert worst < 1e-9
    for mu in (0.5, 1.0, 2.0):
        cfg = make_config(CaseId.G32, mu=mu)
        ops = symmetry_operators(CaseId.G32, cfg)
        pts = [tuple(p) for p in chart_points(CaseId.G32, 10)]
        fit = commutation_table_fit(grid_jets(ops, pts), 1j * cfg.e)
        assert abs(fit.central[0, 1] - mu) < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(6, "symmetry-operator tables", worst,
           f"(max residual {worst:.1e}, central charge sweep ok, {elapsed:.1f}s)")


# ------------------------------------------------------------------ 7

def test_criterion_07_wave_operator_symmetry():
    t0 = time.time()
    worst_sym = 0.0
    worst_cross = 0.0
    for case in INTEGRABLE_CASES:
        cfg = make_config(case)
        pts = [tuple(p) for p in chart_points(case, 50)]
        ops = symmetry_operators(case, cfg)
        worst_sym = max(worst_sym, symmetry_check(kg_operator(case, cfg), grid_jets(ops, pts),
                                                  pts, n_probes=5))
        worst_cross = max(worst_cross,
                          kg_cross_residual(case, cfg, chart_points(case, 100, seed=551)))
    elapsed = time.time() - t0
    assert worst_sym < 1e-8
    assert worst_cross < 1e-10
    assert elapsed < 120.0
    report(7, "wave-operator symmetry", (worst_sym, worst_cross),
           f"(commutator {worst_sym:.1e}, closed-vs-generic {worst_cross:.1e}, {elapsed:.1f}s)")


# ------------------------------------------------------------------ 8

def test_criterion_08_lambda_representations():
    worst = 0.0
    for case in INTEGRABLE_CASES:
        cfg = make_config(case)
        sub = subalgebra(case, cfg.parameter_a)
        rep = lambda_rep(case, 1.0, cfg)
        worst = max(worst, representation_residual(
            rep.ops, sub.algebra.structure_constants,
            standard_cocycle(case, cfg.mu), rep.ell0,
            [(0.35,), (0.8,), (-0.6,), (1.3,), (2.1,)]))
    assert worst < 1e-10
    report(8, "lambda representations", worst, f"(max residual {worst:.1e})")


# ------------------------------------------------------------------ 9

@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_criterion_09_end_to_end_solutions(case):
    t0 = time.time()
    cfg = make_config(case)
    ans, h = ansatz(case, cfg, 1.0), kg_operator(case, cfg)
    basis = solution_basis(case, cfg, 1.0)
    grid = default_grid(case, (10, 10, 10))
    worst = 0.0
    for phi in (basis.phi1, basis.phi2):
        worst = max(worst, float(np.max(reduction_residual(ans, h, phi, grid)[1])))
    elapsed = time.time() - t0
    assert worst < 1e-6
    assert elapsed < 120.0
    report(9, f"end-to-end wave solution {case.value}", worst,
           f"(residual {worst:.1e} on 10x10x10 grid, {elapsed:.1f}s)")


# ------------------------------------------------------------------ 10

def test_criterion_10_special_function_oracles():
    t0 = time.time()
    from dskg.specfun import (bessel_j, bessel_y, gamma, hyp2f1, kummer_m, legendre_p,
                              legendre_q, whittaker_m, whittaker_w)

    def ode_res(fn, p, q, z0):
        f0, f1, f2 = solution_jet(fn, z0)
        return abs(f2 + p(z0) * f1 + q(z0) * f0) / (1.0 + abs(f0) + abs(f1) + abs(f2))

    worst = 0.0
    rng = np.random.default_rng(99)
    # gamma: recurrence identity stands in for a defining ODE
    for _ in range(40):
        z = complex(rng.uniform(0.3, 4), rng.uniform(-3, 3))
        worst_g = abs(gamma(z + 1) - z * gamma(z)) / abs(gamma(z + 1))
        assert worst_g < 1e-12
    # Kummer
    for _ in range(20):
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(0.4, 3), rng.uniform(-1, 1))
        z0 = complex(rng.uniform(0.3, 4), rng.uniform(-2, 2))
        worst = max(worst, ode_res(lambda z: kummer_m(a, b, z),
                                   lambda z: (b - z) / z, lambda z: -a / z, z0))
    # Whittaker pair, parameters of the boost-translation case
    alpha = 1j * 0.1 * 0.6 / math.sqrt(2)
    beta = cmath.sqrt(1 - 0.25 - 0.01 * 0.18)
    wp = lambda z: 0.0
    wq = lambda z: -0.25 + alpha / z + (0.25 - beta * beta) / (z * z)
    for t in np.linspace(0.4, 2.4, 8):
        z0 = 2j * math.sqrt(2) * t
        worst = max(worst, ode_res(lambda z: whittaker_m(alpha, beta, z), wp, wq, z0))
        worst = max(worst, ode_res(lambda z: whittaker_w(alpha, beta, z), wp, wq, z0))
    # Bessel pair, magnetic-translation order
    order = math.sqrt(0.75)
    bp = lambda z: 1.0 / z
    bq = lambda z: 1.0 - (order / z) ** 2
    for t in np.linspace(0.4, 2.0, 8):
        z0 = 1j * 0.3 * math.exp(t)
        worst = max(worst, ode_res(lambda z: bessel_j(order, z), bp, bq, z0))
        worst = max(worst, ode_res(lambda z: bessel_y(order, z), bp, bq, z0))
    # 2F1
    for _ in range(15):
        a2, b2, c2 = (complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
                      for _ in range(3))
        c2 = c2 + 2.0
        z0 = rng.uniform(0.05, 0.85)
        gp = lambda z: (c2 - (a2 + b2 + 1.0) * z) / (z * (1.0 - z))
        gq = lambda z: -a2 * b2 / (z * (1.0 - z))
        worst = max(worst, ode_res(lambda z: hyp2f1(a2, b2, c2, z), gp, gq, z0))
    # Legendre pairs (both parameter regimes in use)
    for nu, sigma in ((math.sqrt(2.25 - 0.0009) - 0.5, math.sqrt(0.75)),
                      (math.sqrt(0.75) - 0.5, cmath.sqrt(0.0009 - 1.0))):
        lp = lambda x: -2.0 * x / (1.0 - x * x)
        lq = lambda x: (nu * (nu + 1.0) - sigma * sigma / (1.0 - x * x)) / (1.0 - x * x)
        for x0 in np.linspace(-0.8, 0.8, 9):
            worst = max(worst, ode_res(lambda x: legendre_p(nu, sigma, x), lp, lq, x0))
            worst = max(worst, ode_res(lambda x: legendre_q(nu, sigma, x), lp, lq, x0))
    assert worst < 1e-8

    # cross-oracle: RK from matched initial data tracks each closed form and
    # the g3_3a series
    worst_cross = 0.0
    for case in INTEGRABLE_CASES:
        cfg = make_config(case)
        ode = reduced_ode(case, cfg, 1.0)
        basis = solution_basis(case, cfg, 1.0)
        v0, v1 = {CaseId.G31: (0.3, 1.3), CaseId.G32: (-0.5, 0.5), CaseId.G33a: (-0.7, 0.3),
                  CaseId.G34: (-1.0, 1.0), CaseId.G35: (0.8, 2.3)}[case]
        f0, f1, _ = basis.phi1.jet(v0)
        sol = ode_integrate(ode.p, ode.q, v0, f0, f1, v1)
        for v in np.linspace(v0, v1, 12):
            worst_cross = max(worst_cross, abs(sol(v)[0] - basis.phi1.jet(v)[0]))
    assert worst_cross < 1e-7
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(10, "special-function oracles", (worst, worst_cross),
           f"(ODE {worst:.1e}, RK cross {worst_cross:.1e}, {elapsed:.1f}s)")


# ------------------------------------------------------------------ 11

def test_criterion_11_cocycle_theory():
    rng = np.random.default_rng(2718)
    # magnetic extension: nontrivial iff mu != 0, certified from the field data
    sub = subalgebra(CaseId.G32)
    for mu in (0.5, 1.0, 2.0):
        cfg = make_config(CaseId.G32, mu=mu)
        coc = cocycle_from_config(CaseId.G32, cfg, chart_points(CaseId.G32, 6))
        lam, res = coboundary_solve(sub.algebra, coc)
        assert lam is None and res > 0.1 * mu
    cfg0 = make_config(CaseId.G32, mu=0.0)
    coc0 = cocycle_from_config(CaseId.G32, cfg0, chart_points(CaseId.G32, 6))
    lam, res = coboundary_solve(sub.algebra, coc0)
    assert lam is not None and res < 1e-10

    # semisimple entries extend trivially
    for case in (CaseId.G34, CaseId.G35):
        cfg = make_config(case)
        coc = cocycle_from_config(case, cfg, chart_points(case, 6))
        lam, res = coboundary_solve(subalgebra(case).algebra, coc)
        assert lam is not None and res < 1e-10

    # transformation law under 20 random shifts, exactly
    coc = standard_cocycle(CaseId.G32, 1.0)
    for _ in range(20):
        shift = rng.uniform(-3, 3, 3)
        moved = coboundary_shift(sub.algebra, coc, shift)
        want = coc - np.einsum("abc,c->ab", sub.algebra.structure_constants, shift)
        assert np.max(np.abs(moved - want)) == 0.0
    report(11, "cocycle theory", None,
           "(nontriviality, Whitehead triviality, transformation law)")
