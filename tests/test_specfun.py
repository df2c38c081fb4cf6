"""Special functions against their defining ODEs, classical identities and the
adaptive RK oracle.  Expected values are computed from independent identities,
never from the implementations under test."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dskg import dual, specfun
from dskg.dual import Dual
from dskg.specfun import (DomainError, ODESolverConfig, PoleError, bessel_j, bessel_y,
                          gamma, hyp2f1, kummer_m, kummer_u, legendre_p, legendre_q,
                          ode_integrate, whittaker_m, whittaker_w)

from pointwise import solution_jet


def ode_residual(fn, p, q, z0):
    """|f'' + p f' + q f| / scale with exact derivatives of the evaluator."""
    f0, f1, f2 = solution_jet(fn, z0)
    num = f2 + p(z0) * f1 + q(z0) * f0
    return abs(num) / (1.0 + abs(f0) + abs(f1) + abs(f2))


# ---------------------------------------------------------------- gamma

def test_gamma_classical_values():
    assert abs(gamma(1.0) - 1.0) < 1e-14
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-13
    for n in range(2, 10):
        assert abs(gamma(n) - math.factorial(n - 1)) / math.factorial(n - 1) < 1e-13


@settings(max_examples=80, deadline=None)
@given(st.floats(-4, 4), st.floats(-4, 4))
def test_gamma_recurrence(re, im):
    z = complex(re, im)
    if abs(z) < 0.2 or (abs(im) < 0.1 and re < 0.2):
        return  # too close to a pole for the ratio test
    lhs = gamma(z + 1.0)
    rhs = z * gamma(z)
    assert abs(lhs - rhs) / (abs(lhs) + 1e-300) < 1e-12


def test_gamma_pole():
    with pytest.raises(PoleError):
        gamma(0.0)
    with pytest.raises(PoleError):
        gamma(-3.0)


# ---------------------------------------------------------------- Kummer

def test_kummer_m_at_zero_and_exponential_identity():
    assert abs(kummer_m(0.3 + 0.2j, 1.1, 0.0) - 1.0) < 1e-15
    for z in (0.4, 2.0 + 1.0j, -3.0 + 0.5j):
        want = cmath.exp(z)
        got = kummer_m(0.7 - 0.1j, 0.7 - 0.1j, z)
        assert abs(got - want) / abs(want) < 1e-12


def test_kummer_ode_residual_random_parameters():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(0.3, 3), rng.uniform(-1, 1))
        z0 = complex(rng.uniform(0.2, 4), rng.uniform(-2, 2))
        # z w'' + (b - z) w' - a w = 0
        res = ode_residual(lambda z: kummer_m(a, b, z),
                           lambda z: (b - z) / z, lambda z: -a / z, z0)
        assert res < 1e-9


def test_kummer_domain_and_pole_errors():
    with pytest.raises(DomainError):
        kummer_m(1.0, 2.0, 80.0)
    with pytest.raises(PoleError):
        kummer_m(1.0, -2.0, 1.0)
    with pytest.raises(PoleError):
        kummer_u(0.5, 2.0, 1.0)  # integer b degenerates the connection


# ---------------------------------------------------------------- Whittaker

ALPHA = 0.042426406871192854j       # boost-translation case parameters
BETA = 0.8649855490626683


def whittaker_pq(alpha, beta):
    p = lambda z: 0.0
    q = lambda z: -0.25 + alpha / z + (0.25 - beta * beta) / (z * z)
    return p, q


def test_whittaker_ode_residual_on_grid():
    p, q = whittaker_pq(ALPHA, BETA)
    for t in np.linspace(0.4, 3.0, 9):
        z0 = 2j * math.sqrt(2.0) * t
        assert ode_residual(lambda z: whittaker_m(ALPHA, BETA, z), p, q, z0) < 1e-8
        assert ode_residual(lambda z: whittaker_w(ALPHA, BETA, z), p, q, z0) < 1e-8


def test_whittaker_m_leading_behavior():
    # M ~ z^(1/2+beta) as z -> 0
    z = 1e-4 * cmath.exp(0.3j)
    ratio = whittaker_m(ALPHA, BETA, z) / z ** (0.5 + BETA)
    assert abs(ratio - 1.0) < 1e-3


def test_whittaker_pair_independent():
    z = 1.5j
    m0, m1, _ = solution_jet(lambda z_: whittaker_m(ALPHA, BETA, z_), z)
    w0, w1, _ = solution_jet(lambda z_: whittaker_w(ALPHA, BETA, z_), z)
    assert abs(m0 * w1 - m1 * w0) > 1e-3


def test_whittaker_w_degenerate_beta_fallback():
    # 2 beta integer: connection degenerates; offset limit keeps the ODE residual small
    p, q = whittaker_pq(0.2, 0.5)
    res = ode_residual(lambda z: whittaker_w(0.2, 0.5, z), p, q, 1.0 + 0.8j)
    assert res < 1e-5


# ---------------------------------------------------------------- Bessel

def bessel_pq(order):
    p = lambda z: 1.0 / z
    q = lambda z: 1.0 - (order / z) ** 2
    return p, q


def test_bessel_j_at_zero():
    assert abs(bessel_j(0.0, 0.0) - 1.0) < 1e-15


def test_bessel_ode_residual():
    # order as produced by the magnetic-translation case with (m, zeta) = (0.3, 0)
    order = math.sqrt(1.0 - 0.09)
    p, q = bessel_pq(order)
    rng = np.random.default_rng(5)
    for _ in range(12):
        z0 = complex(rng.uniform(0.3, 5), rng.uniform(-2, 2))
        assert ode_residual(lambda z: bessel_j(order, z), p, q, z0) < 1e-9
        assert ode_residual(lambda z: bessel_y(order, z), p, q, z0) < 1e-8


def test_bessel_wronskian_identity():
    order = 0.37 + 0.21j
    for z0 in (0.8, 2.0 + 1.0j):
        j0, j1, _ = solution_jet(lambda z: bessel_j(order, z), z0)
        k0, k1, _ = solution_jet(lambda z: bessel_j(-order, z), z0)
        lhs = j0 * k1 - j1 * k0
        want = -2.0 * cmath.sin(order * math.pi) / (math.pi * z0)
        assert abs(lhs - want) < 1e-8


def test_bessel_y_integer_order_offset():
    p, q = bessel_pq(1.0)
    res = ode_residual(lambda z: bessel_y(1.0, z), p, q, 1.7)
    assert res < 1e-5  # documented accuracy loss in the degenerate regime


# ---------------------------------------------------------------- 2F1 / Legendre

def test_hyp2f1_at_zero():
    assert abs(hyp2f1(0.3, 0.7, 1.1, 0.0) - 1.0) < 1e-15


def test_hyp2f1_gauss_ode():
    a, b, c = 0.3 - 0.2j, 1.1, 1.4 + 0.5j
    p = lambda z: (c - (a + b + 1.0) * z) / (z * (1.0 - z))
    q = lambda z: -a * b / (z * (1.0 - z))
    for z0 in (0.2, 0.5 + 0.2j, 0.85):
        assert ode_residual(lambda z: hyp2f1(a, b, c, z), p, q, z0) < 1e-9


def test_hyp2f1_connection_matches_series():
    a, b, c = 0.4, 0.9 - 0.3j, 1.7
    direct = np.array(specfun._series_jet(specfun._hyp2f1_ratios(a, b, c), 0.93, 2, "hyp2f1"))
    via_connection = np.array(solution_jet(lambda z: hyp2f1(a, b, c, z), 0.93))
    assert np.max(np.abs(direct - via_connection) / np.abs(direct)) < 1e-9


def test_legendre_p1_is_x():
    for x in (-0.6, 0.1, 0.8):
        assert abs(legendre_p(1.0, 0.0, x) - x) < 1e-12


def legendre_pq_coeffs(nu, sigma):
    p = lambda x: -2.0 * x / (1.0 - x * x)
    q = lambda x: (nu * (nu + 1.0) - sigma * sigma / (1.0 - x * x)) / (1.0 - x * x)
    return p, q


def test_legendre_ode_residual_spin_case_parameters():
    # degree/order produced by the rotation case: J = 1, e mu = 0.03, m = 0.5
    nu = math.sqrt(2.25 - 0.0009) - 0.5
    sigma = math.sqrt(0.75)
    p, q = legendre_pq_coeffs(nu, sigma)
    for x0 in np.linspace(-0.85, 0.85, 50):
        assert ode_residual(lambda x: legendre_p(nu, sigma, x), p, q, x0) < 1e-8
        assert ode_residual(lambda x: legendre_q(nu, sigma, x), p, q, x0) < 1e-8


def test_legendre_imaginary_order():
    nu = math.sqrt(0.75) - 0.5
    sigma = 0.9995498987044117j
    p, q = legendre_pq_coeffs(nu, sigma)
    for x0 in (-0.5, 0.0, 0.6):
        assert ode_residual(lambda x: legendre_p(nu, sigma, x), p, q, x0) < 1e-8
        assert ode_residual(lambda x: legendre_q(nu, sigma, x), p, q, x0) < 1e-8


def test_legendre_integer_order_offset_path():
    p, q = legendre_pq_coeffs(1.7, 1.0)
    res = ode_residual(lambda x: legendre_p(1.7, 1.0, x), p, q, 0.3)
    assert res < 1e-5


def test_legendre_domain_errors():
    with pytest.raises(DomainError):
        legendre_p(1.0, 0.0, 1.5)
    with pytest.raises(DomainError):
        legendre_q(1.0, 0.0, -1.0)


@pytest.mark.parametrize("fn, name", [
    (lambda z: whittaker_m(0.1j, 0.8, z), "whittaker_m"),
    (lambda z: whittaker_w(0.1j, 0.8, z), "whittaker_w"),
    (lambda z: kummer_u(0.4, 1.3, z), "kummer_u"),
    (lambda z: bessel_j(0.5, z), "bessel_j"),
])
@pytest.mark.parametrize("jet", [False, True], ids=["value", "jet"])
def test_complex_power_of_zero_is_a_domain_error(fn, name, jet):
    z = Dual.seed([0.0])[0] if jet else 0j
    with pytest.raises(DomainError, match=f"^{name}: z = 0j is the branch point"):
        fn(z)


def test_bessel_j_of_order_zero_at_zero():
    assert abs(bessel_j(0.0, 0j) - 1.0) < 1e-15  # J_0(0) = 1 needs no power of z


# ---------------------------------------------------------------- RK oracle

def test_ode_integrate_sine():
    sol = ode_integrate(lambda v: 0.0, lambda v: 1.0, 0.0, 0.0, 1.0, math.pi)
    val, dval = sol(math.pi / 2)
    assert abs(val - 1.0) < 1e-10
    assert abs(dval) < 1e-10


def test_ode_integrate_backward_direction():
    sol = ode_integrate(lambda v: 0.0, lambda v: 1.0, 0.0, 0.0, 1.0, -math.pi / 2)
    val, _ = sol(-math.pi / 2)
    assert abs(val + 1.0) < 1e-10


def test_ode_integrate_self_convergence():
    p = lambda v: -2.0
    q = lambda v: 0.25 + 0.1j - 0.09 * cmath.exp(2.0 * v)
    outs = []
    for rtol in (1e-8, 5e-9):
        sol = ode_integrate(p, q, -0.5, 1.0, 0.0, 1.5,
                            ODESolverConfig(rtol=rtol, atol=1e-14))
        outs.append(sol(1.2)[0])
    assert abs(outs[0] - outs[1]) < 10 * 1e-8


def test_ode_integrate_dense_output_accuracy():
    sol = ode_integrate(lambda v: 0.0, lambda v: 1.0, 0.0, 0.0, 1.0, 3.0)
    for t in np.linspace(0.1, 2.9, 23):
        v, dv = sol(t)
        assert abs(v - math.sin(t)) < 1e-9
        assert abs(dv - math.cos(t)) < 1e-9


def test_ode_integrate_jet_uses_the_equation():
    sol = ode_integrate(lambda v: 0.0, lambda v: 1.0, 0.0, 0.0, 1.0, 2.0)
    f0, f1, f2 = sol.jet(1.1)
    assert abs(f2 + f0) < 1e-12


def test_ode_integrate_rejects_bad_config():
    with pytest.raises(ValueError):
        ODESolverConfig(rtol=-1.0)


# ---------------------------------------------------------------- Taylor series

def test_taylor_basis_damped_oscillator():
    # Phi'' + p Phi' + (w^2 + p^2/4) Phi = 0 solves to exp(-p t/2) (cos, sin)(w t);
    # its constant q is split into two terms, with a float and a complex rate 0
    p, w = 0.6, 7.0
    terms = ((3.0, 0.0), (w * w + p * p / 4.0 - 3.0, 0j))
    phi1, phi2, segments = specfun.taylor_basis(p, terms, (-1.0, 2.0), "oscillator")
    assert segments == 30   # 4 / sqrt|q| > 0.1: every segment is TAYLOR_MAX_STEP long
    for v in np.linspace(-1.0, 2.0, 31):
        t = v + 1.0
        damp = math.exp(-0.5 * p * t)
        c, s = math.cos(w * t), math.sin(w * t)
        want1 = damp * (c + 0.5 * p / w * s)
        want2 = damp * s / w
        f0, f1, f2 = phi1.jet(v)
        assert abs(f0 - want1) < 1e-13
        assert abs(f2 + p * f1 + (w * w + p * p / 4.0) * f0) < 1e-11
        assert abs(phi2.jet(v)[0] - want2) < 1e-13


def test_taylor_basis_refuses_a_mesh_over_budget():
    # 4 / sqrt(1e12) per segment: the budget runs out at v = 10000 * 4e-6
    with pytest.raises(DomainError) as info:
        specfun.taylor_basis(0.0, ((1e12, 0.0),), (0.0, 1.0), "steep")
    assert str(info.value) == ("steep: |q| reaches 10^12 at v = 0.039996; "
                               "[0.0, 1.0] needs more than 10000 Taylor segments")


@pytest.mark.parametrize("terms,span", [
    (((1.0, 0.0),), (0.0, 1001.0)),
    # Q = 1e-300 exp(-v) is far below 1 over the whole span
    (((1e-300, -1.0),), (1000.0, 3000.0)),
])
def test_taylor_basis_names_the_span_length_where_q_is_small(terms, span):
    # every segment is TAYLOR_MAX_STEP long, so the span's length runs the budget out
    with pytest.raises(DomainError) as info:
        specfun.taylor_basis(0.0, terms, span, "long")
    assert str(info.value) == (f"long: [{span[0]}, {span[1]}] needs more than 10000 "
                               "Taylor segments of the longest step, 0.1")


def test_taylor_solution_outside_its_span():
    phi1, _, _ = specfun.taylor_basis(0.0, ((1.0, 0.0),), (0.0, 1.0), "unit")
    for v in (-0.5, 1.5, 0.5 + 0.1j):
        with pytest.raises(DomainError):
            phi1.jet(v)


@pytest.mark.parametrize("fn,z", [
    (lambda z: kummer_m(0.7 - 0.1j, 1.3, z), 2.0 + 1.0j),
    (lambda z: kummer_m(0.3, 1.1 + 0.4j, z), -3.0 + 0.5j),
    (lambda z: bessel_j(math.sqrt(0.91), z), 1.7 + 0.2j),
    (lambda z: bessel_j(0.0, z), 2.5),
    (lambda z: hyp2f1(0.3 - 0.2j, 1.1, 1.4 + 0.5j, z), 0.5 + 0.2j),
    (lambda z: hyp2f1(0.4, 0.9 - 0.3j, 1.7, z), 0.95),   # through 1 - z
], ids=["kummer_m", "kummer_m_complex_b", "bessel_j", "bessel_j_order_0", "hyp2f1",
        "hyp2f1_one_minus_z"])
def test_jet_argument_gives_the_plain_value_exactly(fn, z):
    assert fn(Dual.seed([z])[0]).val == fn(complex(z))


# ---------------------------------------------------------------- lifted series

def termwise_series(ratio, z, flat_needed, start=1.0 + 0j):
    """The term-by-term jet loop that the lifted series replaced, kept as its
    oracle: every term is a full jet, and the sum stops on the same rule, with
    every entry of the term small against that entry of the partial sum."""
    term = start
    total = term
    flat = 0
    for n in range(20000):
        term = term * ratio(n) * z
        total = total + term
        if all(abs(t) <= 1e-15 * (abs(s) + 1e-300)
               for t, s in zip(jet_parts(term), jet_parts(total))):
            flat += 1
            if flat >= flat_needed:
                return total
        else:
            flat = 0
    raise AssertionError("oracle series did not converge")


def termwise_bessel_j(order, z):
    half = z * 0.5
    pre = dual.power(half, order) / gamma(order + 1.0)
    return termwise_series(lambda n: -1.0 / ((n + 1.0) * (order + n + 1.0)),
                           half * half, 1, start=pre)


def jet_parts(x):
    f0, (f1,), ((f2,),) = dual.parts(x, 1)
    return np.array([f0, f1, f2])


def assert_jets_agree(got, want):
    # bound fixed before the first run: 1e-12 of the oracle's largest entry
    got, want = jet_parts(got), jet_parts(want)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def polar(rng, r_lo, r_hi):
    return rng.uniform(r_lo, r_hi) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def test_lifted_kummer_m_matches_the_termwise_jet():
    rng = np.random.default_rng(1301)
    for _ in range(40):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(0.3, 3), rng.uniform(-1, 1))
        z = Dual.seed([polar(rng, 0.0, 3.0)])[0]
        ratio = lambda n: (a + n) / ((b + n) * (n + 1.0))
        assert_jets_agree(kummer_m(a, b, z), termwise_series(ratio, z, 1))


def test_lifted_bessel_j_matches_the_termwise_jet():
    rng = np.random.default_rng(1302)
    for _ in range(40):
        order = complex(rng.uniform(0.1, 2.5), rng.uniform(-1, 1))
        z = Dual.seed([polar(rng, 0.2, 4.0)])[0]
        assert_jets_agree(bessel_j(order, z), termwise_bessel_j(order, z))


def test_lifted_hyp2f1_matches_the_termwise_jet():
    rng = np.random.default_rng(1303)
    for _ in range(40):
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        c = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
        z = Dual.seed([polar(rng, 0.0, 0.9)])[0]
        ratio = lambda n: (a + n) * (b + n) / ((c + n) * (n + 1.0))
        assert_jets_agree(hyp2f1(a, b, c, z), termwise_series(ratio, z, 2))


def test_series_jets_at_zero():
    a, b, c = 0.3 + 0.2j, 1.1 - 0.4j, 1.7 + 0.1j
    zero = Dual.seed([0.0])[0]
    m = jet_parts(kummer_m(a, b, zero))
    assert m[0] == 1.0
    assert m[1] == pytest.approx(a / b, rel=1e-15)
    assert m[2] == pytest.approx(a * (a + 1.0) / (b * (b + 1.0)), rel=1e-15)
    f = jet_parts(hyp2f1(a, b, c, zero))
    assert f[0] == 1.0
    assert f[1] == pytest.approx(a * b / c, rel=1e-15)


@pytest.mark.parametrize("fn,small,large", [
    (lambda z: kummer_m(0.7 - 0.1j, 1.3, z), 0.01, 3.0 + 1.0j),
    (lambda z: hyp2f1(0.3 - 0.2j, 1.1, 1.4 + 0.5j, z), 0.01, 0.85 + 0.2j),
    (lambda z: bessel_j(math.sqrt(0.91), z), 0.3, 4.0),
], ids=["kummer_m", "hyp2f1", "bessel_j"])
def test_series_jet_cost_does_not_grow_with_the_term_count(monkeypatch, fn, small, large):
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(self, other, _op=getattr(Dual, name)):
            calls.append(1)
            return _op(self, other)
        monkeypatch.setattr(Dual, name, counted)

    def jet_ops(z):
        calls.clear()
        fn(Dual.seed([z])[0])
        return len(calls)

    assert jet_ops(small) == jet_ops(large)


JET_OPS = ("lift", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
           "__rmul__", "__truediv__", "__rtruediv__", "reciprocal", "__pow__")


@pytest.mark.parametrize("fn,z", [
    (lambda z: kummer_m(0.7 - 0.1j, 1.3, z), 2.0 + 1.0j),
    (lambda z: kummer_u(0.4, 1.3, z), 1.5 + 0.5j),
    (lambda z: whittaker_m(0.1j, 0.8, z), 1.5j),
    (lambda z: whittaker_w(0.1j, 0.8, z), 1.5j),
    (lambda z: whittaker_w(0.2, 0.5, z), 1.0 + 0.8j),       # offset limit
    (lambda z: bessel_j(0.37 + 0.21j, z), 2.0 + 1.0j),
    (lambda z: bessel_j(0.0, z), 2.5),
    (lambda z: bessel_y(0.37 + 0.21j, z), 2.0 + 1.0j),
    (lambda z: bessel_y(1.0, z), 1.7),                       # offset limit
    (lambda z: hyp2f1(0.3 - 0.2j, 1.1, 1.4 + 0.5j, z), 0.5 + 0.2j),
    (lambda z: hyp2f1(0.4, 0.9 - 0.3j, 1.7, z), 0.95),      # through 1 - z
    (lambda z: legendre_p(0.9, 0.3 + 0.4j, z), 0.6),
    (lambda z: legendre_p(0.9, 0.3 + 0.4j, z), -0.6),       # reflected
    (lambda z: legendre_p(1.7, 1.0, z), -0.3),              # offset limit
    (lambda z: legendre_q(0.9, 0.3 + 0.4j, z), 0.6),
    (lambda z: legendre_q(0.9, 0.3 + 0.4j, z), -0.6),       # reflected
    (lambda z: legendre_q(1.7, 1.0, z), -0.3),              # offset limit
], ids=["kummer_m", "kummer_u", "whittaker_m", "whittaker_w", "whittaker_w_offset",
        "bessel_j", "bessel_j_order_0", "bessel_y", "bessel_y_offset", "hyp2f1",
        "hyp2f1_one_minus_z", "legendre_p", "legendre_p_reflected", "legendre_p_offset",
        "legendre_q", "legendre_q_reflected", "legendre_q_offset"])
def test_each_evaluator_lifts_its_scalar_jet_once(monkeypatch, fn, z):
    calls = []
    for name in JET_OPS:
        def counted(*args, _op=getattr(Dual, name), _name=name):
            calls.append(_name)
            return _op(*args)
        monkeypatch.setattr(Dual, name, counted)
    fn(Dual.seed([z])[0])
    assert calls == ["lift"]


def test_series_determinism():
    a = kummer_m(0.3 + 0.1j, 1.2, 2.0 + 1.0j)
    b = kummer_m(0.3 + 0.1j, 1.2, 2.0 + 1.0j)
    assert a == b
    x = legendre_p(0.9, 0.3, 0.4)
    y = legendre_p(0.9, 0.3, 0.4)
    assert x == y


# the series objects of a basis, which keep their last result: each is one
# binding, through a pool, of an evaluator to its parameters
MEMOIZED_SERIES = [
    (kummer_m.bind, (0.3 + 0.1j, 1.2 - 0.2j), 2.0 + 1.0j),
    (bessel_j.bind, (0.37 + 0.21j,), 2.0 + 1.0j),
    (specfun._ferrers_p, (0.9 + 0j, 0.3 + 0.4j), -0.6 + 0j),
]


def bound(bind, params):
    return specfun._Pool()(bind, *params)


@pytest.mark.parametrize("bind,params,z", MEMOIZED_SERIES,
                         ids=["kummer_m", "bessel_j", "ferrers_p"])
def test_memo_hit_is_the_fresh_evaluation_bit_for_bit(bind, params, z):
    jet = bound(bind, params)
    first = jet(z)
    assert jet(z) is first
    fresh = bound(bind, params)(z)
    assert fresh is not first and repr(fresh) == repr(first)


def test_memo_keeps_the_two_sides_of_a_branch_cut_apart():
    # -2 + 0j == -2 - 0j, and both hash alike, but z^nu takes the branch of
    # each side; a last result kept by value would hand the first back for the second
    order = 0.37 + 0.21j
    jet = bound(bessel_j.bind, (order,))
    above = jet(complex(-2.0, 0.0))
    below = jet(complex(-2.0, -0.0))
    assert above[0] != below[0]
    jet = bound(bessel_j.bind, (order,))
    assert repr(jet(complex(-2.0, -0.0))) == repr(below)
    assert repr(jet(complex(-2.0, 0.0))) == repr(above)


def test_cross_oracle_kummer_vs_rk():
    # integrate Kummer's equation from series initial data and compare downstream
    a, b = 0.4 - 0.1j, 1.3
    z0, z1 = 0.5, 2.5
    f0, f1, _ = solution_jet(lambda z: kummer_m(a, b, z), z0)
    sol = ode_integrate(lambda z: (b - z) / z, lambda z: -a / z, z0, f0, f1, z1)
    for t in np.linspace(z0, z1, 9):
        got = sol(t)[0]
        want = kummer_m(a, b, complex(t))
        assert abs(got - want) < 1e-7


# ---------------------------------------------------------------- mpmath at 30 digits

def mp_jet(values):
    return np.array([complex(v) for v in values])


def test_series_jets_match_mpmath():
    # bounds fixed before the first run: 1e-13, per entry for 2F1 and against
    # the largest reference entry for M and J
    with mpmath.workdps(30):
        a, b, c = 0.3 - 0.2j, 1.1, 1.4 + 0.5j
        for z in (0.5, 0.8, 0.9):
            got = np.array(solution_jet(lambda t: hyp2f1(a, b, c, t), z))
            want = mp_jet(mpmath.rf(a, k) * mpmath.rf(b, k) / mpmath.rf(c, k)
                          * mpmath.hyp2f1(a + k, b + k, c + k, z) for k in range(3))
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (z, got - want)
        rng = np.random.default_rng(1601)
        for _ in range(20):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(0.3, 3), rng.uniform(-1, 1))
            z = polar(rng, 0.0, 3.0)
            got = np.array(solution_jet(lambda t: kummer_m(a, b, t), z))
            want = mp_jet(mpmath.rf(a, k) / mpmath.rf(b, k) * mpmath.hyp1f1(a + k, b + k, z)
                          for k in range(3))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (a, b, z)
            order = complex(rng.uniform(0.1, 2.5), rng.uniform(-1, 1))
            z = polar(rng, 0.2, 4.0)
            got = np.array(solution_jet(lambda t: bessel_j(order, t), z))
            j = [mpmath.besselj(order + n, z) for n in range(-2, 3)]
            want = mp_jet((j[2], (j[1] - j[3]) / 2, (j[0] - 2 * j[2] + j[4]) / 4))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (order, z)


def ferrers_draws(n):
    """(nu, sigma, x): nu in [-0.5, 4] + i[-2, 2], real on every other draw;
    sigma in [-1.5, 1.5] + i[-3, 3] with |sin(pi sigma)| >= 1e-3; x in
    (-0.95, 0.95), alternating in sign."""
    rng = np.random.default_rng(1602)
    out = []
    for i in range(n):
        nu = complex(rng.uniform(-0.5, 4.0), 0.0 if i % 2 else rng.uniform(-2.0, 2.0))
        sigma = complex(rng.uniform(-1.5, 1.5), rng.uniform(-3.0, 3.0))
        while abs(cmath.sin(math.pi * sigma)) < 1e-3:
            sigma = complex(rng.uniform(-1.5, 1.5), rng.uniform(-3.0, 3.0))
        out.append((nu, sigma, (-1.0) ** i * rng.uniform(0.0, 0.95)))
    return out


def mp_ferrers_jet(ref, nu, sigma, x):
    """(f, f', f'') at x of mpmath's Ferrers function ``ref`` (type 2)."""
    return mp_jet(mpmath.diff(lambda t: ref(nu, sigma, t, type=2), mpmath.mpf(x), k)
                  for k in range(3))


def ferrers_error(fn, ref, nu, sigma, x):
    """The largest jet-entry error of ``fn`` against ``ref``, over the largest
    reference entry."""
    got = np.array(solution_jet(lambda t: fn(nu, sigma, t), x))
    want = mp_ferrers_jet(ref, nu, sigma, x)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


FERRERS_PAIRS = ((legendre_p, mpmath.legenp), (legendre_q, mpmath.legenq))


def test_ferrers_functions_match_mpmath():
    # bound fixed before the first run: 1e-9 of the largest reference entry
    with mpmath.workdps(30):
        for nu, sigma, x in ferrers_draws(100):
            for fn, ref in FERRERS_PAIRS:
                assert ferrers_error(fn, ref, nu, sigma, x) <= 1e-9, (fn.__name__, nu, sigma, x)


def test_ferrers_near_integer_order_match_mpmath():
    # |sin(pi sigma)| in [1e-6, 1e-3]: P^sigma and P^-sigma nearly cancel in
    # both connection formulas, so rounding grows like 1 / |sin(pi sigma)|.
    # bound: 1e-13 / |sin(pi sigma)| of the largest reference entry
    rng = np.random.default_rng(1604)
    with mpmath.workdps(30):
        for i in range(24):
            nu = complex(rng.uniform(-0.5, 4.0), 0.0 if i % 2 else rng.uniform(-2.0, 2.0))
            offset = 10.0 ** rng.uniform(-6.0, -3.0) / math.pi
            phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi)) if i % 4 < 2 else 1.0
            sigma = (i % 3 - 1) + (-1.0) ** (i // 3) * offset * phase
            x = (-1.0) ** i * rng.uniform(0.0, 0.95)
            bound = 1e-13 / abs(cmath.sin(math.pi * sigma))
            for fn, ref in FERRERS_PAIRS:
                assert ferrers_error(fn, ref, nu, sigma, x) <= bound, (fn.__name__, nu, sigma, x)


@pytest.mark.parametrize("nu, sigma", [(-0.5, 1.5), (0.5, 1.5), (-0.7, 1.3), (-0.5, -1.5),
                                       (0.5, -1.5)])
def test_ferrers_p_where_a_connection_gamma_has_a_pole(nu, sigma):
    # nu -+ sigma + 1 a nonpositive integer: the P^-sigma coefficient of the
    # reflection is 0 there, not a pole.  bound: 1e-12 of the largest entry
    with mpmath.workdps(30):
        for x in (-0.9, -0.4, -1e-3, 0.6):
            assert ferrers_error(legendre_p, mpmath.legenp, nu, sigma, x) <= 1e-12, x


def test_ferrers_q_where_its_p_minus_sigma_coefficient_vanishes():
    # nu - sigma + 1 = -1, where mpmath's legenq divides by zero: the reference
    # is the mean over nu -+ 1e-6, exact to O(1e-12).  bound: 1e-9 of the
    # largest entry
    nu, sigma = -0.7, 1.3
    with mpmath.workdps(30):
        for x in (-0.9, -0.4, 0.2, 0.8):
            got = np.array(solution_jet(lambda t: legendre_q(nu, sigma, t), x))
            want = sum(mp_ferrers_jet(mpmath.legenq, n, sigma, x)
                       for n in (nu - 1e-6, nu + 1e-6)) / 2
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), x


def unreflected_ferrers(nu, sigma, x, second_kind):
    """P, or Q by DLMF 14.9.2, from the defining 2F1 at (1 - x)/2 whatever
    the sign of x: the branch the reflection replaces for x < 0."""
    def p(sg):
        pre = dual.power((x + 1.0) / (1.0 - x), sg * 0.5) / gamma(1.0 - sg)
        return pre * hyp2f1(-nu, nu + 1.0, 1.0 - sg, (1.0 - x) * 0.5)
    if not second_kind:
        return p(sigma)
    ratio = gamma(nu + sigma + 1.0) / gamma(nu - sigma + 1.0)
    combo = p(sigma) * cmath.cos(math.pi * sigma) - p(-sigma) * ratio
    return combo * (math.pi / (2.0 * cmath.sin(math.pi * sigma)))


def test_ferrers_reflection_meets_the_direct_branch_at_zero():
    # bound fixed before the first run: 1e-12 of the largest entry
    for nu, sigma, _ in ferrers_draws(40):
        for fn, second_kind in ((legendre_p, False), (legendre_q, True)):
            for x in (-1e-12, 1e-12):
                got = np.array(solution_jet(lambda t: fn(nu, sigma, t), x))
                want = np.array(solution_jet(
                    lambda t: unreflected_ferrers(nu, sigma, t, second_kind), x))
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), \
                    (fn.__name__, nu, sigma, x)
