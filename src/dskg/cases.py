"""The case registry: every formula that belongs to one catalog entry.

One frozen :class:`CaseSpec` per inequivalent subalgebra of so(1,3), in
catalog order.  A spec holds the generator rows (:mod:`dskg.lie_core`
derives their brackets), the Table 3 reference row, the rectifying chart and
the chart components of the generators, the invariant field data (2-form,
gauge, chi, field template, default profiles) and, for the five integrable
entries, the lambda-representation, the closed-form wave operator, the
joint-system ansatz, the reduced ODE, its solution basis and the run
defaults.

This is the only module that knows which formula belongs to which entry;
:mod:`dskg.lie_core`, :mod:`dskg.geometry`, :mod:`dskg.fields`,
:mod:`dskg.operators` and :mod:`dskg.integrate` look formulas up here and
wrap their outputs.  Formulas are functions of the family parameter ``a`` or
of a field configuration ``k``; coordinate callables read ``k`` when they are
evaluated.  Families that share a formula share one object.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import dual, specfun


class CaseId(str, Enum):
    G11 = "g1_1"
    G12 = "g1_2"
    G13a = "g1_3a"
    G14 = "g1_4"
    G21 = "g2_1"
    G22 = "g2_2"
    G23 = "g2_3"
    G31 = "g3_1"
    G32 = "g3_2"
    G33a = "g3_3a"
    G34 = "g3_4"
    G35 = "g3_5"
    G41 = "g4_1"

    def __str__(self):
        return self.value


BRANCH_TOL = 1e-9


class BranchPointError(ValueError):
    """A complex-power base touched the principal cut on the requested point."""


def _safe_power(base, expo, what: str):
    """base ** expo on the principal branch.

    A point base on the cut raises :class:`BranchPointError`.  On a grid jet,
    the lanes whose base is on the cut, zero or not finite (a vanishing
    denominator) are dropped instead: they come back NaN in every entry.
    """
    if isinstance(expo, complex) and expo.imag == 0 and float(expo.real).is_integer():
        return base ** int(expo.real)
    if isinstance(expo, (int, float)) and float(expo).is_integer():
        return base ** int(expo)
    b = dual.value(base)
    if isinstance(b, np.ndarray):
        off = ~np.isfinite(b) | ((b.real <= 0) & (np.abs(b.imag) < BRANCH_TOL))
        return dual.drop_lanes(dual.power(base, expo), off)
    if b.real <= 0 and abs(b.imag) < BRANCH_TOL:
        raise BranchPointError(f"{what}: base {b} on the principal cut")
    return dual.power(base, expo)


def const(value):
    """A coefficient function with a constant value."""
    return lambda coords, v=value: v


def _zero(coords):
    return 0.0


def _one(coords):
    return 1.0


@dataclass(frozen=True)
class ChartSpec:
    r: int    # orbit coordinates q1..q_r; u1..u_(3-r) label the orbits
    domain: tuple[tuple[float, float], ...]
    map: Callable                            # a -> (coords -> 4 ambient components)


@dataclass(frozen=True)
class Profiles:
    """Default profile functions f1, f2 and their antiderivatives.

    An antiderivative is present exactly where the entry's gauge potential
    uses it, so a caller's own profile must then come with one.
    """

    f1: Callable
    f1_antideriv: Optional[Callable]
    f2: Callable
    f2_antideriv: Optional[Callable]


_PROFILES = Profiles(lambda u1: u1, None, lambda u1: 1.0, None)


@dataclass(frozen=True)
class FieldSpec:
    template: str
    two_form: Callable   # k -> {(a, b): component}
    gauge: Callable      # k -> three components with dA = F
    chi: Callable        # k -> one chi_A per generator, d chi_A = -i_{X_A} F
    profiles: Profiles = _PROFILES


@dataclass(frozen=True)
class IntegrationSpec:
    lam: complex                            # an in-domain lambda
    grid: tuple[tuple[float, float], ...]   # a branch-safe chart box
    lambda_rep: Callable    # (J, k) -> [(coefficient, scalar)] per generator
    kg_operator: Callable   # k -> (second, first, scalar) coefficients
    ansatz: Callable        # (k, J) -> (phase, char), both of (coords, lam)
    reduced_ode: Callable   # (k, J) -> (p, q)
    # (k, J, lam) -> (phi1, phi2, record), each member a plain function
    # v -> (Phi, Phi', Phi''); a basis on a finite span also covers the
    # characteristic variable on `grid` at lam, a closed form ignores lam
    basis: Callable


@dataclass(frozen=True)
class CaseSpec:
    case_id: CaseId
    generators: Callable       # a -> generator rows; lie_core derives their brackets
    table3_reference: tuple    # in the columns of lie_core.IntegrabilityRecord
    chart: ChartSpec
    rect: Callable             # a -> per generator, its three chart components
    field: FieldSpec
    magnetic_pair: bool = False   # X1, X2 carry the central charge mu
    integration: Optional[IntegrationSpec] = None
    parameterized: bool = False

    @property
    def dim(self) -> int:
        # the number of generators does not depend on the family parameter
        return len(self.generators(1.0))


# generator rows over (J01, J02, J03, J12, J13, J23)
_N1 = (1.0, 0.0, 0.0, 0.0, -1.0, 0.0)   # null rotation in the (q1) direction
_N2 = (0.0, 1.0, 0.0, 0.0, 0.0, -1.0)
_BOOST = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
_ROT = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)

_HALF_PI = math.pi / 2.0


# ----------------------------------------------------------------------
# one-dimensional entries: G11, G12, G13a, G14
# ----------------------------------------------------------------------

def _g11_map(c):
    q1, u1, u2 = c
    s12 = dual.sin(u1) * dual.sin(u2)
    return [-s12 * dual.sinh(q1), dual.cos(u2), dual.cos(u1) * dual.sin(u2),
            s12 * dual.cosh(q1)]


def _g12_map(c):
    q1, u1, u2 = c
    cc = dual.cosh(u1) * dual.cos(u2)
    x3 = dual.cosh(u1) * dual.sin(u2)
    x0 = dual.sinh(u1)
    return [x0, -cc * dual.sin(q1), cc * dual.cos(q1), x3]


def _g13a_map(a):
    def m(c):
        q1, u1, u2 = c
        cc = dual.cosh(u1) * dual.cos(u2)
        x3 = dual.cosh(u1) * dual.sin(u2) * dual.cosh(q1 * a) \
            - dual.sinh(u1) * dual.sinh(q1 * a)
        x0 = -dual.cosh(u1) * dual.sin(u2) * dual.sinh(q1 * a) \
            + dual.sinh(u1) * dual.cosh(q1 * a)
        return [x0, -cc * dual.sin(q1), cc * dual.cos(q1), x3]
    return m


def _g14_map(c):
    q1, u1, u2 = c
    w = dual.sinh(u1) - dual.cosh(u1) * dual.sin(u2)
    half = q1 * q1 * w * 0.5
    return [half + dual.sinh(u1), -q1 * w, dual.cosh(u1) * dual.cos(u2),
            half + dual.cosh(u1) * dual.sin(u2)]


_G12_CHART = ChartSpec(1, ((-1.5, 1.5), (-1.2, 1.2), (-_HALF_PI + 0.2, _HALF_PI - 0.2)),
                       lambda a: _g12_map)
_ONE_DIM_ROW = (2, 2, 0, 1, 2, False)
_ORBIT1_FIELD = FieldSpec(
    "dq1 ^ d f1(u1,u2) + f2(u1,u2) du1 ^ du2",
    two_form=lambda k: {(0, 1): lambda c: dual.partial(k.f1(c[1], c[2]), 1),
                        (0, 2): lambda c: dual.partial(k.f1(c[1], c[2]), 2),
                        (1, 2): lambda c: k.f2(c[1], c[2])},
    gauge=lambda k: [lambda c: -k.f1(c[1], c[2]), _zero,
                     lambda c: k.f2_antideriv(c[1], c[2])],
    chi=lambda k: [lambda c: -k.f1(c[1], c[2])],
    profiles=Profiles(lambda u1, u2: u1 + 0.5 * u2, None, lambda u1, u2: 1.0,
                      lambda u1, u2: u1 * 1.0))


def _orbit1_rect(a):
    return [[_one, _zero, _zero]]


_G11 = CaseSpec(CaseId.G11, lambda a: [_BOOST], _ONE_DIM_ROW,
                ChartSpec(1, ((-1.5, 1.5), (0.2, math.pi - 0.2), (0.2, math.pi - 0.2)),
                          lambda a: _g11_map),
                _orbit1_rect, _ORBIT1_FIELD)
_G12 = CaseSpec(CaseId.G12, lambda a: [_ROT], _ONE_DIM_ROW, _G12_CHART,
                _orbit1_rect, _ORBIT1_FIELD)
_G13a = CaseSpec(CaseId.G13a, lambda a: [(0.0, 0.0, a, 1.0, 0.0, 0.0)], _ONE_DIM_ROW,
                 replace(_G12_CHART, map=_g13a_map), _orbit1_rect, _ORBIT1_FIELD,
                 parameterized=True)
_G14 = CaseSpec(CaseId.G14, lambda a: [_N1], _ONE_DIM_ROW,
                ChartSpec(1, ((-1.5, 1.5), (0.35, 1.4), (-0.25, 0.25)),
                          lambda a: _g14_map),
                _orbit1_rect, _ORBIT1_FIELD)


# ----------------------------------------------------------------------
# two-dimensional entries: G21, G22, G23
# ----------------------------------------------------------------------

def _translation_map(c):
    q1, q2, u1 = c
    e = dual.exp(-u1)
    half = e * (q1 * q1 + q2 * q2) * 0.5
    return [dual.sinh(u1) - half, q1 * e, q2 * e, dual.cosh(u1) - half]


def _g22_map(c):
    q1, q2, u1 = c
    return [-dual.sin(u1) * dual.sinh(q2), dual.cos(u1) * dual.cos(q1),
            dual.cos(u1) * dual.sin(q1), dual.sin(u1) * dual.cosh(q2)]


def _g23_map(c):
    q1, q2, u1 = c
    e = dual.exp(q2)
    half = q1 * q1 * e * 0.5
    return [-dual.cos(u1) * (dual.sinh(q2) + half), q1 * e * dual.cos(u1),
            dual.sin(u1), dual.cos(u1) * (dual.cosh(q2) - half)]


def _plane_rect(a):
    return [[_one, _zero, _zero], [_zero, _one, _zero]]


_TRANSLATION_CHART = ChartSpec(2, ((-1.5, 1.5), (-1.5, 1.5), (-1.0, 1.0)),
                               lambda a: _translation_map)
_TWO_DIM_ROW = (3, 1, 1, 0, 2, False)
_PLANE_FIELD = FieldSpec(
    "mu dq1 ^ dq2 + f1(u1) dq1 ^ du1 + f2(u1) dq2 ^ du1",
    two_form=lambda k: {(0, 1): lambda c: k.mu, (0, 2): lambda c: k.f1(c[2]),
                        (1, 2): lambda c: k.f2(c[2])},
    gauge=lambda k: [lambda c: -0.5 * k.mu * c[1] - k.f1_antideriv(c[2]),
                     lambda c: 0.5 * k.mu * c[0] - k.f2_antideriv(c[2]), _zero],
    chi=lambda k: [lambda c: -k.mu * c[1] - k.f1_antideriv(c[2]),
                   lambda c: k.mu * c[0] - k.f2_antideriv(c[2])],
    profiles=replace(_PROFILES, f1_antideriv=lambda u1: 0.5 * u1 * u1,
                     f2_antideriv=lambda u1: u1 * 1.0))

_G21 = CaseSpec(CaseId.G21, lambda a: [_N1, _N2], _TWO_DIM_ROW, _TRANSLATION_CHART,
                _plane_rect, _PLANE_FIELD, magnetic_pair=True)
_G22 = CaseSpec(CaseId.G22, lambda a: [_ROT, _BOOST], _TWO_DIM_ROW,
                ChartSpec(2, ((-2.0, 2.0), (-1.5, 1.5), (0.2, _HALF_PI - 0.2)),
                          lambda a: _g22_map),
                _plane_rect, _PLANE_FIELD, magnetic_pair=True)
_G23 = CaseSpec(
    CaseId.G23, lambda a: [_N1, _BOOST], _TWO_DIM_ROW,
    ChartSpec(2, ((-1.5, 1.5), (-1.2, 1.2), (-1.2, 1.2)), lambda a: _g23_map),
    lambda a: [[_one, _zero, _zero], [lambda c: -c[0], _one, _zero]],
    FieldSpec(
        "exp(q2) dq1 ^ (f1(u1) dq2 + d f1(u1)) + f2(u1) dq2 ^ du1",
        two_form=lambda k: {(0, 1): lambda c: dual.exp(c[1]) * k.f1(c[2]),
                            (0, 2): lambda c: dual.exp(c[1]) * dual.partial(k.f1(c[2]), 2),
                            (1, 2): lambda c: k.f2(c[2])},
        gauge=lambda k: [lambda c: -dual.exp(c[1]) * k.f1(c[2]),
                         lambda c: -k.f2_antideriv(c[2]), _zero],
        chi=lambda k: [lambda c: -dual.exp(c[1]) * k.f1(c[2]),
                       lambda c: c[0] * dual.exp(c[1]) * k.f1(c[2]) - k.f2_antideriv(c[2])],
        profiles=replace(_PROFILES, f2_antideriv=lambda u1: u1 * 1.0)))


# ----------------------------------------------------------------------
# G31: null rotations and a boost
# ----------------------------------------------------------------------

def _horospherical_map(a):
    aa = 1.0 if a is None else a

    def m(c):
        q1, q2, q3 = c
        e = dual.exp(q3 * aa)
        half = e * (q1 * q1 + q2 * q2) * 0.5
        return [-dual.sinh(q3 * aa) - half, q1 * e, q2 * e, dual.cosh(q3 * aa) - half]
    return m


def _g31_kg(k):
    e, mt, mu1, mu2 = k.e, k.mass_term, k.mu1, k.mu2
    h = lambda c: dual.exp(c[2]) * (mu1 * c[0] + mu2 * c[1])
    second = [[lambda c: -dual.exp(c[2] * (-2.0)), _zero, _zero],
              [_zero, lambda c: -dual.exp(c[2] * (-2.0)), _zero],
              [_zero, _zero, const(1.0)]]
    first = [_zero, _zero, lambda c: 2.0 - 2j * e * h(c)]
    scalar = lambda c: -3j * e * h(c) - (e * h(c)) ** 2 + mt
    return second, first, scalar


def _g31_ansatz(k, J):
    e, mu1, mu2 = k.e, k.mu1, k.mu2

    def phase(c, lam):
        return dual.exp(
            -1j * lam * (J * c[0] + c[1]) - 0.5 * c[2]
            + 1j * e * dual.exp(c[2]) * (mu1 * c[0] + mu2 * c[1]))

    def char(c, lam):
        return dual.exp(-c[2]) * lam
    return phase, char


def _g31_reduced_ode(k, J):
    e, mt, mu1, mu2 = k.e, k.mass_term, k.mu1, k.mu2
    c0 = mt + e * e * (mu1 * mu1 + mu2 * mu2) - 0.75

    def q(v):
        if abs(v) < 1e-300:
            raise ZeroDivisionError("reduced equation singular at v = 0")
        return (J * J + 1.0) + (-2.0 * e * (J * mu1 + mu2) * v + c0) / (v * v)
    return lambda v: 0.0, q


def _g31_basis(k, J, lam):
    e, mt, mu1, mu2 = k.e, k.mass_term, k.mu1, k.mu2
    root = math.sqrt(J * J + 1.0)
    alpha = 1j * e * (J * mu1 + mu2) / root
    beta = cmath.sqrt(1.0 - mt - e * e * (mu1 * mu1 + mu2 * mu2))
    scale = 2j * root

    def frame(v):
        # the argument v scale, no prefactor
        return (v * scale, scale, 0.0), None
    phi1, phi2 = specfun.basis_members((specfun.whittaker_m, specfun.whittaker_w),
                                       (alpha, beta), frame)
    return phi1, phi2, {"kind": "whittaker", "alpha": alpha, "beta": beta, "z_scale": scale}


_HOROSPHERICAL_CHART = ChartSpec(3, ((-1.5, 1.5), (-1.5, 1.5), (-1.0, 1.0)),
                                 _horospherical_map)
_THREE_DIM_ROW = (4, 2, 1, 1, 1, True)

_G31 = CaseSpec(
    CaseId.G31,
    lambda a: [_N1, _N2, _BOOST],
    _THREE_DIM_ROW, _HOROSPHERICAL_CHART,
    lambda a: [[_one, _zero, _zero], [_zero, _one, _zero],
               [lambda c: -c[0], lambda c: -c[1], _one]],
    FieldSpec(
        "exp(q3) (mu1 dq1 + mu2 dq2) ^ dq3",
        two_form=lambda k: {(0, 2): lambda c: k.mu1 * dual.exp(c[2]),
                            (1, 2): lambda c: k.mu2 * dual.exp(c[2])},
        gauge=lambda k: [_zero, _zero,
                         lambda c: dual.exp(c[2]) * (k.mu1 * c[0] + k.mu2 * c[1])],
        chi=lambda k: [lambda c: -k.mu1 * dual.exp(c[2]),
                       lambda c: -k.mu2 * dual.exp(c[2]),
                       lambda c: dual.exp(c[2]) * (k.mu1 * c[0] + k.mu2 * c[1])]),
    integration=IntegrationSpec(
        0.7 + 0j, ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 1.0)),
        lambda_rep=lambda J, k: [(_zero, lambda c: 1j * J * c[0]),
                                 (_zero, lambda c: 1j * c[0]),
                                 (lambda c: c[0], const(0.5))],
        kg_operator=_g31_kg, ansatz=_g31_ansatz, reduced_ode=_g31_reduced_ode,
        basis=_g31_basis))


# ----------------------------------------------------------------------
# G32: null rotations and a rotation
# ----------------------------------------------------------------------

def _g32_kg(k):
    e, mt, mu = k.e, k.mass_term, k.mu
    second = [[lambda c: -dual.exp(c[2] * 2.0), _zero, _zero],
              [_zero, lambda c: -dual.exp(c[2] * 2.0), _zero],
              [_zero, _zero, const(1.0)]]
    first = [lambda c: -1j * e * mu * dual.exp(c[2] * 2.0) * c[1],
             lambda c: 1j * e * mu * dual.exp(c[2] * 2.0) * c[0],
             const(-2.0)]
    scalar = lambda c: 0.25 * (e * mu) ** 2 * dual.exp(c[2] * 2.0) \
        * (c[0] * c[0] + c[1] * c[1]) + mt
    return second, first, scalar


def _g32_ansatz(k, J):
    e, mu = k.e, k.mu

    def phase(c, lam):
        base = c[0] + 1j * (c[1] + lam)
        rest = dual.exp(0.5 * e * mu * lam * (1j * c[0] + c[1])
                        + 0.25 * e * mu * (c[0] * c[0] + c[1] * c[1]))
        return _safe_power(base, J, "translation-plane base") * rest
    return phase, _third_coordinate


def _third_coordinate(c, lam):
    return c[2] * 1.0


def _g32_reduced_ode(k, J):
    e, mt, mu = k.e, k.mass_term, k.mu

    def q(v):
        return mt - e * mu * (2.0 * J + 1.0) * cmath.exp(2.0 * v)
    return lambda v: -2.0, q


def _g32_basis(k, J, lam):
    e, mt, mu = k.e, k.mass_term, k.mu
    order = cmath.sqrt(1.0 - mt)
    charge = e * mu * (2.0 * J + 1.0)
    if charge == 0:
        return _g32_neutral_basis(order)
    scale = 1j * cmath.sqrt(charge)

    def frame(v):
        # the argument exp(v) scale and the prefactor exp(v)
        ev = cmath.exp(v)
        z = ev * scale
        return (z, z, z), (ev, ev, ev)
    phi1, phi2 = specfun.basis_members((specfun.bessel_j, specfun.bessel_y), (order,), frame)
    return phi1, phi2, {"kind": "bessel", "order": order, "argument_scale": scale}


def _g32_neutral_basis(order):
    # without charge, Phi'' - 2 Phi' + m_t Phi = 0 is solved by exp((1 +- order) v),
    # and by exp(v), v exp(v) where the two rates meet
    def linear_exp(a, b, rate):
        # the 2-jet of (a + b v) exp(rate v)
        def member(v):
            ev, p = cmath.exp(rate * v), a + b * v
            return p * ev, (b + rate * p) * ev, (2.0 * b + rate * p) * rate * ev
        return member
    if order == 0:
        phi2, functions = linear_exp(0.0, 1.0, 1.0), "exp(v), v exp(v)"
    else:
        phi2 = linear_exp(1.0, 0.0, 1.0 - order)
        functions = "exp((1 + order) v), exp((1 - order) v)"
    return (linear_exp(1.0, 0.0, 1.0 + order), phi2,
            {"kind": "exponential", "order": order, "functions": functions})


_G32 = CaseSpec(
    CaseId.G32,
    lambda a: [_N1, _N2, _ROT],
    _THREE_DIM_ROW, _TRANSLATION_CHART,
    lambda a: [[_one, _zero, _zero], [_zero, _one, _zero],
               [lambda c: -c[1], lambda c: c[0], _zero]],
    FieldSpec(
        "mu dq1 ^ dq2",
        two_form=lambda k: {(0, 1): lambda c: k.mu},
        gauge=lambda k: [lambda c: -0.5 * k.mu * c[1], lambda c: 0.5 * k.mu * c[0], _zero],
        chi=lambda k: [lambda c: -k.mu * c[1], lambda c: k.mu * c[0],
                       lambda c: 0.5 * k.mu * (c[0] * c[0] + c[1] * c[1])]),
    magnetic_pair=True,
    integration=IntegrationSpec(
        0.4 + 0.2j, ((0.3, 1.2), (-0.5, 0.5), (-0.5, 0.5)),
        lambda_rep=lambda J, k: [(const(1j), lambda c: -0.5j * k.e * k.mu * c[0]),
                                 (const(-1.0), lambda c: -0.5 * k.e * k.mu * c[0]),
                                 (lambda c: 1j * c[0], const(-1j * J))],
        kg_operator=_g32_kg, ansatz=_g32_ansatz, reduced_ode=_g32_reduced_ode,
        basis=_g32_basis))


# ----------------------------------------------------------------------
# G33a: null rotations and a screw motion, a > 0
# ----------------------------------------------------------------------

def _g33a_chi(k):
    mu1, mu2, a = k.mu1, k.mu2, k.parameter_a
    den = 1.0 + a * a
    al = (a * mu1 - mu2) / den
    be = (mu1 + a * mu2) / den
    return [
        lambda c: -dual.exp(c[2] * a) * (al * dual.cos(c[2]) + be * dual.sin(c[2])),
        lambda c: dual.exp(c[2] * a) * (be * dual.cos(c[2]) - al * dual.sin(c[2])),
        lambda c: dual.exp(c[2] * a) * ((mu1 * c[0] - mu2 * c[1]) * dual.cos(c[2])
                                        + (mu2 * c[0] + mu1 * c[1]) * dual.sin(c[2])),
    ]


def _g33a_kg(k):
    e, mt, mu1, mu2, a = k.e, k.mass_term, k.mu1, k.mu2, k.parameter_a
    P = lambda c: dual.exp(c[2] * a) * (mu1 * dual.cos(c[2]) + mu2 * dual.sin(c[2]))
    Q = lambda c: dual.exp(c[2] * a) * (mu1 * dual.sin(c[2]) - mu2 * dual.cos(c[2]))
    W = lambda c: c[0] * P(c) + c[1] * Q(c)
    second = [[lambda c: -dual.exp(c[2] * (-2.0 * a)), _zero, _zero],
              [_zero, lambda c: -dual.exp(c[2] * (-2.0 * a)), _zero],
              [_zero, _zero, const(1.0 / a ** 2)]]
    first = [_zero, _zero,
             lambda c: 2.0 / a - (2j * e / a ** 2) * W(c)]
    scalar = lambda c: -(1j * e / a ** 2) * (3.0 * a * W(c) + c[1] * P(c) - c[0] * Q(c)) \
        - (e / a) ** 2 * W(c) ** 2 + mt
    return second, first, scalar


def _g33a_ansatz(k, J):
    e, mu1, mu2, a = k.e, k.mu1, k.mu2, k.parameter_a
    den = 1.0 + a * a
    al = (a * mu1 - mu2) / den
    be = (mu1 + a * mu2) / den

    def phase(c, lam):
        ea = dual.exp(c[2] * a)
        field_part = 1j * e * ea * ((al * c[0] - be * c[1]) * dual.cos(c[2])
                                    + (be * c[0] + al * c[1]) * dual.sin(c[2]))
        rep_part = -1j * J * dual.exp(lam * a) * (c[0] * dual.cos(lam)
                                                  + c[1] * dual.sin(lam))
        return dual.exp(field_part + rep_part)

    def char(c, lam):
        return c[2] - lam
    return phase, char


def _g33a_q_terms(k, J):
    """q of the reduced equation as (c, rate) pairs: q(v) = sum c exp(rate v).

    It is -2 e a^2 J exp(-a v) ((a mu1 - mu2) cos v + (mu1 + a mu2) sin v) / (1 + a^2)
    + a^2 J^2 exp(-2 a v) + a^2 m_t + (e a)^2 (mu1^2 + mu2^2) / (1 + a^2), with
    cos and sin split into exp(+-i v).
    """
    e, mt, mu1, mu2, a = k.e, k.mass_term, k.mu1, k.mu2, k.parameter_a
    den = 1.0 + a * a
    amp = -e * a * a * J / den
    return ((amp * complex(a * mu1 - mu2, -(mu1 + a * mu2)), complex(-a, 1.0)),
            (amp * complex(a * mu1 - mu2, mu1 + a * mu2), complex(-a, -1.0)),
            (a * a * J * J, -2.0 * a),
            (a * a * mt + (e * a) ** 2 * (mu1 * mu1 + mu2 * mu2) / den, 0.0))


def _g33a_reduced_ode(k, J):
    terms, a = _g33a_q_terms(k, J), k.parameter_a
    return lambda v: 2.0 * a, lambda v: specfun.exp_sum(terms, v)


# the v-range that the Taylor basis spans at least, and the solve grid's box
_G33A_SPAN = (-1.8, 1.8)
_G33A_GRID = ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5))


def _g33a_basis(k, J, lam):
    # no known closed form, but q is entire: a piecewise Taylor series, on a
    # span that also holds the ansatz's v over the grid box at lam.  v is
    # affine in the coordinates, so the box's corners bound it
    _, char = _g33a_ansatz(k, J)
    vs = [char(corner, lam).real for corner in itertools.product(*_G33A_GRID)]
    a, span = k.parameter_a, (min(_G33A_SPAN[0], *vs), max(_G33A_SPAN[1], *vs))
    phi1, phi2, segments = specfun.taylor_basis(2.0 * a, _g33a_q_terms(k, J), span,
                                                f"g3_3a (a = {a}, J = {J}, lambda = "
                                                f"{complex(lam):.4g})")
    return phi1.jet, phi2.jet, {"kind": "taylor_series", "span": list(span),
                                "segments": segments, "terms": specfun.TAYLOR_TERMS}


_G33a = CaseSpec(
    CaseId.G33a,
    lambda a: [_N1, _N2, (0.0, 0.0, a, 1.0, 0.0, 0.0)],
    _THREE_DIM_ROW, _HOROSPHERICAL_CHART,
    lambda a: [[_one, _zero, _zero], [_zero, _one, _zero],
               [lambda c: -(a * c[0] + c[1]), lambda c: c[0] - a * c[1], _one]],
    FieldSpec(
        "exp(a q3) [(mu1 cos q3 + mu2 sin q3) dq1 + (mu1 sin q3 - mu2 cos q3) dq2] ^ dq3",
        two_form=lambda k: {
            (0, 2): lambda c: dual.exp(c[2] * k.parameter_a)
            * (k.mu1 * dual.cos(c[2]) + k.mu2 * dual.sin(c[2])),
            (1, 2): lambda c: dual.exp(c[2] * k.parameter_a)
            * (k.mu1 * dual.sin(c[2]) - k.mu2 * dual.cos(c[2]))},
        gauge=lambda k: [_zero, _zero, lambda c: dual.exp(c[2] * k.parameter_a) * (
            (k.mu1 * c[0] - k.mu2 * c[1]) * dual.cos(c[2])
            + (k.mu2 * c[0] + k.mu1 * c[1]) * dual.sin(c[2]))],
        chi=_g33a_chi),
    integration=IntegrationSpec(
        0.2 + 0j, _G33A_GRID,
        lambda_rep=lambda J, k: [
            (_zero, lambda c: 1j * J * dual.exp(c[0] * k.parameter_a) * dual.cos(c[0])),
            (_zero, lambda c: 1j * J * dual.exp(c[0] * k.parameter_a) * dual.sin(c[0])),
            (const(1.0), _zero)],
        kg_operator=_g33a_kg, ansatz=_g33a_ansatz, reduced_ode=_g33a_reduced_ode,
        basis=_g33a_basis),
    parameterized=True)


# ----------------------------------------------------------------------
# G34 (rotations) and G35 (boost-rotation so(1,2)): one 2-form and gauge
# ----------------------------------------------------------------------

def _g34_map(c):
    q1, q2, u1 = c
    ch = dual.cosh(u1)
    return [dual.sinh(u1), -ch * dual.sin(q1) * dual.cos(q2),
            ch * dual.cos(q1) * dual.cos(q2), ch * dual.sin(q2)]


def _g35_map(c):
    q1, q2, u1 = c
    s = dual.sin(u1)
    return [-s * dual.sinh(q1) * dual.cos(q2), s * dual.cosh(q1) * dual.cos(q2),
            s * dual.sin(q2), dual.cos(u1)]


def _g34_lambda_rep(J, k):
    _g34_ansatz(k, J)  # refuses a J outside the ansatz's range
    return [(lambda c: -1j * c[0], const(1j * J)),
            (lambda c: 0.5j * (1.0 - c[0] * c[0]), lambda c: 1j * J * c[0]),
            (lambda c: -0.5 * (1.0 + c[0] * c[0]), lambda c: J * c[0])]


def _g35_lambda_rep(J, k):
    _g35_ansatz(k, J)  # refuses a J outside the ansatz's range
    cJ = 1j * J + 0.5
    return [(lambda c: c[0], const(cJ)),
            (lambda c: 0.5 * (c[0] * c[0] + 1.0), lambda c: cJ * c[0]),
            (lambda c: 0.5 * (c[0] * c[0] - 1.0), lambda c: cJ * c[0])]


def _g34_kg(k):
    e, mt, mu = k.e, k.mass_term, k.mu
    ch2 = lambda c: dual.cosh(c[2]) ** 2
    second = [[lambda c: -1.0 / (ch2(c) * dual.cos(c[1]) ** 2), _zero, _zero],
              [_zero, lambda c: -1.0 / ch2(c), _zero],
              [_zero, _zero, const(1.0)]]
    first = [lambda c: -2j * e * mu * dual.tan(c[1]) / (ch2(c) * dual.cos(c[1])),
             lambda c: dual.tan(c[1]) / ch2(c),
             lambda c: 2.0 * dual.tanh(c[2])]
    scalar = lambda c: (e * mu * dual.tan(c[1])) ** 2 / ch2(c) + mt
    return second, first, scalar


def _g35_kg(k):
    e, mt, mu = k.e, k.mass_term, k.mu
    s2 = lambda c: dual.sin(c[2]) ** 2
    second = [[lambda c: 1.0 / (s2(c) * dual.cos(c[1]) ** 2), _zero, _zero],
              [_zero, lambda c: -1.0 / s2(c), _zero],
              [_zero, _zero, const(-1.0)]]
    first = [lambda c: 2j * e * mu * dual.tan(c[1]) / (s2(c) * dual.cos(c[1])),
             lambda c: dual.tan(c[1]) / s2(c),
             lambda c: -2.0 * dual.cos(c[2]) / dual.sin(c[2])]
    scalar = lambda c: -((e * mu * dual.tan(c[1])) ** 2) / s2(c) + mt
    return second, first, scalar


def _g34_ansatz(k, J):
    # J's range (the discrete series) is checked once, here: solve builds the
    # ansatz, verify the ansatz and the lambda-representation
    if not J > 0:
        raise ValueError("G34 requires J > 0")
    e, mu = k.e, k.mu

    def phase(c, lam):
        eiq = dual.exp(1j * c[0])
        cq, sq = dual.cos(c[1]), dual.sin(c[1])
        base = (lam * lam * eiq + 1.0 / eiq) * cq - 2j * lam * sq
        p = 1j * lam * eiq * cq + sq
        gbase = (p + 1.0) * (sq - 1.0) / ((p - 1.0) * cq)
        return _safe_power(base, J, "rotation base") \
            * _safe_power(gbase, e * mu, "charge base")
    return phase, _third_coordinate


def _g35_ansatz(k, J):
    if J < 0:
        raise ValueError("G35 requires J >= 0 (continuous series)")
    e, mu = k.e, k.mu

    def phase(c, lam):
        eq = dual.exp(c[0])
        cq, sq = dual.cos(c[1]), dual.sin(c[1])
        base = 2.0 * lam * sq + (eq - lam * lam / eq) * cq
        gbase = (lam / eq * cq + 1.0 - sq) / (cq - lam / eq * (1.0 - sq))
        return _safe_power(base, -1j * J - 0.5, "boost base") \
            * _safe_power(gbase, 1j * e * mu, "charge base")
    return phase, _third_coordinate


def _g34_reduced_ode(k, J):
    e, mt, mu = k.e, k.mass_term, k.mu
    top = J * (J + 1.0) - (e * mu) ** 2

    def q(v):
        return mt + top / cmath.cosh(v) ** 2
    return lambda v: 2.0 * cmath.tanh(v), q


def _g35_reduced_ode(k, J):
    e, mt, mu = k.e, k.mass_term, k.mu
    top = J * J - (e * mu) ** 2 + 0.25

    def q(v):
        s = cmath.sin(v)
        if abs(s) < 1e-12:
            raise ZeroDivisionError("reduced equation singular at multiples of pi")
        return -mt + top / (s * s)

    def p(v):
        s = cmath.sin(v)
        if abs(s) < 1e-12:
            raise ZeroDivisionError("reduced equation singular at multiples of pi")
        return 2.0 * cmath.cos(v) / s
    return p, q


def _g34_basis(k, J, lam):
    e, mt, mu = k.e, k.mass_term, k.mu
    nu = cmath.sqrt((J + 0.5) ** 2 - (e * mu) ** 2) - 0.5
    sigma = cmath.sqrt(1.0 - mt)

    def frame(v):
        # the argument tanh(v) and the prefactor sech(v); sech^2 is taken from
        # cosh, as 1 - tanh^2 cancels when |tanh v| -> 1
        s = 1.0 / cmath.cosh(v)
        t, s2 = cmath.sinh(v) * s, s * s
        return (t, s2, -2.0 * t * s2), (s, -s * t, s * (t * t - s2))
    rec = {"kind": "legendre", "nu": nu, "sigma": sigma,
           "argument": "tanh(v)", "prefactor": "1/cosh(v)"}
    return (*_legendre_pair(nu, sigma, frame), rec)


def _legendre_pair(nu, sigma, frame):
    return specfun.basis_members((specfun.legendre_p, specfun.legendre_q), (nu, sigma), frame)


def _g35_basis(k, J, lam):
    e, mt, mu = k.e, k.mass_term, k.mu
    nu = cmath.sqrt(1.0 - mt) - 0.5
    sigma = cmath.sqrt((e * mu) ** 2 - J * J)

    def frame(v):
        # the argument cos(v) and the prefactor sin(v)^(-1/2), whose log has
        # derivatives -cot(v)/2 and csc(v)^2/2
        c, s = cmath.cos(v), cmath.sin(v)
        f, cot = 1.0 / cmath.sqrt(s), c / s
        return (c, -s, -c), (f, -0.5 * f * cot, f * (0.75 * cot * cot + 0.5))
    rec = {"kind": "legendre", "nu": nu, "sigma": sigma,
           "argument": "cos(v)", "prefactor": "1/sqrt(sin(v))"}
    return (*_legendre_pair(nu, sigma, frame), rec)


# G35 shares this 2-form and gauge and brings its own chi
_G34_FIELD = FieldSpec(
    "mu cos(q2) dq1 ^ dq2",
    two_form=lambda k: {(0, 1): lambda c: k.mu * dual.cos(c[1])},
    gauge=lambda k: [lambda c: -k.mu * dual.sin(c[1]), _zero, _zero],
    chi=lambda k: [lambda c: -k.mu * dual.sin(c[1]),
                   lambda c: k.mu * dual.sin(c[0]) * dual.cos(c[1]),
                   lambda c: k.mu * dual.cos(c[0]) * dual.cos(c[1])])

# rotations paired with the chart's rectified fields: (J12, J23, J13)
_G34 = CaseSpec(
    CaseId.G34,
    lambda a: [(0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
               (0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
               (0.0, 0.0, 0.0, 0.0, 1.0, 0.0)],
    _THREE_DIM_ROW,
    ChartSpec(2, ((-2.0, 2.0), (-_HALF_PI + 0.15, _HALF_PI - 0.15), (-1.2, 1.2)),
              lambda a: _g34_map),
    lambda a: [[_one, _zero, _zero],
               [lambda c: dual.sin(c[0]) * dual.tan(c[1]), lambda c: dual.cos(c[0]), _zero],
               [lambda c: dual.cos(c[0]) * dual.tan(c[1]), lambda c: -dual.sin(c[0]), _zero]],
    _G34_FIELD,
    integration=IntegrationSpec(
        0.3 + 0j, ((-0.5, 0.5), (-0.4, 0.4), (-1.2, 1.2)), _g34_lambda_rep, _g34_kg,
        _g34_ansatz, _g34_reduced_ode, _g34_basis))
_G35 = CaseSpec(
    CaseId.G35,
    lambda a: [(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
               (0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
               (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)],
    _THREE_DIM_ROW,
    ChartSpec(2, ((-1.5, 1.5), (-_HALF_PI + 0.15, _HALF_PI - 0.15), (0.2, math.pi - 0.2)),
              lambda a: _g35_map),
    lambda a: [[_one, _zero, _zero],
               [lambda c: dual.sinh(c[0]) * dual.tan(c[1]), lambda c: dual.cosh(c[0]), _zero],
               [lambda c: dual.cosh(c[0]) * dual.tan(c[1]), lambda c: dual.sinh(c[0]), _zero]],
    replace(_G34_FIELD, chi=lambda k: [lambda c: -k.mu * dual.sin(c[1]),
                                            lambda c: k.mu * dual.sinh(c[0]) * dual.cos(c[1]),
                                            lambda c: k.mu * dual.cosh(c[0]) * dual.cos(c[1])]),
    integration=IntegrationSpec(
        0.3 + 0j, ((-0.5, 0.5), (-0.4, 0.4), (0.8, math.pi - 0.8)), _g35_lambda_rep, _g35_kg,
        _g35_ansatz, _g35_reduced_ode, _g35_basis))


# ----------------------------------------------------------------------
# G41: the free field
# ----------------------------------------------------------------------

FREE_FIELD = FieldSpec("0", lambda k: {}, lambda k: [_zero, _zero, _zero],
                       lambda k: [_zero, _zero, _zero, _zero])

# The reference row is inconsistent with the index definition applied to the
# entry's own commutation relations (the computed record is
# (5, 1, 2, 0, 1, True)); cmd_catalog reports the diff instead of hiding it.
_G41 = CaseSpec(
    CaseId.G41,
    lambda a: [_N1, _N2, _ROT, _BOOST],
    (5, 3, 1, 3, 0, True), _HOROSPHERICAL_CHART,
    lambda a: [[_one, _zero, _zero], [_zero, _one, _zero],
               [lambda c: -c[1], lambda c: c[0], _zero],
               [lambda c: -c[0], lambda c: -c[1], _one]],
    FREE_FIELD)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

CASES: tuple[CaseSpec, ...] = (_G11, _G12, _G13a, _G14, _G21, _G22, _G23,
                               _G31, _G32, _G33a, _G34, _G35, _G41)
_BY_ID = {spec.case_id: spec for spec in CASES}

ALL_CASES = [spec.case_id for spec in CASES]
PARAMETERIZED_CASES = tuple(spec.case_id for spec in CASES if spec.parameterized)
INTEGRABLE_CASES = tuple(spec.case_id for spec in CASES if spec.integration is not None)


def case_spec(case_id) -> CaseSpec:
    return _BY_ID[CaseId(case_id)]


def resolve(case_id, a: Optional[float] = None) -> tuple[CaseSpec, Optional[float]]:
    """The spec of one entry and its family parameter: required and positive
    for the two families, dropped for every other entry."""
    spec = case_spec(case_id)
    if not spec.parameterized:
        return spec, None
    if a is None:
        raise ValueError(f"{spec.case_id} requires the family parameter a")
    if a <= 0:
        raise ValueError(f"{spec.case_id} requires a > 0, got {a}")
    return spec, a


def integration(case_id) -> IntegrationSpec:
    """The integration data of one of the five integrable entries."""
    spec = case_spec(case_id)
    if spec.integration is None:
        raise ValueError(f"{spec.case_id} is not an integrable entry")
    return spec.integration
