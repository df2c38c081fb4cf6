"""Self-contained special functions over complex parameters.

Everything is built from three ingredients that keep the verification chain
auditable: power series with term-ratio stopping, connection formulas through
the complex gamma function, and an adaptive Runge-Kutta integrator used only
as an independent oracle.  The one reduced equation with no closed form has
entire coefficients, so it is summed as a piecewise Taylor series
(:func:`taylor_basis`), which the integrator checks.

All evaluators accept either plain complex arguments or point jets
(:class:`dskg.dual.Dual` with ``complex`` entries) in the argument slot, so
derivatives of special functions are exact.  A power series is summed in plain
complex arithmetic together with its first two derivatives, and that scalar
2-jet is lifted onto the argument's jet once (:func:`dskg.dual.compose`), not
carried through every term.  Lane arrays are not accepted.  Parameters
(orders, degrees) are plain complex constants.  Branches are principal
throughout.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import dual
from .dual import Dual, value


SERIES_RADIUS = 50.0
_TERM_TOL = 1e-15
_MAX_TERMS = 20000
_EPS_OFFSET = 1e-7


class DomainError(ValueError):
    """Argument outside the implemented (series/transformation) regime."""


class PoleError(ValueError):
    """Evaluation at or numerically indistinguishable from a pole."""


def _is_nonpositive_integer(z, tol=1e-12):
    z = complex(z)
    n = round(z.real)
    return n <= 0 and abs(z - n) < tol


def _near_integer(z, tol):
    z = complex(z)
    return abs(z - round(z.real)) < tol and abs(z.imag) < tol


# ----------------------------------------------------------------------
# gamma
# ----------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(z) -> complex:
    """Complex gamma function (Lanczos approximation, reflection for Re z < 1/2)."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at {z}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    z -= 1.0
    x = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        x += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


# ----------------------------------------------------------------------
# confluent hypergeometric family
# ----------------------------------------------------------------------

def _check_radius(z, what):
    if abs(value(z)) > SERIES_RADIUS:
        raise DomainError(f"{what}: |z| = {abs(value(z)):.3g} beyond series regime {SERIES_RADIUS}")


def _check_nonzero(z, what):
    # the principal-branch z^p has no 2-jet at z = 0 (log 0)
    if value(z) == 0:
        raise DomainError(f"{what}: z = {value(z)} is the branch point of a complex power")


def _power_series(ratio, z, flat_needed, label):
    """Sum of t_n z^n with t_0 = 1 and t_(n+1) = t_n ratio(n), composed with z.

    S, S' and S'' are summed in plain complex at value(z), then lifted onto
    z's jet once.  The sum stops after ``flat_needed`` terms in a row with
    |t_n z^n| <= _TERM_TOL |S|, and not before the z^2 term, which carries S''
    at z = 0; the jet is exact for that truncated polynomial.
    """
    x = value(z)
    term = 1.0 + 0j
    s0, s1, s2 = term, 0j, 0j
    prev = 0j           # t_n z^(n-1), the previous term's derivative base
    flat = 0
    for n in range(_MAX_TERMS):
        r = ratio(n)
        base = term * r     # t_(n+1) z^n
        s1 += (n + 1) * base
        s2 += (n + 1) * n * r * prev
        prev = base
        term = base * x
        s0 += term
        if abs(term) <= _TERM_TOL * (abs(s0) + 1e-300):
            flat += 1
            if flat >= flat_needed and n >= 1:
                return dual.compose(z, s0, s1, s2)
        else:
            flat = 0
    raise DomainError(f"{label} series did not converge")


def kummer_m(a, b, z):
    """Kummer's confluent hypergeometric M(a, b, z) by Taylor series."""
    if _is_nonpositive_integer(b):
        raise PoleError(f"kummer_m: b = {b} is a nonpositive integer")
    _check_radius(z, "kummer_m")
    a = complex(a)
    b = complex(b)
    return _power_series(lambda n: (a + n) / ((b + n) * (n + 1.0)), z, 1, "kummer_m")


def kummer_u(a, b, z):
    """Tricomi U(a, b, z) from two M's via the standard connection formula."""
    if _near_integer(b, 1e-9):
        raise PoleError(f"kummer_u: connection formula degenerate at b = {b}")
    _check_nonzero(z, "kummer_u")
    a = complex(a)
    b = complex(b)
    c1 = gamma(1.0 - b) / gamma(a - b + 1.0)
    c2 = gamma(b - 1.0) / gamma(a)
    zp = dual.power(z, 1.0 - b)
    return kummer_m(a, b, z) * c1 + zp * kummer_m(a - b + 1.0, 2.0 - b, z) * c2


def whittaker_m(alpha, beta, z):
    """Whittaker M: exp(-z/2) z^(1/2+beta) M(1/2+beta-alpha, 1+2 beta, z)."""
    _check_nonzero(z, "whittaker_m")
    alpha = complex(alpha)
    beta = complex(beta)
    pre = dual.exp(z * (-0.5)) * dual.power(z, 0.5 + beta)
    return pre * kummer_m(0.5 + beta - alpha, 1.0 + 2.0 * beta, z)


def whittaker_w(alpha, beta, z):
    """Whittaker W via Tricomi U; near-degenerate 2 beta handled by offsetting."""
    _check_nonzero(z, "whittaker_w")
    alpha = complex(alpha)
    beta = complex(beta)

    def build(bb):
        pre = dual.exp(z * (-0.5)) * dual.power(z, 0.5 + bb)
        return pre * kummer_u(0.5 + bb - alpha, 1.0 + 2.0 * bb, z)

    if abs(cmath.sin(2.0 * math.pi * beta)) < 1e-6:
        # connection formula degenerates when 2 beta is an integer; take the
        # symmetric-offset limit (documented accuracy ~1e-6 in this regime)
        lo = build(beta - _EPS_OFFSET)
        hi = build(beta + _EPS_OFFSET)
        return (lo + hi) * 0.5
    return build(beta)


# ----------------------------------------------------------------------
# Bessel functions of complex order
# ----------------------------------------------------------------------

def bessel_j(order, z):
    """Bessel J of complex order by its ascending series."""
    _check_radius(z, "bessel_j")
    order = complex(order)
    half = z * 0.5
    if order == 0:
        pre = 1.0 / gamma(order + 1.0)
    else:
        _check_nonzero(z, "bessel_j")
        pre = dual.power(half, order) / gamma(order + 1.0)
    series = _power_series(lambda n: -1.0 / ((n + 1.0) * (order + n + 1.0)),
                           half * half, 1, "bessel_j")
    return pre * series


def bessel_y(order, z):
    """Bessel Y via the J connection; integer order through a symmetric offset."""
    order = complex(order)

    def build(nu):
        s = cmath.sin(math.pi * nu)
        return (bessel_j(nu, z) * cmath.cos(math.pi * nu) - bessel_j(-nu, z)) / s

    if _near_integer(order, 1e-7):
        lo = build(order + _EPS_OFFSET)
        hi = build(order - _EPS_OFFSET)
        return (lo + hi) * 0.5
    return build(order)


# ----------------------------------------------------------------------
# Gauss hypergeometric and associated Legendre (Ferrers) functions
# ----------------------------------------------------------------------

def _hyp2f1_series(a, b, c, z):
    return _power_series(lambda n: (a + n) * (b + n) / ((c + n) * (n + 1.0)), z, 2, "hyp2f1")


def hyp2f1(a, b, c, z):
    """Gauss 2F1; direct series for |z| <= 0.9, connection through 1-z beyond."""
    a = complex(a)
    b = complex(b)
    c = complex(c)
    if _is_nonpositive_integer(c):
        raise PoleError(f"hyp2f1: c = {c} is a nonpositive integer")
    zv = value(z)
    if abs(zv) <= 0.9:
        return _hyp2f1_series(a, b, c, z)
    if abs(zv) < 1.0 and abs(1.0 - zv) < 1.0:
        s = c - a - b
        if _near_integer(s, 1e-9):
            raise PoleError("hyp2f1: integer c-a-b in the 1-z connection")
        one_m_z = 1.0 - z
        t1 = _hyp2f1_series(a, b, a + b - c + 1.0, one_m_z) \
            * (gamma(c) * gamma(s) / (gamma(c - a) * gamma(c - b)))
        t2 = dual.power(one_m_z, s) \
            * _hyp2f1_series(c - a, c - b, s + 1.0, one_m_z) \
            * (gamma(c) * gamma(-s) / (gamma(a) * gamma(b)))
        return t1 + t2
    raise DomainError(f"hyp2f1: z = {zv} outside series/transformation reach")


def _legendre_p_raw(nu, sigma, x):
    # Ferrers function of the first kind, x in (-1, 1)
    pre = dual.power((x + 1.0) / ((-x) + 1.0), sigma * 0.5) / gamma(1.0 - sigma)
    arg = ((-x) + 1.0) * 0.5
    return pre * hyp2f1(-nu, nu + 1.0, 1.0 - sigma, arg)


def legendre_p(nu, sigma, x):
    """Associated Legendre (Ferrers) P of complex degree and order, x in (-1, 1)."""
    xv = value(x)
    if not -1.0 < xv.real < 1.0 or abs(xv.imag) > 1e-12:
        raise DomainError(f"legendre_p: x = {xv} outside (-1, 1)")
    nu = complex(nu)
    sigma = complex(sigma)
    if _near_integer(sigma, 1e-9) and round(sigma.real) >= 1:
        # 1/gamma(1-sigma) and the 2F1 pole cancel; evaluate by symmetric offset
        lo = _legendre_p_raw(nu, sigma - _EPS_OFFSET, x)
        hi = _legendre_p_raw(nu, sigma + _EPS_OFFSET, x)
        return (lo + hi) * 0.5
    return _legendre_p_raw(nu, sigma, x)


def legendre_q(nu, sigma, x):
    """Associated Legendre (Ferrers) Q via the standard P combination."""
    xv = value(x)
    if not -1.0 < xv.real < 1.0 or abs(xv.imag) > 1e-12:
        raise DomainError(f"legendre_q: x = {xv} outside (-1, 1)")
    nu = complex(nu)
    sigma = complex(sigma)

    def build(sg):
        s = cmath.sin(math.pi * sg)
        combo = _legendre_p_raw(nu, sg, x) * cmath.cos(math.pi * sg) \
            - _legendre_p_raw(nu, -sg, x) * (gamma(nu + sg + 1.0) / gamma(nu - sg + 1.0))
        return combo * (math.pi / (2.0 * s))

    if abs(cmath.sin(math.pi * sigma)) < 1e-6:
        lo = build(sigma + _EPS_OFFSET)
        hi = build(sigma - _EPS_OFFSET)
        return (lo + hi) * 0.5
    return build(sigma)


# ----------------------------------------------------------------------
# piecewise Taylor series for a reduced equation with entire coefficients
# ----------------------------------------------------------------------

TAYLOR_TERMS = 40
TAYLOR_MAX_STEP = 0.1
TAYLOR_STEP_SCALE = 4.0     # h sqrt|q| of a segment shorter than TAYLOR_MAX_STEP
TAYLOR_MAX_SEGMENTS = 10000


def exp_sum(terms, v):
    """sum of c exp(rate v) over the (c, rate) pairs of ``terms``."""
    return sum(c * cmath.exp(rate * v) for c, rate in terms)


class TaylorSolution:
    """Phi on a span as one Taylor polynomial per segment, about its left end."""

    def __init__(self, starts, coeffs, span):
        self._starts = starts    # left ends of the segments, increasing
        self._coeffs = coeffs    # (segments, TAYLOR_TERMS) complex
        self.span = span

    def jet(self, v):
        """(Phi, Phi', Phi''), all three from the segment's polynomial."""
        v = complex(v)
        lo, hi = self.span
        if abs(v.imag) > 1e-9 * (1.0 + abs(v.real)):
            raise DomainError(f"Taylor series queried off the real axis: {v}")
        t = v.real
        if not lo - 1e-12 <= t <= hi + 1e-12:
            raise DomainError(f"Taylor series queried at v = {t} outside [{lo}, {hi}]")
        k = max(bisect.bisect_right(self._starts, t) - 1, 0)
        t -= self._starts[k]
        f0 = f1 = f2 = 0j
        for c in reversed(self._coeffs[k].tolist()):
            f2 = f2 * t + f1
            f1 = f1 * t + f0
            f0 = f0 * t + c
        return f0, f1, 2.0 * f2


def _taylor_mesh(q_terms, span, label):
    """Left ends of segments of length min(TAYLOR_MAX_STEP, TAYLOR_STEP_SCALE / sqrt(Q))
    where Q = sum |c| exp(Re(rate) v) >= |q(v)|, summed in logs so it cannot overflow."""
    logs = [(math.log(abs(c)), complex(rate).real) for c, rate in q_terms if c != 0]
    v, end = span
    starts = []
    for _ in range(TAYLOR_MAX_SEGMENTS):
        starts.append(v)
        log_q = 0.0
        if logs:
            parts = [lc + r * v for lc, r in logs]
            top = max(parts)
            log_q = top + math.log(sum(math.exp(x - top) for x in parts))
        v += min(TAYLOR_MAX_STEP, TAYLOR_STEP_SCALE * math.exp(-0.5 * max(log_q, 0.0)))
        if v >= end:
            return starts
    raise DomainError(
        f"{label}: |q| reaches 10^{log_q / math.log(10.0):.1f} at v = {starts[-1]:.6g}; "
        f"[{span[0]}, {end}] needs more than {TAYLOR_MAX_SEGMENTS} Taylor segments")


def taylor_basis(p, q_terms, span, label):
    """Solutions of Phi'' + p Phi' + q(v) Phi = 0 with q = exp_sum(q_terms, v).

    ``p`` is a constant.  On each segment of one shared mesh, q's Taylor
    coefficients are closed form and Phi's follow from the Cauchy-product
    recurrence (n+2)(n+1) phi_(n+2) = -(p (n+1) phi_(n+1) + sum_j q_j phi_(n-j)).
    Returns the solutions with (Phi, Phi') = (1, 0) and (0, 1) at span[0], and
    the number of segments.  A mesh beyond TAYLOR_MAX_SEGMENTS raises
    :class:`DomainError` naming ``label`` before any series is summed.
    """
    starts = _taylor_mesh(q_terms, span, label)
    s = np.array(starts)
    h = np.diff(np.append(s, span[1]))
    n = np.arange(TAYLOR_TERMS)
    qc = np.zeros((len(starts), TAYLOR_TERMS), dtype=complex)
    for c, rate in q_terms:
        # rate^n / n!
        scale = np.cumprod(np.concatenate(([1.0], rate / n[1:])))
        qc += c * np.exp(rate * s)[:, None] * scale
    # the two unit solutions about every segment's left end, (1, 0) and (0, 1)
    unit = np.zeros((2, len(starts), TAYLOR_TERMS), dtype=complex)
    unit[0, :, 0] = 1.0
    unit[1, :, 1] = 1.0
    for m in range(TAYLOR_TERMS - 2):
        conv = np.sum(qc[:, m::-1] * unit[:, :, :m + 1], axis=-1)
        unit[:, :, m + 2] = -(p * (m + 1) * unit[:, :, m + 1] + conv) / ((m + 2) * (m + 1))
    powers = h[:, None] ** n
    ends = np.sum(unit * powers, axis=-1).tolist()
    slopes = np.sum(unit[:, :, 1:] * n[1:] * powers[:, :-1], axis=-1).tolist()
    # carry (Phi, Phi') of both solutions (the columns of y) across the segments
    y, carried = ((1.0, 0.0), (0.0, 1.0)), []
    for u, v, du, dv in zip(ends[0], ends[1], slopes[0], slopes[1]):
        carried.append(y)
        y = ((u * y[0][0] + v * y[1][0], u * y[0][1] + v * y[1][1]),
             (du * y[0][0] + dv * y[1][0], du * y[0][1] + dv * y[1][1]))
    state = np.array(carried, dtype=complex)
    return (*(TaylorSolution(starts, state[:, 0, j, None] * unit[0]
                             + state[:, 1, j, None] * unit[1], tuple(span))
              for j in range(2)), len(starts))


# ----------------------------------------------------------------------
# adaptive Runge-Kutta (Dormand-Prince 5(4)) with dense output
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ODESolverConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 200000

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")


_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
# dense-output polynomial (order-4 interpolant of the Dormand-Prince pair)
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


class StepSizeUnderflow(RuntimeError):
    pass


@dataclass
class _Segment:
    t0: float
    h: float
    y0: tuple
    k: tuple  # 7 stage derivative vectors


class DenseSolution:
    """Piecewise quartic interpolant of (Phi, Phi') along the integration span."""

    def __init__(self, segments, t0, t1, p, q):
        self._segments = segments
        self.t_start = t0
        self.t_end = t1
        self._p = p
        self._q = q

    def _segment_for(self, t):
        lo, hi = 0, len(self._segments) - 1
        a, b = (self.t_start, self.t_end) if self.t_end >= self.t_start else (self.t_end, self.t_start)
        if not (a - 1e-12 <= t <= b + 1e-12):
            raise DomainError(f"dense output queried at t = {t} outside [{a}, {b}]")
        while lo < hi:
            mid = (lo + hi) // 2
            seg = self._segments[mid]
            if (t - seg.t0) / seg.h > 1.0:
                lo = mid + 1
            else:
                hi = mid
        return self._segments[lo]

    def __call__(self, t):
        t = complex(t)
        if abs(t.imag) > 1e-9 * (1.0 + abs(t.real)):
            raise DomainError(f"dense output queried off the real axis: {t}")
        t = t.real
        seg = self._segment_for(t)
        theta = (t - seg.t0) / seg.h
        y = list(seg.y0)
        for i in range(7):
            c = _DP_P[i]
            b = theta * (c[0] + theta * (c[1] + theta * (c[2] + theta * c[3])))
            w = seg.h * b
            for j in range(len(y)):
                y[j] += w * seg.k[i][j]
        return tuple(y)

    def jet(self, t):
        """(Phi, Phi', Phi'') with the second derivative closed through the ODE."""
        t = complex(t).real
        f, f1 = self(t)
        f2 = -self._p(t) * f1 - self._q(t) * f
        return f, f1, f2


def ode_integrate(p, q, v0, phi0, dphi0, v1, config: ODESolverConfig | None = None) -> DenseSolution:
    """Integrate Phi'' + p(v) Phi' + q(v) Phi = 0 from v0 to v1, dense output."""
    cfg = config or ODESolverConfig()

    def rhs(t, y):
        return (y[1], -p(t) * y[1] - q(t) * y[0])

    direction = 1.0 if v1 >= v0 else -1.0
    span = abs(v1 - v0)
    if span == 0.0:
        raise ValueError("empty integration span")
    t = float(v0)
    y = (complex(phi0), complex(dphi0))
    h = direction * min(0.1 * span if span > 0 else 1e-3, 0.1)
    segments = []
    k1 = rhs(t, y)
    for _ in range(cfg.max_steps):
        if direction * (t + h - v1) > 0:
            h = v1 - t
        ks = [k1]
        for s in range(1, 7):
            acc = [0j, 0j]
            row = _DP_A[s]
            for j, a in enumerate(row):
                if a != 0.0:
                    acc[0] += a * ks[j][0]
                    acc[1] += a * ks[j][1]
            ys = (y[0] + h * acc[0], y[1] + h * acc[1])
            ks.append(rhs(t + _DP_C[s] * h, ys))
        y5 = [y[0], y[1]]
        y4 = [y[0], y[1]]
        for i in range(7):
            if _DP_B5[i] != 0.0:
                y5[0] += h * _DP_B5[i] * ks[i][0]
                y5[1] += h * _DP_B5[i] * ks[i][1]
            if _DP_B4[i] != 0.0:
                y4[0] += h * _DP_B4[i] * ks[i][0]
                y4[1] += h * _DP_B4[i] * ks[i][1]
        err = 0.0
        for j in range(2):
            sc = cfg.atol + cfg.rtol * max(abs(y[j]), abs(y5[j]))
            err = max(err, abs(y5[j] - y4[j]) / sc)
        if err <= 1.0:
            segments.append(_Segment(t, h, y, tuple(ks)))
            t += h
            y = (y5[0], y5[1])
            k1 = ks[6]  # FSAL
            if direction * (t - v1) >= -1e-14 * max(1.0, abs(v1)):
                return DenseSolution(segments, float(v0), float(v1), p, q)
        factor = 0.9 * (err + 1e-300) ** -0.2
        h *= min(5.0, max(0.2, factor))
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(f"step size underflow at t = {t}")
    raise StepSizeUnderflow("maximum step count exceeded")


def solution_jet(fn, v):
    """Evaluate a dual-capable function of one variable as a 2-jet at v."""
    val, grad, hess = dual.parts(fn(Dual.variable(v, 0, 1)), 1)
    return val, grad[0], hess[0][0]
