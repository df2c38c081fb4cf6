"""Self-contained special functions over complex parameters.

Everything is built from three ingredients that keep the verification chain
auditable: power series, connection formulas through the complex gamma
function, and an adaptive Runge-Kutta integrator used only as an independent
oracle.  The one reduced equation with no closed form has entire
coefficients, so it is summed as a piecewise Taylor series
(:func:`taylor_basis`), which the integrator checks.

Each evaluator is written once, as its binder ``f.bind``: parameters -> (z ->
scalar 2-jet ``(f, f', f'')`` in plain complex arithmetic).  A binder gives
each series a ratio table, filled as sums first need its rows, and computes
gamma values and connection weights at its first z.  A solution basis binds
its two evaluators through one pool, so they share their series objects
(Kummer M, Bessel J, Ferrers P), each keeping its result at its last argument:
a basis node sums 2 series for both members and makes no lookup keyed on the
parameters, and a basis calls ``gamma`` only at its first node
(:func:`basis_members`).  ``f.jet(*params, z)`` and ``f(*params, z)`` bind
afresh; ``f`` lifts its scalar 2-jet at ``value(z)`` onto a point jet z once.
A series stops only when its terms in S, S' and S'' are all negligible.
Gauss 2F1 is its direct series for |z| < 1.  Ferrers functions at x < 0 are
reflected to -x (DLMF 14.9), so their series run at (1 - x)/2 <= 1/2, except
at a near-integer order.  Branches are principal throughout.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dual
from .dual import value


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


def _rgamma(z) -> complex:
    """1/Gamma(z), which is 0 at the poles of Gamma."""
    return 0j if _is_nonpositive_integer(z) else 1.0 / gamma(z)


# ----------------------------------------------------------------------
# scalar 2-jets (f, f', f'') in one plain complex variable
# ----------------------------------------------------------------------

def _lin(*terms):
    """sum of c f over the (c, f) pairs of ``terms``, in order from 0, as ``sum``."""
    s0 = s1 = s2 = 0
    for c, f in terms:
        s0, s1, s2 = s0 + c * f[0], s1 + c * f[1], s2 + c * f[2]
    return s0, s1, s2


def _mul(f, g):
    return (f[0] * g[0], f[1] * g[0] + f[0] * g[1],
            f[2] * g[0] + 2.0 * f[1] * g[1] + f[0] * g[2])


def _chain(f, d1, d2):
    """f composed with an inner function whose derivatives are d1 and d2."""
    return f[0], f[1] * d1, f[2] * d1 * d1 + f[1] * d2


def _from_log(v, l1, l2):
    """The jet of v = exp(L) from L' = l1 and L'' = l2."""
    return v, v * l1, v * (l2 + l1 * l1)


def _power(z, p):
    """Principal z^p."""
    return _from_log(cmath.exp(p * cmath.log(z)), p / z, -p / (z * z))


def basis_members(fns, params, frame):
    """The plain-complex basis members v -> (f, f', f'') of f(v) = pre(v) F(x(v)), one
    per evaluator F of ``fns``, bound to ``params`` through one pool so that they
    share their series objects.  ``frame(v)`` gives the 2-jets (x, x', x'') and
    (pre, pre', pre'') at v, with pre None for 1.  F is evaluated once, at x, and
    chained through x (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13)."""
    kept = _last(frame)     # the second member reads the frame the first made at v
    def member(bound, v):
        x, pre = kept(v)
        f = _chain(bound(x[0]), x[1], x[2])
        return f if pre is None else _mul(pre, f)
    share = _Pool()
    return tuple(functools.partial(member, share(fn.bind, *params)) for fn in fns)


def _bits(z):
    # 0.0 == -0.0, and both hash alike, but a branch cut tells them apart
    return z.real, z.imag, math.copysign(1.0, z.real), math.copysign(1.0, z.imag)


class _Pool(dict):
    """``pool(bind, *params)`` is ``bind(*params, share=pool)``, made once per
    parameter set (keyed by every sign bit), so what binds through it is shared."""

    def __call__(self, bind, *params):
        key = (bind, *map(_bits, params))
        if key not in self:
            self[key] = bind(*params, share=self)
        return self[key]


def _last(fn):
    """``fn`` of one complex argument, returning the very last result again at the
    same value with the same sign of each part (0.0 and -0.0 differ)."""
    slot = [None, None]     # the last argument and result
    def kept(z):
        if z != slot[0] or _bits(z) != _bits(slot[0]):
            slot[:] = z, fn(z)
        return slot[1]
    return kept


def _once(fn):
    """``fn()``, made at the first call and kept: one slot, where
    ``functools.cache`` would build a full wrapper per binding."""
    slot = []
    def get():
        if not slot:
            slot.append(fn())
        return slot[0]
    return get


def _lifted(bind):
    """The evaluator f(*params, z), the 2-jet ``bind(*params)(value(z))`` composed
    with z; ``f.bind`` is ``bind``, and ``f.jet(*params, z)`` a fresh binding's 2-jet."""
    @functools.wraps(bind)
    def evaluate(*args):
        *params, z = args
        return dual.compose(z, *_Pool()(bind, *map(complex, params))(value(z)))
    evaluate.bind = bind
    evaluate.jet = lambda *args: _Pool()(bind, *args[:-1])(args[-1])
    return evaluate


def _offset_limit(bind, p, degenerate, share):
    """z -> bind(p, share)(z), or where ``degenerate()`` holds at the first z, the mean
    of bind(p -+ _EPS_OFFSET, pool)(z), each through a pool of its own: the limit
    through a removable degeneracy (accuracy ~1e-6)."""
    exact = bind(p, share)
    @_once
    def choice():
        if not degenerate():
            return exact
        lo, hi = bind(p - _EPS_OFFSET, _Pool()), bind(p + _EPS_OFFSET, _Pool())
        return lambda z: _lin((0.5, lo(z)), (0.5, hi(z)))
    return lambda z: choice()(z)


class _Ratios(list):
    """A series' rows (r_n, n + 1, (n + 1) n r_n), each made when a sum first needs it."""

    def __init__(self, ratio):      # list.__new__ leaves it empty
        self.ratio = ratio

    def grow(self):
        n = len(self)
        r = self.ratio(n)
        self.append((r, n + 1, (n + 1) * n * r))


def _series_jet(ratios, z, flat_needed, label):
    """(S, S', S'') at z of S = sum t_n z^n with t_0 = 1 and the rows of ``ratios``.

    The sum stops after ``flat_needed`` terms in a row whose contributions to
    S, S' and S'' are each <= _TERM_TOL of that partial sum; the jet is exact
    for that truncated polynomial."""
    term = 1.0 + 0j
    s0, s1, s2 = term, 0j, 0j
    prev = 0j           # t_n z^(n-1), the previous term's derivative base
    flat = n = 0
    while n < _MAX_TERMS:
        if n == len(ratios):
            ratios.grow()
        for r, k, w in itertools.islice(ratios, n, None):
            base = term * r     # t_(n+1) z^n
            d1 = k * base
            d2 = w * prev
            prev = base
            term = base * z
            s0, s1, s2 = s0 + term, s1 + d1, s2 + d2
            if (abs(d2) <= _TERM_TOL * (abs(s2) + 1e-300)
                    and abs(d1) <= _TERM_TOL * (abs(s1) + 1e-300)
                    and abs(term) <= _TERM_TOL * (abs(s0) + 1e-300)):
                flat += 1
                if flat >= flat_needed:
                    return s0, s1, s2
            else:
                flat = 0
        n = len(ratios)
    raise DomainError(f"{label} series did not converge")


# ----------------------------------------------------------------------
# confluent hypergeometric family
# ----------------------------------------------------------------------

def _check_radius(z, what):
    if abs(z) > SERIES_RADIUS:
        raise DomainError(f"{what}: |z| = {abs(z):.3g} beyond series regime {SERIES_RADIUS}")


def _nonzero(z, what):
    # the principal-branch z^p has no 2-jet at z = 0 (log 0)
    if z == 0:
        raise DomainError(f"{what}: z = {z} is the branch point of a complex power")
    return z


@_lifted
def kummer_m(a, b, share):
    """Kummer's confluent hypergeometric M(a, b, z) by Taylor series."""
    ratios = _Ratios(lambda n: (a + n) / ((b + n) * (n + 1.0)))
    @_last
    def jet(z):
        if _is_nonpositive_integer(b):
            raise PoleError(f"kummer_m: b = {b} is a nonpositive integer")
        _check_radius(z, "kummer_m")
        return _series_jet(ratios, z, 1, "kummer_m")
    return jet


@_lifted
def kummer_u(a, b, share):
    """Tricomi U(a, b, z) from two M's via the standard connection formula."""
    m1, m2 = share(kummer_m.bind, a, b), share(kummer_m.bind, a - b + 1.0, 2.0 - b)
    weights = _once(lambda: (gamma(1.0 - b) / gamma(a - b + 1.0), gamma(b - 1.0) / gamma(a)))
    def jet(z):
        if _near_integer(b, 1e-9):
            raise PoleError(f"kummer_u: connection formula degenerate at b = {b}")
        _nonzero(z, "kummer_u")
        wm, wu = weights()
        return _lin((wm, m1(z)), (wu, _mul(_power(z, 1.0 - b), m2(z))))
    return jet


def _whittaker(kummer, alpha, beta, share):
    # z -> exp(-z/2) z^(1/2+beta) kummer(1/2+beta-alpha, 1+2 beta, z)
    p = 0.5 + beta
    f = share(kummer.bind, p - alpha, 2.0 * p)
    return lambda z: _mul(_from_log(cmath.exp(-0.5 * z + p * cmath.log(z)), -0.5 + p / z,
                                    -p / (z * z)), f(z))


@_lifted
def whittaker_m(alpha, beta, share):
    """Whittaker M: exp(-z/2) z^(1/2+beta) M(1/2+beta-alpha, 1+2 beta, z)."""
    m = _whittaker(kummer_m, alpha, beta, share)
    return lambda z: m(_nonzero(z, "whittaker_m"))


@_lifted
def whittaker_w(alpha, beta, share):
    """Whittaker W via Tricomi U; near-degenerate 2 beta handled by offsetting."""
    w = _offset_limit(lambda bb, pool: _whittaker(kummer_u, alpha, bb, pool), beta,
                      lambda: abs(cmath.sin(2.0 * math.pi * beta)) < 1e-6, share)
    return lambda z: w(_nonzero(z, "whittaker_w"))


# ----------------------------------------------------------------------
# Bessel functions of complex order
# ----------------------------------------------------------------------

@_lifted
def bessel_j(order, share):
    """Bessel J of complex order: (z/2)^order / Gamma(order + 1) times a series in z^2/4."""
    ratios = _Ratios(lambda n: -1.0 / ((n + 1.0) * (order + n + 1.0)))
    # 0.5^order / Gamma(order + 1), the weight of z^order
    weight = _once(lambda: 1.0 / gamma(order + 1.0) if order == 0
                   else 0.5 ** order / gamma(order + 1.0))
    @_last
    def jet(z):
        _check_radius(z, "bessel_j")
        half = z * 0.5
        if order == 0:
            pre = (weight(), 0j, 0j)
        else:
            _nonzero(z, "bessel_j")
            pre = _lin((weight(), _power(z, order)))
        series = _series_jet(ratios, half * half, 1, "bessel_j")
        return _mul(pre, _chain(series, half, 0.5))
    return jet


@_lifted
def bessel_y(order, share):
    """Bessel Y via the J connection; integer order through a symmetric offset."""
    def bind(nu, pool):
        jp, jm = pool(bessel_j.bind, nu), pool(bessel_j.bind, -nu)
        # cot(nu pi) and -csc(nu pi), the weights of J_nu and J_-nu in Y_nu
        weights = _once(lambda: (cmath.cos(math.pi * nu) / cmath.sin(math.pi * nu),
                                 -1.0 / cmath.sin(math.pi * nu)))
        return lambda z: _lin(*zip(weights(), (jp(z), jm(z))))
    return _offset_limit(bind, order, lambda: _near_integer(order, 1e-7), share)


# ----------------------------------------------------------------------
# Gauss hypergeometric and associated Legendre (Ferrers) functions
# ----------------------------------------------------------------------

@_lifted
def hyp2f1(a, b, c, share):
    """Gauss 2F1; direct series for |z| < 1 (DLMF 15.2.1)."""
    ratios = _Ratios(lambda n: (a + n) * (b + n) / ((c + n) * (n + 1.0)))
    def jet(z):
        if _is_nonpositive_integer(c):
            raise PoleError(f"hyp2f1: c = {c} is a nonpositive integer")
        if abs(z) < 1.0:
            return _series_jet(ratios, z, 2, "hyp2f1")
        raise DomainError(f"hyp2f1: z = {z} outside the series' disc |z| < 1")
    return jet


def _ferrers_p(nu, sigma, share):
    # x -> ((1+x)/(1-x))^(sigma/2) / Gamma(1-sigma) 2F1(-nu, nu+1; 1-sigma; (1-x)/2)
    gamma_weight = _once(lambda: gamma(1.0 - sigma))
    f = share(hyp2f1.bind, -nu, nu + 1.0, 1.0 - sigma)
    @_last
    def jet(x):
        pre = cmath.exp(sigma * 0.5 * cmath.log((1.0 + x) / (1.0 - x))) / gamma_weight()
        l1 = sigma / (1.0 - x * x)
        return _mul(_from_log(pre, l1, 2.0 * x * l1 / (1.0 - x * x)),
                    _chain(f((1.0 - x) * 0.5), -0.5, 0.0))
    return jet


def _ferrers(nu, sigma, second_kind, share):
    """x -> Ferrers P (or Q) as a combination of P^sigma and P^-sigma at x, or
    at -x for Re x < 0 (DLMF 14.9.10, 14.9.11 with 14.9.2), so that every series
    runs at (1 - x)/2 <= 1/2; a near-integer sigma is not reflected (its 2F1
    series runs out to (1 - x)/2 < 1)."""
    p, m = share(_ferrers_p, nu, sigma), share(_ferrers_p, nu, -sigma)
    reflectable = _once(lambda: abs(cmath.sin(math.pi * sigma)) >= 1e-6)
    weights = {}    # reflect -> (cp, cm), each made at the first x that needs it
    def jet(x):
        if not -1.0 < x.real < 1.0 or abs(x.imag) > 1e-12:
            raise DomainError(f"legendre_{'q' if second_kind else 'p'}: x = {x} outside (-1, 1)")
        reflect = x.real < 0 and reflectable()
        if not (reflect or second_kind):
            return p(x)
        if reflect not in weights:
            weights[reflect] = _ferrers_weights(nu, sigma, reflect, second_kind)
        cp, cm = weights[reflect]
        y = -x if reflect else x
        f = _lin((cp, p(y)), (cm, m(y)))
        return _chain(f, -1.0, 0.0) if reflect else f
    return jet


def _ferrers_weights(nu, sigma, reflect, second_kind):
    """(cp, cm) of _ferrers' combination cp P^sigma + cm P^-sigma."""
    s = cmath.sin(math.pi * sigma)
    rg = _rgamma(nu - sigma + 1.0)
    k = 0.5 * math.pi / s
    if not reflect:
        return k * cmath.cos(math.pi * sigma), -k * gamma(nu + sigma + 1.0) * rg
    if second_kind:
        return (-k * cmath.cos(math.pi * nu),
                k * cmath.cos(math.pi * (nu + sigma)) * gamma(nu + sigma + 1.0) * rg)
    # sin((nu + sigma) pi) Gamma(nu + sigma + 1) = -pi / Gamma(-nu - sigma)
    return -cmath.sin(math.pi * nu) / s, -math.pi * _rgamma(-nu - sigma) * rg / s


@_lifted
def legendre_p(nu, sigma, share):
    """Associated Legendre (Ferrers) P of complex degree and order, x in (-1, 1)."""
    # at a positive integer sigma, 1/gamma(1-sigma) and the 2F1 pole cancel
    return _offset_limit(lambda sg, pool: _ferrers(nu, sg, False, pool), sigma,
                         lambda: _near_integer(sigma, 1e-9) and round(sigma.real) >= 1, share)


@_lifted
def legendre_q(nu, sigma, share):
    """Associated Legendre (Ferrers) Q via the standard P combination."""
    return _offset_limit(lambda sg, pool: _ferrers(nu, sg, True, pool), sigma,
                         lambda: abs(cmath.sin(math.pi * sigma)) < 1e-6, share)


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
    where Q = sum |c| exp(Re(rate) v) >= |q(v)|, summed in logs so it cannot overflow.

    A mesh over TAYLOR_MAX_SEGMENTS raises :class:`DomainError` naming the bound
    that ran out: the largest Q met, if it shortened a segment, or else the
    span's length at TAYLOR_MAX_STEP."""
    logs = [(math.log(abs(c)), complex(rate).real) for c, rate in q_terms if c != 0]
    v, end = span
    starts, peak = [], (-math.inf, v)
    for _ in range(TAYLOR_MAX_SEGMENTS):
        starts.append(v)
        log_q = 0.0
        if logs:
            parts = [lc + r * v for lc, r in logs]
            top = max(parts)
            log_q = top + math.log(sum(math.exp(x - top) for x in parts))
        if log_q >= peak[0]:
            peak = (log_q, v)
        v += min(TAYLOR_MAX_STEP, TAYLOR_STEP_SCALE * math.exp(-0.5 * max(log_q, 0.0)))
        if v >= end:
            return starts
    budget = f"[{span[0]}, {end}] needs more than {TAYLOR_MAX_SEGMENTS} Taylor segments"
    # a segment is shorter than TAYLOR_MAX_STEP where TAYLOR_STEP_SCALE / sqrt(Q) is
    if peak[0] > 2.0 * math.log(TAYLOR_STEP_SCALE / TAYLOR_MAX_STEP):
        raise DomainError(f"{label}: |q| reaches 10^{peak[0] / math.log(10.0):.4g} at "
                          f"v = {peak[1]:.6g}; {budget}")
    raise DomainError(f"{label}: {budget} of the longest step, {TAYLOR_MAX_STEP}")


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
        self._span = (t0, t1) if t1 >= t0 else (t1, t0)
        # each segment's end, signed to increase in the direction of integration
        self._sign = 1.0 if t1 >= t0 else -1.0
        self._ends = [self._sign * (seg.t0 + seg.h) for seg in segments]
        self._p = p
        self._q = q

    def __call__(self, t):
        t = complex(t)
        if abs(t.imag) > 1e-9 * (1.0 + abs(t.real)):
            raise DomainError(f"dense output queried off the real axis: {t}")
        t = t.real
        a, b = self._span
        if not (a - 1e-12 <= t <= b + 1e-12):
            raise DomainError(f"dense output queried at t = {t} outside [{a}, {b}]")
        # the first segment that ends at or beyond t
        k = bisect.bisect_left(self._ends, self._sign * t)
        seg = self._segments[min(k, len(self._segments) - 1)]
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
        f, f1 = self(t)  # refuses a query off the real axis
        t = complex(t).real
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
