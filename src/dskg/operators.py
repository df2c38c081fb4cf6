"""First-order symmetry operators and the Klein-Gordon operator.

Operators are represented by dual-evaluable coefficient callables, so
commutators, operator compositions and all residuals come out of exact
forward-mode differentiation.  The wave operator exists in two independent
builds that are required to agree: a hard-coded closed form per integrable
entry (kept in :mod:`dskg.cases`), and the generic divergence-form assembly
from the chart metric and gauge potential.  The embedding metric is the
arbiter for every sign that enters the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import dual
from .dual import Dual
from .cases import CaseId, integration
from .fields import FieldConfig, gauge_one_form, solve_chi
from .geometry import metric_jet, rect_components

FIT_TOL = 1e-9        # commutation_table_fit: largest residual of a closed table
PROBE_SEED = 7130     # symmetry_check: seed of its probe functions


class DiffOp1:
    """First-order operator sum_u a^u(x) d_u + b(x), one coefficient a^u per
    variable."""

    def __init__(self, coeffs: Sequence[Callable], scalar: Callable):
        self.coeffs = list(coeffs)
        self.scalar = scalar
        self.nvars = len(self.coeffs)

    def apply(self, f: Callable, point: Sequence[complex]):
        return self.apply_jet(f(Dual.seed(point)), point)

    def apply_jet(self, fv, point: Sequence[complex]):
        """The operator at ``point`` contracted with an evaluated 2-jet ``fv``;
        ``point`` may also hold a grid's coordinate columns, as in
        :meth:`DiffOp2.apply_jet`."""
        val, grad, _ = dual.parts(fv, self.nvars)
        *coeffs, scalar = self.values(point)
        total = scalar * val
        for u, a in enumerate(coeffs):
            total += a * grad[u]
        return total

    def values(self, point):
        """The values of the coefficients and then the scalar part at ``point``
        (plain coordinates or a grid's coordinate columns)."""
        return [dual.value(a(list(point))) for a in self.coeffs + [self.scalar]]

    def jets(self, coords):
        """Values (..., k + 1) and gradients (..., k + 1, k) of the coefficients
        and then the scalar part at ``coords`` (a point or grid seed)."""
        vals, grads, _ = dual.arrays([a(coords) for a in self.coeffs + [self.scalar]],
                                     self.nvars)
        return vals, grads


class DiffOp2:
    """Second-order operator with symmetric leading coefficients, in the three
    chart coordinates."""

    nvars = 3

    def __init__(self, second: Sequence[Sequence[Callable]], first: Sequence[Callable],
                 scalar: Callable):
        self.second = [list(row) for row in second]
        self.first = list(first)
        self.scalar = scalar

    def apply(self, f: Callable, point: Sequence[complex]):
        value, _ = self.apply_scaled(f, point)
        return value

    def apply_scaled(self, f: Callable, point: Sequence[complex]):
        """(value, scale): scale sums the magnitudes of the individual terms."""
        return self.apply_jet(f(Dual.seed(point)), point)

    def apply_jet(self, fv, point: Sequence[complex]):
        """:meth:`apply_scaled` on an already evaluated 2-jet ``fv`` of f at ``point``.

        ``point`` may also hold a grid's coordinate columns, with ``fv`` a grid
        jet (:meth:`Dual.seed_grid`); value and scale then have one lane per node.
        """
        val, grad, hess = dual.parts(fv, self.nvars)
        pt = list(point)
        total = 0j
        scale = 0.0
        for a in range(self.nvars):
            for b in range(self.nvars):
                c = dual.value(self.second[a][b](pt))
                if not dual.is_zero(c):
                    term = c * hess[a][b]
                    total += term
                    scale += abs(term)
        for a in range(self.nvars):
            c = dual.value(self.first[a](pt))
            if not dual.is_zero(c):
                term = c * grad[a]
                total += term
                scale += abs(term)
        term = dual.value(self.scalar(pt)) * val
        total += term
        scale += abs(term)
        return total, scale


@dataclass(frozen=True)
class CommutatorSample:
    coeffs: np.ndarray
    scalar: complex


def commutator(a, b) -> CommutatorSample:
    """Coefficients and scalar part of [A, B] from the coefficient jets
    (:meth:`DiffOp1.jets`) of A and B at the same point or grid."""
    (av, ag), (bv, bg) = a, b
    k = ag.shape[-1]
    # [A, B]^m = A^u d_u B^m - B^u d_u A^m, for the scalar part (m = k) too
    full = np.einsum("...u,...mu->...m", av[..., :k], bg) \
        - np.einsum("...u,...mu->...m", bv[..., :k], ag)
    return CommutatorSample(full[..., :k], full[..., k])


@dataclass(frozen=True)
class TableFit:
    structure: np.ndarray      # fitted C_AB^C
    central: np.ndarray        # fitted central charges F_AB
    residual: float
    closed: bool


def commutation_table_fit(ops: Sequence[DiffOp1], probes: Sequence[Sequence[complex]],
                          central_scalar: complex) -> TableFit:
    """Least-squares fit of every commutator into span(ops, central); the fit
    is closed when its residual is at most FIT_TOL.

    Every operator's coefficient jets are evaluated once, over all probes as
    one grid jet; the rows are the probes in order, k + 1 per probe.
    """
    n = len(ops)
    k = ops[0].nvars if n else 0
    structure = np.zeros((n, n, n))
    central = np.zeros((n, n))
    worst = 0.0
    coords = Dual.seed_grid(dual.columns(probes))
    jets = [op.jets(coords) for op in ops]
    shape = (len(probes), k + 1)
    central_col = np.zeros(shape, dtype=complex)
    central_col[:, k] = central_scalar
    basis = np.stack([np.broadcast_to(v, shape) for v, _ in jets] + [central_col], axis=-1)
    m = basis.reshape(-1, n + 1)
    for A in range(n):
        for B in range(A + 1, n):
            sample = commutator(jets[A], jets[B])
            b = np.broadcast_to(np.concatenate([sample.coeffs, sample.scalar[..., None]], -1),
                                shape).reshape(-1)
            sol, *_ = np.linalg.lstsq(m, b, rcond=None)
            res = float(np.max(np.abs(m @ sol - b)))
            worst = max(worst, res)
            if float(np.max(np.abs(sol.imag))) > FIT_TOL:
                worst = max(worst, float(np.max(np.abs(sol.imag))))
            structure[A, B] = sol[:n].real
            structure[B, A] = -sol[:n].real
            central[A, B] = sol[n].real
            central[B, A] = -sol[n].real
    return TableFit(structure, central, worst, worst <= FIT_TOL)


def representation_residual(ops: Sequence[DiffOp1], structure: np.ndarray,
                            central: np.ndarray, central_scalar: complex,
                            probes: Sequence[Sequence[complex]]) -> float:
    """max |[A,B] - C_AB^C op_C - F_AB op_0| sampled at probe points.

    Unlike the least-squares fit this works even when the operator set is
    pointwise linearly dependent (it checks the known table directly).
    """
    n = len(ops)
    k = ops[0].nvars if n else 0
    coords = Dual.seed_grid(dual.columns(probes))
    jets = [op.jets(coords) for op in ops]
    worst = 0.0
    for A in range(n):
        for B in range(A + 1, n):
            sample = commutator(jets[A], jets[B])
            target = np.zeros(k + 1, dtype=complex)
            for C in range(n):
                if structure[A, B, C] != 0:
                    target = target + structure[A, B, C] * jets[C][0]
            target[..., k] += central[A, B] * central_scalar
            got = np.concatenate([sample.coeffs, sample.scalar[..., None]], -1)
            worst = max(worst, float(np.max(np.abs(got - target))))
    return worst


# ----------------------------------------------------------------------
# symmetry operators of the catalog entries
# ----------------------------------------------------------------------

def symmetry_operators(case_id: CaseId, config: FieldConfig,
                       chi_extra: Optional[Sequence[Optional[Callable]]] = None) -> list[DiffOp1]:
    """Explicit first-order symmetry operators X^a d_a + i e (chi - X.A).

    ``chi_extra`` adds an evaluable term to each chi_A that has one: a
    constant one shifts chi_A by lambda_A (the central-charge transformation
    law), any other breaks the defining equation, to demonstrate that the
    break is detected.
    """
    case_id = CaseId(case_id)
    comps = rect_components(case_id, config.parameter_a)
    chis = solve_chi(case_id, config, chi_extra)
    gauge = gauge_one_form(case_id, config)
    e = config.e
    ops = []
    for comp, chi in zip(comps, chis):
        def scalar(coords, comp=comp, chi=chi):
            total = chi(coords)
            avals = gauge.values(coords)
            for u in range(3):
                xu = comp[u](coords)
                if not dual.is_zero(xu):
                    total = total - xu * avals[u]
            return total * (1j * e)

        ops.append(DiffOp1(list(comp), scalar))
    return ops


# ----------------------------------------------------------------------
# Klein-Gordon operator: closed forms and generic assembly
# ----------------------------------------------------------------------

def kg_operator(case_id: CaseId, config: FieldConfig) -> DiffOp2:
    """Hard-coded wave operator of an integrable entry, in its reference gauge."""
    return DiffOp2(*integration(case_id).kg_operator(config))


def kg_apply_generic_jet(case_id: CaseId, config: FieldConfig, fv,
                         point: Sequence[float]) -> complex:
    """Divergence-form assembly of the wave operator applied to f at a point,
    from the evaluated 2-jet ``fv`` of f at ``point``.

    Independent of the registry's closed forms: uses only the chart metric jet and
    the gauge potential,
        (1/sqrt g) D_a ( sqrt g g^{ab} D_b f ) + (6 zeta + m^2) f.
    """
    case_id = CaseId(case_id)
    coords = Dual.seed(point)
    g, dg, ginv, sqrtg, dsqrtg, dginv = metric_jet(case_id, coords, config.parameter_a)
    gauge = gauge_one_form(case_id, config)
    e = config.e
    aval, agrad, _ = dual.arrays(gauge.values(coords), 3)  # agrad[b][c] = d_c A_b
    (val,), (grad,), (hess,) = dual.arrays([fv], 3)

    total = np.einsum("ab,ab->", ginv, hess)
    drift = (np.einsum("a,ab->b", dsqrtg, ginv) / sqrtg
             + np.einsum("aab->b", dginv))
    aup = ginv @ aval
    total += np.dot(drift - 2j * e * aup, grad)
    # div A = (1/sqrt g) d_c (sqrt g g^{cb} A_b)
    div_a = (np.dot(dsqrtg, aup) / sqrtg
             + np.einsum("ccb,b->", dginv, aval)
             + np.einsum("cb,bc->", ginv, agrad))
    total += (-1j * e * div_a - e * e * np.dot(aup, aval) + config.mass_term) * val
    return complex(total)


def kg_cross_residual(case_id: CaseId, config: FieldConfig, f: Callable,
                      point: Sequence[float]) -> float:
    """|closed-form - generic| of the wave operator acting on f at one point.

    The two builds share only the jet of f.
    """
    op = kg_operator(case_id, config)
    fv = f(Dual.seed(point))
    direct, scale = op.apply_jet(fv, point)
    generic = kg_apply_generic_jet(case_id, config, fv, point)
    return abs(direct - generic) / (1.0 + scale)


# ----------------------------------------------------------------------
# probe functions (polynomial x exponential, closed under differentiation)
# ----------------------------------------------------------------------

class PolyExpProbe:
    """sum_m c_m x^m * exp(d . x) with exact symbolic partial derivatives."""

    def __init__(self, terms: dict[tuple[int, ...], complex], dvec: tuple[complex, ...]):
        self.terms = dict(terms)
        self.dvec = tuple(dvec)

    def __call__(self, coords):
        return self._at(coords, self._exp(coords), {})

    def jets(self, coords):
        """The jets of f and of its partials [d_a f] at ``coords``.  They share
        exp(d . x) and the monomials x^m, which are evaluated once."""
        e, monomials = self._exp(coords), {}
        return (self._at(coords, e, monomials),
                [self.partial(a)._at(coords, e, monomials) for a in range(len(self.dvec))])

    def _exp(self, coords):
        expo = 0.0
        for d, c in zip(self.dvec, coords):
            expo = c * d + expo
        return dual.exp(expo)

    def _at(self, coords, e, monomials):
        poly = 0.0
        for powers, coeff in self.terms.items():
            poly = poly + coeff * _monomial(powers, coords, monomials)
        return poly * e

    def partial(self, i: int) -> "PolyExpProbe":
        new: dict[tuple[int, ...], complex] = {}

        def add(powers, coeff):
            if coeff != 0:
                new[powers] = new.get(powers, 0j) + coeff

        for powers, coeff in self.terms.items():
            if powers[i] > 0:
                lowered = list(powers)
                lowered[i] -= 1
                add(tuple(lowered), coeff * powers[i])
            add(powers, coeff * self.dvec[i])
        return PolyExpProbe(new, self.dvec)


def _monomial(powers, coords, cache):
    """x^powers at ``coords``: one product with a lower monomial, kept in ``cache``."""
    if not any(powers):
        return 1.0
    if powers not in cache:
        i = max(i for i, p in enumerate(powers) if p)
        lower = powers[:i] + (powers[i] - 1,) + powers[i + 1:]
        cache[powers] = _monomial(lower, coords, cache) * coords[i]
    return cache[powers]


def random_probe(rng: np.random.Generator) -> PolyExpProbe:
    """A probe in the three chart coordinates with 2-4 random terms."""
    terms = {}
    for _ in range(rng.integers(2, 5)):
        powers = tuple(int(p) for p in rng.integers(0, 3, 3))
        terms[powers] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    dvec = tuple(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for _ in range(3))
    return PolyExpProbe(terms, dvec)


def symmetry_check(case_id: CaseId, config: FieldConfig, points: Sequence[Sequence[float]],
                   n_probes: int = 5,
                   chi_extra: Optional[Sequence[Optional[Callable]]] = None) -> float:
    """max over operators, probe functions and points of the normalized
    commutator residual |H(X f) - X(H f)| / (1 + |H(X f)| + |X(H f)|).

    All points are one grid jet.  H's coefficients are evaluated once per
    call as 1-jets and every X's as 2-jets; per probe, the jets of f and of
    its partials (:meth:`PolyExpProbe.jets`) give f's derivatives up to third
    order, and H(X f) and X(H f) are their product-rule contractions with
    the coefficients, for all operators at once.
    """
    case_id = CaseId(case_id)
    rng = np.random.default_rng(PROBE_SEED)
    h = kg_operator(case_id, config)
    ops = symmetry_operators(case_id, config, chi_extra=chi_extra)
    n, m = h.nvars, len(ops)
    coords = Dual.seed_grid(dual.columns(points))
    # lane axis first, then: H = s^ab d_a d_b + t^a d_a + r as 1-jets, the
    # derivative axis last
    hv, hg, _ = dual.arrays([c(coords) for row in h.second for c in row]
                            + [c(coords) for c in h.first] + [h.scalar(coords)], n)
    s, t, r = hv[:, :n * n].reshape(-1, n, n), hv[:, n * n:-1], hv[:, -1]
    ds, dt, dr = hg[:, :n * n].reshape(-1, n, n, n), hg[:, n * n:-1], hg[:, -1]
    # X_A = c_A^u d_u + b_A as 2-jets, operator axis A before the coefficient axis
    xv, xg, xh = (part.reshape((-1, m, n + 1) + part.shape[2:]) for part in
                  dual.arrays([a(coords) for op in ops for a in op.coeffs + [op.scalar]], n))
    c, dc, ddc = xv[..., :n], xg[..., :n, :], xh[..., :n, :, :]
    b, db, ddb = xv[..., n], xg[..., n, :], xh[..., n, :, :]
    worst = []
    for _ in range(n_probes):
        fv, dfv = random_probe(rng).jets(coords)
        vals, grads, hess = dual.arrays([fv] + dfv, n)
        # f and its partials of order 1, 2 and 3: f2[u, a] = d_a d_u f
        f0, f1, f2, f3 = vals[:, 0], vals[:, 1:], grads[:, 1:], hess[:, 1:]
        hf = r * f0 + np.einsum("pa,pa->p", t, f1) + np.einsum("pab,pab->p", s, f2)
        dhf = (dr * f0[:, None] + r[:, None] * f1
               + np.einsum("pac,pa->pc", dt, f1) + np.einsum("pa,pac->pc", t, f2)
               + np.einsum("pabc,pab->pc", ds, f2) + np.einsum("pab,pabc->pc", s, f3))
        rhs = b * hf[:, None] + np.einsum("pAu,pu->pA", c, dhf)
        xf = b * f0[:, None] + np.einsum("pAu,pu->pA", c, f1)
        dxf = (db * f0[:, None, None] + b[..., None] * f1[:, None]
               + np.einsum("pAua,pu->pAa", dc, f1) + np.einsum("pAu,pua->pAa", c, f2))
        ddxf = (ddb * f0[:, None, None, None]
                + np.einsum("pAa,pb->pAab", db, f1) + np.einsum("pAb,pa->pAab", db, f1)
                + b[..., None, None] * f2[:, None]
                + np.einsum("pAuab,pu->pAab", ddc, f1)
                + np.einsum("pAua,pub->pAab", dc, f2) + np.einsum("pAub,pua->pAab", dc, f2)
                + np.einsum("pAu,puab->pAab", c, f3))
        lhs = (np.einsum("pab,pAab->pA", s, ddxf) + np.einsum("pa,pAa->pA", t, dxf)
               + r[:, None] * xf)
        worst.append(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))))
    # a NaN lane (a singular point) makes the result NaN, which fails the check
    return float(np.max(worst, initial=0.0))
