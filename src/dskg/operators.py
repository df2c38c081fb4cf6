"""First-order symmetry operators and the Klein-Gordon operator.

Operators are represented by dual-evaluable coefficient callables, so
commutators, operator compositions and all residuals come out of exact
forward-mode differentiation.  The wave operator exists in two independent
builds that are required to agree: a hard-coded closed form per integrable
entry (kept in :mod:`dskg.cases`), and the generic divergence-form assembly
from the chart metric and gauge potential, compared coefficient by
coefficient on a grid (:func:`kg_cross_residual`).  The embedding metric is
the arbiter for every sign that enters the closed forms.
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
        return self.apply_jet(f(Dual.seed(point)), self.values(point))

    def apply_jet(self, fv, values):
        """The operator contracted with an evaluated 2-jet ``fv``, from its
        :meth:`values` at the jet's point (or grid, as in
        :meth:`DiffOp2.apply_jet`)."""
        val, grad, _ = dual.parts(fv, self.nvars)
        *coeffs, scalar = values
        total = scalar * val
        for u, a in enumerate(coeffs):
            total += a * grad[u]
        return total

    def values(self, point):
        """The values of the coefficients and then the scalar part at ``point``
        (plain coordinates or a grid's coordinate columns)."""
        return [dual.value(a(list(point))) for a in self.coeffs + [self.scalar]]


class DiffOp2:
    """Second-order operator with symmetric leading coefficients, in the three
    chart coordinates."""

    nvars = 3

    def __init__(self, second: Sequence[Sequence[Callable]], first: Sequence[Callable],
                 scalar: Callable):
        self.second = [list(row) for row in second]
        self.first = list(first)
        self.scalar = scalar

    @property
    def coefficients(self) -> list[Callable]:
        """The 13 coefficients in the order every read-out uses: the
        second-order rows, row by row, then the first-order, then the scalar."""
        return [c for row in self.second for c in row] + self.first + [self.scalar]

    def values(self, point):
        """The values of :attr:`coefficients` at ``point``, as :meth:`DiffOp1.values`."""
        return [dual.value(c(list(point))) for c in self.coefficients]

    def apply_scaled(self, f: Callable, point: Sequence[complex]):
        """(value, scale): scale sums the magnitudes of the individual terms."""
        return self.apply_jet(f(Dual.seed(point)), self.values(point))

    def apply_jet(self, fv, values):
        """:meth:`apply_scaled` on an already evaluated 2-jet ``fv`` of f, from
        the :meth:`values` at its point; on a grid jet (:meth:`Dual.seed_grid`)
        and the values on its columns, value and scale have one lane per node.
        """
        val, grad, hess = dual.parts(fv, self.nvars)
        total = 0j
        scale = 0.0
        for c, d in zip(values[:-1], [x for row in hess for x in row] + list(grad)):
            if not dual.is_zero(c):
                term = c * d
                total += term
                scale += abs(term)
        term = values[-1] * val
        total += term
        scale += abs(term)
        return total, scale


def _lane_first(rows, coords):
    """Values ``(..., m, w)``, gradients ``(..., m, w, k)`` and Hessians
    ``(..., m, w, k, k)`` of ``m`` rows of ``w`` jets at ``coords``: a point
    seed, or a grid seed whose lane axis ``...`` comes first, also for a
    constant jet."""
    k, shape = len(coords), (len(rows), len(rows[0]))
    lanes = np.shape(dual.value(coords[0]))
    parts = dual.arrays([x for row in rows for x in row], k)
    return tuple(np.broadcast_to(part.reshape(part.shape[:-1 - len(tail)] + shape + tail),
                                 lanes + shape + tail)
                 for part, tail in zip(parts, ((), (k,), (k, k))))


def operator_jets(ops: Sequence[DiffOp1], coords):
    """The coefficient jets of every operator in ``ops`` at ``coords``, lane
    axis first: values ``(..., m, k + 1)``, gradients ``(..., m, k + 1, k)``
    and Hessians ``(..., m, k + 1, k, k)``, each operator's coefficients and
    then its scalar part."""
    return _lane_first([[a(coords) for a in op.coeffs + [op.scalar]] for op in ops], coords)


def commutator(a, b) -> np.ndarray:
    """Coefficients and then the scalar part of [A, B], shape (..., k + 1), from
    the values and gradients of A's and B's coefficient jets
    (:func:`operator_jets`) at the same point or grid."""
    (av, ag), (bv, bg) = a, b
    k = ag.shape[-1]
    # [A, B]^m = A^u d_u B^m - B^u d_u A^m, for the scalar part (m = k) too
    return np.einsum("...u,...mu->...m", av[..., :k], bg) \
        - np.einsum("...u,...mu->...m", bv[..., :k], ag)


@dataclass(frozen=True, eq=False)
class TableFit:
    structure: np.ndarray      # fitted C_AB^C
    central: np.ndarray        # fitted central charges F_AB
    residual: float


def commutation_table_fit(jets, central_scalar: complex) -> TableFit:
    """Least-squares fit of every commutator into the span of the operators and
    the central term, from the operators' coefficient jets at the probe points
    (:func:`operator_jets`, lane axis first); the fit is closed when its
    residual is at most FIT_TOL.
    The rows are the probes in order, k + 1 per probe.
    """
    vals, grads, _ = jets
    lanes, n, width = vals.shape
    structure = np.zeros((n, n, n))
    central = np.zeros((n, n))
    worst = 0.0
    central_col = np.zeros((lanes, width), dtype=complex)
    central_col[:, -1] = central_scalar
    m = np.stack([vals[:, A] for A in range(n)] + [central_col], axis=-1).reshape(-1, n + 1)
    for A in range(n):
        for B in range(A + 1, n):
            b = commutator((vals[:, A], grads[:, A]), (vals[:, B], grads[:, B])).reshape(-1)
            sol, *_ = np.linalg.lstsq(m, b, rcond=None)
            res = float(np.max(np.abs(m @ sol - b)))
            worst = max(worst, res)
            if float(np.max(np.abs(sol.imag))) > FIT_TOL:
                worst = max(worst, float(np.max(np.abs(sol.imag))))
            structure[A, B] = sol[:n].real
            structure[B, A] = -sol[:n].real
            central[A, B] = sol[n].real
            central[B, A] = -sol[n].real
    return TableFit(structure, central, worst)


def representation_residual(ops: Sequence[DiffOp1], structure: np.ndarray,
                            central: np.ndarray, central_scalar: complex,
                            probes: Sequence[Sequence[complex]]) -> float:
    """max |[A,B] - C_AB^C op_C - F_AB op_0| sampled at probe points.

    Unlike the least-squares fit this works even when the operator set is
    pointwise linearly dependent (it checks the known table directly).
    """
    n = len(ops)
    k = ops[0].nvars if n else 0
    vals, grads, _ = operator_jets(ops, Dual.seed_grid(dual.columns(probes)))
    worst = 0.0
    for A in range(n):
        for B in range(A + 1, n):
            target = np.zeros(k + 1, dtype=complex)
            for C in range(n):
                if structure[A, B, C] != 0:
                    target = target + structure[A, B, C] * vals[:, C]
            target[..., k] += central[A, B] * central_scalar
            got = commutator((vals[:, A], grads[:, A]), (vals[:, B], grads[:, B]))
            worst = max(worst, float(np.max(np.abs(got - target))))
    return worst


# ----------------------------------------------------------------------
# symmetry operators of the catalog entries
# ----------------------------------------------------------------------

def symmetry_scalar(x, chi, gauge, e: float):
    """The scalar part i e (chi_A - sum_u X_A^u A_u) of a symmetry operator, from
    the evaluated jets or values of its generator's components ``x``, its
    ``chi`` and the ``gauge`` potential's components at the same coordinates.
    A structural-zero component contributes no product."""
    total = chi
    for xu, au in zip(x, gauge):
        if not dual.is_zero(xu):
            total = total - xu * au
    return total * (1j * e)


def symmetry_jets(generators, chis, gauge, e: float, coords):
    """The coefficient jets of an entry's symmetry operators X_A + s_A at
    ``coords``, shaped as :func:`operator_jets` shapes them, from the jets
    there of the generator components (:func:`dskg.geometry.generator_jets`),
    of each chi_A and of the gauge potential, each read once for all
    operators."""
    return _lane_first([list(x) + [symmetry_scalar(x, chi, gauge, e)]
                        for x, chi in zip(generators, chis)], coords)


def symmetry_operators(case_id: CaseId, config: FieldConfig,
                       chi_extra: Optional[Sequence[Optional[Callable]]] = None) -> list[DiffOp1]:
    """Explicit first-order symmetry operators X^a d_a + i e (chi - X.A), each
    evaluating its own components, chi and gauge (:func:`symmetry_scalar`).

    ``chi_extra`` adds an evaluable term to each chi_A that has one: a
    constant one shifts chi_A by lambda_A (the central-charge transformation
    law), any other breaks the defining equation, to demonstrate that the
    break is detected.
    """
    case_id = CaseId(case_id)
    gauge = gauge_one_form(case_id, config)
    return [DiffOp1(list(comp), lambda c, comp=comp, chi=chi: symmetry_scalar(
                [x(c) for x in comp], chi(c), [a(c) for a in gauge], config.e))
            for comp, chi in zip(rect_components(case_id, config.parameter_a),
                                 solve_chi(case_id, config, chi_extra))]


# ----------------------------------------------------------------------
# Klein-Gordon operator: closed forms and generic assembly
# ----------------------------------------------------------------------

def kg_operator(case_id: CaseId, config: FieldConfig) -> DiffOp2:
    """Hard-coded wave operator of an integrable entry, in its reference gauge."""
    return DiffOp2(*integration(case_id).kg_operator(config))


def kg_generic_coefficients(case_id: CaseId, config: FieldConfig, coords):
    """The divergence-form wave operator
        (1/sqrt g) D_a ( sqrt g g^{ab} D_b f ) + (6 zeta + m^2) f,  D = d - i e A,
    as its coefficients at ``coords`` (a point or grid seed, lane axis first):
    g^{ab}, (1/sqrt g) d_a (sqrt g g^{ab}) - 2 i e A^b and -i e div A - e^2 A.A
    + 6 zeta + m^2.  Independent of the registry's closed forms: it reads only
    the chart metric jet and the gauge potential.
    """
    _, dg, ginv, sqrtg = metric_jet(case_id, coords, config.parameter_a)
    # d_c sqrt|det g| = sqrt|det g| tr(g^-1 d_c g) / 2 and d_c g^-1 = -g^-1 (d_c g) g^-1
    tr = np.einsum("...ab,...cba->...c", ginv, dg)
    dsqrtg = 0.5 * sqrtg[..., None] * tr
    dginv = -np.einsum("...ae,...ceb,...bf->...caf", ginv, dg, ginv)
    gauge = [a(coords) for a in gauge_one_form(case_id, config)]
    e = config.e
    aval, agrad, _ = dual.arrays(gauge, 3)  # agrad[..., b, c] = d_c A_b
    drift = (np.einsum("...a,...ab->...b", dsqrtg, ginv) / sqrtg[..., None]
             + np.einsum("...aab->...b", dginv))
    aup = np.einsum("...ab,...b->...a", ginv, aval)
    # div A = (1/sqrt g) d_c (sqrt g g^{cb} A_b)
    div_a = (np.einsum("...c,...c->...", dsqrtg, aup) / sqrtg
             + np.einsum("...ccb,...b->...", dginv, aval)
             + np.einsum("...cb,...bc->...", ginv, agrad))
    scalar = (-1j * e * div_a - e * e * np.einsum("...a,...a->...", aup, aval)
              + config.mass_term)
    return ginv, drift - 2j * e * aup, scalar


def kg_cross_residual(case_id: CaseId, config: FieldConfig,
                      points: Sequence[Sequence[float]]) -> float:
    """Largest |closed - generic| / (1 + |closed|) over the wave operator's 13
    coefficients at ``points``, the closed form's leading part symmetrised.

    Two second-order operators are equal exactly when these coefficients
    agree, so no probe function enters.  The two builds share only the points:
    the closed form comes from the registry, the generic one from the metric
    and the gauge (:func:`kg_generic_coefficients`), both on one grid.
    """
    h = kg_operator(case_id, config)
    cols = dual.columns(points)
    n = len(cols[0])
    generic = np.concatenate([part.reshape(n, -1) for part in
                              kg_generic_coefficients(case_id, config, Dual.seed_grid(cols))], -1)
    # read as DiffOp2.apply_jet reads them: values on the coordinate columns
    closed = np.array([np.broadcast_to(c, (n,)) for c in h.values(cols)]).T
    lead = closed[:, :9].reshape(n, 3, 3)
    closed[:, :9] = (0.5 * (lead + np.swapaxes(lead, 1, 2))).reshape(n, 9)
    return float(np.max(np.abs(closed - generic) / (1.0 + np.abs(closed))))


# ----------------------------------------------------------------------
# probe functions (polynomial x exponential, closed under differentiation)
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PolyExpProbe:
    """f = P(x) exp(d . x), P = sum c[i, j, k] x1^i x2^j x3^k.  df/dx_a = (D_a P)
    exp(d . x), where D_a = diag([1, 2], 1) + d[a] I acts along P's axis a, so
    every derivative of f is closed form."""

    c: np.ndarray          # (3, 3, 3)
    dvec: tuple[complex, ...]

    def derivatives(self, columns):
        """f and its partials of order 1, 2 and 3 at the points whose
        coordinate ``columns`` are given, lane axis first: f0 (N,), f1 (N, 3),
        f2 (N, 3, 3) with f2[u, a] = d_a d_u f, and f3 (N, 3, 3, 3)."""
        x = np.asarray(columns, dtype=complex)
        v = x[..., None] ** np.arange(3)               # v[a, p, i] = x_a^i
        # f's derivatives are the cubes D_a D_b ... c contracted with this row
        row = np.einsum("pi,pj,pk->pijk", *v).reshape(-1, 27) \
            * np.exp(np.einsum("a,ap->p", self.dvec, x))[:, None]
        eye, steps = np.eye(3), []
        for a, d in enumerate(self.dvec):  # D_a on the flattened cube
            m = [np.diag([1.0, 2.0], 1) + d * eye if b == a else eye for b in range(3)]
            # (m0 x m1) x m2, multiplied in np.kron's order, as one outer product
            steps.append((m[0][:, None, None, :, None, None] * m[1][None, :, None, None, :, None]
                          * m[2][None, None, :, None, None, :]).reshape(27, 27))
        cubes = [self.c.reshape(27)]
        for _ in range(3):  # the new derivative axis goes last, before the cube's
            cubes.append(np.einsum("aij,...j->...ai", steps, cubes[-1]))
        return tuple(np.einsum("pi,...i->p...", row, cube) for cube in cubes)


def random_probe(rng: np.random.Generator) -> PolyExpProbe:
    """A probe in the three chart coordinates with 2-4 random terms; a
    repeated power overwrites the earlier coefficient."""
    c = np.zeros((3, 3, 3), dtype=complex)
    for _ in range(rng.integers(2, 5)):
        powers = tuple(rng.integers(0, 3, 3))  # drawn before its coefficient
        c[powers] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    dvec = tuple(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for _ in range(3))
    return PolyExpProbe(c, dvec)


def symmetry_check(h: DiffOp2, jets, points: Sequence[Sequence[float]],
                   n_probes: int) -> float:
    """max over the operators X, probe functions f and points of
    |H(X f) - X(H f)| / (1 + |H(X f)| + |X(H f)|), H the wave operator ``h``
    and the X given by their coefficient jets at ``points`` (lane axis first,
    :func:`operator_jets`).

    H's coefficients are evaluated once per call on one grid jet of the
    points, as 1-jets.  Each probe's derivatives up to third order are closed
    form (:meth:`PolyExpProbe.derivatives`), and H(X f) and X(H f) are their
    product-rule contractions with the coefficients, for all operators at once.
    """
    rng = np.random.default_rng(PROBE_SEED)
    n = h.nvars
    columns = dual.columns(points)
    coords = Dual.seed_grid(columns)
    # lane axis first, then: H = s^ab d_a d_b + t^a d_a + r as 1-jets, the
    # derivative axis last
    hv, hg, _ = dual.arrays([c(coords) for c in h.coefficients], n)
    s, t, r = hv[:, :n * n].reshape(-1, n, n), hv[:, n * n:-1], hv[:, -1]
    ds, dt, dr = hg[:, :n * n].reshape(-1, n, n, n), hg[:, n * n:-1], hg[:, -1]
    # X_A = c_A^u d_u + b_A as 2-jets, operator axis A before the coefficient axis
    xv, xg, xh = jets
    c, dc, ddc = xv[..., :n], xg[..., :n, :], xh[..., :n, :, :]
    b, db, ddb = xv[..., n], xg[..., n, :], xh[..., n, :, :]
    worst = []
    for _ in range(n_probes):
        f0, f1, f2, f3 = random_probe(rng).derivatives(columns)
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
