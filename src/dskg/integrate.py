"""Noncommutative integration of the five integrable entries.

For each integrable entry this module wraps the registry's auxiliary-variable
representation of the symmetry algebra, the joint-system solution ansatz
phi = exp(R(x, lambda)) Phi(v), the reduced second-order ODE satisfied by
Phi, and its solution basis (Whittaker, Bessel or Legendre pairs, or
exponentials in g3_2's neutral limit; one entry has no closed form and is
served by a piecewise Taylor series).  A Legendre pair's Gauss 2F1 is its
direct series for |z| < 1.  The formulas themselves live in
:mod:`dskg.cases`.

Every object here is verifiable: representations are checked against the
operator commutation tables, ansatz phases against the joint system, reduced
coefficients against an on-the-fly extraction from the wave operator, and
solution bases against their defining ODEs and the end-to-end residual.
The joint-system, extraction and residual sweeps take the built ansatz and
wave operator, and evaluate all their sample points as one grid jet
(:meth:`Dual.seed_grid`), one lane per point.  A point at a branch point of
the ansatz phase is a NaN lane, and a check that reads it is NaN, so it fails.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dual
from .cases import BranchPointError, CaseId, integration  # noqa: F401  (re-exported)
from .dual import Dual
from .fields import FieldConfig, gauge_one_form, solve_chi
from .geometry import generator_jets
from .operators import DiffOp1, DiffOp2, kg_operator, symmetry_scalar  # noqa: F401  (re-exported)


# ----------------------------------------------------------------------
# lambda-representations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaRep:
    ops: list[DiffOp1]
    ell0: complex


def lambda_rep(case_id: CaseId, J: float, config: FieldConfig) -> LambdaRep:
    """Auxiliary-variable realization of the extended symmetry algebra."""
    rows = integration(case_id).lambda_rep(J, config)
    return LambdaRep([DiffOp1([coeff], scalar) for coeff, scalar in rows], -1j * config.e)


# ----------------------------------------------------------------------
# joint-system ansatz
# ----------------------------------------------------------------------

@dataclass
class SolutionAnsatz:
    """phi = phase(x, lambda) * Phi(char(x, lambda)) solves the joint system."""

    case_id: CaseId
    config: FieldConfig
    lam: complex
    phase: Callable  # (q_triple, lam) -> exp(R)
    char: Callable   # (q_triple, lam) -> v

    def assemble(self, phi_jet) -> Callable:
        """Wave function as a dual-evaluable callable of the chart coordinates.

        On a grid jet, Phi's 2-jet is evaluated once per distinct value of the
        characteristic variable and scattered to the lanes.
        """
        lam = self.lam

        def f(coords):
            v = self.char(coords, lam)
            phi = dual.compose(v, *_phi_jets(phi_jet, dual.value(v)))
            return self.phase(coords, lam) * phi
        return f


def _phi_jets(phi_jet, v):
    """(Phi, Phi', Phi'') at a point value ``v``, or per lane of a lane array."""
    if not isinstance(v, np.ndarray):
        return phi_jet.jet(v)
    keys, lane = np.unique(v, return_inverse=True)
    table = np.array([phi_jet.jet(key) for key in keys], dtype=complex)
    return table[lane].T


def ansatz(case_id: CaseId, config: FieldConfig, J: float,
           lam: complex | None = None) -> SolutionAnsatz:
    """The entry's ansatz at ``lam`` (the entry's own lambda by default)."""
    spec = integration(case_id)
    lam = spec.lam if lam is None else lam
    return SolutionAnsatz(CaseId(case_id), config, complex(lam), *spec.ansatz(config, J))


def joint_system_residual(ans: SolutionAnsatz, rep: LambdaRep,
                          points: Sequence[Sequence[float]]) -> float:
    """max |X_A phi + l_A phi| / (1 + |X_A phi| + |l_A phi|) over probes.

    Checked for Phi = 1 and Phi = v, which spans the general solution of the
    characteristic system.  All probes are one grid jet in the chart
    coordinates and lambda; a probe lost at a branch point makes it NaN.
    Only the values of X_A phi and l_A phi are read, so each operator's
    coefficients are evaluated once, as plain values on the coordinate and
    lambda columns, and contracted with the value and gradient of phi.  The
    generators, chi_A and the gauge potential are read once for all X_A.
    """
    case, cfg = ans.case_id, ans.config
    cols = dual.columns(points)
    lam_col = [np.full(len(points), ans.lam, dtype=complex)]
    with np.errstate(divide="ignore", invalid="ignore"):
        *qs, lam = Dual.seed_grid(cols + lam_col)
        v = ans.char(qs, lam)
        phase = ans.phase(qs, lam)
        gauge = [a(cols) for a in gauge_one_form(case, cfg)]
        coeffs = [(x + [symmetry_scalar(x, chi(cols), gauge, cfg.e)], lop.values(lam_col))
                  for x, chi, lop in zip(generator_jets(case, cols, cfg.parameter_a),
                                         solve_chi(case, cfg), rep.ops)]
        res = []
        for f in (phase, phase * v):
            val, grad, _ = dual.parts(f, 4)
            for (*x, xs), (lx, ls) in coeffs:
                xphi = xs * val
                for u in range(3):
                    xphi = xphi + x[u] * grad[u]
                lphi = ls * val + lx * grad[3]
                res.append(np.abs(xphi + lphi) / (1.0 + np.abs(xphi) + np.abs(lphi)))
    return float(np.max(res))


# ----------------------------------------------------------------------
# reduced equations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedODE:
    p: Callable[[complex], complex]
    q: Callable[[complex], complex]

    def residual(self, jet, v: complex) -> float:
        f0, f1, f2 = jet.jet(v)
        pf, qf = self.p(v) * f1, self.q(v) * f0
        return abs(f2 + pf + qf) / (1.0 + abs(f2) + abs(pf) + abs(qf))


def reduced_ode(case_id: CaseId, config: FieldConfig, J: float) -> ReducedODE:
    """Coefficients of Phi'' + p Phi' + q Phi = 0 in the characteristic variable."""
    return ReducedODE(*integration(case_id).reduced_ode(config, J))


def reduction_coefficients(ans: SolutionAnsatz, h: DiffOp2, points: Sequence[Sequence[float]]):
    """Extract (p, q, v) of the reduced operator at chart points, one lane each.

    Applies the wave operator ``h`` to exp(R) Phi for Phi = 1, v, v^2 on one
    grid jet of the points and solves for the second-order coefficients; this
    is the independent route that each :func:`reduced_ode` closed form is
    compared against.  A point lost at a branch point is a NaN lane.
    """
    cols = dual.columns(points)
    with np.errstate(divide="ignore", invalid="ignore"):
        qs = Dual.seed_grid(cols)
        phase, vj = ans.phase(qs, ans.lam), ans.char(qs, ans.lam)
        emr, v, values = dual.value(phase), dual.value(vj), h.values(cols)
        gamma, h1, h2 = (h.apply_jet(f, values)[0] / emr
                         for f in (phase, phase * vj, phase * vj * vj))
        beta = h1 - v * gamma
        alpha = (h2 - 2.0 * v * beta - v * v * gamma) / 2.0
        return beta / alpha, gamma / alpha, v


def reduction_residual(ans: SolutionAnsatz, h: DiffOp2, phi_jet,
                       grid: Sequence[Sequence[float]]):
    """(phi, residual) at every node of ``grid`` (an (N, 3) array, such as
    :func:`default_grid`'s, or a list of points), from one grid jet of phi =
    ``ans`` assembled with Phi = ``phi_jet``.  The residual is |h phi| / (1 +
    scale); a node dropped at a branch point of the ansatz phase is NaN.
    """
    cols = dual.columns(grid)
    # a dropped lane divides by zero or takes the log of 0 on its way to NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        fv = ans.assemble(phi_jet)(Dual.seed_grid(cols))
        val, scale = h.apply_jet(fv, h.values(cols))
        residual = np.abs(val) / (1.0 + scale)
    return dual.value(fv), residual


# ----------------------------------------------------------------------
# solution bases
# ----------------------------------------------------------------------

class SpecialSolution:
    """A basis member ``fn``: v -> (Phi, Phi', Phi''), closed form or series, in
    plain complex arithmetic, with per-argument caching of the 2-jet."""

    def __init__(self, fn: Callable):
        self._fn = fn
        self._cache: dict[complex, tuple] = {}

    def jet(self, v):
        key = complex(v)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._fn(key)
            self._cache[key] = hit
        return hit

    def __call__(self, v):
        return self.jet(v)[0]


@dataclass
class SolutionBasis:
    case_id: CaseId
    phi1: object
    phi2: object
    record: dict

    def wronskian(self, v: complex) -> complex:
        f0, f1, _ = self.phi1.jet(v)
        g0, g1, _ = self.phi2.jet(v)
        return f0 * g1 - f1 * g0


def solution_basis(case_id: CaseId, config: FieldConfig, J: float,
                   lam: complex | None = None) -> SolutionBasis:
    """Two independent solutions of the reduced equation, with parameter record.

    The basis covers the characteristic variable on the entry's grid box at
    ``lam`` (the entry's own lambda by default); only a basis on a finite span
    reads it.
    """
    case_id = CaseId(case_id)
    spec = integration(case_id)
    phi1, phi2, rec = spec.basis(config, J, spec.lam if lam is None else lam)
    return SolutionBasis(case_id, SpecialSolution(phi1), SpecialSolution(phi2), rec)


def grid_axes(box: Sequence[tuple[float, float]], counts: Sequence[int]) -> list[np.ndarray]:
    """Per-axis node values: ``counts[i]`` evenly spaced values over ``box[i]``,
    both ends included."""
    return [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, counts)]


def nested_product(per_axis: Sequence[Sequence]):
    """Every grid's node order: the nested-loop product of per-axis items, the
    last axis fastest.  Items of any kind follow it, so a node's values and
    anything formatted per axis line up."""
    return itertools.product(*per_axis)


def grid_nodes(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The :func:`nested_product` of per-axis values as an (N, len(axes)) float
    array."""
    n = math.prod(len(ax) for ax in axes)
    flat = itertools.chain.from_iterable(nested_product([ax.tolist() for ax in axes]))
    return np.fromiter(flat, float, n * len(axes)).reshape(n, len(axes))


def default_grid(case_id: CaseId, counts: Sequence[int] = (10, 10, 10)) -> np.ndarray:
    """The entry's box sampled at ``counts`` nodes per axis: the
    :func:`grid_nodes` of its :func:`grid_axes`."""
    return grid_nodes(grid_axes(integration(case_id).grid, counts))
