"""Embedding geometry of the unit hyperboloid and its rectifying charts.

Each catalog entry comes with a local chart (q, u) -> x in R^{1,3} that
rectifies the subalgebra orbits: generators act only along the q coordinates
and the u coordinates label the orbits.  The charts are hard coded in the
registry of :mod:`dskg.cases`; the algebraic construction behind them
(products of matrix exponentials applied to a transversal section) is
implemented in :func:`rectify`; the three-dimensional boost-rotation
example whose closed form is known validates it, and lives in
``tests/test_geometry.py`` until every chart is built this way.  The
generators' chart components there, the registry's simplest form, are
checked against :func:`pushforward`, all generators on a whole grid at once.

Metrics are always induced from the ambient Minkowski form
eta = diag(1,-1,-1,-1); every closed-form metric used elsewhere is checked
against this embedding computation, which is the single source of truth for
signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import dual
from .dual import Dual
from .cases import CaseId, resolve
from .lie_core import subalgebra

ETA = (1.0, -1.0, -1.0, -1.0)
SAMPLE_MARGIN = 0.1


class RankDeficientError(RuntimeError):
    """Chart Jacobian lost rank (the point sits on the chart boundary)."""


class ChartOverflowError(OverflowError):
    """A chart point maps beyond floating-point range (a steep family parameter)."""


@dataclass(frozen=True)
class Chart:
    case_id: CaseId
    r: int                                   # number of orbit coordinates q
    domain: tuple[tuple[float, float], ...]
    map_fn: Callable[[Sequence], list]
    parameter_a: Optional[float] = None

    @property
    def coord_names(self) -> tuple[str, ...]:
        """q1 ... q_r along the orbits, then u1 ... u_(3-r) across them."""
        return tuple(f"q{k}" for k in range(1, self.r + 1)) \
            + tuple(f"u{k}" for k in range(1, 4 - self.r))

    def embed(self, point: Sequence[float]) -> list[float]:
        """The ambient coordinates (x0, x1, x2, x3) of a chart point."""
        try:
            vals = [dual.value(v).real for v in self.map_fn(list(point))]
        except OverflowError:
            vals = [math.inf]
        # the hyperboloid identity squares every component
        if not all(math.isfinite(v * v) for v in vals):
            raise ChartOverflowError(
                f"{self.case_id}: chart map at a = {self.parameter_a} overflows at "
                f"{np.asarray(point, dtype=float)}")
        return vals


def chart_for(case_id: CaseId, parameter_a: Optional[float] = None) -> Chart:
    """The rectifying chart of one catalog entry (hard-coded closed forms)."""
    spec, a = resolve(case_id, parameter_a)
    c = spec.chart
    return Chart(spec.case_id, c.r, c.domain, c.map(a), a)


def sample_domain(chart: Chart, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform interior samples of the chart box, shrunk by SAMPLE_MARGIN of
    its width at each end."""
    lo = np.array([d[0] for d in chart.domain])
    hi = np.array([d[1] for d in chart.domain])
    pad = (hi - lo) * SAMPLE_MARGIN
    return rng.uniform(lo + pad, hi - pad, size=(n, 3))


# ----------------------------------------------------------------------
# rectified generator components (closed forms matching the charts)
# ----------------------------------------------------------------------

def rect_components(case_id: CaseId, parameter_a: Optional[float] = None):
    """Chart components of every generator as dual-evaluable callables.

    Returns a list (one entry per generator) of 3-component callable lists
    over the full coordinate triple; u-direction components are identically
    zero.
    """
    spec, a = resolve(case_id, parameter_a)
    return spec.rect(a)


# ----------------------------------------------------------------------
# matrix exponential and the rectification construction
# ----------------------------------------------------------------------

def matexp(y: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring matrix exponential for small dense matrices."""
    y = np.asarray(y, dtype=float)
    norm = np.linalg.norm(y, ord=np.inf)
    squarings = max(0, int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0)
    z = y / (2.0 ** squarings)
    term = np.eye(y.shape[0])
    total = term.copy()
    for k in range(1, 40):
        term = term @ z / k
        total += term
        if np.max(np.abs(term)) < 1e-20:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def rep_matrices(case_id: CaseId, parameter_a: Optional[float] = None) -> list[np.ndarray]:
    """Representation matrices rho_A with X_A = -rho_A x for a catalog entry."""
    sub = subalgebra(case_id, parameter_a)
    return [-m for m in sub.generator_matrices()]


def rectify(generators: Sequence[np.ndarray], section: Callable[[Sequence[float]], np.ndarray],
            q: Sequence[float], u: Sequence[float]) -> np.ndarray:
    """Ambient point of the rectifying chart built from exponentials of the
    first r generators, given as their representation matrices rho_A."""
    x = np.asarray(section(list(u)), dtype=float)
    for qa, rho in zip(reversed(list(q)), reversed(list(generators[: len(q)]))):
        x = matexp(-qa * rho) @ x
    return x


# ----------------------------------------------------------------------
# Jacobians, pushforwards, metrics
# ----------------------------------------------------------------------

def chart_jets(chart: Chart, coords):
    """Ambient 2-jet of the chart map at ``coords``: values (4), Jacobian (4x3)
    and second derivatives (4x3x3), real.

    ``coords`` is a point seed (:meth:`Dual.seed`) or a grid seed
    (:meth:`Dual.seed_grid`); a grid's arrays carry its lane axis first.
    """
    return tuple(part.real.copy() for part in dual.arrays(chart.map_fn(coords), 3))


def hyperboloid_residual(chart: Chart, point: Sequence[float]) -> float:
    """|x0^2 - x1^2 - x2^2 - x3^2 + 1| at the chart's embedding of ``point``."""
    x0, x1, x2, x3 = chart.embed(point)
    return abs(x0 ** 2 - x1 ** 2 - x2 ** 2 - x3 ** 2 + 1.0)


def pushforward(case_id: CaseId, points, parameter_a: Optional[float] = None) -> np.ndarray:
    """Chart components v[p, A] of every ambient generator X_A = M_A x at each of
    the ``points``, shape (N, n, 3): v = g^-1 J^T eta (M x), from one grid jet.

    Raises :class:`RankDeficientError` where the induced metric is not of
    signature (+, -, -), as :func:`metric_jet` does, or where some M x is not
    tangent to the chart, naming the first such point.  A valid rectification
    has vanishing u-components.
    """
    chart = chart_for(case_id, parameter_a)
    coords = Dual.seed_grid(dual.columns(points))
    vals, jac, _ = chart_jets(chart, coords)
    ginv = np.linalg.inv(_checked_metric(chart, coords, jac))
    mats = np.array(subalgebra(case_id, parameter_a).generator_matrices())
    amb = np.einsum("Aij,pj->pAi", mats, vals)
    v = np.einsum("pab,pib,i,pAi->pAa", ginv, jac, ETA, amb)
    off = np.max(np.abs(np.einsum("pia,pAa->pAi", jac, v) - amb), axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(~(off <= 1e-8))
    if bad.size:
        raise RankDeficientError(f"{chart.case_id}: ambient generator not tangent at "
                                 f"{np.asarray(points, dtype=float)[bad[0]]}")
    return v


def _signature(g: np.ndarray):
    """(positive, negative) eigenvalue counts of each symmetric part of ``g``."""
    ev = np.linalg.eigvalsh(0.5 * (g + np.swapaxes(g, -1, -2)))
    return np.sum(ev > 0, axis=-1), np.sum(ev < 0, axis=-1)


@dataclass(frozen=True)
class MetricSample:
    """The induced metric, its first derivatives dg[..., c, a, b] = d_c g_ab,
    inverse and sqrt|det| at a point or at every lane of a grid."""

    g: np.ndarray
    dg: np.ndarray
    g_inv: np.ndarray
    sqrt_abs_det: np.ndarray

    def identity_residual(self) -> float:
        return float(np.max(np.abs(self.g @ self.g_inv - np.eye(3))))


def _checked_metric(chart: Chart, coords, jac: np.ndarray) -> np.ndarray:
    """The induced metric g_ab = eta(J_a, J_b) from the chart Jacobian ``jac``
    at ``coords``; raises :class:`RankDeficientError`, naming the entry and the
    first point, where it is not of signature (+, -, -)."""
    g = np.einsum("i,...ia,...ib->...ab", ETA, jac, jac)
    pos, neg = _signature(g)
    bad = np.flatnonzero((pos != 1) | (neg != 2))
    if bad.size:
        n = bad[0]
        points = np.stack(np.broadcast_arrays(*(dual.value(c).real for c in coords)), axis=-1)
        raise RankDeficientError(
            f"{chart.case_id}: induced metric signature ({np.ravel(pos)[n]}, "
            f"{np.ravel(neg)[n]}) at {points.reshape(-1, 3)[n]}; outside chart domain")
    return g


def metric_jet(case_id: CaseId, coords, parameter_a: Optional[float] = None):
    """Induced metric with first derivatives, from one exact chart 2-jet at
    ``coords`` (a point or grid seed, as for :func:`chart_jets`).

    Returns (g, dg, g_inv, sqrtg, dsqrtg, d_ginv) with dg[..., c, a, b] the
    coordinate derivative d_c g_ab.  Raises :class:`RankDeficientError`, naming
    the entry and the first point, where the metric is not of signature
    (+, -, -): such a point lies outside the chart domain.
    """
    chart = chart_for(case_id, parameter_a)
    _, jac, hes = chart_jets(chart, coords)
    g = _checked_metric(chart, coords, jac)
    dg = np.einsum("i,...iac,...ib->...cab", ETA, hes, jac) \
        + np.einsum("i,...ia,...ibc->...cab", ETA, jac, hes)
    ginv = np.linalg.inv(g)
    sqrtg = np.sqrt(np.abs(np.linalg.det(g)))
    # d(det)/dx_c = det * tr(ginv dg); d sqrt|det| = sqrt|det| tr(ginv dg)/2
    tr = np.einsum("...ab,...cba->...c", ginv, dg)
    dsqrtg = 0.5 * sqrtg[..., None] * tr
    dginv = -np.einsum("...ae,...ceb,...bf->...caf", ginv, dg, ginv)
    return g, dg, ginv, sqrtg, dsqrtg, dginv


def induced_metric(case_id: CaseId, coords,
                   parameter_a: Optional[float] = None) -> MetricSample:
    """The induced metric at ``coords``; raises as :func:`metric_jet` does."""
    g, dg, ginv, sqrtg, _, _ = metric_jet(case_id, coords, parameter_a)
    return MetricSample(g, dg, ginv, sqrtg)


def generator_jets(case_id: CaseId, coords, parameter_a: Optional[float] = None):
    """The jets at ``coords`` of every generator's three chart components."""
    return [[fn(coords) for fn in comp] for comp in rect_components(case_id, parameter_a)]


def killing_residual(metric: MetricSample, generators) -> float:
    """Max |(L_X g)_ab| over the generators and points, from the metric and the
    generator-component jets (:func:`generator_jets`) at the same coordinates."""
    xval, dx, _ = dual.arrays([x for comp in generators for x in comp], 3)
    xval = xval.real.reshape(xval.shape[:-1] + (-1, 3))      # [..., A, c] = X_A^c
    dx = dx.real.reshape(dx.shape[:-2] + (-1, 3, 3))         # [..., A, c, a] = d_a X_A^c
    g, dg = metric.g, metric.dg
    # (L_X g)_ab = X^c d_c g_ab + g_cb d_a X^c + g_ac d_b X^c
    lie = np.einsum("...Ac,...cab->...Aab", xval, dg) \
        + np.einsum("...cb,...Aca->...Aab", g, dx) \
        + np.einsum("...ac,...Acb->...Aab", g, dx)
    return float(np.max(np.abs(lie)))

