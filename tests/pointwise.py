"""The per-point route of `verify`'s geometry, field, commutation-fit and
symmetry checks: one point jet per point, read in plain complex arithmetic.

The batched checks in `src` evaluate all points as one grid jet; these loops
are the route they replaced, kept as their oracle
(`test_pointwise_oracle.py`).  An operator applied to a function by the
product rule (`combine1`, `combine2`, `as_function`) is the oracle of the
contractions in `symmetry_check` and `joint_system_residual`.  `DualProbe`
evaluates a `src` probe's function on jets, with its partials taken
symbolically term by term: it is the oracle of the probe's closed-form
derivatives (`PolyExpProbe.derivatives`), and the function that
`as_function` and `symmetry` apply operators to.
`dual_members` composes each closed-form solution basis on point jets, the
oracle of the plain-complex members of `specfun.basis_members`.
"""

import numpy as np

from dskg import dual, specfun
from dskg.cases import case_spec
from dskg.dual import Dual
from dskg.fields import gauge_one_form
from dskg.geometry import ETA, RankDeficientError, chart_for, rect_components
from dskg.operators import PROBE_SEED, DiffOp1, random_probe


class DualProbe:
    """sum_m c_m x^m * exp(d . x), evaluable at dual points, with exact
    symbolic partial derivatives."""

    def __init__(self, terms, dvec):
        self.terms = dict(terms)
        self.dvec = tuple(dvec)

    @classmethod
    def of(cls, probe):
        """The function of a `src` probe, one term per nonzero coefficient of
        its cube."""
        return cls({tuple(int(i) for i in m): complex(probe.c[m])
                    for m in zip(*np.nonzero(probe.c))}, probe.dvec)

    def __call__(self, coords):
        expo = 0.0
        for d, c in zip(self.dvec, coords):
            expo = c * d + expo
        poly, monomials = 0.0, {}
        for powers, coeff in self.terms.items():
            poly = poly + coeff * _monomial(powers, coords, monomials)
        return poly * dual.exp(expo)

    def partial(self, i):
        new = {}

        def add(powers, coeff):
            if coeff != 0:
                new[powers] = new.get(powers, 0j) + coeff

        for powers, coeff in self.terms.items():
            if powers[i] > 0:
                lowered = list(powers)
                lowered[i] -= 1
                add(tuple(lowered), coeff * powers[i])
            add(powers, coeff * self.dvec[i])
        return DualProbe(new, self.dvec)


def _monomial(powers, coords, cache):
    """x^powers at ``coords``: one product with a lower monomial, kept in ``cache``."""
    if not any(powers):
        return 1.0
    if powers not in cache:
        i = max(i for i, p in enumerate(powers) if p)
        lower = powers[:i] + (powers[i] - 1,) + powers[i + 1:]
        cache[powers] = _monomial(lower, coords, cache) * coords[i]
    return cache[powers]


def combine1(op, coords, fv, dfv):
    """(op f) at ``coords`` for a first-order ``op``, from the values ``fv`` of f
    and ``dfv`` of its partials."""
    total = op.scalar(coords) * fv
    for u, a in enumerate(op.coeffs):
        total = total + a(coords) * dfv[u]
    return total


def combine2(op, coords, fv, dfv, d2fv):
    """(op f) at ``coords`` for a second-order ``op``, from the values of f, its
    partials ``dfv`` and its second partials ``d2fv``."""
    total = op.scalar(coords) * fv
    for a in range(op.nvars):
        total = total + op.first[a](coords) * dfv[a]
        for b in range(op.nvars):
            total = total + op.second[a][b](coords) * d2fv[a][b]
    return total


def as_function(op, f):
    """The function (op f), evaluable at dual points; f must expose .partial."""
    partials = [f.partial(u) for u in range(op.nvars)]
    if isinstance(op, DiffOp1):
        return lambda coords: combine1(op, coords, f(coords), [p(coords) for p in partials])
    second_partials = [[p.partial(b) for b in range(op.nvars)] for p in partials]
    return lambda coords: combine2(op, coords, f(coords), [p(coords) for p in partials],
                                   [[p(coords) for p in row] for row in second_partials])


def _seed(point):
    return Dual.seed([complex(p) for p in point])


def metric_at(case, point, a):
    """(g, dg, g^-1) at one point, from its own point jet of the chart map."""
    chart = chart_for(case, a)
    _, jac, hes = (part.real for part in dual.arrays(chart.map_fn(_seed(point)), 3))
    g = np.einsum("i,ia,ib->ab", ETA, jac, jac)
    ev = np.linalg.eigvalsh(0.5 * (g + g.T))
    if (int(np.sum(ev > 0)), int(np.sum(ev < 0))) != (1, 2):
        raise RankDeficientError(f"induced metric signature at {point}")
    dg = np.einsum("i,iac,ib->cab", ETA, hes, jac) + np.einsum("i,ia,ibc->cab", ETA, jac, hes)
    return g, dg, np.linalg.inv(g)


def metric_identity(case, points, a):
    worst = 0.0
    for p in points:
        g, _, ginv = metric_at(case, p, a)
        worst = max(worst, float(np.max(np.abs(g @ ginv - np.eye(3)))))
    return worst


def killing(case, points, a):
    worst = 0.0
    for p in points:
        g, dg, _ = metric_at(case, p, a)
        seeds = _seed(p)
        for comp in rect_components(case, a):
            xval, dx, _ = dual.arrays([fn(seeds) for fn in comp], 3)
            xval, dx = xval.real, dx.real
            lie = np.einsum("c,cab->ab", xval, dg) + np.einsum("cb,ca->ab", g, dx) \
                + np.einsum("ac,cb->ab", g, dx)
            worst = max(worst, float(np.max(np.abs(lie))))
    return worst


def _component(f, a, b, seeds):
    """F_ab of the 2-form ``f`` at ``seeds``, from whichever orientation it stores."""
    if (a, b) in f.entries:
        return f.entries[(a, b)](seeds)
    if (b, a) in f.entries:
        return -f.entries[(b, a)](seeds)
    return 0.0


def _d_form(f, seeds):
    """(dF)_{012} at a point, from the first derivatives of F's components."""
    total = 0.0
    for c, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        total = total + dual.parts(_component(f, a, b, seeds), 3)[1][c]
    return total


def _matrix(f, seeds):
    return dual.arrays([_component(f, a, b, seeds) for a in range(3) for b in range(3)],
                       3)[0].reshape(3, 3)


def _interior(x_comp, f, seeds):
    xv = [fn(seeds) for fn in x_comp]
    out = []
    for b in range(3):
        total = 0.0
        for a in range(3):
            comp = _component(f, a, b, seeds)
            if not dual.is_zero(comp):
                total = total + comp * xv[a]
        out.append(total)
    return out


def _d_one_form(w):
    grads = dual.arrays(w, 3)[1]
    return grads.T - grads


def closedness(f, points):
    return max(abs(_d_form(f, _seed(p))) for p in points)


def invariance(case, f, points, a):
    worst = 0.0
    for p in points:
        seeds = _seed(p)
        t = _d_form(f, seeds)
        for comp in rect_components(case, a):
            m = _d_one_form(_interior(comp, f, seeds))
            x = [dual.value(fn(seeds)) for fn in comp]
            m[1, 2] += t * x[0]
            m[2, 1] -= t * x[0]
            m[2, 0] += t * x[1]
            m[0, 2] -= t * x[1]
            m[0, 1] += t * x[2]
            m[1, 0] -= t * x[2]
            worst = max(worst, float(np.max(np.abs(m))))
    return worst


def gauge(case, cfg, f, points):
    a = gauge_one_form(case, cfg)
    return max(float(np.max(np.abs(_d_one_form([c(_seed(p)) for c in a])
                                   - _matrix(f, _seed(p)))))
               for p in points)


def chi(case, cfg, f, points, chi_extra):
    worst = 0.0
    comps = rect_components(case, cfg.parameter_a)
    chis = case_spec(case).field.chi(cfg)
    for p in points:
        seeds = _seed(p)
        for A, (comp, fn) in enumerate(zip(comps, chis)):
            jet = fn(seeds)
            if chi_extra is not None and chi_extra[A] is not None:
                jet = jet + chi_extra[A](seeds)
            w = dual.arrays(_interior(comp, f, seeds), 3)[0]
            grad = dual.arrays([jet], 3)[1][0]
            worst = max(worst, float(np.max(np.abs(grad + w))))
    return worst


def commutator_at(op_a, op_b, point):
    k = op_a.nvars
    seeds = _seed(point)

    def jets(op):
        vals, grads, _ = dual.arrays([fn(seeds) for fn in op.coeffs + [op.scalar]], k)
        return vals, grads

    av, ag = jets(op_a)
    bv, bg = jets(op_b)
    coeffs = np.array([np.dot(av[:k], bg[mu]) - np.dot(bv[:k], ag[mu]) for mu in range(k)])
    return coeffs, np.dot(av[:k], bg[k]) - np.dot(bv[:k], ag[k])


def table_fit(ops, probes, central_scalar, tol=1e-9):
    """(residual, structure, central) of the least-squares commutator fit."""
    n, k = len(ops), ops[0].nvars
    structure, central = np.zeros((n, n, n)), np.zeros((n, n))
    worst = 0.0
    rows = []
    for pt in probes:
        cols = [[dual.value(c(list(pt))) for c in op.coeffs] + [dual.value(op.scalar(list(pt)))]
                for op in ops]
        cols.append([0j] * k + [central_scalar])
        rows.append(np.array(cols, dtype=complex).T)
    m = np.vstack(rows)
    for A in range(n):
        for B in range(A + 1, n):
            b = np.concatenate([np.concatenate([c, [s]])
                                for c, s in (commutator_at(ops[A], ops[B], pt)
                                             for pt in probes)])
            sol, *_ = np.linalg.lstsq(m, b, rcond=None)
            worst = max(worst, float(np.max(np.abs(m @ sol - b))))
            if float(np.max(np.abs(sol.imag))) > max(tol, 1e-9):
                worst = max(worst, float(np.max(np.abs(sol.imag))))
            structure[A, B], structure[B, A] = sol[:n].real, -sol[:n].real
            central[A, B], central[B, A] = sol[n].real, -sol[n].real
    return worst, structure, central


def symmetry(h, ops, points, n_probes):
    """symmetry_check with the jets of f, its partials and H f evaluated once
    per probe and point and shared by every operator."""
    rng = np.random.default_rng(PROBE_SEED)
    worst = 0.0
    for _ in range(n_probes):
        f = DualProbe.of(random_probe(rng))
        partials = [f.partial(a) for a in range(3)]
        second_partials = [[p.partial(b) for b in range(3)] for p in partials]
        for pt in points:
            seeds = Dual.seed(pt)
            fv = f(seeds)
            dfv = [p(seeds) for p in partials]
            hf = combine2(h, seeds, fv, dfv, [[p(seeds) for p in row] for row in second_partials])
            for op in ops:
                lhs, _ = h.apply_jet(combine1(op, seeds, fv, dfv), h.values(pt))
                rhs = op.apply_jet(hf, op.values(pt))
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    return worst


def solution_jet(fn, v):
    """The 2-jet (f, f', f'') at v of a function of one point jet."""
    val, grad, hess = dual.parts(fn(Dual.seed([v])[0]), 1)
    return val, grad[0], hess[0][0]


def dual_members(record):
    """(phi1, phi2) of a closed-form basis, from its record, as functions of
    a point jet v: each evaluator is lifted onto the jet of its argument, and
    the prefactor is multiplied on in `Dual` arithmetic."""
    kind = record["kind"]
    if kind == "whittaker":
        alpha, beta, scale = record["alpha"], record["beta"], record["z_scale"]
        return tuple(lambda v, fn=fn: fn(alpha, beta, v * scale)
                     for fn in (specfun.whittaker_m, specfun.whittaker_w))
    if kind == "bessel":
        order, scale = record["order"], record["argument_scale"]
        return tuple(lambda v, fn=fn: dual.exp(v) * fn(order, dual.exp(v) * scale)
                     for fn in (specfun.bessel_j, specfun.bessel_y))
    nu, sigma = record["nu"], record["sigma"]
    if record["argument"] == "tanh(v)":
        return tuple(lambda v, fn=fn: fn(nu, sigma, dual.tanh(v)) / dual.cosh(v)
                     for fn in (specfun.legendre_p, specfun.legendre_q))
    return tuple(lambda v, fn=fn: fn(nu, sigma, dual.cos(v)) / dual.power(dual.sin(v), 0.5)
                 for fn in (specfun.legendre_p, specfun.legendre_q))
