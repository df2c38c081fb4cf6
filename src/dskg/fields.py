"""Invariant electromagnetic data on the rectifying charts.

For every catalog entry this module wraps the registry's generic closed
2-form left invariant by the entry's generators, a gauge potential with
dA = F, and the scalar functions chi_A solving d chi_A = -i_{X_A} F (the
formulas live in :mod:`dskg.cases`).  The chi normalization constants are
fixed so the resulting symmetry operators reproduce the tabulated
commutation relations, including the central charges.

Arbitrary profile functions f1, f2 (allowed for the low-dimensional entries)
are supplied by the caller as dual-evaluable callables; defaults suitable for
tests are installed automatically.  Where a gauge needs an antiderivative of
a profile, the config carries it alongside, and a caller's own profile
without it is rejected at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import dual
from .cases import CaseId, case_spec, resolve
from .dual import Dual
from .geometry import rect_components
from .lie_core import Cocycle, subalgebra

ZETA_CONFORMAL = 1.0 / 6.0
FORM_TOL = 1e-10


@dataclass
class FieldConfig:
    """Electromagnetic data for one catalog entry."""

    case_id: CaseId
    mu: float = 0.3
    mu1: float = 0.3
    mu2: float = 0.3
    e: float = 0.1
    m: float = 0.5
    zeta: float = 0.0
    parameter_a: Optional[float] = None
    f1: Optional[Callable] = None
    f2: Optional[Callable] = None
    f1_antideriv: Optional[Callable] = None
    f2_antideriv: Optional[Callable] = None

    def __post_init__(self):
        spec, self.parameter_a = resolve(self.case_id, self.parameter_a)
        self.case_id = spec.case_id
        if not (abs(self.zeta) < 1e-14 or abs(self.zeta - ZETA_CONFORMAL) < 1e-14):
            raise ValueError("zeta must be 0 (minimal) or 1/6 (conformal coupling)")
        defaults = spec.field.profiles
        for name in ("f1", "f2"):
            anti = f"{name}_antideriv"
            if getattr(self, name) is None:
                setattr(self, name, getattr(defaults, name))
                if getattr(self, anti) is None:
                    setattr(self, anti, getattr(defaults, anti))
            elif getattr(self, anti) is None and getattr(defaults, anti) is not None:
                raise ValueError(f"{self.case_id.value}: a custom {name} needs {anti}, "
                                 "the antiderivative its gauge potential uses")

    @property
    def mass_term(self) -> float:
        # scalar curvature of the unit hyperboloid is 6
        return self.m ** 2 + 6.0 * self.zeta

    def to_dict(self) -> dict:
        return {
            "case": self.case_id.value,
            "mu": self.mu, "mu1": self.mu1, "mu2": self.mu2,
            "e": self.e, "m": self.m, "zeta": self.zeta,
            "parameter_a": self.parameter_a,
            "gauge": "reference",
        }


class TwoForm:
    """Antisymmetric field tensor; entries are dual-evaluable callables."""

    def __init__(self, entries: dict[tuple[int, int], Callable]):
        self.entries = dict(entries)

    def component(self, a: int, b: int, coords):
        if a == b:
            return 0.0
        if (a, b) in self.entries:
            return self.entries[(a, b)](coords)
        if (b, a) in self.entries:
            return -self.entries[(b, a)](coords)
        return 0.0

    def matrix(self, point: Sequence[float]) -> np.ndarray:
        seeds = Dual.seed([complex(p) for p in point])
        jets = [self.component(a, b, seeds) for a in range(3) for b in range(3)]
        return dual.arrays(jets, 3)[0].reshape(3, 3)

    def exterior_derivative(self, coords):
        """The single independent component (dF)_{012} at possibly-dual coords."""
        permutations = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        total = 0.0
        for c, a, b in permutations:
            total = total + dual.partial(self.component(a, b, coords), c)
        return total

    def closedness_residual(self, point: Sequence[float]) -> float:
        seeds = Dual.seed([complex(p) for p in point])
        return abs(dual.value(self.exterior_derivative(seeds)))

    def antisymmetry_residual(self, point: Sequence[float]) -> float:
        m = self.matrix(point)
        return float(np.max(np.abs(m + m.T)))

    def perturbed(self, entry: tuple[int, int], extra: Callable) -> "TwoForm":
        new = dict(self.entries)
        base = new.get(entry)
        if base is None:
            new[entry] = extra
        else:
            new[entry] = lambda c, b=base, x=extra: b(c) + x(c)
        return TwoForm(new)


def _d_one_form(w) -> np.ndarray:
    """(dw)_ab = d_a w_b - d_b w_a of a 1-form given by the jets of its components."""
    grads = dual.arrays(w, 3)[1]  # grads[b, a] = d_a w_b
    return grads.T - grads


class OneForm:
    """Gauge potential; components are dual-evaluable callables."""

    def __init__(self, components: Sequence[Callable]):
        self.components = list(components)

    def values(self, coords):
        return [c(coords) for c in self.components]

    def d(self, point: Sequence[float]) -> np.ndarray:
        """(dA)_ab at a real point, by exact differentiation."""
        return _d_one_form(self.values(Dual.seed([complex(p) for p in point])))


def invariant_two_form(case_id: CaseId, config: FieldConfig) -> TwoForm:
    """The generic closed invariant 2-form of one catalog entry."""
    return TwoForm(case_spec(case_id).field.two_form(config))


def gauge_one_form(case_id: CaseId, config: FieldConfig) -> OneForm:
    """A gauge potential with dA = F for any catalog entry."""
    return OneForm(case_spec(case_id).field.gauge(config))


def potential(case_id: CaseId, config: FieldConfig) -> OneForm:
    """The reference gauge of the five integrable entries."""
    if case_spec(case_id).integration is None:
        raise ValueError(f"no reference potential for {CaseId(case_id)}")
    return gauge_one_form(case_id, config)


def solve_chi(case_id: CaseId, config: FieldConfig) -> list[Callable]:
    """Closed-form chi_A with d chi_A = -i_{X_A} F, one per generator."""
    return case_spec(case_id).field.chi(config)


# ----------------------------------------------------------------------
# pointwise checks
# ----------------------------------------------------------------------

def interior_product(x_comp: Sequence[Callable], f: TwoForm, coords):
    """(i_X F)_b = F_ab X^a as a list of three dual scalars."""
    xv = [fn(coords) for fn in x_comp]
    out = []
    for b in range(3):
        total = 0.0
        for a in range(3):
            comp = f.component(a, b, coords)
            if not dual.is_zero(comp):
                total = total + comp * xv[a]
        out.append(total)
    return out


def lie_derivative(x_comp: Sequence[Callable], f: TwoForm,
                   point: Sequence[float]) -> np.ndarray:
    """(L_X F)_ab = d(i_X F)_ab + (i_X dF)_ab at a real point."""
    seeds = Dual.seed([complex(p) for p in point])
    m = _d_one_form(interior_product(x_comp, f, seeds))
    t = dual.value(f.exterior_derivative(seeds))
    if t != 0:
        xv = [dual.value(fn(seeds)) for fn in x_comp]
        # (i_X dF)_{bc} = T eps_{abc} X^a with T = (dF)_{012}
        m[1, 2] += t * xv[0]
        m[2, 1] -= t * xv[0]
        m[2, 0] += t * xv[1]
        m[0, 2] -= t * xv[1]
        m[0, 1] += t * xv[2]
        m[1, 0] -= t * xv[2]
    return m


def invariance_residual(case_id: CaseId, config: FieldConfig,
                        point: Sequence[float], f: Optional[TwoForm] = None) -> float:
    """Max |L_{X_A} F| over the entry's generators at one point."""
    f = f or invariant_two_form(case_id, config)
    comps = rect_components(case_id, config.parameter_a)
    worst = 0.0
    for comp in comps:
        worst = max(worst, float(np.max(np.abs(lie_derivative(comp, f, point)))))
    return worst


def chi_residual(case_id: CaseId, config: FieldConfig, point: Sequence[float],
                 chi_extra: Optional[Sequence[Optional[Callable]]] = None) -> float:
    """Max |d chi_A + i_{X_A} F| over generators at one point.

    ``chi_extra`` adds perturbations to the chi functions, as in
    :func:`dskg.operators.symmetry_operators`.
    """
    f = invariant_two_form(case_id, config)
    comps = rect_components(case_id, config.parameter_a)
    chis = solve_chi(case_id, config)
    seeds = Dual.seed([complex(p) for p in point])
    worst = 0.0
    for A, (comp, chi) in enumerate(zip(comps, chis)):
        jet = chi(seeds)
        if chi_extra is not None and chi_extra[A] is not None:
            jet = jet + chi_extra[A](seeds)
        w = dual.arrays(interior_product(comp, f, seeds), 3)[0]
        grad = dual.arrays([jet], 3)[1][0]
        worst = max(worst, float(np.max(np.abs(grad + w))))
    return worst


def gauge_residual(case_id: CaseId, config: FieldConfig, point: Sequence[float],
                   one_form: Optional[OneForm] = None) -> float:
    """|dA - F| at one point for the entry's gauge."""
    a = one_form or gauge_one_form(case_id, config)
    f = invariant_two_form(case_id, config)
    return float(np.max(np.abs(a.d(point) - f.matrix(point))))


def cocycle_from_config(case_id: CaseId, config: FieldConfig,
                        points: Sequence[Sequence[float]],
                        tol: float = FORM_TOL) -> Cocycle:
    """Central-charge matrix F(X_A, X_B) - C_AB^C chi_C, checked constant."""
    case_id = CaseId(case_id)
    sub = subalgebra(case_id, config.parameter_a)
    f = invariant_two_form(case_id, config)
    comps = rect_components(case_id, config.parameter_a)
    chis = solve_chi(case_id, config)
    n = sub.dim
    samples = []
    for point in points:
        seeds = Dual.seed([complex(p) for p in point])
        xv = [[dual.value(fn(seeds)) for fn in comp] for comp in comps]
        chiv = [dual.value(chi(seeds)) for chi in chis]
        fm = f.matrix(point)
        mat = np.zeros((n, n), dtype=complex)
        for A in range(n):
            for B in range(n):
                pair = np.dot(np.array(xv[A]), fm @ np.array(xv[B]))
                shift = np.dot(sub.algebra.structure_constants[A, B], chiv)
                mat[A, B] = pair - shift
        samples.append(mat)
    stack = np.array(samples)
    spread = float(np.max(np.abs(stack - stack[0]))) if len(samples) > 1 else 0.0
    if spread > tol:
        raise RuntimeError(f"cocycle candidates vary across points by {spread:.3e}")
    mean = stack.mean(axis=0)
    if float(np.max(np.abs(mean.imag))) > tol:
        raise RuntimeError("cocycle has a spurious imaginary part")
    return Cocycle(mean.real)
