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
from .geometry import generator_jets
from .lie_core import subalgebra

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

    def jets(self, coords):
        """The nine components F_ab at ``coords`` (a point or grid seed), as a
        nested list of jets; the checks below read them.  Each stored entry is
        evaluated once and its negation fills the mirrored slot."""
        form = [[0.0] * 3 for _ in range(3)]
        for (a, b), fn in self.entries.items():
            jet = fn(coords)
            form[a][b], form[b][a] = jet, -jet
        return form

    def matrix(self, coords) -> np.ndarray:
        """F_ab values at ``coords``, with a grid's lane axis first."""
        return _form_values(self.jets(coords))


def _form_values(form) -> np.ndarray:
    vals = dual.arrays([x for row in form for x in row], 3)[0]
    return vals.reshape(vals.shape[:-1] + (3, 3))


def _d_one_form(w) -> np.ndarray:
    """(dw)_ab = d_a w_b - d_b w_a of a 1-form given by the jets of its components."""
    grads = dual.arrays(w, 3)[1]  # grads[..., b, a] = d_a w_b
    return np.swapaxes(grads, -1, -2) - grads


def invariant_two_form(case_id: CaseId, config: FieldConfig) -> TwoForm:
    """The generic closed invariant 2-form of one catalog entry."""
    return TwoForm(case_spec(case_id).field.two_form(config))


def gauge_one_form(case_id: CaseId, config: FieldConfig) -> list[Callable]:
    """A gauge potential with dA = F for any catalog entry: its three
    components as dual-evaluable callables."""
    return case_spec(case_id).field.gauge(config)


def solve_chi(case_id: CaseId, config: FieldConfig,
              chi_extra: Optional[Sequence[Optional[Callable]]] = None) -> list[Callable]:
    """Closed-form chi_A with d chi_A = -i_{X_A} F, one per generator.

    ``chi_extra`` adds an evaluable perturbation to each chi_A that has one,
    to show that a broken defining equation is detected.
    """
    chis = case_spec(case_id).field.chi(config)
    if chi_extra is None:
        return chis
    return [chi if extra is None else (lambda c, chi=chi, extra=extra: chi(c) + extra(c))
            for chi, extra in zip(chis, chi_extra)]


# ----------------------------------------------------------------------
# checks on jets evaluated at a point or grid seed
# ----------------------------------------------------------------------

def exterior_derivative(form):
    """The single independent component (dF)_{012} of the 2-form with
    component jets ``form`` (:meth:`TwoForm.jets`)."""
    total = 0.0
    for c, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        total = total + dual.partial(form[a][b], c)
    return total


def closedness_residual(d_form) -> float:
    """Max |dF| over the points, from the jet ``d_form`` of (dF)_{012}
    (:func:`exterior_derivative`)."""
    return float(np.max(np.abs(dual.value(d_form))))


def interior_product(x, form):
    """(i_X F)_b = F_ab X^a as a list of three jets, from the component jets
    ``x`` of the vector field and ``form`` of the 2-form."""
    out = []
    for b in range(3):
        total = 0.0
        for a in range(3):
            comp = form[a][b]
            if not dual.is_zero(comp):
                total = total + comp * x[a]
        out.append(total)
    return out


_EPS = np.zeros((3, 3, 3))
_EPS[0, 1, 2] = _EPS[1, 2, 0] = _EPS[2, 0, 1] = 1.0
_EPS[0, 2, 1] = _EPS[2, 1, 0] = _EPS[1, 0, 2] = -1.0


def lie_derivative(x, x_form, d_form) -> np.ndarray:
    """(L_X F)_ab = d(i_X F)_ab + (i_X dF)_ab from the component jets ``x`` of
    the vector field, ``x_form`` of i_X F (:func:`interior_product`) and
    ``d_form`` of dF (:func:`exterior_derivative`), with a grid's lane axis
    first."""
    m = _d_one_form(x_form)
    if dual.is_zero(d_form):
        return m
    # (i_X dF)_{bc} = T eps_{abc} X^a with T = (dF)_{012}
    eps_x = np.einsum("abc,...a->...bc", _EPS, dual.arrays(x, 3)[0])
    return m + np.asarray(dual.value(d_form))[..., None, None] * eps_x


def invariance_residual(generators, interiors, d_form) -> float:
    """Max |L_{X_A} F| over the generators and points, from the generator
    component jets (:func:`dskg.geometry.generator_jets`), the jets of each
    i_{X_A} F and of dF."""
    return max(float(np.max(np.abs(lie_derivative(x, x_form, d_form))))
               for x, x_form in zip(generators, interiors))


def chi_residual(chis, interiors) -> float:
    """Max |d chi_A + i_{X_A} F| over the generators and points, from the jets
    of each chi_A (:func:`solve_chi`) and of each i_{X_A} F
    (:func:`interior_product`)."""
    worst = 0.0
    for chi, x_form in zip(chis, interiors):
        w = dual.arrays(x_form, 3)[0]
        grad = dual.arrays([chi], 3)[1][..., 0, :]
        worst = max(worst, float(np.max(np.abs(grad + w))))
    return worst


def gauge_residual(gauge, form) -> float:
    """Max |dA - F| from the component jets ``gauge`` of the potential
    (:func:`gauge_one_form`) and ``form`` of the 2-form."""
    return float(np.max(np.abs(_d_one_form(gauge) - _form_values(form))))


def cocycle_from_config(case_id: CaseId, config: FieldConfig,
                        points: Sequence[Sequence[float]]) -> np.ndarray:
    """Central-charge matrix F(X_A, X_B) - C_AB^C chi_C, constant to FORM_TOL."""
    case_id = CaseId(case_id)
    sub = subalgebra(case_id, config.parameter_a)
    n, dim = len(points), sub.dim
    coords = Dual.seed_grid(dual.columns(points))
    xv = dual.arrays([x for comp in generator_jets(case_id, coords, config.parameter_a)
                      for x in comp], 3)[0]
    xv = xv.reshape(xv.shape[:-1] + (dim, 3))
    chiv = dual.arrays([chi(coords) for chi in solve_chi(case_id, config)], 3)[0]
    fm = invariant_two_form(case_id, config).matrix(coords)
    pair = np.einsum("...Aa,...ab,...Bb->...AB", xv, fm, xv)
    shift = np.einsum("ABC,...C->...AB", sub.algebra.structure_constants, chiv)
    stack = np.broadcast_to(pair - shift, (n, dim, dim))
    spread = float(np.max(np.abs(stack - stack[0])))
    if spread > FORM_TOL:
        raise RuntimeError(f"cocycle candidates vary across points by {spread:.3e}")
    mean = stack.mean(axis=0)
    if float(np.max(np.abs(mean.imag))) > FORM_TOL:
        raise RuntimeError("cocycle has a spurious imaginary part")
    return mean.real
