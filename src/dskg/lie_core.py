"""Lie-algebraic core: so(1,3), its inequivalent subalgebras, central extensions.

The ambient basis consists of the six isometry generators of the unit
hyperboloid x0^2 - x1^2 - x2^2 - x3^2 = -1, realized as linear vector fields

    J_ij = x_j d/dx^i - x_i d/dx^j          (indices lowered with
                                             eta = diag(1,-1,-1,-1))

This is the sign convention under which the catalog's generator combinations
reproduce the rectified-field components of the charts in
:mod:`dskg.geometry`.

A subalgebra entry is the span of its generators, coefficient rows over
(J01, J02, J03, J12, J13, J23) read from the registry in :mod:`dskg.cases`.
Its structure constants are derived, not stored: each pair of rows is
bracketed with the constants of so(1,3), and the bracket is read back at each
row's own unit column.  An entry whose brackets leave the span of its rows is
refused.  On top
of that the module provides the one-dimensional central extensions realized by
first-order symmetry operators: a cocycle is an antisymmetric (n, n) array F,
and the extension by F is again a :class:`LieAlgebraSpec`, of dimension n + 1
with the central element last.  Then come the coboundary test, the algebra
index computed from coadjoint ranks, and the noncommutative-integrability
count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .cases import (ALL_CASES, INTEGRABLE_CASES, PARAMETERIZED_CASES,  # noqa: F401
                    CaseId, case_spec, resolve)

AMBIENT_LABELS = ("J01", "J02", "J03", "J12", "J13", "J23")
_AMBIENT_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
ETA = np.diag([1.0, -1.0, -1.0, -1.0])

JACOBI_TOL = 1e-12
CLOSURE_TOL = 1e-12
COBOUNDARY_TOL = 1e-10
RANK_THRESHOLD = 1e-10
INDEX_SAMPLES = 200
INDEX_SEED = 20813
MANIFOLD_DIM = 3    # dS_3


def ambient_matrices() -> list[np.ndarray]:
    """The six generators as 4x4 matrices M with field components X^i = M[i,j] x^j."""
    mats = []
    for i, j in _AMBIENT_PAIRS:
        m = np.zeros((4, 4))
        m[i, j] += ETA[j, j]
        m[j, i] -= ETA[i, i]
        mats.append(m)
    return mats


def _bracket_matrix(ma: np.ndarray, mb: np.ndarray) -> np.ndarray:
    # linear fields X = A x, Y = B x have [X, Y] = (B A - A B) x
    return mb @ ma - ma @ mb


@dataclass(frozen=True, eq=False)
class LieAlgebraSpec:
    structure_constants: np.ndarray  # C[A, B, C], antisymmetric in (A, B)

    @property
    def dim(self) -> int:
        return self.structure_constants.shape[0]

    def antisymmetry_residual(self) -> float:
        c = self.structure_constants
        return float(np.max(np.abs(c + np.swapaxes(c, 0, 1))))

    def jacobi_residual(self) -> float:
        c = self.structure_constants
        t1 = np.einsum("abd,dce->abce", c, c)
        total = t1 + np.einsum("bcd,dae->abce", c, c) + np.einsum("cad,dbe->abce", c, c)
        return float(np.max(np.abs(total))) if self.dim else 0.0

    def validate(self) -> None:
        c = self.structure_constants
        if c.shape != (self.dim,) * 3:
            raise ValueError("structure constant array has wrong shape")
        # both identities are homogeneous in C, so they are checked on C scaled
        # to at most 1: a large family parameter cannot overflow them, and a
        # residual that is not finite fails
        scaled = LieAlgebraSpec(c / max(1.0, float(np.max(np.abs(c)))))
        if not scaled.antisymmetry_residual() <= JACOBI_TOL:
            raise ValueError("structure constants not antisymmetric")
        if not scaled.jacobi_residual() <= JACOBI_TOL:
            raise ValueError("Jacobi identity violated")


@functools.cache
def so13_algebra() -> LieAlgebraSpec:
    """The 6-dimensional isometry algebra with exactly computed constants."""
    mats = ambient_matrices()
    basis = np.stack([m.ravel() for m in mats]).T  # 16 x 6
    c = np.zeros((6, 6, 6))
    for A in range(6):
        for B in range(6):
            br = _bracket_matrix(mats[A], mats[B]).ravel()
            coef, res, *_ = np.linalg.lstsq(basis, br, rcond=None)
            c[A, B] = np.round(coef)  # constants are exact small integers
    spec = LieAlgebraSpec(c)
    spec.validate()
    return spec


@dataclass(frozen=True, eq=False)
class SubalgebraSpec:
    case_id: CaseId
    parameter_a: Optional[float]
    generator_coeffs: np.ndarray  # n x 6 over AMBIENT_LABELS
    algebra: LieAlgebraSpec

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def generator_matrices(self) -> list[np.ndarray]:
        mats = ambient_matrices()
        return [sum(c * m for c, m in zip(row, mats)) for row in self.generator_coeffs]

    def to_dict(self) -> dict:
        return {
            "id": self.case_id.value,
            "parameter": self.parameter_a,
            "generators": self.generator_coeffs.tolist(),
            "structure_constants": [
                [int(A) + 1, int(B) + 1, self.algebra.structure_constants[A, B].tolist()]
                for A in range(self.dim)
                for B in range(A + 1, self.dim)
                if np.any(self.algebra.structure_constants[A, B] != 0)
            ],
        }


def derive_structure(rows: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """The structure constants C[A, B, C] of the span of ``rows`` (n x 6 over
    AMBIENT_LABELS), and how far each bracket [X_A, X_B] leaves that span.

    The so(1,3) bracket of each pair of rows is read at each row's own unit
    column, where that row is 1 and every other row is 0; a row without one
    is refused, naming ``label``.  The span closes when every residual is at
    most CLOSURE_TOL."""
    unit = (rows == 1.0) & (np.count_nonzero(rows, axis=0) == 1)
    missing = np.flatnonzero(~unit.any(axis=1))
    if missing.size:
        raise ValueError(f"{label}: generator row X{missing[0] + 1} has no unit column")
    brackets = np.einsum("ai,ijk,bj->abk", rows, so13_algebra().structure_constants, rows)
    c = brackets[:, :, unit.argmax(axis=1)]
    return c, np.max(np.abs(brackets - c @ rows), axis=2)


def subalgebra(case_id: CaseId, a: Optional[float] = None) -> SubalgebraSpec:
    """One catalog entry; ``a`` required (and positive) for the two families."""
    spec, a = resolve(case_id, a)
    coeffs = np.array(spec.generators(a), dtype=float)
    c, off_span = derive_structure(coeffs, spec.case_id.value)
    A, B = np.unravel_index(np.argmax(off_span), off_span.shape)
    if not off_span[A, B] <= CLOSURE_TOL:
        raise ValueError(f"{spec.case_id}: [X{A + 1}, X{B + 1}] leaves the span of the "
                         f"generator rows by {off_span[A, B]:.3g}")
    alg = LieAlgebraSpec(c)
    alg.validate()
    return SubalgebraSpec(spec.case_id, a, coeffs, alg)


def standard_cocycle(case_id: CaseId, mu: float = 1.0) -> np.ndarray:
    """Central charge of the symmetry-operator extension for a generic field.

    Only the entries whose registry spec marks a magnetic pair (the
    translation pairs) pick up the magnetic charge mu; every other entry
    extends trivially.  Cross-checked numerically against the field-level
    construction in :mod:`dskg.fields`.
    """
    spec = case_spec(case_id)
    n = spec.dim
    f = np.zeros((n, n))
    if spec.magnetic_pair:
        f[0, 1] = mu
        f[1, 0] = -mu
    return f


def extend(base: LieAlgebraSpec, F: np.ndarray) -> LieAlgebraSpec:
    """The central extension of ``base`` by the cocycle ``F``, with the central
    element last.  Its antisymmetry and Jacobi residuals are the base's plus
    F's antisymmetry and cocycle identity, so one validation checks all four."""
    n = base.dim
    c = np.zeros((n + 1, n + 1, n + 1))
    c[:n, :n, :n] = base.structure_constants
    c[:n, :n, n] = F
    ext = LieAlgebraSpec(c)
    ext.validate()
    return ext


def coboundary_solve(alg: LieAlgebraSpec,
                     F: np.ndarray) -> tuple[Optional[np.ndarray], float]:
    """Solve F_AB = C_AB^C lambda_C in least squares; (shift, residual).

    Returns (lambda, residual) with lambda = None when the system has no
    solution, i.e. the cocycle is nontrivial.
    """
    upper = np.triu_indices(alg.dim, 1)  # the pairs A < B, row by row
    m, b = alg.structure_constants[upper], F[upper]
    if not len(b):
        return np.zeros(alg.dim), 0.0
    lam, *_ = np.linalg.lstsq(m, b, rcond=None)
    residual = float(np.max(np.abs(m @ lam - b)))
    if residual < COBOUNDARY_TOL:
        return lam, residual
    return None, residual


def coboundary_shift(alg: LieAlgebraSpec, F: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The transformed cocycle F'_AB = F_AB - C_AB^C lambda_C."""
    return F - np.einsum("abc,c->ab", alg.structure_constants, lam)


def coadjoint_singular_values(ext: LieAlgebraSpec) -> np.ndarray:
    """Singular values of the coadjoint matrices C_AB^C f_C, one row per probe
    covector f: all ones, the unit covectors, then INDEX_SAMPLES uniform draws
    seeded with INDEX_SEED."""
    n1 = ext.dim
    rng = np.random.default_rng(INDEX_SEED)
    probes = np.vstack([np.ones(n1), np.eye(n1),
                        rng.uniform(-1.0, 1.0, size=(INDEX_SAMPLES, n1))])
    mats = np.einsum("abc,pc->pab", ext.structure_constants, probes)
    return np.linalg.svd(mats, compute_uv=False)


def index(ext: LieAlgebraSpec) -> int:
    """dim of the extension minus the generic coadjoint rank, by sampling."""
    sv = coadjoint_singular_values(ext)
    # a zero matrix has rank 0: none of its values exceeds RANK_THRESHOLD * 0
    return ext.dim - int(np.max(np.sum(sv > RANK_THRESHOLD * sv[:, :1], axis=1)))


class IntegrabilityRecord(NamedTuple):
    """One row of Table 3; its fields are the table's columns."""

    dim: int
    ind: int
    s: int
    l: int
    m_tilde: int
    integrable: bool


def integrability_check(ext: LieAlgebraSpec) -> IntegrabilityRecord:
    """The Table 3 row of the extension on the MANIFOLD_DIM-dimensional
    hyperboloid."""
    dim = ext.dim
    ind = index(ext)
    if (dim - ind) % 2 != 0:
        raise RuntimeError(f"index parity violated: dim = {dim}, ind = {ind}")
    s = (dim - ind) // 2
    l = ind - 1
    m_tilde = MANIFOLD_DIM - (dim + ind) // 2 + 1
    return IntegrabilityRecord(dim, ind, s, l, m_tilde, dim + ind >= 2 * MANIFOLD_DIM)


def case_extension(case_id: CaseId, mu: float = 1.0, a: float = 1.0) -> LieAlgebraSpec:
    return extend(subalgebra(case_id, a).algebra, standard_cocycle(case_id, mu))


def table3(mu: float = 1.0, a: float = 1.0) -> dict[CaseId, IntegrabilityRecord]:
    """Computed classification table over the whole catalog."""
    return {case: integrability_check(case_extension(case, mu, a)) for case in ALL_CASES}


def table3_diff(table: dict[CaseId, IntegrabilityRecord]) -> dict[CaseId, dict]:
    """Discrepancies of a computed :func:`table3` against the reference rows,
    empty when everything matches.

    The reference rows live in the registry; the G41 row is a documented
    mismatch there.
    """
    out = {}
    for case, rec in table.items():
        ref = case_spec(case).table3_reference
        if rec != ref:
            out[case] = {"computed": rec, "reference": ref}
    return out

