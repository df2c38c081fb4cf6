"""Lie-algebraic core: so(1,3), its inequivalent subalgebras, central extensions.

The ambient basis consists of the six isometry generators of the unit
hyperboloid x0^2 - x1^2 - x2^2 - x3^2 = -1, realized as linear vector fields

    J_ij = x_j d/dx^i - x_i d/dx^j          (indices lowered with
                                             eta = diag(1,-1,-1,-1))

This is the sign convention under which the catalog's generator combinations
reproduce both their stored commutation relations and the rectified-field
components of the charts in :mod:`dskg.geometry`.

A subalgebra entry stores its generators as coefficient rows over
(J01, J02, J03, J12, J13, J23) together with its structure constants, both
read from the registry in :mod:`dskg.cases`.  On top
of that the module provides the one-dimensional central extensions realized by
first-order symmetry operators: cocycles, the coboundary test, the algebra
index computed from coadjoint ranks, and the noncommutative-integrability
count.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class LieAlgebraSpec:
    dim: int
    structure_constants: np.ndarray  # C[A, B, C], antisymmetric in (A, B)
    basis_labels: tuple[str, ...]

    def antisymmetry_residual(self) -> float:
        c = self.structure_constants
        return float(np.max(np.abs(c + np.swapaxes(c, 0, 1))))

    def jacobi_residual(self) -> float:
        c = self.structure_constants
        t1 = np.einsum("abd,dce->abce", c, c)
        total = t1 + np.einsum("bcd,dae->abce", c, c) + np.einsum("cad,dbe->abce", c, c)
        return float(np.max(np.abs(total))) if self.dim else 0.0

    def validate(self, tol: float = JACOBI_TOL) -> None:
        if self.structure_constants.shape != (self.dim,) * 3:
            raise ValueError("structure constant array has wrong shape")
        if self.antisymmetry_residual() > tol:
            raise ValueError("structure constants not antisymmetric")
        if self.jacobi_residual() > tol:
            raise ValueError("Jacobi identity violated")


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
    spec = LieAlgebraSpec(6, c, AMBIENT_LABELS)
    spec.validate()
    return spec


@dataclass(frozen=True)
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


def _structure(n: int, entries: dict[tuple[int, int], list[float]]) -> np.ndarray:
    c = np.zeros((n, n, n))
    for (A, B), vec in entries.items():
        c[A, B] = vec
        c[B, A] = [-v for v in vec]
    return c


def subalgebra(case_id: CaseId, a: Optional[float] = None) -> SubalgebraSpec:
    """One catalog entry; ``a`` required (and positive) for the two families."""
    spec, a = resolve(case_id, a)
    rows, entries = spec.algebra(a)
    coeffs = np.array(rows, dtype=float)
    n = len(rows)
    alg = LieAlgebraSpec(n, _structure(n, entries), tuple(f"X{k+1}" for k in range(n)))
    alg.validate()
    if np.linalg.matrix_rank(coeffs) != n:
        raise ValueError("generator rows are linearly dependent")
    return SubalgebraSpec(spec.case_id, a, coeffs, alg)


@dataclass(frozen=True)
class ClosureReport:
    max_residual: float
    worst_pair: Optional[tuple[int, int]]
    closed: bool


def closure_check(sub: SubalgebraSpec, amb: Optional[LieAlgebraSpec] = None,
                  tol: float = CLOSURE_TOL) -> ClosureReport:
    """Expand ambient commutators of the generators back in their own span."""
    amb = amb or so13_algebra()
    if sub.generator_coeffs.shape[1] != amb.dim:
        raise ValueError("generator coefficients do not match ambient dimension")
    n = sub.dim
    span = sub.generator_coeffs.T  # 6 x n
    worst = 0.0
    worst_pair = None
    for A in range(n):
        for B in range(n):
            br = np.einsum("ijk,i,j->k", amb.structure_constants,
                           sub.generator_coeffs[A], sub.generator_coeffs[B])
            coef, _, _, _ = np.linalg.lstsq(span, br, rcond=None)
            res = float(np.max(np.abs(span @ coef - br)))
            res = max(res, float(np.max(np.abs(coef - sub.algebra.structure_constants[A, B]))))
            if res > worst:
                worst, worst_pair = res, (A + 1, B + 1)
    return ClosureReport(worst, worst_pair, worst <= tol)


@dataclass(frozen=True)
class Cocycle:
    F: np.ndarray  # n x n antisymmetric

    @property
    def dim(self) -> int:
        return self.F.shape[0]

    def antisymmetry_residual(self) -> float:
        return float(np.max(np.abs(self.F + self.F.T))) if self.dim else 0.0

    def identity_residual(self, alg: LieAlgebraSpec) -> float:
        c, f = alg.structure_constants, self.F
        total = (np.einsum("abd,cd->abc", c, f)
                 + np.einsum("bcd,ad->abc", c, f)
                 + np.einsum("cad,bd->abc", c, f))
        return float(np.max(np.abs(total))) if self.dim else 0.0

    def validate(self, alg: LieAlgebraSpec, tol: float = JACOBI_TOL) -> None:
        if self.antisymmetry_residual() > tol:
            raise ValueError("cocycle not antisymmetric")
        if self.identity_residual(alg) > tol:
            raise ValueError("cocycle identity violated")


def standard_cocycle(case_id: CaseId, mu: float = 1.0) -> Cocycle:
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
    return Cocycle(f)


@dataclass(frozen=True)
class ExtendedAlgebraSpec:
    base: LieAlgebraSpec
    cocycle: Cocycle

    @property
    def dim_hat(self) -> int:
        return self.base.dim + 1

    def structure_constants(self) -> np.ndarray:
        """Constants of the extension; the central element sits in the last slot."""
        n = self.base.dim
        c = np.zeros((n + 1, n + 1, n + 1))
        c[:n, :n, :n] = self.base.structure_constants
        c[:n, :n, n] = self.cocycle.F
        return c

    def validate(self, tol: float = JACOBI_TOL) -> None:
        self.base.validate(tol)
        self.cocycle.validate(self.base, tol)
        hat = LieAlgebraSpec(self.dim_hat, self.structure_constants(),
                             self.base.basis_labels + ("X0",))
        hat.validate(tol)


def extend(base: LieAlgebraSpec, cocycle: Cocycle) -> ExtendedAlgebraSpec:
    ext = ExtendedAlgebraSpec(base, cocycle)
    ext.validate()
    return ext


def coboundary_solve(alg: LieAlgebraSpec, coc: Cocycle,
                     tol: float = COBOUNDARY_TOL) -> tuple[Optional[np.ndarray], float]:
    """Solve F_AB = C_AB^C lambda_C in least squares; (shift, residual).

    Returns (lambda, residual) with lambda = None when the system has no
    solution, i.e. the cocycle is nontrivial.
    """
    n = alg.dim
    rows, rhs = [], []
    for A in range(n):
        for B in range(A + 1, n):
            rows.append(alg.structure_constants[A, B])
            rhs.append(coc.F[A, B])
    if not rows:
        return np.zeros(n), 0.0
    m = np.array(rows)
    b = np.array(rhs)
    lam, *_ = np.linalg.lstsq(m, b, rcond=None)
    residual = float(np.max(np.abs(m @ lam - b))) if len(b) else 0.0
    if residual < tol:
        return lam, residual
    return None, residual


def coboundary_shift(alg: LieAlgebraSpec, coc: Cocycle, lam: np.ndarray) -> Cocycle:
    """The transformed cocycle F'_AB = F_AB - C_AB^C lambda_C."""
    delta = np.einsum("abc,c->ab", alg.structure_constants, lam)
    return Cocycle(coc.F - delta)


def coadjoint_singular_values(ext: ExtendedAlgebraSpec) -> np.ndarray:
    """Singular values of the coadjoint matrices C_AB^C f_C, one row per probe
    covector f: all ones, the unit covectors, then INDEX_SAMPLES uniform draws
    seeded with INDEX_SEED."""
    n1 = ext.dim_hat
    rng = np.random.default_rng(INDEX_SEED)
    probes = np.vstack([np.ones(n1), np.eye(n1),
                        rng.uniform(-1.0, 1.0, size=(INDEX_SAMPLES, n1))])
    mats = np.einsum("abc,pc->pab", ext.structure_constants(), probes)
    return np.linalg.svd(mats, compute_uv=False)


def index(ext: ExtendedAlgebraSpec) -> int:
    """dim of the extension minus the generic coadjoint rank, by sampling."""
    sv = coadjoint_singular_values(ext)
    # a zero matrix has rank 0: none of its values exceeds RANK_THRESHOLD * 0
    return ext.dim_hat - int(np.max(np.sum(sv > RANK_THRESHOLD * sv[:, :1], axis=1)))


class IntegrabilityRecord(NamedTuple):
    """One row of Table 3; its fields are the table's columns."""

    dim: int
    ind: int
    s: int
    l: int
    m_tilde: int
    integrable: bool


def integrability_check(ext: ExtendedAlgebraSpec) -> IntegrabilityRecord:
    """The Table 3 row of the extension on the MANIFOLD_DIM-dimensional
    hyperboloid."""
    dim = ext.dim_hat
    ind = index(ext)
    if (dim - ind) % 2 != 0:
        raise RuntimeError(f"index parity violated: dim = {dim}, ind = {ind}")
    s = (dim - ind) // 2
    l = ind - 1
    m_tilde = MANIFOLD_DIM - (dim + ind) // 2 + 1
    return IntegrabilityRecord(dim, ind, s, l, m_tilde, dim + ind >= 2 * MANIFOLD_DIM)


def case_extension(case_id: CaseId, mu: float = 1.0, a: float = 1.0) -> ExtendedAlgebraSpec:
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

