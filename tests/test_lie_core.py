"""Catalog, cocycles, index and integrability bookkeeping.

The index sampler is checked against an exact-rational rank oracle, and the
coboundary machinery against explicitly constructed shifts.
"""

import io
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dskg import cases, cli, lie_core
from dskg.cases import CASES, case_spec
from dskg.dual import Dual
from dskg.geometry import induced_metric
from dskg.lie_core import (ALL_CASES, AMBIENT_LABELS, CLOSURE_TOL, CaseId,
                           INTEGRABLE_CASES, LieAlgebraSpec, PARAMETERIZED_CASES,
                           case_extension, coboundary_shift, coboundary_solve,
                           derive_structure, extend, index, integrability_check,
                           so13_algebra, standard_cocycle, subalgebra, table3,
                           table3_diff)
from dskg.operators import PolyExpProbe, TableFit


def test_so13_structure():
    alg = so13_algebra()
    assert alg.dim == 6
    assert alg.antisymmetry_residual() == 0.0
    assert alg.jacobi_residual() < 1e-14
    # boost-boost bracket closes on the rotation generator in this convention
    i, j, k = (AMBIENT_LABELS.index(s) for s in ("J01", "J02", "J12"))
    row = alg.structure_constants[i, j]
    assert row[k] == 1.0
    assert np.count_nonzero(row) == 1
    # rotation-rotation sample
    r12, r13, r23 = (AMBIENT_LABELS.index(s) for s in ("J12", "J13", "J23"))
    assert alg.structure_constants[r12, r12, r23] == 0.0  # [X, X] = 0
    assert alg.structure_constants[r12, r23, r13] == 1.0


def test_validate_scales_large_constants_and_refuses_nan():
    # both identities are homogeneous in C: checked on C / max|C|, constants
    # of size 1e300 neither overflow nor warn, and a NaN residual fails
    c = so13_algebra().structure_constants
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        LieAlgebraSpec(c * 1e300).validate()
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebraSpec(np.full_like(c, np.nan)).validate()


def test_catalog_has_13_entries_and_families_are_factories():
    assert len(CASES) == 13
    assert [s.case_id for s in CASES] == ALL_CASES
    for s in CASES:
        if s.parameterized:
            sub = subalgebra(s.case_id, 0.7)
            assert sub.parameter_a == 0.7
        else:
            sub = subalgebra(s.case_id)
        assert sub.algebra.jacobi_residual() < 1e-12


@pytest.mark.parametrize("case", ALL_CASES)
def test_closure_with_catalog_constants(case):
    a = 1.0 if case in PARAMETERIZED_CASES else None
    _, off_span = derive_structure(subalgebra(case, a).generator_coeffs, case.value)
    assert off_span.max() <= CLOSURE_TOL
    assert off_span.max() < 1e-12


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_parameterized_closure(a):
    for case in PARAMETERIZED_CASES:
        _, off_span = derive_structure(subalgebra(case, a).generator_coeffs, case.value)
        assert off_span.max() < 1e-12


def test_family_requires_positive_parameter():
    with pytest.raises(ValueError):
        subalgebra(CaseId.G13a, 0.0)
    with pytest.raises(ValueError):
        subalgebra(CaseId.G33a, -1.0)
    with pytest.raises(ValueError):
        subalgebra(CaseId.G33a)


def test_specific_bracket_rows():
    g23 = subalgebra(CaseId.G23)
    assert g23.algebra.structure_constants[0, 1, 0] == -1.0
    g34 = subalgebra(CaseId.G34)
    assert g34.algebra.structure_constants[0, 1, 2] == 1.0   # [X1,X2] = X3
    assert g34.algebra.structure_constants[0, 2, 1] == -1.0  # [X1,X3] = -X2
    assert g34.algebra.structure_constants[1, 2, 0] == 1.0   # [X2,X3] = X1
    g21 = subalgebra(CaseId.G21)
    assert np.all(g21.algebra.structure_constants == 0.0)
    g33 = subalgebra(CaseId.G33a, 1.0)
    assert g33.algebra.structure_constants[0, 2, 1] == 1.0   # X2 part of [X1,X3]
    assert g33.algebra.structure_constants[0, 2, 0] == -1.0  # -a X1 part at a = 1


def test_artificial_non_closed_pair_is_flagged():
    # J01 and J12 bracket to J02, outside their span
    _, off_span = derive_structure(np.array([[1.0, 0, 0, 0, 0, 0], [0, 0, 0, 1.0, 0, 0]]),
                                   "J01, J12")
    assert off_span.max() > CLOSURE_TOL
    assert off_span.max() > 0.5
    assert off_span[0, 1] == off_span.max()


@pytest.mark.parametrize("rows,message", [
    # g3_1's boost made J03 + 1e-3 J23: [X1, X3] leaves the span
    ([[1.0, 0, 0, 0, -1.0, 0], [0, 1.0, 0, 0, 0, -1.0], [0, 0, 1.0, 0, 0, 1e-3]],
     r"g3_1: \[X1, X3\] leaves the span of the generator rows by 0\.001"),
    # X2 shares X1's only unit column
    ([[1.0, 0, 0, 0, -1.0, 0], [1e-3, 1.0, 0, 0, 0, -1.0], [0, 0, 1.0, 0, 0, 0]],
     "g3_1: generator row X1 has no unit column"),
], ids=["off_span", "no_unit_column"])
def test_subalgebra_refuses_rows_it_cannot_derive(monkeypatch, rows, message):
    spec = case_spec(CaseId.G31)
    monkeypatch.setitem(cases._BY_ID, CaseId.G31, replace(spec, generators=lambda a: rows))
    with pytest.raises(ValueError, match=message):
        subalgebra(CaseId.G31)


# -------------------------------------------------------------- cocycles

def test_cocycle_identity_for_standard_cocycles():
    for case in ALL_CASES:
        a = 1.0 if case in PARAMETERIZED_CASES else None
        sub = subalgebra(case, a)
        extend(sub.algebra, standard_cocycle(case, mu=0.8))


def test_coboundary_zero_cocycle():
    sub = subalgebra(CaseId.G31)
    lam, res = coboundary_solve(sub.algebra, np.zeros((3, 3)))
    assert lam is not None
    assert np.max(np.abs(lam)) < 1e-12
    assert res < 1e-12


def test_coboundary_recovers_constructed_shift(rng):
    sub = subalgebra(CaseId.G31)
    target = rng.uniform(-1, 1, 3)
    coc = coboundary_shift(sub.algebra, np.zeros((3, 3)), -target)
    lam, res = coboundary_solve(sub.algebra, coc)
    assert lam is not None
    assert res < 1e-12
    # applying the inverse shift gives the zero matrix back
    back = coboundary_shift(sub.algebra, coc, lam)
    assert np.max(np.abs(back)) < 1e-10


def test_magnetic_cocycle_nontrivial_iff_mu_nonzero():
    sub = subalgebra(CaseId.G32)
    for mu in (0.5, 1.0, 2.0):
        lam, res = coboundary_solve(sub.algebra, standard_cocycle(CaseId.G32, mu))
        assert lam is None
        assert res > 0.1 * mu
    lam, res = coboundary_solve(sub.algebra, standard_cocycle(CaseId.G32, 0.0))
    assert lam is not None and res < 1e-12


def _random_valid_cocycle(alg, rng):
    """Random solution of the linear cocycle condition."""
    n = alg.dim
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rows = []
    c = alg.structure_constants
    for a in range(n):
        for b in range(n):
            for d in range(n):
                row = np.zeros(len(pairs))
                for k, (p, q) in enumerate(pairs):
                    def delta(x, y):
                        return 1.0 if (x, y) == (p, q) else (-1.0 if (y, x) == (p, q) else 0.0)
                    row[k] = sum(c[a, b, e] * delta(d, e) + c[b, d, e] * delta(a, e)
                                 + c[d, a, e] * delta(b, e) for e in range(n))
                rows.append(row)
    m = np.array(rows)
    _, s, vt = np.linalg.svd(m)
    null = vt[np.sum(s > 1e-10):]
    if len(null) == 0:
        return None
    vec = null.T @ rng.uniform(-1, 1, len(null))
    f = np.zeros((n, n))
    for k, (p, q) in enumerate(pairs):
        f[p, q] = vec[k]
        f[q, p] = -vec[k]
    return f


@pytest.mark.parametrize("case", [CaseId.G34, CaseId.G35])
def test_semisimple_cocycles_are_trivial(case, rng):
    # second Whitehead lemma, checked constructively
    sub = subalgebra(case)
    for _ in range(5):
        coc = _random_valid_cocycle(sub.algebra, rng)
        assert coc is not None
        extend(sub.algebra, coc)
        lam, res = coboundary_solve(sub.algebra, coc)
        assert lam is not None
        assert res < 1e-10


def test_fchange_transformation_law(rng):
    sub = subalgebra(CaseId.G32)
    coc = standard_cocycle(CaseId.G32, 1.3)
    for _ in range(20):
        lam = rng.uniform(-2, 2, 3)
        shifted = coboundary_shift(sub.algebra, coc, lam)
        want = coc - np.einsum("abc,c->ab", sub.algebra.structure_constants, lam)
        assert np.max(np.abs(shifted - want)) == 0.0


# -------------------------------------------------------------- index

def _exact_index(ext, seed=3):
    """Exact-rational rank oracle, independent of the SVD sampler."""
    import random
    random.seed(seed)
    import sympy as sp
    c = ext.structure_constants
    n1 = ext.dim
    best = 0
    for _ in range(40):
        f = [Fraction(random.randint(-9, 9), random.randint(1, 5)) for _ in range(n1)]
        m = sp.Matrix(n1, n1, lambda A, B: sum(sp.Rational(c[A, B, k]) * f[k]
                                               for k in range(n1)))
        best = max(best, m.rank())
    return n1 - best


@pytest.mark.parametrize("case,expected", [
    (CaseId.G11, 2), (CaseId.G21, 1), (CaseId.G23, 1), (CaseId.G31, 2),
    (CaseId.G32, 2), (CaseId.G34, 2), (CaseId.G35, 2), (CaseId.G41, 1),
])
def test_index_against_exact_oracle(case, expected):
    ext = case_extension(case, mu=1.0, a=1.0)
    assert index(ext) == expected
    assert _exact_index(ext) == expected


def test_index_zero_cocycle_two_dim_abelian():
    # rank of the zero matrix is zero, so the index equals the dimension
    ext = case_extension(CaseId.G11)
    assert index(ext) == 2


def change_basis(ext, transform):
    """Rewrite the extension in a new basis that keeps the center central.

    ``transform`` is the (n+1) x (n+1) matrix of new basis vectors in terms of
    the old ones (columns), with the central direction preserved up to scale.
    """
    n = ext.dim - 1
    t = np.asarray(transform, dtype=float)
    if t.shape != (n + 1, n + 1):
        raise ValueError("transform has wrong shape")
    if np.max(np.abs(t[:n, n])) > 1e-13 or abs(t[n, n]) < 1e-13:
        raise ValueError("transform does not preserve the center")
    c = ext.structure_constants
    tinv = np.linalg.inv(t)
    cprime = np.einsum("ai,bj,abc,ck->ijk", t, t, c, tinv)
    # central column in the transformed constants must stay exact
    if np.max(np.abs(cprime[n, :, :])) > 1e-10 or np.max(np.abs(cprime[:, n, :])) > 1e-10:
        raise ValueError("transformed center failed to stay central")
    # not validated: rounding alone lifts the Jacobi residual above JACOBI_TOL
    return LieAlgebraSpec(cprime)


def test_index_invariant_under_center_preserving_basis_change(rng):
    ext = case_extension(CaseId.G32, mu=1.0)
    base_index = index(ext)
    for _ in range(5):
        t = np.eye(4)
        t[:3, :3] = rng.uniform(-1, 1, (3, 3))
        while abs(np.linalg.det(t)) < 0.1:
            t[:3, :3] = rng.uniform(-1, 1, (3, 3))
        t[3, :3] = rng.uniform(-1, 1, 3)  # central admixture in the images
        t = t.T  # columns are new basis vectors
        t[:3, 3] = 0.0
        t[3, 3] = rng.uniform(0.5, 2.0)
        ext2 = change_basis(ext, t)
        assert index(ext2) == base_index


def _looped_singular_values(ext, samples=lie_core.INDEX_SAMPLES, seed=lie_core.INDEX_SEED):
    """One SVD per probe covector, in the sampler's probe order."""
    n1 = ext.dim
    c = ext.structure_constants
    rng = np.random.default_rng(seed)
    probes = [np.ones(n1)]
    probes.extend(np.eye(n1))
    probes.extend(rng.uniform(-1.0, 1.0, size=(samples, n1)))
    return [np.linalg.svd(np.einsum("abc,c->ab", c, f), compute_uv=False) for f in probes]


def _looped_index(ext, threshold=lie_core.RANK_THRESHOLD):
    best = 0
    for sv in _looped_singular_values(ext):
        if sv.size and sv[0] > 0:
            best = max(best, int(np.sum(sv > threshold * sv[0])))
    return ext.dim - best


@pytest.mark.parametrize("case", ALL_CASES)
def test_batched_rank_equals_the_per_probe_loop(case):
    for mu in (0.0, 0.3, 1.0, 2.0):
        for a in (0.5, 1.0, 2.0):
            ext = case_extension(case, mu, a)
            batched = lie_core.coadjoint_singular_values(ext)
            looped = _looped_singular_values(ext)
            assert batched.shape == (len(looped), ext.dim)
            assert all(np.array_equal(row, sv) for row, sv in zip(batched, looped))
            assert index(ext) == _looped_index(ext)


def test_catalog_classifies_each_entry_once(monkeypatch):
    calls = []

    def counted(ext, *args, **kwargs):
        calls.append(ext)
        return index(ext, *args, **kwargs)

    monkeypatch.setattr(lie_core, "index", counted)
    assert cli.main(["catalog"], io.StringIO(), io.StringIO()) == 0
    assert len(calls) == len(ALL_CASES)


def test_integrability_records():
    rec = integrability_check(case_extension(CaseId.G32))
    assert rec == (4, 2, 1, 1, 1, True)
    rec = integrability_check(case_extension(CaseId.G21))
    assert rec == (3, 1, 1, 0, 2, False)
    rec = integrability_check(case_extension(CaseId.G11))
    assert rec == (2, 2, 0, 1, 2, False)


def test_table3_matches_reference_except_documented_row():
    diff = table3_diff(table3())
    assert set(diff) == {CaseId.G41}
    assert diff[CaseId.G41]["computed"] == (5, 1, 2, 0, 1, True)
    assert diff[CaseId.G41]["reference"] == case_spec(CaseId.G41).table3_reference


def test_every_integrable_case_is_marked():
    t3 = table3()
    for case in ALL_CASES:
        assert t3[case].integrable == (case in INTEGRABLE_CASES or case == CaseId.G41)


def test_extension_jacobi():
    ext = extend(subalgebra(CaseId.G32).algebra, standard_cocycle(CaseId.G32, 0.7))
    hat = ext.structure_constants
    assert hat.shape == (4, 4, 4)
    assert hat[0, 1, 3] == 0.7
    # central element commutes with everything
    assert np.all(hat[3, :, :] == 0.0)
    assert np.all(hat[:, 3, :] == 0.0)


def test_extend_rejects_a_broken_cocycle_identity():
    # g3_1 has [X1, X3] = -X1 and [X2, X3] = -X2, so the cyclic sum of
    # F([X_A, X_B], X_C) over (X1, X2, X3) is 2 F_12
    f = np.zeros((3, 3))
    f[0, 1], f[1, 0] = 1.0, -1.0
    with pytest.raises(ValueError, match="Jacobi identity violated"):
        extend(subalgebra(CaseId.G31).algebra, f)


def test_extend_rejects_a_non_antisymmetric_cocycle():
    f = np.zeros((3, 3))
    f[0, 1] = 1e-3
    with pytest.raises(ValueError, match="not antisymmetric"):
        extend(subalgebra(CaseId.G32).algebra, f)


def test_an_extension_is_validated_once(monkeypatch):
    # the base when its entry is built, then the extension, which covers F
    dims = []
    validate = LieAlgebraSpec.validate

    def counted(alg):
        dims.append(alg.dim)
        validate(alg)

    monkeypatch.setattr(LieAlgebraSpec, "validate", counted)
    for case in ALL_CASES:
        dims.clear()
        ext = case_extension(case)
        assert dims == [ext.dim - 1, ext.dim]


def test_serialization_roundtrip():
    d = subalgebra(CaseId.G34).to_dict()
    assert d["id"] == "g3_4"
    assert len(d["generators"]) == 3
    assert any(entry[:2] == [1, 2] for entry in d["structure_constants"])


@pytest.mark.parametrize("make", [
    lambda: subalgebra(CaseId.G32).algebra,
    lambda: subalgebra(CaseId.G32),
    lambda: induced_metric(CaseId.G32, Dual.seed([0.1, 0.2, 0.3])),
    lambda: TableFit(np.zeros((3, 3, 3)), np.zeros((3, 3)), 0.0),
    lambda: PolyExpProbe(np.ones((3, 3, 3)), (0.1, 0.2, 0.3)),
], ids=["LieAlgebraSpec", "SubalgebraSpec", "MetricSample", "TableFit", "PolyExpProbe"])
def test_array_holding_records_compare_and_hash(make):
    # each holds numpy arrays, so it compares by identity: == answers instead
    # of raising on an array's truth value, and the record is hashable
    one, two = make(), make()
    assert one == one and one != two
    assert len({one, two, one}) == 2
