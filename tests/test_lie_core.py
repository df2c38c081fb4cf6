"""Catalog, cocycles, index and integrability bookkeeping.

The index sampler is checked against an exact-rational rank oracle, and the
coboundary machinery against explicitly constructed shifts.
"""

import io
from fractions import Fraction

import numpy as np
import pytest

from dskg import cli, lie_core
from dskg.cases import CASES, case_spec
from dskg.lie_core import (ALL_CASES, CaseId, Cocycle, ExtendedAlgebraSpec,
                           INTEGRABLE_CASES, LieAlgebraSpec, PARAMETERIZED_CASES,
                           case_extension, closure_check, coboundary_shift,
                           coboundary_solve, index, integrability_check,
                           so13_algebra, standard_cocycle, subalgebra, table3,
                           table3_diff)


def test_so13_structure():
    alg = so13_algebra()
    assert alg.dim == 6
    assert alg.antisymmetry_residual() == 0.0
    assert alg.jacobi_residual() < 1e-14
    # boost-boost bracket closes on the rotation generator in this convention
    i, j, k = alg.basis_labels.index("J01"), alg.basis_labels.index("J02"), \
        alg.basis_labels.index("J12")
    row = alg.structure_constants[i, j]
    assert row[k] == 1.0
    assert np.count_nonzero(row) == 1
    # rotation-rotation sample
    r12, r13, r23 = (alg.basis_labels.index(s) for s in ("J12", "J13", "J23"))
    assert alg.structure_constants[r12, r12, r23] == 0.0  # [X, X] = 0
    assert alg.structure_constants[r12, r23, r13] == 1.0


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
    rep = closure_check(subalgebra(case, a))
    assert rep.closed
    assert rep.max_residual < 1e-12


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_parameterized_closure(a):
    for case in PARAMETERIZED_CASES:
        rep = closure_check(subalgebra(case, a))
        assert rep.max_residual < 1e-12


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
    amb = so13_algebra()
    sub = subalgebra(CaseId.G22)  # rows J12, J03 span a closed algebra
    bad = lie_core.SubalgebraSpec(
        CaseId.G22, None,
        np.array([[1.0, 0, 0, 0, 0, 0], [0, 0, 0, 1.0, 0, 0]]),  # J01 and J12
        sub.algebra)
    rep = closure_check(bad, amb)
    assert not rep.closed
    assert rep.max_residual > 0.5
    assert rep.worst_pair == (1, 2)


# -------------------------------------------------------------- cocycles

def test_cocycle_identity_for_standard_cocycles():
    for case in ALL_CASES:
        a = 1.0 if case in PARAMETERIZED_CASES else None
        sub = subalgebra(case, a)
        coc = standard_cocycle(case, mu=0.8)
        coc.validate(sub.algebra)


def test_coboundary_zero_cocycle():
    sub = subalgebra(CaseId.G31)
    lam, res = coboundary_solve(sub.algebra, Cocycle(np.zeros((3, 3))))
    assert lam is not None
    assert np.max(np.abs(lam)) < 1e-12
    assert res < 1e-12


def test_coboundary_recovers_constructed_shift(rng):
    sub = subalgebra(CaseId.G31)
    target = rng.uniform(-1, 1, 3)
    coc = coboundary_shift(sub.algebra, Cocycle(np.zeros((3, 3))), -target)
    lam, res = coboundary_solve(sub.algebra, coc)
    assert lam is not None
    assert res < 1e-12
    # applying the inverse shift gives the zero matrix back
    back = coboundary_shift(sub.algebra, coc, lam)
    assert np.max(np.abs(back.F)) < 1e-10


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
    return Cocycle(f)


@pytest.mark.parametrize("case", [CaseId.G34, CaseId.G35])
def test_semisimple_cocycles_are_trivial(case, rng):
    # second Whitehead lemma, checked constructively
    sub = subalgebra(case)
    for _ in range(5):
        coc = _random_valid_cocycle(sub.algebra, rng)
        assert coc is not None
        coc.validate(sub.algebra)
        lam, res = coboundary_solve(sub.algebra, coc)
        assert lam is not None
        assert res < 1e-10


def test_fchange_transformation_law(rng):
    sub = subalgebra(CaseId.G32)
    coc = standard_cocycle(CaseId.G32, 1.3)
    for _ in range(20):
        lam = rng.uniform(-2, 2, 3)
        shifted = coboundary_shift(sub.algebra, coc, lam)
        want = coc.F - np.einsum("abc,c->ab", sub.algebra.structure_constants, lam)
        assert np.max(np.abs(shifted.F - want)) == 0.0


# -------------------------------------------------------------- index

def _exact_index(ext, seed=3):
    """Exact-rational rank oracle, independent of the SVD sampler."""
    import random
    random.seed(seed)
    import sympy as sp
    c = ext.structure_constants()
    n1 = ext.dim_hat
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
    n = ext.base.dim
    t = np.asarray(transform, dtype=float)
    if t.shape != (n + 1, n + 1):
        raise ValueError("transform has wrong shape")
    if np.max(np.abs(t[:n, n])) > 1e-13 or abs(t[n, n]) < 1e-13:
        raise ValueError("transform does not preserve the center")
    c = ext.structure_constants()
    tinv = np.linalg.inv(t)
    cprime = np.einsum("ai,bj,abc,ck->ijk", t, t, c, tinv)
    base = LieAlgebraSpec(n, cprime[:n, :n, :n],
                          tuple(f"Y{k+1}" for k in range(n)))
    coc = Cocycle(cprime[:n, :n, n])
    # central column in the transformed constants must stay exact
    if np.max(np.abs(cprime[n, :, :])) > 1e-10 or np.max(np.abs(cprime[:, n, :])) > 1e-10:
        raise ValueError("transformed center failed to stay central")
    return ExtendedAlgebraSpec(base, coc)


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
    n1 = ext.dim_hat
    c = ext.structure_constants()
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
    return ext.dim_hat - best


@pytest.mark.parametrize("case", ALL_CASES)
def test_batched_rank_equals_the_per_probe_loop(case):
    for mu in (0.0, 0.3, 1.0, 2.0):
        for a in (0.5, 1.0, 2.0):
            ext = case_extension(case, mu, a)
            batched = lie_core.coadjoint_singular_values(ext)
            looped = _looped_singular_values(ext)
            assert batched.shape == (len(looped), ext.dim_hat)
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
    ext = case_extension(CaseId.G32, mu=0.7)
    ext.validate()
    hat = ext.structure_constants()
    assert hat.shape == (4, 4, 4)
    assert hat[0, 1, 3] == 0.7
    # central element commutes with everything
    assert np.all(hat[3, :, :] == 0.0)
    assert np.all(hat[:, 3, :] == 0.0)


def test_serialization_roundtrip():
    d = subalgebra(CaseId.G34).to_dict()
    assert d["id"] == "g3_4"
    assert len(d["generators"]) == 3
    assert any(entry[:2] == [1, 2] for entry in d["structure_constants"])
