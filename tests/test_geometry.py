"""Charts, pushforwards, induced metrics and the rectification construction.

Closed-form metric expectations below were derived independently from the
embedding (eta-contracted chart Jacobians); they are the arbiter for every
sign that enters the wave operators.
"""

import math

import numpy as np
import pytest

from dskg import dual
from dskg.dual import Dual
from dskg.geometry import (Chart, RankDeficientError, chart_for, chart_jets,
                           generator_jets, hyperboloid_residual, induced_metric,
                           killing_residual, matexp, metric_jet, pushforward,
                           rect_components, rectify, rep_matrices, sample_domain)
from dskg.lie_core import ALL_CASES, CaseId, subalgebra

from conftest import case_param_a, chart_points

# the boost-rotation worked example, whose rectifying chart rectify reproduces
# in closed form
RECTIFY_EXAMPLE = CaseId.G35


def so12_section(u):
    """Transversal section of the boost-rotation worked example, in ambient order."""
    ut1, ut2 = u
    return np.array([0.0, ut2 + 1.0, 0.0, ut1])


def so12_generators():
    """Generators of the worked example, ordered with the two transversal ones first."""
    return rep_matrices(RECTIFY_EXAMPLE)


def commutator_residual(rhos, structure):
    """max |[rho_A, rho_B] - C_AB^C rho_C| over every pair of generators."""
    worst = 0.0
    for A, ma in enumerate(rhos):
        for B, mb in enumerate(rhos):
            br = ma @ mb - mb @ ma
            target = sum(structure[A, B, C] * rhos[C] for C in range(len(rhos)))
            worst = max(worst, float(np.max(np.abs(br - target))))
    return worst


def orbit_rank(case_id, n_points, seed, parameter_a):
    """Generic rank of the ambient generator components over sampled points."""
    chart = chart_for(case_id, parameter_a)
    mats = subalgebra(case_id, parameter_a).generator_matrices()
    pts = sample_domain(chart, n_points, np.random.default_rng(seed))
    best = 0
    for p in pts:
        x = np.array(chart.embed(p))
        rows = np.array([m @ x for m in mats])
        sv = np.linalg.svd(rows, compute_uv=False)
        if sv.size and sv[0] > 0:
            best = max(best, int(np.sum(sv > 1e-10 * sv[0])))
    return best


EXPECTED_RANK = {
    CaseId.G11: 1, CaseId.G12: 1, CaseId.G13a: 1, CaseId.G14: 1,
    CaseId.G21: 2, CaseId.G22: 2, CaseId.G23: 2,
    CaseId.G31: 3, CaseId.G32: 2, CaseId.G33a: 3,
    CaseId.G34: 2, CaseId.G35: 2, CaseId.G41: 3,
}


@pytest.mark.parametrize("case", ALL_CASES)
def test_hyperboloid_constraint(case):
    chart = chart_for(case, case_param_a(case))
    for p in chart_points(case, 60):
        assert hyperboloid_residual(chart, p) < 1e-12


def test_chart_anchor_points():
    assert np.allclose(chart_for(CaseId.G35).embed((0, 0, math.pi / 2)),
                       [0, 1, 0, 0], atol=1e-15)
    assert np.allclose(chart_for(CaseId.G31).embed((0, 0, 0)),
                       [0, 0, 0, 1], atol=1e-15)


def test_hyperboloid_residual_of_an_ambient_point():
    # a chart that embeds (q1, q2, q3) as the ambient point (0, q1, q2, q3)
    chart = Chart(CaseId.G31, 3, ((-1.0, 1.0),) * 3, lambda c: [0.0, *c])
    assert hyperboloid_residual(chart, (1, 0, 0)) == 0.0
    assert hyperboloid_residual(chart, (2, 0, 0)) == 3.0


@pytest.mark.parametrize("case,names", [
    (CaseId.G11, ("q1", "u1", "u2")),
    (CaseId.G21, ("q1", "q2", "u1")),
    (CaseId.G31, ("q1", "q2", "q3")),
])
def test_coordinate_names_follow_the_orbit_dimension(case, names):
    assert chart_for(case).coord_names == names


@pytest.mark.parametrize("case", ALL_CASES)
def test_pushforward_matches_rectified_components(case):
    a = case_param_a(case)
    comps = rect_components(case, a)
    pts = chart_points(case, 12)
    r = chart_for(case, a).r
    for p, got in zip(pts, pushforward(case, pts, a)):
        want = np.array([[dual.value(fn([complex(x) for x in p])).real for fn in comp]
                         for comp in comps])
        assert np.max(np.abs(got - want)) < 1e-10
        # u-components of a rectified generator vanish
        assert np.max(np.abs(got[:, r:]), initial=0.0) < 1e-10


def test_pushforward_specific_values():
    p = (0.4, -0.3, 0.2)
    v = pushforward(CaseId.G31, [p])[0]
    assert np.allclose(v[2], [-0.4, 0.3, 1.0], atol=1e-12)
    assert np.allclose(v[0], [1.0, 0.0, 0.0], atol=1e-12)
    v = pushforward(CaseId.G34, [(0.0, 0.3, 0.5)])[0]
    assert np.allclose(v[1], [math.sin(0.0) * math.tan(0.3), math.cos(0.0), 0.0], atol=1e-12)


def test_pushforward_rank_deficient_boundary():
    # sin(u1) = 0 collapses the chart; the error names the point
    with pytest.raises(RankDeficientError, match=r"at \[0\.1 0\.1 0\. \]"):
        pushforward(CaseId.G35, [(0.2, -0.1, 0.5), (0.1, 0.1, 0.0)])


# ---------------------------------------------------------------- metrics

def test_metric_g31_closed_form():
    for p in chart_points(CaseId.G31, 10):
        g = induced_metric(CaseId.G31, Dual.seed(p)).g
        e2 = math.exp(2.0 * p[2])
        want = np.diag([-e2, -e2, 1.0])
        assert np.max(np.abs(g - want)) < 1e-12


def test_metric_g32_closed_form():
    for p in chart_points(CaseId.G32, 10):
        g = induced_metric(CaseId.G32, Dual.seed(p)).g
        e2 = math.exp(-2.0 * p[2])
        assert np.max(np.abs(g - np.diag([-e2, -e2, 1.0]))) < 1e-12


def test_metric_g33a_closed_form():
    a = 1.0
    for p in chart_points(CaseId.G33a, 10):
        g = induced_metric(CaseId.G33a, Dual.seed(p), a).g
        e2 = math.exp(2.0 * a * p[2])
        assert np.max(np.abs(g - np.diag([-e2, -e2, a * a]))) < 1e-12
    g0 = induced_metric(CaseId.G33a, Dual.seed((0.0, 0.0, 0.0)), 1.0).g
    assert np.max(np.abs(g0 - np.diag([-1.0, -1.0, 1.0]))) < 1e-14


def test_metric_g34_closed_form():
    for p in chart_points(CaseId.G34, 10):
        g = induced_metric(CaseId.G34, Dual.seed(p)).g
        c2 = math.cosh(p[2]) ** 2
        want = np.diag([-c2 * math.cos(p[1]) ** 2, -c2, 1.0])
        assert np.max(np.abs(g - want)) < 1e-12


def test_metric_g35_closed_form():
    # the boost direction is timelike: + s^2 cos^2, the orbit label spacelike
    for p in chart_points(CaseId.G35, 10):
        g = induced_metric(CaseId.G35, Dual.seed(p)).g
        s2 = math.sin(p[2]) ** 2
        want = np.diag([s2 * math.cos(p[1]) ** 2, -s2, -1.0])
        assert np.max(np.abs(g - want)) < 1e-12


def test_metric_g23_closed_form():
    for p in chart_points(CaseId.G23, 10):
        g = induced_metric(CaseId.G23, Dual.seed(p)).g
        c2 = math.cos(p[2]) ** 2
        want = np.diag([-math.exp(2.0 * p[1]) * c2, c2, -1.0])
        assert np.max(np.abs(g - want)) < 1e-12


@pytest.mark.parametrize("case", ALL_CASES)
def test_metric_signature_and_inverse(case):
    a = case_param_a(case)
    for p in chart_points(case, 8):
        sample = induced_metric(case, Dual.seed(p), a)
        ev = np.linalg.eigvalsh(sample.g)
        assert (np.sum(ev > 0), np.sum(ev < 0)) == (1, 2)
        assert sample.identity_residual() < 1e-10
        assert sample.sqrt_abs_det > 0


def test_metric_jet_derivatives_against_central_differences():
    # independent cross-check of the metric first derivatives
    case, a = CaseId.G33a, 1.2
    p = np.array([0.3, -0.2, 0.25])
    _, dg, *_ = metric_jet(case, Dual.seed(p), a)
    h = 1e-5
    for c in range(3):
        dp = p.copy()
        dm = p.copy()
        dp[c] += h
        dm[c] -= h
        gp = induced_metric(case, Dual.seed(dp), a).g
        gm = induced_metric(case, Dual.seed(dm), a).g
        fd = (gp - gm) / (2 * h)
        assert np.max(np.abs(dg[c] - fd)) < 1e-5


@pytest.mark.parametrize("case", ALL_CASES)
def test_killing_equation(case):
    a = case_param_a(case)
    for p in chart_points(case, 8):
        s = Dual.seed(p)
        assert killing_residual(induced_metric(case, s, a), generator_jets(case, s, a)) < 1e-8


@pytest.mark.parametrize("case", ALL_CASES)
def test_orbit_ranks(case):
    assert orbit_rank(case, 60, 4801, case_param_a(case)) == EXPECTED_RANK[case]


# ---------------------------------------------------------------- matexp / rectify

def test_matexp_zero_is_identity():
    assert np.max(np.abs(matexp(np.zeros((4, 4))) - np.eye(4))) == 0.0


def test_matexp_boost_closed_form():
    m = subalgebra(CaseId.G11).generator_matrices()[0]  # boost in the (x0, x3) plane
    for t in (0.3, 2.0, 7.5):
        e = matexp(t * m)
        want = np.eye(4)
        want[0, 0] = want[3, 3] = math.cosh(t)
        # flow of the boost field: dx0/dt = -x3, dx3/dt = -x0
        want[0, 3] = want[3, 0] = -math.sinh(t)
        assert np.max(np.abs(e - want)) < 1e-13 * max(1.0, math.cosh(t))


def test_matexp_nilpotent_generator_is_polynomial():
    m = subalgebra(CaseId.G14).generator_matrices()[0]  # null rotation
    assert np.max(np.abs(m @ m @ m)) == 0.0
    q = 1.7
    want = np.eye(4) + q * m + 0.5 * q * q * (m @ m)
    assert np.max(np.abs(matexp(q * m) - want)) < 1e-14


def test_rep_matrices_satisfy_structure():
    for case in (CaseId.G34, CaseId.G35, CaseId.G31):
        sub = subalgebra(case)
        rhos = rep_matrices(case)
        res = commutator_residual(rhos, sub.algebra.structure_constants)
        assert res < 1e-13


def test_rectify_worked_example_closed_form():
    gens = so12_generators()
    for (q1, q2, u1, u2) in [(0.4, 0.2, 0.5, 0.3), (-0.8, 1.0, -0.4, 0.7), (0.0, 0.0, 0.2, 0.1)]:
        got = rectify(gens, so12_section, (q1, q2), (u1, u2))
        w = u2 + 1.0
        want = np.array([
            -w * math.sinh(q1) * math.cos(q2),
            w * math.cosh(q1) * math.cos(q2),
            w * math.sin(q2),
            u1,
        ])
        assert np.max(np.abs(got - want)) < 1e-12


def test_rectify_identity_at_origin():
    gens = so12_generators()
    u = (0.3, 0.4)
    assert np.allclose(rectify(gens, so12_section, (0.0, 0.0), u),
                       so12_section(u), atol=1e-15)


def test_rectify_restricted_matches_chart():
    gens = so12_generators()
    chart = chart_for(CaseId.G35)
    for (q1, q2, u) in [(0.3, -0.2, 1.1), (-0.6, 0.4, 0.7), (1.0, 0.1, 2.2)]:
        got = rectify(gens, so12_section, (q1, q2), (math.cos(u), math.sin(u) - 1.0))
        want = np.array(chart.embed((q1, q2, u)))
        assert np.max(np.abs(got - want)) < 1e-12


def test_chart_jets_shapes():
    vals, jac, hes = chart_jets(chart_for(CaseId.G34), Dual.seed([0.1, 0.2, 0.3]))
    assert vals.shape == (4,)
    assert jac.shape == (4, 3)
    assert hes.shape == (4, 3, 3)
    assert np.linalg.matrix_rank(jac) == 3


def test_chart_for_parameter_validation():
    with pytest.raises(ValueError):
        chart_for(CaseId.G13a)
    with pytest.raises(ValueError):
        chart_for(CaseId.G33a, -2.0)
    with pytest.raises(ValueError):
        chart_for("not_a_case")
