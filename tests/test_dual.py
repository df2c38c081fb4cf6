"""Forward-mode jets against hand-differentiated expressions and finite
differences (the only place finite differences are allowed)."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dskg import dual
from dskg.dual import Dual


def test_polynomial_jet_matches_hand_derivatives():
    # f = q1^2 q2 + 3 q3, hand second derivatives
    pt = [1.3, -0.7, 0.4]
    q1, q2, q3 = Dual.seed(pt)
    f = q1 * q1 * q2 + 3.0 * q3
    assert abs(f.val - (1.3 ** 2 * -0.7 + 1.2)) < 1e-14
    assert abs(f.grad[0] - 2 * 1.3 * -0.7) < 1e-14
    assert abs(f.grad[1] - 1.3 ** 2) < 1e-14
    assert abs(f.grad[2] - 3.0) < 1e-14
    assert abs(f.hess[0][0] - 2 * -0.7) < 1e-14
    assert abs(f.hess[0][1] - 2 * 1.3) < 1e-14
    assert abs(f.hess[2][2]) < 1e-14


def test_quotient_and_chain_rule():
    pt = [0.6, 0.2]
    x, y = Dual.seed(pt)
    f = dual.sin(x * y) / dual.exp(x)
    # d/dx [sin(xy) e^{-x}] = (y cos(xy) - sin(xy)) e^{-x}
    want = (0.2 * cmath.cos(0.12) - cmath.sin(0.12)) * cmath.exp(-0.6)
    assert abs(f.grad[0] - want) < 1e-14


def test_integer_power_handles_negative_base():
    (x,) = Dual.seed([-1.5])
    f = x ** 3
    assert abs(f.val - (-3.375)) < 1e-14
    assert abs(f.grad[0] - 3 * 1.5 ** 2) < 1e-13
    assert abs(f.hess[0][0] + 9.0) < 1e-13


def test_complex_power_principal_branch():
    (x,) = Dual.seed([2.0])
    p = 0.5 + 0.3j
    f = dual.power(x, p)
    want = cmath.exp(p * cmath.log(2.0))
    assert abs(f.val - want) < 1e-14
    assert abs(f.grad[0] - p * want / 2.0) < 1e-14


def test_power_of_a_lane_array():
    # plain values dispatch like exp and log: numpy on lanes, cmath on a point
    x = np.array([4 + 0j, 9 + 0j, 2 - 1j])
    p = 0.5 + 0.3j
    lanes = dual.power(x, p)
    assert np.array_equal(lanes, np.exp(p * np.log(x)))
    np.testing.assert_allclose(lanes, x ** p, rtol=1e-15)
    assert dual.power(2 - 1j, p) == cmath.exp(p * cmath.log(2 - 1j))


@settings(max_examples=60, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 2), st.floats(-2, 2))
def test_product_rule_property(a, b, c, d):
    x, y = Dual.seed([a + 0.1, c])
    f = (x * y + 2.0) * (x - y * 1j + b) * (y + d)
    g = x * y + 2.0
    h = (x - y * 1j + b) * (y + d)
    prod = g * h
    for i in range(2):
        assert abs(f.grad[i] - prod.grad[i]) < 1e-12
        for j in range(2):
            assert abs(f.hess[i][j] - prod.hess[i][j]) < 1e-11


@pytest.mark.parametrize("fn,name", [
    (dual.exp, "exp"), (dual.sin, "sin"), (dual.cos, "cos"),
    (dual.sinh, "sinh"), (dual.cosh, "cosh"), (dual.tan, "tan"),
    (dual.tanh, "tanh"), (dual.log, "log"),
])
def test_function_jets_against_central_differences(fn, name):
    # independent cross-check: central differences, h = 1e-5, tolerance 1e-5
    x0 = 0.7
    h = 1e-5
    (x,) = Dual.seed([x0])
    jet = fn(x)
    f = lambda t: fn(complex(t))
    d1 = (f(x0 + h) - f(x0 - h)) / (2 * h)
    d2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / (h * h)
    assert abs(jet.grad[0] - d1) < 1e-5
    assert abs(jet.hess[0][0] - d2) < 1e-4


def test_lift_composes_univariate_jet():
    pt = [0.3, 0.9, -0.2]
    seeds = Dual.seed(pt)
    v = seeds[0] * seeds[1] + seeds[2]
    # lift exp through its jet and compare with direct evaluation
    e = cmath.exp(v.val)
    lifted = v.lift(e, e, e)
    direct = dual.exp(v)
    assert abs(lifted.val - direct.val) < 1e-14
    assert max(abs(a - b) for a, b in zip(lifted.grad, direct.grad)) < 1e-14
    assert max(abs(lifted.hess[i][j] - direct.hess[i][j])
               for i in range(3) for j in range(3)) < 1e-14


def test_point_seed_keeps_plain_complex_entries():
    # no numpy scalar may leak into a point jet: it would change repr(jet)
    # and slow the point path down
    x, y = Dual.seed([0.4, -1.1])
    for f in (x * y, dual.exp(x) / dual.cos(y), dual.log(dual.sinh(x) + 2.0),
              dual.power(x, 0.5 + 0.3j), dual.log(dual.tanh(x)) * y):
        entries = [f.val, *f.grad, *(h for row in f.hess for h in row)]
        assert all(type(e) is complex for e in entries)


def test_grid_seed_lanes_are_point_seeds():
    cols = [np.array([0.4, 1.3, -0.2]), np.array([-1.1, 0.5, 0.9])]
    f = lambda c: dual.exp(c[0] * c[1]) * dual.sin(c[1]) + c[0] ** 3
    grid = f(Dual.seed_grid(cols))
    for n, pt in enumerate(zip(*cols)):
        point = f(Dual.seed(list(pt)))
        assert grid.val[n] == pytest.approx(point.val, rel=1e-15)
        for i in range(2):
            assert np.broadcast_to(grid.grad[i], 3)[n] == pytest.approx(point.grad[i], rel=1e-15)
            for j in range(2):
                assert np.broadcast_to(grid.hess[i][j], 3)[n] == pytest.approx(
                    point.hess[i][j], rel=1e-14, abs=1e-15)


def test_parts_of_a_jet_are_its_own_tuples():
    x, y = Dual.seed([0.4, -1.1])
    f = x * y + dual.sin(x)
    val, grad, hess = dual.parts(f, 2)
    assert val is f.val and grad is f.grad and hess is f.hess


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("c", [0, 2.0, 1 + 2j])
def test_parts_of_a_constant_are_zero_derivatives(c, k):
    val, grad, hess = dual.parts(c, k)
    assert type(val) is complex and val == c
    assert grad == (0j,) * k
    assert hess == ((0j,) * k,) * k


def test_arrays_of_point_jets_match_their_parts():
    x, y, z = Dual.seed([0.4, -1.1, 0.3])
    jets = [x * y + dual.sin(z), dual.exp(x * z), 2.5, x * x * y * z]
    vals, grads, hess = dual.arrays(jets, 3)
    assert vals.shape == (4,) and grads.shape == (4, 3) and hess.shape == (4, 3, 3)
    for m, jet in enumerate(jets):
        val, grad, h = dual.parts(jet, 3)
        assert vals[m] == val
        assert all(grads[m, i] == grad[i] for i in range(3))
        assert all(hess[m, i, j] == h[i][j] for i in range(3) for j in range(3))
    # the plain constant has zero derivatives
    assert vals[2] == 2.5 and not grads[2].any() and not hess[2].any()


def test_arrays_of_grid_jets_carry_the_lane_axis_first():
    points = [[0.4, -1.1, 0.3], [0.2, 0.5, -0.7]]
    x, y, z = Dual.seed_grid(dual.columns(points))
    vals, grads, hess = dual.arrays([x * y + dual.sin(z), 2.5, z * z], 3)
    assert vals.shape == (2, 3) and grads.shape == (2, 3, 3) and hess.shape == (2, 3, 3, 3)
    for n, point in enumerate(points):
        px, py, pz = Dual.seed(point)
        want = dual.arrays([px * py + dual.sin(pz), 2.5, pz * pz], 3)
        for got, w in zip((vals, grads, hess), want):
            assert np.allclose(got[n], w, rtol=1e-15, atol=0)
    # the constant is broadcast to every lane, with zero derivatives
    assert (vals[:, 1] == 2.5).all() and not grads[:, 1].any() and not hess[:, 1].any()


def test_arrays_of_constants_alone_have_no_lane_axis():
    vals, grads, hess = dual.arrays([1.0, 0.0], 3)
    assert vals.shape == (2,) and grads.shape == (2, 3) and hess.shape == (2, 3, 3)


def _broadcast_arrays(jets, k):
    """dual.arrays as one broadcast view per entry, the oracle of its block fill."""
    rows = [dual.parts(x, k) for x in jets]
    flat = [e for val, grad, hess in rows for e in (val, *grad, *(h for r in hess for h in r))]
    block = np.stack(np.broadcast_arrays(*flat), axis=-1).astype(complex, copy=False)
    block = block.reshape(block.shape[:-1] + (len(rows), 1 + k + k * k))
    return (block[..., 0], block[..., 1:k + 1],
            block[..., k + 1:].reshape(block.shape[:-1] + (k, k)))


def _arrays_cases():
    px, py, pz = Dual.seed([0.4, -1.1, 0.3])
    x, y, z = Dual.seed_grid(dual.columns([[0.4, -1.1, 0.3], [0.2, 0.5, -0.7],
                                           [1.5, 0.0, 2.0]]))
    mask = np.array([False, True, False])
    return {
        "point jets": ([px * py + dual.sin(pz), dual.exp(px * pz), px * px * py * pz], 3),
        "grid jets": ([x * y + dual.sin(z), dual.exp(x * z), x / (y + 2.0), x], 3),
        "constants only": ([1.0, 0.0, 2j, -0.0], 3),
        # a seed's derivatives are plain constants beside its lane values, and
        # a dropped lane is NaN in every entry
        "lanes and constants": ([x, 2.5, z * z, 0.0, dual.drop_lanes(y * z, mask), -1j], 3),
        "one variable": ([Dual.seed_grid([np.array([0.3, 0.9])])[0] ** 3, 4.0], 1),
    }


@pytest.mark.parametrize("name", list(_arrays_cases()))
def test_arrays_fill_matches_the_broadcast_oracle(name):
    jets, k = _arrays_cases()[name]
    for got, want in zip(dual.arrays(jets, k), _broadcast_arrays(jets, k)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)


def test_is_zero_only_for_a_plain_zero():
    assert dual.is_zero(0) and dual.is_zero(0.0) and dual.is_zero(0j)
    assert not dual.is_zero(1e-300)
    (x,) = Dual.seed([0.0])
    assert x.val == 0
    assert not dual.is_zero(x)
    assert not dual.is_zero(x * 0.0)


def test_compose_lifts_a_jet_and_passes_a_constant_value():
    assert dual.compose(0.7, 2.0, 3.0, 4.0) == 2.0
    seeds = Dual.seed([0.3, 0.9, -0.2])
    v = seeds[0] * seeds[1] + seeds[2]
    got, want = dual.compose(v, 2.0, 3.0, 4.0), v.lift(2.0, 3.0, 4.0)
    assert (got.val, got.grad, got.hess) == (want.val, want.grad, want.hess)
