"""Forward-mode jets against hand-differentiated expressions and finite
differences (the only place finite differences are allowed)."""

import cmath
import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

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


def test_reciprocal_at_a_vanishing_point_gradient():
    # at x = 0 the gradient of x^2 + 1 is an exact point 0 and drops out of the
    # Hessian of the reciprocal: (1 / (1 + x^2))'' = -2 there
    (x,) = Dual.seed([0.0])
    f = 1.0 / (x * x + 1.0)
    assert f.val == 1 and f.grad[0] == 0 and f.hess[0][0] == -2


def test_a_point_value_of_zero_is_still_multiplied():
    # only derivative entries are skipped as zeros: 0 * inf stays NaN
    (x,) = Dual.seed([0.0])
    steep = Dual(1 + 0j, (complex(math.inf),), (0j,))
    assert cmath.isnan((x * steep).grad[0]) and cmath.isnan((steep * x).grad[0])


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


def test_parts_of_a_jet_are_its_own_entries():
    # the Hessian rows are built on read, but no entry is copied
    x, y = Dual.seed([0.4, -1.1])
    f = x * y + dual.sin(x)
    val, grad, hess = dual.parts(f, 2)
    assert val is f.val and grad is f.grad
    assert hess[0][0] is f.upper[0] and hess[0][1] is f.upper[1] and hess[1][1] is f.upper[2]
    assert hess[1][0] is f.upper[1]


@pytest.mark.parametrize("k", [1, 3, 4])
def test_a_jet_stores_its_hessian_once(k):
    # k(k+1)/2 Hessian entries in every jet: seeds, constants and the result
    # of every operation; the rows are built on read and mirror one entry
    point = [0.4, -1.1, 0.3, 0.8][:k]
    grid = Dual.seed_grid(dual.columns([point, [0.2, 0.5, -0.7, 1.2][:k]]))
    for seeds in (Dual.seed(point), grid):
        x, y = seeds[0] * seeds[-1] + 1.7, seeds[-1] + 2.5
        jets = {
            "seed": seeds[0], "constant": Dual.constant(2.0, k),
            "add": x + y, "radd": 2.0 + x, "neg": -x, "sub": x - y, "rsub": 1.5 - x,
            "mul": x * y, "scale": x * (0.5 - 1j), "rmul": 3.0 * x,
            "reciprocal": x.reciprocal(), "div": x / y, "div scalar": x / 2.0,
            "rdiv": 2.0 / x, "pow": x ** 3, "pow negative": x ** -2, "pow zero": x ** 0,
            "pow complex": x ** (0.5 + 0.3j), "lift": x.lift(1.0, 2.0, 3.0),
            "exp": dual.exp(x), "log": dual.log(x), "sin": dual.sin(x), "cos": dual.cos(x),
            "tan": dual.tan(x), "sinh": dual.sinh(x), "cosh": dual.cosh(x),
            "tanh": dual.tanh(x), "power": dual.power(x, y),
            "compose": dual.compose(x, 1.0, 2.0, 3.0), "partial": dual.partial(x * y, 0),
        }
        if seeds is grid:
            jets["drop_lanes"] = dual.drop_lanes(x, np.array([False, True]))
        for name, jet in jets.items():
            assert len(jet.grad) == k and len(jet.upper) == k * (k + 1) // 2, name
            hess = jet.hess
            assert len(hess) == k and all(len(row) == k for row in hess), name
            assert all(hess[i][j] is hess[j][i] for i in range(k) for j in range(k)), name


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


# -- sparse, one-triangle jets against the dense full-matrix arithmetic -----

class _Dense:
    """The reference jet: every gradient entry and all k x k Hessian entries
    computed, each by the same formula and in the same factor order as
    :class:`Dual`, with no entry skipped and no triangle shared."""

    def __init__(self, val, grad, hess):
        self.val, self.grad, self.hess = val, grad, hess

    @staticmethod
    def seeds(columns):
        k = len(columns)
        z = (0j,) * k
        return [_Dense(c, tuple(1 + 0j if j == i else 0j for j in range(k)), (z,) * k)
                for i, c in enumerate(columns)]

    def _coerce(self, other):
        if isinstance(other, _Dense):
            return other
        z = (0j,) * len(self.grad)
        return _Dense(complex(other), z, (z,) * len(z))

    def __add__(self, other):
        o = self._coerce(other)
        return _Dense(self.val + o.val, tuple(a + b for a, b in zip(self.grad, o.grad)),
                      tuple(tuple(a + b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.hess, o.hess)))

    __radd__ = __add__

    def __neg__(self):
        return _Dense(-self.val, tuple(-a for a in self.grad),
                      tuple(tuple(-a for a in r) for r in self.hess))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        k = range(len(self.grad))
        if not isinstance(other, _Dense):
            c = complex(other)
            return _Dense(self.val * c, tuple(a * c for a in self.grad),
                          tuple(tuple(a * c for a in r) for r in self.hess))
        sv, ov, sg, og = self.val, other.val, self.grad, other.grad
        return _Dense(sv * ov, tuple(sg[i] * ov + sv * og[i] for i in k),
                      tuple(tuple(self.hess[i][j] * ov + sg[i] * og[j] + sg[j] * og[i]
                                  + sv * other.hess[i][j] for j in k) for i in k))

    __rmul__ = __mul__

    def reciprocal(self):
        iv = 1.0 / self.val
        iv2 = iv * iv
        g, k = self.grad, range(len(self.grad))
        return _Dense(iv, tuple(-a * iv2 for a in g),
                      tuple(tuple((2.0 * g[i] * g[j] * iv - self.hess[i][j]) * iv2 for j in k)
                            for i in k))

    def __truediv__(self, other):
        if not isinstance(other, _Dense):
            return self * (1.0 / complex(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, n):
        out = self
        for _ in range(abs(n) - 1):
            out = out * self
        return out.reciprocal() if n < 0 else out

    def lift(self, f0, f1, f2):
        g, k = self.grad, range(len(self.grad))
        return _Dense(f0, tuple(f1 * a for a in g),
                      tuple(tuple(f1 * self.hess[i][j] + f2 * g[i] * g[j] for j in k)
                            for i in k))


def _m(v):
    return np if isinstance(v, np.ndarray) else cmath


class _DenseFunctions:
    """The elementary functions of :mod:`dskg.dual`, lifted onto :class:`_Dense`."""

    @staticmethod
    def exp(x):
        e = _m(x.val).exp(x.val)
        return x.lift(e, e, e)

    @staticmethod
    def log(x):
        v = x.val
        return x.lift(_m(v).log(v), 1.0 / v, -1.0 / (v * v))

    @staticmethod
    def sin(x):
        s, c = _m(x.val).sin(x.val), _m(x.val).cos(x.val)
        return x.lift(s, c, -s)

    @staticmethod
    def cosh(x):
        s, c = _m(x.val).sinh(x.val), _m(x.val).cosh(x.val)
        return x.lift(c, s, c)

    @staticmethod
    def power(x, p):
        return _DenseFunctions.exp(_DenseFunctions.log(x) * p)

    @staticmethod
    def compose(x, f0, f1, f2):
        return x.lift(f0, f1, f2)


class _Rejected(Exception):
    """A drawn expression leaves the domain where its functions are smooth."""


def _guard(x, *, cut=False, large=False):
    """Reject a jet with a lane near 0 (or near the principal cut when ``cut``),
    or, when ``large``, with a lane too large to exponentiate."""
    v = np.asarray(x.val)
    if large:
        if np.any(np.abs(v) > 20):
            raise _Rejected
    elif np.any(np.abs(v) < 0.1) or cut and np.any((v.real < 0) & (np.abs(v.imag) < 0.1)):
        raise _Rejected


def _bell(v):
    """The 2-jet of t -> 1 / (1 + t^2) at ``v``, for compose."""
    f = 1.0 / (1.0 + v * v)
    return f, -2.0 * v * f * f, (6.0 * v * v - 2.0) * f * f * f


def _evaluate(tree, leaves, fn):
    """An expression ``tree`` over the seed ``leaves``, with the elementary
    functions of ``fn``; raises :class:`_Rejected` near a pole, a branch cut
    or an overflow."""
    op, *args = tree
    if op == "var":
        return leaves[args[0]]
    x = _evaluate(args[0], leaves, fn)
    if op in ("add", "sub", "mul", "div"):
        y = _evaluate(args[1], leaves, fn)
        if op == "div":
            _guard(y)
            return x / y
        return x + y if op == "add" else x - y if op == "sub" else x * y
    if op == "shift":
        c, left = args[1:]
        return c - x if left else x + c
    if op == "scale":
        c, left = args[1:]
        if left:
            _guard(x)
            return c / x
        return x * c
    if op == "pow":
        if args[1] < 0:
            _guard(x)
        return x ** args[1]
    if op in ("log", "power"):
        _guard(x, cut=True)
        return fn.log(x) if op == "log" else fn.power(x, args[1])
    if op == "compose":
        _guard(x, large=True)
        return fn.compose(x, *_bell(x.val))
    _guard(x, large=True)
    return getattr(fn, op)(x)


_TREES = st.recursive(
    st.tuples(st.just("var"), st.integers(0, 2)),
    lambda t: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), t, t),
        st.tuples(st.sampled_from(["exp", "log", "sin", "cosh", "compose"]), t),
        st.tuples(st.just("pow"), t, st.sampled_from([2, 3, -1, -2])),
        st.tuples(st.just("power"), t, st.sampled_from([0.5, -1.5 + 0.3j, 1j])),
        st.tuples(st.sampled_from(["shift", "scale"]), t,
                  st.sampled_from([2.0, -0.5, 1.5 + 0.5j, 3j]), st.booleans())),
    max_leaves=8)
_LANES = 4


def _close(got, want, lanes):
    """Every entry of ``got`` within 1e-14 of the largest entry of ``want`` at
    its lane (the bound is relative to the block: value, gradient or Hessian)."""
    got = np.array([np.broadcast_to(e, lanes) for e in got])
    want = np.array([np.broadcast_to(e, lanes) for e in want])
    scale = np.max(np.abs(want), axis=0)
    return bool(np.all(np.abs(got - want) <= 1e-14 * scale))


@seed(2201)
@settings(max_examples=300, deadline=None, database=None)
@given(_TREES,
       st.lists(st.floats(0.2, 1.5), min_size=3 * _LANES, max_size=3 * _LANES),
       st.lists(st.floats(-0.5, 0.5), min_size=3 * _LANES, max_size=3 * _LANES))
def test_sparse_jets_match_the_dense_arithmetic(tree, re, im):
    cols = list((np.array(re) + 1j * np.array(im)).reshape(3, _LANES))
    point = [complex(c[0]) for c in cols]
    for sparse_leaves, dense_leaves in ((Dual.seed_grid(cols), _Dense.seeds(cols)),
                                        (Dual.seed(point), _Dense.seeds(point))):
        try:
            want = _evaluate(tree, dense_leaves, _DenseFunctions)
        except _Rejected:
            assume(False)
        got = _evaluate(tree, sparse_leaves, dual)
        lanes = np.shape(want.val)
        entries = [np.broadcast_to(e, lanes) for e in
                   (want.val, *want.grad, *(h for row in want.hess for h in row))]
        assume(np.all(np.isfinite(entries)) and np.max(np.abs(entries)) < 1e100)
        assert _close([got.val], [want.val], lanes)
        assert _close(got.grad, want.grad, lanes)
        assert _close([h for row in got.hess for h in row],
                      [h for row in want.hess for h in row], lanes)
        assert all(got.hess[i][j] is got.hess[j][i] for i in range(3) for j in range(3))


def _plain_zero(e):
    return type(e) is complex and e == 0


@pytest.mark.parametrize("expr,used", [
    (lambda c: dual.sin(c[1]) * c[1], {1}),
    (lambda c: dual.exp(c[0]) / (c[2] + 2.0), {0, 2}),
    (lambda c: 3.0 - c[2] ** -2, {2}),
    (lambda c: dual.log(c[0] * c[0] + 1.0) - dual.cosh(c[0]), {0}),
])
def test_structural_zeros_stay_plain_scalars(expr, used):
    # an entry outside the variables an expression uses is the plain 0j, never
    # a lane array of zeros; the entries of a used variable are lane arrays
    c = Dual.seed_grid(dual.columns([[0.4, -1.1, 0.3], [0.2, 0.5, -0.7]]))
    f = expr(c)
    for i in range(3):
        assert _plain_zero(f.grad[i]) == (i not in used)
        for j in range(3):
            if i not in used or j not in used:
                assert _plain_zero(f.hess[i][j])
            assert f.hess[i][j] is f.hess[j][i]
    assert all(isinstance(f.hess[i][i], np.ndarray) for i in used)


def test_dropped_lanes_are_nan_in_every_entry_and_every_later_jet():
    c = Dual.seed_grid(dual.columns([[0.4, -1.1, 0.3], [0.2, 0.5, -0.7], [1.5, 0.2, 0.9]]))
    f = dual.sin(c[1]) * c[1]
    mask = np.array([False, True, False])
    dropped = dual.drop_lanes(f, mask)
    later = dual.exp(c[0] * dropped) + c[2]
    for jet in (dropped, later):
        entries = [jet.val, *jet.grad, *(h for row in jet.hess for h in row)]
        assert all(isinstance(e, np.ndarray) and np.isnan(e[1]) for e in entries)
        assert all(jet.hess[i][j] is jet.hess[j][i] for i in range(3) for j in range(3))
    # the kept lanes keep their values, structural zeros included
    for got, want in zip((dropped.val, *dropped.grad, *dropped.hess[0], dropped.hess[1][1]),
                         (f.val, *f.grad, *f.hess[0], f.hess[1][1])):
        assert np.array_equal(got[[0, 2]], np.broadcast_to(want, 3)[[0, 2]])


# -- the inline dispatch against the per-entry helper calls, bit for bit -----

def _is_zero(e):
    return type(e) is complex and e == 0


def _times(a, b):
    return 0j if _is_zero(a) or _is_zero(b) else a * b


def _lmul(v, a):
    return 0j if _is_zero(a) else v * a


def _rmul(a, v):
    return 0j if _is_zero(a) else a * v


def _plus(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return a + b


class _Helpers:
    """The reference arithmetic of :class:`Dual`: every entry of a product,
    sum, reciprocal and composition written as calls of the zero-skipping
    helpers above.  :func:`_helper_arithmetic` installs these methods on
    :class:`Dual`, whose inline dispatch must give the same bits."""

    def __add__(self, other):
        o = self._coerce(other)
        return Dual(self.val + o.val, tuple(_plus(a, b) for a, b in zip(self.grad, o.grad)),
                    tuple(_plus(a, b) for a, b in zip(self.upper, o.upper)))

    def __mul__(self, other):
        if not isinstance(other, Dual):
            c = complex(other)
            return Dual(self.val * c, tuple(_rmul(a, c) for a in self.grad),
                        tuple(_rmul(a, c) for a in self.upper))
        pairs = dual._TRIANGLES[len(self.grad)][0]
        sv, ov = self.val, other.val
        sg, og = self.grad, other.grad
        g = tuple(_plus(_rmul(a, ov), _lmul(sv, b)) for a, b in zip(sg, og))
        h = tuple(_plus(_plus(_plus(_rmul(a, ov), _times(sg[i], og[j])),
                              _times(sg[j], og[i])), _lmul(sv, b))
                  for (i, j), a, b in zip(pairs, self.upper, other.upper))
        return Dual(sv * ov, g, h)

    def reciprocal(self):
        iv = 1.0 / self.val
        iv2 = iv * iv
        sg = self.grad
        g = tuple(_rmul(-a, iv2) for a in sg)
        h = []
        for (i, j), e in zip(dual._TRIANGLES[len(sg)][0], self.upper):
            t = 0j if _is_zero(sg[i]) or _is_zero(sg[j]) else 2.0 * sg[i] * sg[j] * iv
            h.append(_rmul(t if _is_zero(e) else -e if _is_zero(t) else t - e, iv2))
        return Dual(iv, g, tuple(h))

    def lift(self, f0, f1, f2):
        sg = self.grad
        g = tuple(_lmul(f1, a) for a in sg)
        h = tuple(_plus(_lmul(f1, e), 0j if _is_zero(sg[i]) or _is_zero(sg[j])
                        else f2 * sg[i] * sg[j])
                  for (i, j), e in zip(dual._TRIANGLES[len(sg)][0], self.upper))
        return Dual(f0, g, h)


_HELPER_METHODS = {"__add__": _Helpers.__add__, "__radd__": _Helpers.__add__,
                   "__mul__": _Helpers.__mul__, "__rmul__": _Helpers.__mul__,
                   "reciprocal": _Helpers.reciprocal, "lift": _Helpers.lift}


@contextlib.contextmanager
def _helper_arithmetic():
    """:class:`Dual` with the reference methods of :class:`_Helpers`."""
    saved = {name: Dual.__dict__[name] for name in _HELPER_METHODS}
    try:
        for name, fn in _HELPER_METHODS.items():
            setattr(Dual, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(Dual, name, fn)


def _row_arrays(jets, k):
    """:func:`dual.arrays` read out from the k Hessian rows of each jet."""
    width = 1 + k + k * k
    flat = []
    for x in jets:
        if isinstance(x, Dual):
            flat.append(x.val)
            flat.extend(x.grad)
            for row in x.hess:
                flat.extend(row)
        else:
            flat.append(complex(x))
            flat.extend((0j,) * (width - 1))
    lane_at = [i for i, e in enumerate(flat) if isinstance(e, np.ndarray)]
    if lane_at:
        lead = flat[lane_at[0]].shape
        fixed_at = [i for i, e in enumerate(flat) if not isinstance(e, np.ndarray)]
        block = np.empty(lead + (len(flat),), dtype=complex)
        block[..., lane_at] = np.array([flat[i] for i in lane_at]).T
        block[..., fixed_at] = [flat[i] for i in fixed_at]
    else:
        lead = ()
        block = np.array(flat, dtype=complex)
    block = block.reshape(lead + (len(jets), width))
    return (block[..., 0], block[..., 1:k + 1],
            block[..., k + 1:].reshape(lead + (len(jets), k, k)))


def _bits(e):
    """The bytes of an entry, sign bits and NaN payloads included."""
    return np.ascontiguousarray(e).tobytes()


def _same_bits(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).dtype == np.asarray(want).dtype and _bits(got) == _bits(want))


def _assert_inline_matches_helpers(tree, leaves):
    with _helper_arithmetic():
        try:
            want = _evaluate(tree, leaves(), dual)
        except _Rejected:
            assume(False)
    got = _evaluate(tree, leaves(), dual)
    for part in ("val", "grad", "upper"):
        g, w = getattr(got, part), getattr(want, part)
        if part == "val":
            g, w = (g,), (w,)
        assert len(g) == len(w)
        for a, b in zip(g, w):
            # a structural zero stays the plain 0j where the helpers leave one
            assert _is_zero(a) == _is_zero(b), part
            assert _same_bits(a, b), part
    jets = [got, 2.5, leaves()[0], -0.0]
    for a, b in zip(dual.arrays(jets, 3), _row_arrays(jets, 3)):
        assert a.shape == b.shape and a.dtype == b.dtype and _bits(a) == _bits(b)


@seed(2203)
@settings(max_examples=300, deadline=None, database=None)
@given(_TREES,
       st.lists(st.floats(0.2, 1.5), min_size=3 * _LANES, max_size=3 * _LANES),
       st.lists(st.floats(-0.5, 0.5), min_size=3 * _LANES, max_size=3 * _LANES))
def test_inline_dispatch_matches_the_helper_calls_bit_for_bit(tree, re, im):
    cols = list((np.array(re) + 1j * np.array(im)).reshape(3, _LANES))
    point = [complex(c[0]) for c in cols]
    _assert_inline_matches_helpers(tree, lambda: Dual.seed_grid(cols))
    _assert_inline_matches_helpers(tree, lambda: Dual.seed(point))


_V0, _V1 = ("var", 0), ("var", 1)


@seed(2204)
@settings(max_examples=200, deadline=None, database=None)
@given(_TREES, st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.25, 2.0]), min_size=3, max_size=3))
# a reciprocal, a composition and a product whose gradient vanishes at the point
@example(("pow", ("add", ("mul", _V0, _V0), ("shift", _V1, 2.0, False)), -1), [0.0, 0.0, 0.5])
@example(("exp", ("mul", _V0, _V1)), [0.0, -0.0, 1.0])
@example(("mul", ("sin", _V0), ("mul", _V1, _V1)), [-0.0, 0.0, 2.0])
def test_inline_dispatch_matches_the_helper_calls_at_zero_coordinates(tree, point):
    # point values of 0 and -0 make products that are complex zeros, which a
    # sum skips as it skips a structural zero
    _assert_inline_matches_helpers(tree, lambda: Dual.seed(point))
    _assert_inline_matches_helpers(tree, lambda: Dual.seed_grid(dual.columns([point, point])))
