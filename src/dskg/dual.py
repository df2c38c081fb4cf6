"""Forward-mode automatic differentiation with first- and second-order jets.

A :class:`Dual` carries a complex value together with its gradient and
Hessian with respect to up to four seed variables (three chart coordinates
plus, optionally, one auxiliary variable).  All derivatives produced this
way are exact to rounding; no finite-difference truncation enters anywhere
in the main computation paths.

Each entry of a jet is either a point value (a Python ``complex``) or a
numpy lane array with one lane per grid node; the arithmetic is the same
for both and mixes them by broadcasting (Taylor arithmetic applied lane-wise;
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).
:meth:`Dual.seed` starts a point jet and :meth:`Dual.seed_grid` a grid jet.
A lane array may have any shape that broadcasts with the others: ``(N,)``
for a list of points, or a sub-grid of an open mesh, whose coordinate
columns have shapes ``(n1, 1, 1)``, ``(1, n2, 1)`` and ``(1, 1, n3)``.  On
an open mesh each entry is evaluated only on the sub-grid of the
coordinates it depends on, and grows to the full grid only where its
operands do.  The elementary functions take ``cmath`` for a point value and
``numpy`` for lane arrays.

A jet is second order, or first order when :func:`first_order` has dropped
its Hessian: its triangle is then empty (``Dual.upper == ()``).  Every
operation zips over the operands' triangles, so on a first-order jet it
computes the value and gradient with the same operations, in the same order,
and no Hessian term; an operation on two jets gives the lower of their
orders, and a constant takes the order of the jet it meets (truncated Taylor
propagation; ibid.).
The read-outs return the orders a jet carries: :attr:`Dual.hess` has no rows
on a first-order jet, :func:`parts` gives its value and gradient, and
:func:`arrays` gives values and gradients only when some jet read is first
order.  :func:`partial` turns a second-order jet into the first-order jet of
one of its derivatives, and refuses a first-order one.

The derivative entries are sparse (ibid., ch. 7).  A gradient or Hessian
entry that is a plain ``complex`` zero, as the seeds and constants start
them, is a structural zero: every product, sum, reciprocal and composition
drops each term that has one as a factor, and an entry all of whose terms
are dropped stays the plain ``0j`` instead of becoming a lane array of
zeros.  Values are always multiplied.  Each operation tests its entries for
a structural zero inline (``type(e) is complex and e == 0``), so that a jet
costs its arithmetic and no call per entry.  A jet stores its Hessian once,
as the k(k+1)/2 entries of its upper triangle row by row (``Dual.upper``),
and every operation works entry by entry on that triangle.  The read-outs
build the k rows: :attr:`Dual.hess` as tuples, in which ``hess[j][i]`` is
the same object as ``hess[i][j]``, and :func:`arrays` by one gather of the
stored entries.

A lane dropped by :func:`drop_lanes` is NaN in every entry, and so is that
lane of every entry computed from the dropped jet afterwards.  A NaN that
arises in a value by itself reaches only the derivative entries that are not
structural zeros.
"""

from __future__ import annotations

import cmath
from itertools import compress

import numpy as np


class _Triangles(dict):
    """For a jet in k variables: the (i, j) positions with i <= j of its
    Hessian, row by row, as :attr:`Dual.upper` stores them; for every
    position of the full matrix the index of its entry there; and the index
    that gathers a stored jet, value, gradient and triangle, into the value,
    gradient and k x k rows that :func:`arrays` reads out.  Built at the
    first jet in k variables."""

    def __missing__(self, k):
        pairs = tuple((i, j) for i in range(k) for j in range(i, k))
        at = tuple(tuple(pairs.index((min(i, j), max(i, j))) for j in range(k))
                   for i in range(k))
        gather = np.array([*range(k + 1), *(k + 1 + n for row in at for n in row)])
        self[k] = pairs, at, gather
        return self[k]


_TRIANGLES = _Triangles()


def _zero_triangle(k):
    """The Hessian triangle of a jet in k variables with no second derivatives."""
    return (0j,) * (k * (k + 1) // 2)


class Dual:
    """Second-order jet (value, gradient, Hessian), or first-order jet (value,
    gradient), over point values or grid lanes."""

    __slots__ = ("val", "grad", "upper")
    # numpy hands ``array * jet`` to Dual.__rmul__ instead of building an
    # object array of jets
    __array_ufunc__ = None

    def __init__(self, val, grad, upper):
        self.val = val
        # derivative entries: lane arrays, point values, or the structural
        # zero 0j, which no arithmetic turns into a lane array
        self.grad = grad        # tuple, length k
        # the Hessian once: its upper triangle, k(k+1)/2 entries row by row
        self.upper = upper      # tuple, in _TRIANGLES[k] order

    @property
    def hess(self):
        """The k rows of the Hessian, in which ``hess[j][i]`` is ``hess[i][j]``;
        none for a first-order jet."""
        upper = self.upper
        if not upper:
            return ()
        return tuple(tuple(map(upper.__getitem__, row)) for row in _TRIANGLES[len(self.grad)][1])

    # -- construction -------------------------------------------------

    @staticmethod
    def constant(value, nvars):
        return Dual(complex(value), (0j,) * nvars, _zero_triangle(nvars))

    @staticmethod
    def seed(point):
        """All coordinates of ``point`` as simultaneous dual variables."""
        k = len(point)
        z = _zero_triangle(k)
        return [Dual(complex(point[i]), tuple(1 + 0j if j == i else 0j for j in range(k)), z)
                for i in range(k)]

    @staticmethod
    def seed_grid(columns):
        """The coordinate ``columns`` of a grid, each an (N,) array or a
        column of an open mesh, as simultaneous dual variables with one lane
        per grid node."""
        k = len(columns)
        z = _zero_triangle(k)
        return [Dual(np.asarray(columns[i], dtype=complex),
                     tuple(1 + 0j if j == i else 0j for j in range(k)), z)
                for i in range(k)]

    def _coerce(self, other):
        if isinstance(other, Dual):
            return other
        return Dual.constant(other, len(self.grad))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        # a structural zero is skipped: the other term is the sum
        return Dual(self.val + o.val,
                    tuple([b if type(a) is complex and a == 0 else
                           a if type(b) is complex and b == 0 else a + b
                           for a, b in zip(self.grad, o.grad)]),
                    tuple([b if type(a) is complex and a == 0 else
                           a if type(b) is complex and b == 0 else a + b
                           for a, b in zip(self.upper, o.upper)]))

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, tuple(-a for a in self.grad), tuple(-a for a in self.upper))

    def __sub__(self, other):
        o = self._coerce(other)
        # a structural-zero minuend gives -b, a structural-zero subtrahend a
        return Dual(self.val - o.val,
                    tuple([-b if type(a) is complex and a == 0 else
                           a if type(b) is complex and b == 0 else a - b
                           for a, b in zip(self.grad, o.grad)]),
                    tuple([-b if type(a) is complex and a == 0 else
                           a if type(b) is complex and b == 0 else a - b
                           for a, b in zip(self.upper, o.upper)]))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Dual):
            c = complex(other)
            return Dual(self.val * c,
                        tuple([0j if type(a) is complex and a == 0 else a * c for a in self.grad]),
                        tuple([0j if type(a) is complex and a == 0 else a * c
                               for a in self.upper]))
        sv, ov = self.val, other.val
        sg, og = self.grad, other.grad
        sz = [type(a) is complex and a == 0 for a in sg]
        oz = [type(b) is complex and b == 0 for b in og]
        # each entry is a sum of products, added left to right; a product with
        # a structural zero factor is the structural zero 0j, and a sum skips
        # a term that is a complex zero, as __add__ does.  A value factor is
        # always multiplied, and the factors keep their order because numpy's
        # complex product is not bitwise commutative
        g = []
        for a, b, za, zb in zip(sg, og, sz, oz):
            x = 0j if za else a * ov
            y = 0j if zb else sv * b
            g.append(y if type(x) is complex and x == 0 else
                     x if type(y) is complex and y == 0 else x + y)
        h = []
        for (i, j), a, b in zip(_TRIANGLES[len(sg)][0], self.upper, other.upper):
            x = 0j if type(a) is complex and a == 0 else a * ov
            y = 0j if sz[i] or oz[j] else sg[i] * og[j]
            x = (y if type(x) is complex and x == 0 else
                 x if type(y) is complex and y == 0 else x + y)
            y = 0j if sz[j] or oz[i] else sg[j] * og[i]
            x = (y if type(x) is complex and x == 0 else
                 x if type(y) is complex and y == 0 else x + y)
            y = 0j if type(b) is complex and b == 0 else sv * b
            h.append(y if type(x) is complex and x == 0 else
                     x if type(y) is complex and y == 0 else x + y)
        return Dual(sv * ov, tuple(g), tuple(h))

    __rmul__ = __mul__

    def reciprocal(self):
        iv = 1.0 / self.val
        iv2 = iv * iv
        sg = self.grad
        sz = [type(a) is complex and a == 0 for a in sg]
        g = tuple([0j if za else -a * iv2 for a, za in zip(sg, sz)])
        h = []
        for (i, j), e in zip(_TRIANGLES[len(sg)][0], self.upper):
            t = 0j if sz[i] or sz[j] else 2.0 * sg[i] * sg[j] * iv
            t = (t if type(e) is complex and e == 0 else
                 -e if type(t) is complex and t == 0 else t - e)
            h.append(0j if type(t) is complex and t == 0 else t * iv2)
        return Dual(iv, g, tuple(h))

    def __truediv__(self, other):
        if not isinstance(other, Dual):
            return self * (1.0 / complex(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            n = int(p)
            if n == 0:
                return Dual.constant(1.0, len(self.grad))
            if n < 0:
                return (self ** (-n)).reciprocal()
            out = self
            for _ in range(n - 1):
                out = out * self
            return out
        # non-integer exponent: principal branch
        return exp(log(self) * p)

    # -- composition with a univariate 2-jet ---------------------------

    def lift(self, f0, f1, f2):
        """Compose with a scalar function given by value/first/second derivative."""
        sg = self.grad
        sz = [type(a) is complex and a == 0 for a in sg]
        g = tuple([0j if za else f1 * a for a, za in zip(sg, sz)])
        h = []
        for (i, j), e in zip(_TRIANGLES[len(sg)][0], self.upper):
            x = 0j if type(e) is complex and e == 0 else f1 * e
            y = 0j if sz[i] or sz[j] else f2 * sg[i] * sg[j]
            h.append(y if type(x) is complex and x == 0 else
                     x if type(y) is complex and y == 0 else x + y)
        return Dual(f0, g, tuple(h))

    def __repr__(self):
        return f"Dual({self.val!r}, grad={self.grad!r})"


# -- elementary functions, usable on Dual or plain scalars -------------
# numpy for lane arrays, cmath for point values: one type check per call

def exp(x):
    if isinstance(x, Dual):
        v = x.val
        e = np.exp(v) if isinstance(v, np.ndarray) else cmath.exp(v)
        return x.lift(e, e, e)
    return np.exp(x) if isinstance(x, np.ndarray) else cmath.exp(x)


def log(x):
    if isinstance(x, Dual):
        v = x.val
        lv = np.log(v) if isinstance(v, np.ndarray) else cmath.log(v)
        return x.lift(lv, 1.0 / v, -1.0 / (v * v))
    return np.log(x) if isinstance(x, np.ndarray) else cmath.log(x)


def sin(x):
    if isinstance(x, Dual):
        v = x.val
        m = np if isinstance(v, np.ndarray) else cmath
        s, c = m.sin(v), m.cos(v)
        return x.lift(s, c, -s)
    return np.sin(x) if isinstance(x, np.ndarray) else cmath.sin(x)


def cos(x):
    if isinstance(x, Dual):
        v = x.val
        m = np if isinstance(v, np.ndarray) else cmath
        s, c = m.sin(v), m.cos(v)
        return x.lift(c, -s, -c)
    return np.cos(x) if isinstance(x, np.ndarray) else cmath.cos(x)


def tan(x):
    return sin(x) / cos(x)


def sinh(x):
    if isinstance(x, Dual):
        v = x.val
        m = np if isinstance(v, np.ndarray) else cmath
        s, c = m.sinh(v), m.cosh(v)
        return x.lift(s, c, s)
    return np.sinh(x) if isinstance(x, np.ndarray) else cmath.sinh(x)


def cosh(x):
    if isinstance(x, Dual):
        v = x.val
        m = np if isinstance(v, np.ndarray) else cmath
        s, c = m.sinh(v), m.cosh(v)
        return x.lift(c, s, c)
    return np.cosh(x) if isinstance(x, np.ndarray) else cmath.cosh(x)


def tanh(x):
    return sinh(x) / cosh(x)


def power(x, p):
    """Principal-branch power with arbitrary complex exponent."""
    if isinstance(x, Dual) or isinstance(p, Dual):
        xd = x if isinstance(x, Dual) else Dual.constant(x, len(p.grad))
        return exp(log(xd) * p)
    if isinstance(x, np.ndarray):
        return np.exp(p * np.log(x))
    return cmath.exp(p * cmath.log(x))


# -- read-outs: the only code outside this class that knows a jet's layout --

def value(x):
    if isinstance(x, Dual):
        return x.val
    return x if isinstance(x, np.ndarray) else complex(x)


def first_order(x):
    """The jet ``x`` without its Hessian: its value and gradient as a
    first-order jet.  A constant is returned as it is."""
    return Dual(x.val, x.grad, ()) if isinstance(x, Dual) else x


def parts(x, k):
    """(value, gradient, Hessian) of a jet, or (value, gradient) of a
    first-order jet; a constant in ``k`` variables has zero gradient and
    Hessian."""
    if isinstance(x, Dual):
        return (x.val, x.grad, x.hess) if x.upper else (x.val, x.grad)
    z = (0j,) * k
    return complex(x), z, (z,) * k


def arrays(jets, k):
    """Values ``(..., m)``, gradients ``(..., m, k)`` and Hessians
    ``(..., m, k, k)`` of ``m`` jets in ``k`` variables, as complex arrays;
    values and gradients only, when any of the jets is first order.

    The leading axis ``...`` is the lane axis ``(N,)`` when any entry is a
    lane array, and empty for point jets; an entry without lanes, such as a
    constant's zero derivatives, is broadcast to every lane.
    """
    second = all([x.upper for x in jets if isinstance(x, Dual)])
    # each jet as stored, value, gradient and triangle, then one gather
    # builds every jet's k x k rows; at first order value and gradient alone
    width = 1 + k + k * (k + 1) // 2 if second else 1 + k
    flat = []
    for x in jets:
        if isinstance(x, Dual):
            flat.append(x.val)
            flat.extend(x.grad)
            if second:
                flat.extend(x.upper)
        else:
            flat.append(complex(x))
            flat.extend((0j,) * (width - 1))
    # one assignment for the lane arrays, one for the entries without lanes
    is_lane = [isinstance(e, np.ndarray) for e in flat]
    lanes = list(compress(flat, is_lane))
    if lanes:
        lead = lanes[0].shape
        block = np.empty(lead + (len(flat),), dtype=complex)
        fixed = [not lane for lane in is_lane]
        block[..., list(compress(range(len(flat)), is_lane))] = np.array(lanes).T
        block[..., list(compress(range(len(flat)), fixed))] = list(compress(flat, fixed))
    else:
        lead = ()
        block = np.array(flat, dtype=complex)
    block = block.reshape(lead + (len(jets), width))
    if not second:
        return block[..., 0], block[..., 1:]
    block = block[..., _TRIANGLES[k][2]]
    return (block[..., 0], block[..., 1:k + 1],
            block[..., k + 1:].reshape(lead + (len(jets), k, k)))


def columns(points):
    """The coordinate columns of a list of points or of an (N, k) array with one
    point per row, each an (N,) complex array, as :meth:`Dual.seed_grid` takes them."""
    return list(np.array(points, dtype=complex).T.copy())


def is_zero(x):
    """True for a plain constant 0; a jet or a lane array is never zero,
    whatever its value."""
    return not isinstance(x, (Dual, np.ndarray)) and x == 0


def compose(x, f0, f1, f2):
    """A univariate function with 2-jet (f0, f1, f2) at value(x), composed with x."""
    return x.lift(f0, f1, f2) if isinstance(x, Dual) else f0


def partial(jet, index):
    """The first-order jet of one partial derivative of a second-order jet, so
    first-order operators can act on it; a constant's partial is 0."""
    if not isinstance(jet, Dual):
        return 0.0
    if not jet.upper:
        raise ValueError("partial of a first-order jet: its derivatives are "
                         "known to first order only")
    row = _TRIANGLES[len(jet.grad)][1][index]
    return Dual(jet.grad[index], tuple(map(jet.upper.__getitem__, row)), ())


def drop_lanes(x, mask):
    """The grid jet ``x`` with the lanes where ``mask`` holds set to NaN in
    every entry, so that they read as dropped nodes; a structural zero becomes
    a lane array with NaN at those lanes."""
    def cut(a):
        return np.where(mask, np.nan, a)
    return Dual(cut(x.val), tuple(cut(a) for a in x.grad), tuple(cut(a) for a in x.upper))
