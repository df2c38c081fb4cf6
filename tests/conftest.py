import numpy as np
import pytest

from dskg import dual
from dskg.dual import Dual
from dskg.fields import FieldConfig, TwoForm
from dskg.geometry import chart_for, sample_domain
from dskg.lie_core import PARAMETERIZED_CASES
from dskg.operators import operator_jets


DEFAULT_A = 1.0


def case_param_a(case):
    return DEFAULT_A if case in PARAMETERIZED_CASES else None


def make_config(case, **kw):
    """The entry's field configuration at the test family parameter."""
    return FieldConfig(case, parameter_a=case_param_a(case), **kw)


def chart_points(case, n=25, seed=9041, a=None):
    """Seeded interior samples of a case's chart box."""
    a = a if a is not None else case_param_a(case)
    chart = chart_for(case, a)
    rng = np.random.default_rng(seed)
    return sample_domain(chart, n, rng)


def grid_jets(ops, points):
    """The coefficient jets of ``ops`` on one grid seed of ``points``, lane
    axis first, as `commutation_table_fit` and `symmetry_check` take them."""
    return operator_jets(ops, Dual.seed_grid(dual.columns(points)))


def perturbed_form(form, entry, extra):
    """``form`` with the evaluable ``extra`` added to its ``entry`` component,
    a broken 2-form that the invariance and chi checks must detect."""
    new = dict(form.entries)
    base = new.get(entry)
    if base is None:
        new[entry] = extra
    else:
        new[entry] = lambda c, b=base, x=extra: b(c) + x(c)
    return TwoForm(new)


@pytest.fixture
def rng():
    return np.random.default_rng(20813)
