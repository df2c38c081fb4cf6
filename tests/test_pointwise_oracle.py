"""The per-point route as the oracle of the batched checks.

`verify` evaluates its geometry, field, commutation-fit and symmetry checks
on one grid jet per entry (one lane per sampled point).  They must agree with
the per-point loops of `pointwise.py` on every catalog entry, with and
without a perturbed 2-form and chi, and fail the same way at a point outside
the chart.
"""

import numpy as np
import pytest

from dskg import dual
from dskg.cases import case_spec
from dskg.dual import Dual
from dskg.fields import (FieldConfig, chi_residual, closedness_residual, gauge_one_form,
                         gauge_residual, invariance_residual, invariant_two_form, solve_chi)
from dskg.geometry import (RankDeficientError, chart_for, generator_jets, induced_metric,
                           killing_residual, sample_domain)
from dskg.lie_core import ALL_CASES, CaseId
from dskg.operators import commutation_table_fit, symmetry_check, symmetry_operators

import pointwise
from conftest import case_param_a, perturbed_form

EPS = 1e-3


def verify_points(case, seed):
    """The 40 points `verify` samples for one entry."""
    return sample_domain(chart_for(case, case_param_a(case)), 40, np.random.default_rng(seed))


def pointwise_route(case, cfg, form, chi_extra, pts):
    a = cfg.parameter_a
    res = {
        "metric_identity": pointwise.metric_identity(case, pts[:15], a),
        "killing": pointwise.killing(case, pts[:15], a),
        "field_closedness": pointwise.closedness(form, pts[:15]),
        "field_invariance": pointwise.invariance(case, form, pts[:15], a),
        "gauge_consistency": pointwise.gauge(case, cfg, form, pts[:15]),
        "chi_gradient": pointwise.chi(case, cfg, form, pts[:15], chi_extra),
    }
    ops = symmetry_operators(case, cfg, chi_extra=chi_extra)
    fit, structure, central = pointwise.table_fit(ops, [tuple(p) for p in pts[:12]], 1j * cfg.e)
    res.update(commutation_table=fit, fit_structure=structure, fit_central=central)
    if case_spec(case).integration is not None:
        res["symmetry_commutator"] = pointwise.symmetry(
            case, cfg, [tuple(p) for p in pts[:6]], 2, chi_extra=chi_extra)
    return res


def batched_route(case, cfg, form, chi_extra, pts):
    a = cfg.parameter_a
    coords = Dual.seed_grid(dual.columns(pts[:15]))
    metric = induced_metric(case, coords, a)
    generators = generator_jets(case, coords, a)
    fj = form.jets(coords)
    res = {
        "metric_identity": metric.identity_residual(),
        "killing": killing_residual(metric, generators),
        "field_closedness": closedness_residual(fj),
        "field_invariance": invariance_residual(generators, fj),
        "gauge_consistency": gauge_residual(gauge_one_form(case, cfg).values(coords), fj),
        "chi_gradient": chi_residual([c(coords) for c in solve_chi(case, cfg, chi_extra)],
                                     generators, fj),
    }
    ops = symmetry_operators(case, cfg, chi_extra=chi_extra)
    fit = commutation_table_fit(ops, [tuple(p) for p in pts[:12]], 1j * cfg.e)
    res.update(commutation_table=fit.residual, fit_structure=fit.structure,
               fit_central=fit.central)
    if case_spec(case).integration is not None:
        res["symmetry_commutator"] = symmetry_check(case, cfg, [tuple(p) for p in pts[:6]],
                                                    n_probes=2, chi_extra=chi_extra)
    return res


def _routes(case, seed, perturbed):
    cfg = FieldConfig(case, parameter_a=case_param_a(case))
    form = invariant_two_form(case, cfg)
    chi_extra = None
    if perturbed:
        form = perturbed_form(form, (0, 1), lambda c: EPS * c[0])
        chi_extra = [lambda c: EPS * c[0]] + [None] * (case_spec(case).dim - 1)
    pts = verify_points(case, seed)
    return (batched_route(case, cfg, form, chi_extra, pts),
            pointwise_route(case, cfg, form, chi_extra, pts))


@pytest.mark.parametrize("seed", [20813, 101])
@pytest.mark.parametrize("case", ALL_CASES)
def test_batched_checks_match_the_pointwise_route(case, seed):
    got, want = _routes(case, seed, perturbed=False)
    assert got.keys() == want.keys()
    for key in want:
        assert np.max(np.abs(got[key] - want[key])) <= 1e-14, key


@pytest.mark.parametrize("seed", [20813, 101])
@pytest.mark.parametrize("case", ALL_CASES)
def test_perturbed_checks_match_the_pointwise_route(case, seed):
    # 1e-12 relative to what the perturbation moves; a part it leaves at
    # rounding level keeps the unperturbed 1e-14 (the symmetry residual is a
    # difference of O(1) jets, so its rounding is ~1e-16 whatever its size)
    got, want = _routes(case, seed, perturbed=True)
    for key in want:
        assert np.all(np.abs(got[key] - want[key]) <= 1e-12 * np.abs(want[key]) + 1e-14), key


@pytest.mark.parametrize("case, boundary, signature", [
    (CaseId.G35, (0.3, 0.4, 0.0), (0, 1)),
    (CaseId.G11, (0.3, 0.0, 0.4), (0, 2)),
])
def test_point_outside_the_chart_raises_on_both_routes(case, boundary, signature):
    # sin(u1) = 0 collapses both charts
    pts = verify_points(case, 20813)[:15]
    pts[7] = boundary
    with pytest.raises(RankDeficientError):
        pointwise.metric_identity(case, pts, None)
    with pytest.raises(RankDeficientError) as info:
        induced_metric(case, Dual.seed_grid(dual.columns(pts)))
    assert str(info.value) == (f"{case.value}: induced metric signature {signature} at "
                               f"{np.array(boundary)}; outside chart domain")
