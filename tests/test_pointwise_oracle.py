"""The per-point route as the oracle of the batched checks.

`verify` evaluates its geometry, field, commutation-fit and symmetry checks
on one grid jet per entry (one lane per sampled point).  They must agree with
the per-point loops of `pointwise.py` on every catalog entry, with and
without a perturbed 2-form and chi, and fail the same way at a point outside
the chart.  The batched side is `verify`'s own rows (`cli.CHECKS`) on its own
context, and the per-point side reads that context's point slices, so the
test checks the wiring `verify` runs.
"""

import numpy as np
import pytest

from dskg import dual
from dskg.cli import CHECKS, FIT_LANES, SYMMETRY_LANES, RunConfig, VerifyContext
from dskg.dual import Dual
from dskg.geometry import RankDeficientError, induced_metric
from dskg.lie_core import ALL_CASES, CaseId
from dskg.operators import (commutation_table_fit, kg_operator, operator_jets, symmetry_check,
                            symmetry_operators)

import pointwise
from conftest import DEFAULT_A, perturbed_form

EPS = 1e-3


def verify_context(case, seed, perturbed):
    """`verify`'s context of one entry; perturbed, its chi carries `--perturb
    chi:EPS` and its 2-form the same term, which the field checks must see."""
    run = RunConfig("verify", a=DEFAULT_A, seed=seed, perturb=("chi", EPS) if perturbed else None)
    ctx = VerifyContext(case, run)
    if perturbed:
        ctx.form = perturbed_form(ctx.form, (0, 1), lambda c: EPS * c[0])
    return ctx


def pointwise_route(ctx):
    """The per-point loops, on the points `verify` gives each check."""
    case, cfg, form, pts = ctx.case, ctx.cfg, ctx.form, ctx.jet_pts
    a = cfg.parameter_a
    res = {
        "metric_identity": pointwise.metric_identity(case, pts, a),
        "killing": pointwise.killing(case, pts, a),
        "field_closedness": pointwise.closedness(form, pts),
        "field_invariance": pointwise.invariance(case, form, pts, a),
        "gauge_consistency": pointwise.gauge(case, cfg, form, pts),
        "chi_gradient": pointwise.chi(case, cfg, form, pts, ctx.chi_extra),
    }
    ops = symmetry_operators(case, cfg, chi_extra=ctx.chi_extra)
    fit, structure, central = pointwise.table_fit(ops, ctx.jet_pts[:FIT_LANES], 1j * cfg.e)
    res.update(commutation_table=fit, fit_structure=structure, fit_central=central)
    if ctx.integ is not None:
        res["symmetry_commutator"] = pointwise.symmetry(kg_operator(case, cfg), ops,
                                                        ctx.sym_pts, 2)
    return res


def _routes(case, seed, perturbed):
    """(`verify`'s own rows, the pointwise route), each on a fresh context."""
    want = pointwise_route(verify_context(case, seed, perturbed))
    ctx = verify_context(case, seed, perturbed)
    got = {check.key: check.residual(ctx) for check in CHECKS if check.key in want}
    got.update(fit_structure=ctx.fit.structure, fit_central=ctx.fit.central)
    return got, want


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


@pytest.mark.parametrize("perturbed", [False, True], ids=["clean", "perturbed"])
@pytest.mark.parametrize("seed", [20813, 3, 101])
@pytest.mark.parametrize("case", ALL_CASES)
def test_shared_operator_jets_are_the_per_operator_route(case, seed, perturbed):
    # the lanes that the fit and the symmetry commutator read from the entry's
    # one evaluation are, bit for bit, each operator evaluated on its own at
    # those points alone, and so are the residuals verify reports from them
    ctx = verify_context(case, seed, perturbed)
    ops = symmetry_operators(ctx.case, ctx.cfg, chi_extra=ctx.chi_extra)
    own = {}
    for n, pts in ((FIT_LANES, ctx.jet_pts[:FIT_LANES]), (SYMMETRY_LANES, ctx.sym_pts)):
        assert len(pts) == n
        own[n] = operator_jets(ops, Dual.seed_grid(dual.columns(pts)))
        for shared, alone in zip(ctx.op_jets, own[n]):
            assert shared[:n].shape == alone.shape
            assert np.array_equal(shared[:n], alone, equal_nan=True)
    fit = commutation_table_fit(own[FIT_LANES], 1j * ctx.cfg.e)
    want = {"commutation_table": fit.residual,
            "central_charge": float(np.max(np.abs(fit.central - ctx.central))),
            "structure_vs_catalog": float(np.max(np.abs(
                fit.structure - ctx.sub.algebra.structure_constants)))}
    if ctx.integ is not None:
        want["symmetry_commutator"] = symmetry_check(
            kg_operator(case, ctx.cfg), own[SYMMETRY_LANES], ctx.sym_pts, n_probes=2)
    got = {check.key: check.residual(ctx) for check in CHECKS if check.key in want}
    assert got == want


@pytest.mark.parametrize("case, boundary, signature", [
    (CaseId.G35, (0.3, 0.4, 0.0), (0, 1)),
    (CaseId.G11, (0.3, 0.0, 0.4), (0, 2)),
])
def test_point_outside_the_chart_raises_on_both_routes(case, boundary, signature):
    # sin(u1) = 0 collapses both charts
    pts = verify_context(case, 20813, perturbed=False).jet_pts.copy()
    pts[7] = boundary
    with pytest.raises(RankDeficientError):
        pointwise.metric_identity(case, pts, None)
    with pytest.raises(RankDeficientError) as info:
        induced_metric(case, Dual.seed_grid(dual.columns(pts)))
    assert str(info.value) == (f"{case.value}: induced metric signature {signature} at "
                               f"{np.array(boundary)}; outside chart domain")
