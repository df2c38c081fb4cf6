"""CLI contract: exit codes, document schemas, determinism."""

import cmath
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dskg import cli, dual, fields, integrate, lie_core, operators
from dskg.cases import case_spec
from dskg.cli import (DEFAULT_TOLERANCES, RunConfig, UsageError, _run_config_from, build_parser,
                      main, parse_complex)
from dskg.geometry import chart_for
from dskg.integrate import SolutionAnsatz
from dskg.lie_core import ALL_CASES, CaseId, INTEGRABLE_CASES
from dskg.operators import kg_operator

from conftest import counted


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_complex():
    assert parse_complex("0.4+0.2i") == 0.4 + 0.2j
    assert parse_complex("1.5-2i") == 1.5 - 2.0j
    assert parse_complex("-1e-2+3.5i") == -0.01 + 3.5j
    with pytest.raises(UsageError):
        parse_complex("0.4")
    with pytest.raises(UsageError):
        parse_complex("2i")


def test_catalog_json_document():
    code, out, _ = run_cli("catalog")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["entries"]) == 13
    by_id = {e["id"]: e for e in doc["entries"]}
    assert by_id["g3_4"]["table3"] == {"dim": 4, "ind": 2, "s": 1, "l": 1,
                                       "m_tilde": 1, "integrable": True}
    assert by_id["g1_4"]["table3"]["m_tilde"] == 2
    assert not by_id["g1_4"]["table3"]["integrable"]
    # computed-vs-reference diff isolates the single inconsistent row
    assert list(doc["table3_diff"]) == ["g4_1"]
    assert by_id["g1_3a"]["parameter"]["name"] == "a"
    assert by_id["g2_3"]["field_template"].startswith("exp(q2)")


def test_catalog_zero_magnetic_charge():
    # with mu = 0 the translation pairs of g2_1 and g2_2 lose their central charge
    code, out, _ = run_cli("catalog", "--mu", "0")
    assert code == 0
    diff = json.loads(out)["table3_diff"]
    assert sorted(diff) == ["g2_1", "g2_2", "g4_1"]
    for case in ("g2_1", "g2_2"):
        assert diff[case]["computed"] == [3, 3, 0, 2, 1, True]


def test_catalog_csv_format():
    code, out, _ = run_cli("catalog", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["case", "dim", "ind", "s", "l", "m_tilde", "integrable"]
    assert len(rows) == 14


def test_catalog_at_a_huge_family_parameter():
    # g3_3a's brackets are of size a: its closure and Jacobi checks neither
    # overflow nor warn, and its rows stay independent by their unit columns
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli("catalog", "--a", "1e300")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert list(doc["table3_diff"]) == ["g4_1"]
    g33a = next(e for e in doc["entries"] if e["id"] == "g3_3a")
    assert g33a["structure_constants"] == [[1, 3, [-1e300, 1.0, 0.0]],
                                           [2, 3, [-1.0, -1e300, 0.0]]]


def test_verify_single_case_passes():
    code, out, _ = run_cli("verify", "--case", "g3_2", "--mu", "1", "--seed", "42")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    res = rep["cases"]["g3_2"]["residuals"]
    for key in ("hyperboloid", "killing", "field_invariance", "gauge_consistency",
                "chi_gradient", "commutation_table", "lambda_commutation",
                "joint_system", "wave_residual"):
        assert res[key]["pass"], key


def test_verify_reports_are_deterministic():
    out1 = run_cli("verify", "--case", "g3_1", "--seed", "7")[1]
    out2 = run_cli("verify", "--case", "g3_1", "--seed", "7")[1]
    assert out1 == out2


def test_verify_perturbation_fails_with_exit_1():
    code, out, _ = run_cli("verify", "--case", "g3_2", "--mu", "1",
                           "--perturb", "chi:1e-3")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert not rep["cases"]["g3_2"]["residuals"]["symmetry_commutator"]["pass"]


@pytest.mark.parametrize("case", [c.value for c in ALL_CASES])
def test_verify_perturbation_is_caught_by_chi_gradient(case):
    # chi_gradient checks the same perturbed chi as the symmetry operators, so
    # the fault shows on every entry, also where no bracket or wave operator sees it
    family = ("--a", "1") if case_spec(CaseId(case)).parameterized else ()
    code, out, _ = run_cli("verify", "--case", case, "--perturb", "chi:1e-3", *family)
    assert code == 1
    residuals = json.loads(out)["cases"][case]["residuals"]
    check = residuals["chi_gradient"]
    assert check["residual"] == pytest.approx(1e-3, rel=1e-9)
    assert check["pass"] is False
    # symmetry_check is handed the same perturbed operators
    assert ("symmetry_commutator" in residuals) == (CaseId(case) in INTEGRABLE_CASES)
    if CaseId(case) in INTEGRABLE_CASES:
        assert residuals["symmetry_commutator"]["pass"] is False


def test_verify_all_cases_summary():
    code, out, _ = run_cli("verify", "--case", "all", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["cases"]) == 13
    assert list(rep["cases"]) == sorted(rep["cases"])


@pytest.mark.parametrize("case", ALL_CASES)
def test_verify_reads_the_gauge_once_per_coordinate_set(monkeypatch, case):
    # once on the entry's grid seed, which every field and operator check
    # reads, and once more on the joint-system columns of an integrable entry.
    # A read evaluates every component, so the first component counts reads
    calls, gauge_one_form = [], fields.gauge_one_form

    def counted(case_id, config):
        first, *rest = gauge_one_form(case_id, config)

        def read(coords):
            calls.append(coords)
            return first(coords)
        return [read, *rest]

    for module in (fields, cli, integrate, operators):
        monkeypatch.setattr(module, "gauge_one_form", counted)
    assert run_cli("verify", "--case", case.value)[0] == 0
    assert len(calls) == (2 if case in INTEGRABLE_CASES else 1)


def _count_calls(monkeypatch, home, name, modules):
    """Count calls of ``home.name`` reached through any of ``modules``."""
    calls, fn = [], getattr(home, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_refuses_a_j_out_of_range_before_any_check(monkeypatch):
    # g3_4's J rule is applied when its context is built, before the entries
    # ahead of it in the catalog run a check
    calls = _count_calls(monkeypatch, cli, "hyperboloid_residual", (cli,))
    assert run_cli("verify", "--case", "all", "--J", "0") == (2, "", "error: G34 requires J > 0\n")
    assert calls == []
    # the counter sees the check when it runs
    assert run_cli("verify", "--case", "g1_1", "--J", "0")[0] == 0
    assert calls


@pytest.mark.parametrize("case", ALL_CASES)
def test_verify_derives_each_form_jet_once(monkeypatch, case):
    # i_X F of each generator is shared by field_invariance and chi_gradient,
    # and dF by field_closedness and every Lie derivative
    interiors = _count_calls(monkeypatch, fields, "interior_product", (cli, fields))
    derivatives = _count_calls(monkeypatch, fields, "exterior_derivative", (cli, fields))
    assert run_cli("verify", "--case", case.value)[0] == 0
    assert len(interiors) == case_spec(case).dim
    assert len(derivatives) == 1


def test_verify_reads_out_each_jet_block_once(monkeypatch):
    # one dual.arrays read-out per block an entry's checks share: the chart
    # jets, the operator jets, the gauge, the 2-form, the interior products and
    # the chis (six per entry), the λ-probes and the wave operator's
    # coefficients of each integrable entry (two more): 88 for the catalog
    reads = _count_calls(monkeypatch, dual, "arrays", (dual,))
    assert run_cli("verify", "--case", "all")[0] == 0
    assert len(reads) <= 90


def test_catalog_builds_each_subalgebra_once(monkeypatch):
    # the JSON entries and the Table 3 computation share one build per entry
    built = _count_calls(monkeypatch, lie_core, "subalgebra", (cli, lie_core))
    assert run_cli("catalog")[0] == 0
    assert [args[0] for args in built] == ALL_CASES


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_verify_builds_one_ansatz_and_one_wave_operator(monkeypatch, case):
    # joint_system, reduced_coefficients, wave_residual and symmetry_commutator
    # all read the entry's one ansatz and one wave operator
    built = _count_calls(monkeypatch, integrate, "ansatz", (cli, integrate))
    ops = _count_calls(monkeypatch, operators, "kg_operator", (cli, integrate, operators))
    assert run_cli("verify", "--case", case.value)[0] == 0
    assert (len(built), len(ops)) == (1, 1)


@pytest.mark.parametrize("case", INTEGRABLE_CASES)
def test_verify_reads_each_wave_operator_coefficient_three_times(monkeypatch, case):
    # one read-out each for reduced_coefficients (all three of its probes),
    # wave_residual and symmetry_commutator: 39 evaluations of the 13
    # coefficient callables
    calls = {}

    def counted_operator(case_id, config):
        h = kg_operator(case_id, config)
        h.second = [[counted(c, calls) for c in row] for row in h.second]
        h.first = [counted(c, calls) for c in h.first]
        h.scalar = counted(h.scalar, calls)
        return h
    monkeypatch.setattr(cli, "kg_operator", counted_operator)
    assert run_cli("verify", "--case", case.value)[0] == 0
    assert len(calls) == 13 and set(calls.values()) == {3}
    assert sum(calls.values()) == 39


@pytest.mark.parametrize("argv", [["solve", "--case", "g3_4", "--grid", "3"],
                                  ["verify", "--case", "g3_4"]], ids=["solve", "verify"])
def test_wave_residual_runs_the_one_reduction_route(monkeypatch, argv):
    calls = _count_calls(monkeypatch, integrate, "reduction_residual", (integrate,))
    assert run_cli(*argv)[0] == 0
    assert len(calls) == 1
    ans, h, _, grid = calls[0]
    assert isinstance(ans, SolutionAnsatz) and isinstance(h, operators.DiffOp2)
    # the open mesh of the grid's nodes
    assert np.broadcast_shapes(*(c.shape for c in grid)) == \
        ((3, 3, 3) if argv[0] == "solve" else (4, 4, 4))


def test_verify_keys_come_from_the_one_table():
    keys = [check.key for check in cli.CHECKS]
    assert len(set(keys)) == len(keys) == 15
    assert list(DEFAULT_TOLERANCES) == keys
    for key in keys:
        run = _run_config_from(build_parser().parse_args(["verify", "--tol", f"{key}=1e-3"]))
        assert run.tolerances == {**DEFAULT_TOLERANCES, key: 1e-3}
    assert run_cli("verify", "--tol", "hyperbolid=1") == (
        2, "", "error: unknown tolerance key 'hyperbolid'\n")
    common = [check.key for check in cli.CHECKS if not check.integrable_only]
    assert len(common) == 10
    code, out, _ = run_cli("verify", "--case", "all")
    assert code == 0
    cases = json.loads(out)["cases"]
    assert sum(CaseId(c) in INTEGRABLE_CASES for c in cases) == 5 and len(cases) == 13
    for case, report in cases.items():
        want = keys if CaseId(case) in INTEGRABLE_CASES else common
        assert sorted(report["residuals"]) == sorted(want), case
        for check in cli.CHECKS:
            if check.key in want:
                assert report["residuals"][check.key]["tolerance"] == check.tolerance


def test_verify_tolerance_override_can_fail():
    for key in ("killing", "symmetry_commutator", "structure_vs_catalog"):
        code, out, _ = run_cli("verify", "--case", "g3_1", "--tol", f"{key}=1e-30")
        assert code == 1, key
        assert json.loads(out)["cases"]["g3_1"]["residuals"][key]["tolerance"] == 1e-30


def test_solve_summary_and_csv():
    code, out, err = run_cli("solve", "--case", "g3_4", "--grid", "4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q1", "q2", "u1", "re_phi", "im_phi", "residual"]
    assert len(rows) == 1 + 64
    assert all(float(r[-1]) < 1e-6 for r in rows[1:])
    summary = json.loads(err[err.index("{"):])
    assert summary["case"] == "g3_4"
    sf = summary["special_function"]
    assert sf["kind"] == "legendre"
    assert abs(sf["sigma"]["re"] - 0.75 ** 0.5) < 1e-12
    assert summary["max_residual"] < 1e-6


def test_solve_evaluates_wave_function_once_per_grid(monkeypatch):
    calls = []
    assemble = SolutionAnsatz.assemble

    def counting(self, phi_jet):
        f = assemble(self, phi_jet)

        def counted(coords):
            calls.append(coords)
            return f(coords)
        return counted

    monkeypatch.setattr(SolutionAnsatz, "assemble", counting)
    code, out, _ = run_cli("solve", "--case", "g3_1", "--grid", "3")
    assert code == 0
    assert len(list(csv.reader(io.StringIO(out)))) == 1 + 27
    assert len(calls) == 1
    assert [dual.value(c).shape for c in calls[0]] == [(3, 1, 1), (1, 3, 1), (1, 1, 3)]


def test_solve_with_every_node_dropped_fails():
    code, out, err = run_cli("solve", "--case", "g3_5", "--lambda=10+0i", "--grid", "3")
    assert code == 1
    assert len(list(csv.reader(io.StringIO(out)))) == 1
    assert "warning: dropped 27 grid nodes at branch points" in err
    summary = json.loads(err[err.index("{"):])
    assert summary["dropped_branch_points"] == 27
    assert summary["max_residual"] == 0.0


def test_solve_with_some_nodes_dropped():
    code, out, err = run_cli("solve", "--case", "g3_4", "--lambda=0+1i", "--grid", "5")
    assert code == 0
    assert len(list(csv.reader(io.StringIO(out)))) == 1 + 110
    assert "warning: dropped 15 grid nodes at branch points" in err
    assert json.loads(err[err.index("{"):])["dropped_branch_points"] == 15


def test_solve_drops_nodes_where_the_charge_base_blows_up():
    # the g3_5 charge base has a zero denominator on the q1 = q2 = 0 line at
    # lambda = 1; those nodes are dropped with the ones on the principal cut
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("solve", "--case", "g3_5", "--lambda=1+0i", "--grid", "5")
    assert code == 0
    assert len(list(csv.reader(io.StringIO(out)))) == 1 + 60
    head, body = err.split("{", 1)
    assert head == "warning: dropped 65 grid nodes at branch points\n"
    summary = json.loads("{" + body)
    assert summary["dropped_branch_points"] == 65
    assert summary["max_residual"] < 1e-6


def _solve_rows_by_csv_writer(argv):
    """`solve`'s stdout rendered one node at a time through csv.writer, on the
    nested-loop list of grid points: the route the row template replaced."""
    run = _run_config_from(build_parser().parse_args(argv))
    case = CaseId(run.case)
    cfg = cli._field_config(case, run)
    phi1 = integrate.solution_basis(case, cfg, run.J, run.lam).phi1
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(case_spec(case).integration.grid,
                                                           run.grid)]
    grid = [(a, b, c) for a in axes[0] for b in axes[1] for c in axes[2]]
    phi, residual = integrate.reduction_residual(integrate.ansatz(case, cfg, run.J, run.lam),
                                                 kg_operator(case, cfg), phi1,
                                                 dual.columns(grid))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(list(chart_for(case, cfg.parameter_a).coord_names)
                    + ["re_phi", "im_phi", "residual"])
    for pt, p, r in zip(grid, phi.tolist(), residual.tolist()):
        if cmath.isfinite(p):
            writer.writerow([f"{c:.12g}" for c in pt]
                            + [f"{p.real:.15g}", f"{p.imag:.15g}", f"{r:.3e}"])
    return out.getvalue()


@pytest.mark.parametrize("argv,code,rows", [
    (["solve", "--case", "g3_4", "--grid", "4"], 0, 64),
    (["solve", "--case", "g3_4", "--lambda=0+1i", "--grid", "5"], 0, 110),
    (["solve", "--case", "g3_5", "--lambda=10+0i", "--grid", "3"], 1, 0),
    # a non-cubic grid: each axis keeps its own strings
    (["solve", "--case", "g3_1", "--grid", "2,3,4"], 0, 24),
    (["solve", "--case", "g3_3a", "--a", "1", "--grid", "3,5,4"], 0, 60),
    # 65 of 125 nodes dropped, spread over the grid
    (["solve", "--case", "g3_5", "--lambda=1+0i", "--grid", "5"], 0, 60),
])
def test_solve_csv_matches_the_csv_writer(argv, code, rows):
    got_code, out, _ = run_cli(*argv)
    assert got_code == code
    assert out.count("\r\n") == 1 + rows
    assert out == _solve_rows_by_csv_writer(argv)


def test_verify_at_a_branch_cut_fails_its_integration_checks():
    # at lambda = 1 some g3_5 probes put the boost base on the principal cut;
    # the checks that read them come out NaN and fail, with no error or warning
    moved = ("joint_system", "reduced_coefficients", "wave_residual")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("verify", "--case", "g3_5", "--lambda=1+0i")
    assert code == 1
    assert err == ""
    rep = json.loads(out)
    assert rep["pass"] is False
    res = rep["cases"]["g3_5"]["residuals"]
    for key in moved:
        assert math.isnan(res[key]["residual"]) and res[key]["pass"] is False, key
    assert all(check["pass"] for key, check in res.items() if key not in moved)


@pytest.mark.parametrize("argv,message", [
    # the g3_1 closed form q(v) is singular at v = 0, where lambda = 0 puts a probe
    (["verify", "--case", "g3_1", "--lambda=0+0i"],
     "error: reduced equation singular at v = 0\n"),
    # a steep family parameter makes the induced metric degenerate at a sampled point
    (["verify", "--case", "g3_3a", "--a", "40"],
     "error: g3_3a: induced metric signature (1, 1) at "
     "[ 0.26358255 -1.04529064 -0.38786703]; outside chart domain\n"),
    (["verify", "--case", "g1_3a", "--a", "50"],
     "error: g1_3a: induced metric signature (0, 0) at "
     "[-0.64265803 -0.87879379  0.48633574]; outside chart domain\n"),
    # a complex power of a zero argument: a grid node at v = 0
    (["solve", "--case", "g3_1", "--lambda=0+0i", "--grid", "3"],
     "error: whittaker_m: z = 0j is the branch point of a complex power\n"),
    # a steeper family needs more Taylor segments than the budget, refused up front
    (["solve", "--case", "g3_3a", "--a", "40", "--grid", "3"],
     "error: g3_3a (a = 40.0, J = 1.0, lambda = 0.2+0j): |q| reaches 10^65.74 at v = -1.8; "
     "[-1.8, 1.8] needs more than 10000 Taylor segments\n"),
    (["solve", "--case", "g3_3a", "--a", "1000", "--grid", "3"],
     "error: g3_3a (a = 1000.0, J = 1.0, lambda = 0.2+0j): |q| reaches 10^1569 at v = -1.8; "
     "[-1.8, 1.8] needs more than 10000 Taylor segments\n"),
    # a huge lambda stretches the span the series must cover; the exponent of
    # |q| is itself huge, and prints in four digits
    (["solve", "--case", "g3_3a", "--a", "1", "--lambda=1e300+0i", "--grid", "3"],
     "error: g3_3a (a = 1.0, J = 1.0, lambda = 1e+300+0j): |q| reaches 10^8.686e+299 at "
     "v = -1e+300; [-1e+300, 1.8] needs more than 10000 Taylor segments\n"),
    # where |q| stays small the span's length alone runs the budget out
    (["solve", "--case", "g3_3a", "--a", "1", "--lambda=-1e4+0i", "--grid", "3"],
     "error: g3_3a (a = 1.0, J = 1.0, lambda = -1e+04+0j): [-1.8, 10000.5] needs more than "
     "10000 Taylor segments of the longest step, 0.1\n"),
    # cosh(a q) and exp(a q) of the family charts leave floating-point range
    (["verify", "--case", "g1_3a", "--a", "1000"],
     "error: g1_3a: chart map at a = 1000.0 overflows at "
     "[-0.64265803 -0.87879379  0.48633574]\n"),
    (["verify", "--case", "g3_3a", "--a", "1000"],
     "error: g3_3a: chart map at a = 1000.0 overflows at "
     "[-0.64265803 -1.09849224  0.35478337]\n"),
    (["verify", "--case", "g3_3a", "--a", "1e300"],
     "error: g3_3a: chart map at a = 1e+300 overflows at "
     "[ 0.28490907 -0.45781468 -0.29221572]\n"),
    (["chart", "--case", "g1_3a", "--a", "1000"],
     "error: g1_3a: chart map at a = 1000.0 overflows at "
     "[-1.5        -1.2        -1.37079633]\n"),
    # a huge physics value overflows a numpy exp (a raised error, no warning)
    # or a Python power; the message names the flag that set the regime
    (["verify", "--case", "g3_2", "--mu", "1e300"],
     "error: g3_2: overflow beyond floating-point range at --mu 1e+300\n"),
    (["solve", "--case", "g3_4", "--J", "1e200", "--grid", "3"],
     "error: g3_4: overflow beyond floating-point range at --J 1e+200\n"),
], ids=["verify_g3_1_lambda_0", "verify_g3_3a_a_40",
        "verify_g1_3a_a_50", "solve_g3_1_lambda_0", "solve_g3_3a_a_40", "solve_g3_3a_a_1000",
        "solve_g3_3a_lambda_1e300", "solve_g3_3a_lambda_minus_1e4",
        "verify_g1_3a_a_1000", "verify_g3_3a_a_1000", "verify_g3_3a_a_1e300",
        "chart_g1_3a_a_1000",
        "verify_g3_2_mu_1e300", "solve_g3_4_J_1e200"])
def test_numerical_failure_exits_1_with_its_message(argv, message):
    assert len(message) < 200
    assert run_cli(*argv) == (1, "", message)


def test_neutral_g3_4_limit_solves_and_verifies():
    # e = 0 makes nu an integer; the reflection keeps every Ferrers series at
    # (1 - x)/2 <= 1/2, off the 2F1 connection that divides by gamma(-nu)
    code, out, err = run_cli("solve", "--case", "g3_4", "--e", "0", "--J", "1", "--grid", "3")
    assert code == 0
    assert json.loads(err)["max_residual"] <= 1e-12
    assert len(out.splitlines()) == 1 + 27
    code, out, _ = run_cli("verify", "--case", "g3_4", "--e", "0", "--J", "1")
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("physics", [("--m", "1"), ("--m", "0", "--zeta", "0.16666666666666666")],
                         ids=["m_1", "conformal"])
def test_g3_4_at_ferrers_order_0_solves_and_verifies(physics):
    # a mass term of 1 makes the Ferrers order sigma = 0; 2F1's direct series
    # serves z = (1 - x)/2 up to 0.917 on the box, where a 1 - z connection
    # would meet the pole of gamma(c - a - b) = gamma(-sigma)
    code, out, err = run_cli("solve", "--case", "g3_4", *physics, "--grid", "10")
    assert code == 0
    summary = json.loads(err)
    assert summary["special_function"]["sigma"] == {"re": 0.0, "im": 0.0}
    assert summary["max_residual"] <= 1e-12
    assert len(out.splitlines()) == 1 + 1000
    code, out, _ = run_cli("verify", "--case", "g3_4", *physics)
    assert code == 0 and json.loads(out)["pass"] is True


G3_2_NEUTRAL = [
    (("--e", "0"), "exp((1 + order) v), exp((1 - order) v)"),
    (("--mu", "0"), "exp((1 + order) v), exp((1 - order) v)"),
    # m_t = 1: the two rates 1 +- order meet
    (("--e", "0", "--m", "1"), "exp(v), v exp(v)"),
]
G3_2_NEUTRAL_IDS = ["e_0", "mu_0", "e_0_m_1"]


@pytest.mark.parametrize("neutral,functions", G3_2_NEUTRAL, ids=G3_2_NEUTRAL_IDS)
def test_neutral_g3_2_limit_solves(neutral, functions):
    # e mu (2J + 1) = 0 scales the Bessel argument to 0; the reduced equation
    # is then Phi'' - 2 Phi' + m_t Phi = 0, with an elementary basis
    code, out, err = run_cli("solve", "--case", "g3_2", *neutral, "--grid", "3")
    assert code == 0
    summary = json.loads(err)
    assert summary["max_residual"] <= 1e-12
    assert summary["special_function"]["kind"] == "exponential"
    assert summary["special_function"]["functions"] == functions
    assert len(out.splitlines()) == 1 + 27


@pytest.mark.parametrize("neutral", [neutral for neutral, _ in G3_2_NEUTRAL],
                         ids=G3_2_NEUTRAL_IDS)
def test_neutral_g3_2_limit_verifies(neutral):
    code, out, _ = run_cli("verify", "--case", "g3_2", *neutral)
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("case", ["g2_1", "g2_2", "g3_2"])
def test_central_charge_is_zero_without_charge(case):
    # at e = 0 the central term F l0 vanishes, so the fit reads F = 0 whatever mu is
    code, out, _ = run_cli("verify", "--case", case, "--e", "0", "--mu", "0.7")
    report = json.loads(out)["cases"][case]["residuals"]
    assert code == 0
    assert report["central_charge"]["residual"] == 0.0


def test_g3_5_solves_where_the_reflection_gamma_has_a_pole():
    # nu = -1/2 and sigma = 3/2 make nu - sigma + 1 = -1: the reflected P's
    # P^-sigma coefficient is 1/Gamma(-1) = 0 there, not a pole
    args = ("--case", "g3_5", "--m", "1", "--e", "2.5", "--mu", "1", "--J", "2")
    code, out, err = run_cli("solve", *args, "--grid", "3")
    assert code == 0
    summary = json.loads(err)
    assert summary["special_function"]["nu"] == {"re": -0.5, "im": 0.0}
    assert summary["special_function"]["sigma"] == {"re": 1.5, "im": 0.0}
    assert summary["max_residual"] <= 1e-12
    code, out, _ = run_cli("verify", *args)
    assert code == 0 and json.loads(out)["pass"] is True


def test_solve_steep_g3_3a_family_from_the_series():
    # a = 5 took the RK integrator past its step limit; the series needs ~2000 segments
    code, out, err = run_cli("solve", "--case", "g3_3a", "--a", "5", "--grid", "3")
    assert code == 0
    summary = json.loads(err)
    assert summary["max_residual"] < 1e-6
    record = summary["special_function"]
    assert sorted(record) == ["kind", "segments", "span", "terms"]
    assert record["kind"] == "taylor_series" and record["terms"] == 40
    assert 1000 < record["segments"] < 10000
    assert len(out.splitlines()) == 1 + 27


@pytest.mark.parametrize("lam,span", [("2+0i", [-2.5, 1.8]), ("-1.5+0i", [-1.8, 2.0])])
def test_g3_3a_series_spans_the_grid_at_its_lambda(lam, span):
    # v = q3 - lambda over q3 in [-0.5, 0.5] leaves the default span [-1.8, 1.8];
    # the series then spans the hull of the two
    code, out, err = run_cli("solve", "--case", "g3_3a", "--a", "1", f"--lambda={lam}",
                             "--grid", "4")
    assert code == 0
    summary = json.loads(err)
    assert summary["max_residual"] <= 1e-6
    assert summary["special_function"]["span"] == span
    assert len(out.splitlines()) == 1 + 64
    code, out, _ = run_cli("verify", "--case", "g3_3a", "--a", "1", f"--lambda={lam}")
    assert code == 0 and json.loads(out)["pass"] is True


def test_g3_3a_series_at_a_non_real_lambda_is_a_domain_error():
    # the series is summed on the real axis only, and v = q3 - lambda is not real
    assert run_cli("solve", "--case", "g3_3a", "--a", "1", "--lambda=2+0.5i", "--grid", "3") \
        == (1, "", "error: Taylor series queried off the real axis: (-2.5-0.5j)\n")


def test_verify_steep_g3_3a_family_passes():
    # |q| reaches ~2.7e4 at a = 5; the extracted (p, q) agree with the closed
    # form relative to that size
    code, out, _ = run_cli("verify", "--case", "g3_3a", "--a", "5")
    assert code == 0
    check = json.loads(out)["cases"]["g3_3a"]["residuals"]["reduced_coefficients"]
    assert check["pass"] and check["tolerance"] == 1e-9


@pytest.mark.parametrize("argv,message", [
    (["solve", "--case", "g3_1", "--grid", "a,b"],
     "error: invalid literal for int() with base 10: 'a'\n"),
    (["verify", "--case", "g3_1", "--perturb", "chi:x"],
     "error: could not convert string to float: 'x'\n"),
    (["verify", "--case", "g3_1", "--tol", "killing=x"],
     "error: could not convert string to float: 'x'\n"),
    (["verify", "--case", "g3_1", "--e", "nan"], "error: --e must be finite, got nan\n"),
    (["catalog", "--mu", "nan"], "error: --mu must be finite, got nan\n"),
    (["solve", "--case", "g3_3a", "--a", "nan"], "error: --a must be finite, got nan\n"),
    (["chart", "--case", "g1_3a", "--a", "nan"], "error: --a must be finite, got nan\n"),
    (["solve", "--case", "g3_2", "--mu", "inf"], "error: --mu must be finite, got inf\n"),
    (["solve", "--case", "g3_1", "--J=-inf"], "error: --J must be finite, got -inf\n"),
    (["verify", "--case", "g3_1", "--lambda=nan+0i"],
     "error: --lambda must be finite, got (nan+0j)\n"),
    (["verify", "--case", "g3_1", "--lambda=0+infi"],
     "error: --lambda must be finite, got infj\n"),
    (["verify", "--case", "g3_1", "--perturb", "chi:inf"],
     "error: --perturb must be finite, got inf\n"),
    (["verify", "--case", "g3_1", "--tol", "killing=nan"],
     "error: --tol killing must not be NaN\n"),
    (["verify", "--case", "g3_1", "--tol", "wave_residual=-1"],
     "error: --tol wave_residual must not be negative, got -1.0\n"),
    (["verify", "--case", "g1_1", "--seed", "-1"], "error: --seed must be non-negative, got -1\n"),
    # refused when parsed, before the entry's numerical failure at a = 40
    (["verify", "--case", "g3_3a", "--a", "40", "--perturb", "foo:1"],
     "error: unknown perturbation target 'foo'\n"),
    # an empty value is refused, not read as the flag left out
    (["solve", "--case", "g3_1", "--grid="],
     "error: invalid literal for int() with base 10: ''\n"),
    (["solve", "--case", "g3_1", "--grid", "3", "--lambda="],
     "error: complex value '' must end in i with both parts, e.g. 0.4+0.2i\n"),
    (["verify", "--case", "g3_2", "--perturb="], "error: bad perturbation spec ''\n"),
    # the one J rule of an entry's series, refused by both commands
    (["solve", "--case", "g3_4", "--J", "0", "--grid", "3"], "error: G34 requires J > 0\n"),
    (["verify", "--case", "g3_4", "--J", "0"], "error: G34 requires J > 0\n"),
    (["solve", "--case", "g3_5", "--J=-1", "--grid", "3"],
     "error: G35 requires J >= 0 (continuous series)\n"),
    (["verify", "--case", "g3_5", "--J=-1"], "error: G35 requires J >= 0 (continuous series)\n"),
], ids=["grid", "perturb", "tol", "verify_e_nan", "catalog_mu_nan", "solve_a_nan", "chart_a_nan",
        "solve_mu_inf", "solve_J_minus_inf", "lambda_nan", "lambda_inf", "perturb_inf", "tol_nan",
        "tol_negative", "seed_negative",
        "perturb_target", "grid_empty", "lambda_empty", "perturb_empty", "solve_g34_J_zero",
        "verify_g34_J_zero", "solve_g35_J_negative", "verify_g35_J_negative"])
def test_bad_flag_value_is_usage_error(argv, message):
    assert run_cli(*argv) == (2, "", message)


def test_infinite_tolerance_waives_its_check():
    code, out, _ = run_cli("verify", "--case", "g3_1", "--tol", "killing=inf")
    assert code == 0
    check = json.loads(out)["cases"]["g3_1"]["residuals"]["killing"]
    assert check["tolerance"] == math.inf and check["pass"] is True


def test_solve_free_field_refused():
    code, _, err = run_cli("solve", "--case", "g4_1")
    assert code == 2
    assert "free-field case out of scope" in err


def test_solve_nonintegrable_refused():
    code, _, _ = run_cli("solve", "--case", "g2_1")
    assert code == 2


def test_chart_origin_row():
    code, out, _ = run_cli("chart", "--case", "g3_1", "--grid", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    # middle of the 3x3x3 grid is the coordinate origin
    origin = [r for r in rows[1:] if all(abs(float(x)) < 1e-12 for x in r[1:4])]
    assert len(origin) == 1
    x = [float(v) for v in origin[0][4:8]]
    assert x == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-14)
    assert all(float(r[-1]) < 1e-12 for r in rows[1:])


def test_chart_family_requires_parameter():
    code, _, err = run_cli("chart", "--case", "g1_3a")
    assert code == 2
    assert "requires --a" in err
    code, _, _ = run_cli("chart", "--case", "g1_3a", "--a", "0.5", "--grid", "2")
    assert code == 0


@pytest.mark.parametrize("argv,case,grid", [
    (["verify"], None, (10, 10, 10)),
    (["solve", "--case", "g3_1"], "g3_1", (10, 10, 10)),
    (["chart", "--case", "g3_1"], "g3_1", (5, 5, 5)),
])
def test_flags_left_out_take_the_run_config_defaults(argv, case, grid):
    run = _run_config_from(build_parser().parse_args(argv))
    assert run == RunConfig(command=argv[0], case=case, grid=grid)


@pytest.mark.parametrize("argv", [
    ["catalog", "--e", "7"],
    ["catalog", "--lambda=2+1i"],
    ["verify", "--case", "g3_1", "--format", "csv"],
    ["solve", "--case", "g3_1", "--seed", "5"],
    ["chart", "--case", "g3_1", "--format", "json"],
])
def test_flag_the_command_does_not_read_is_usage_error(argv):
    code, out, _ = run_cli(*argv)
    assert code == 2
    assert out == ""


def test_unknown_case_is_usage_error():
    code, _, _ = run_cli("verify", "--case", "g9_9")
    assert code == 2


def test_bad_zeta_is_usage_error():
    assert run_cli("verify", "--case", "g3_1", "--zeta", "0.2") == (
        2, "", "error: zeta must be 0 (minimal) or 1/6 (conformal coupling)\n")


def test_missing_subcommand_exits_2():
    code, _, _ = run_cli()
    assert code == 2


def test_closed_stdout_ends_quietly_with_141():
    # `dskg verify | head` closes the pipe early: no traceback, and 128 + SIGPIPE
    # rather than the 1 of a numerical failure
    src = Path(__file__).resolve().parents[1] / "src"
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "dskg.cli", "verify", "--case", "all"],
                              stdout=write, stderr=subprocess.PIPE, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_successive_calls_parse_independently(monkeypatch):
    # the parser is built once per process; what one call gives does not leak
    # into the next
    runs = []
    monkeypatch.setattr(cli, "cmd_verify", lambda run, out: runs.append(run) or 0)
    assert run_cli("verify", "--case", "g3_1", "--tol", "killing=1e-3",
                   "--tol", "joint_system=1e-5") == (0, "", "")
    assert run_cli("verify", "--case", "g3_2", "--perturb", "chi:1e-3") == (0, "", "")
    assert run_cli("verify", "--case", "g3_2", "--tol", "wave_residual=1e-4") == (0, "", "")
    assert build_parser() is build_parser()
    first, second, third = runs
    assert first.tolerances == {**DEFAULT_TOLERANCES, "killing": 1e-3, "joint_system": 1e-5}
    assert first.perturb is None
    assert second.tolerances == DEFAULT_TOLERANCES and second.perturb == ("chi", 1e-3)
    assert third.tolerances == {**DEFAULT_TOLERANCES, "wave_residual": 1e-4}
    assert third.perturb is None


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["solve", "-h"]])
def test_help_goes_to_the_given_stdout(argv):
    fresh = build_parser.__wrapped__()
    with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()) as want:
        fresh.parse_args(argv)
    assert run_cli(*argv) == (0, want.getvalue(), "")
    assert want.getvalue().startswith("usage: dskg")


@pytest.mark.parametrize("argv,usage,message", [
    (["verify", "--bogus"], "usage: dskg [-h]", "unrecognized arguments: --bogus"),
    (["solve"], "usage: dskg solve", "the following arguments are required: --case"),
    (["frobnicate"], "usage: dskg", "invalid choice: 'frobnicate'"),
])
def test_parse_error_goes_to_the_given_stderr(argv, usage, message):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith(usage) and message in err
