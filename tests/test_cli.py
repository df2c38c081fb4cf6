"""CLI contract: exit codes, document schemas, determinism."""

import csv
import io
import json
import math
import warnings

import pytest

from dskg import dual
from dskg.cli import RunConfig, UsageError, _run_config_from, build_parser, main, parse_complex
from dskg.integrate import SolutionAnsatz


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


def test_verify_all_cases_summary():
    code, out, _ = run_cli("verify", "--case", "all", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["cases"]) == 13
    assert list(rep["cases"]) == sorted(rep["cases"])


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
    assert [dual.value(c).shape for c in calls[0]] == [(27,)] * 3


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
    code, _, _ = run_cli("verify", "--case", "g3_1", "--zeta", "0.2")
    assert code == 2


def test_missing_subcommand_exits_2():
    code, _, _ = run_cli()
    assert code == 2
