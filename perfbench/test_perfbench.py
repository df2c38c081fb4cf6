"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# a few operations of each workload's pass, including the failing neutral draw of `bases`
SAMPLE = {
    "reproduce": (0, 3, 9),      # catalog, verify g1_3a, verify g3_2
    "solve": (0,),               # solve g3_1
    "bases": (0, 1, 46, 48),     # draw 0 g3_1/g3_2; neutral g3_2/g3_4
}


@pytest.fixture(scope="module")
def traced_runs():
    """Each sample run untraced and then traced: (ops, plain, traced, tracer)."""
    results = {}
    for workload, picks in SAMPLE.items():
        ops = [workloads.make_pass(workload, 5)[i] for i in picks]
        plain = [workloads.run_op(op) for op in ops]
        tracer = tracing.Tracer()
        basis_fn = tracer.span("integrate", "bases_operation", workloads.basis_op)
        handle = tracing.install(tracer)
        try:
            traced = []
            for op in ops:
                tracer.op_id += 1
                traced.append(workloads.run_op(op, basis_fn=basis_fn))
        finally:
            handle.restore()
        results[workload] = (ops, plain, traced, tracer)
    return results


@pytest.mark.parametrize("workload", sorted(SAMPLE))
def test_traced_outputs_are_byte_identical(traced_runs, workload):
    ops, plain, traced, tracer = traced_runs[workload]
    assert tracer.spans, "tracing recorded nothing"
    for op, a, b in zip(ops, plain, traced):
        assert (a.ok, a.correct, a.error, a.margin) == (b.ok, b.correct, b.error, b.margin), op
        assert a.output == b.output, op.label


def test_neutral_draw_fails_cleanly(traced_runs):
    _, plain, _, tracer = traced_runs["bases"]
    assert [o.ok for o in plain] == [True, True, False, False]
    assert all(o.correct for o in plain)
    assert tracer.errors["specfun"] == 2 and tracer.errors["integrate"] == 2


@pytest.mark.parametrize("workload", sorted(SAMPLE))
def test_self_times_sum_to_root_spans(traced_runs, workload):
    *_, tracer = traced_runs[workload]
    roots = [s for s in tracer.spans if s[3] == -1]
    assert len(roots) == len(SAMPLE[workload])
    assert math.isclose(sum(tracer.self_s.values()), tracer.root_time(),
                        rel_tol=1e-9, abs_tol=1e-9)


def test_emitted_names_are_declared_and_well_formed(traced_runs):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    *_, tracer = traced_runs["reproduce"]
    layer = tracing.layer_metrics(tracer, 1, 1, 1)
    layer["trace.overhead_ratio"] = (1.0, "1")
    tally = run.Tally("untraced", {})
    tally.add(0, workloads.Op("x"), workloads.Outcome(True, margin=1.0), 1.0, 1.0)
    tally.passes = 1
    e2e, extra = run.end_to_end(tally, ([1.0], [1.0]))
    for name in list(layer) + list(e2e) + list(extra) + tracer.names:
        assert NAME.fullmatch(name), name
    assert set(layer) == {m["name"] for m in declared["per_layer"]}
    assert set(e2e) == {m["name"] for m in declared["end_to_end"]}
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)


def test_install_rebinds_every_import_and_restores():
    import dskg
    from dskg import cli, dual, geometry, integrate, operators, specfun

    originals = {
        (cli, "chart_for"): geometry.chart_for,
        (cli, "symmetry_check"): operators.symmetry_check,
        (operators, "metric_jet"): geometry.metric_jet,
        (integrate, "kg_operator"): operators.kg_operator,
        (dskg, "integrability_check"): dskg.lie_core.integrability_check,
        (specfun, "gamma"): specfun.gamma,
        (dual.Dual, "__radd__"): dual.Dual.__dict__["__radd__"],
        (dual.Dual, "__rmul__"): dual.Dual.__dict__["__rmul__"],
    }
    handle = tracing.install(tracing.Tracer())
    try:
        for (owner, attr), fn in originals.items():
            assert vars(owner)[attr] is not fn, attr
            assert vars(owner)[attr].__wrapped__ is fn, attr
    finally:
        handle.restore()
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn, attr


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_pass(workload, 7) == workloads.make_pass(workload, 7)
        assert workloads.make_pass(workload, 7) != workloads.make_pass(workload, 8)
    bases = workloads.make_pass("bases", 7)
    assert len(bases) == 100
    assert [op.basis["e"] == 0.0 for op in bases].count(True) == 10


def test_unparsable_output_is_wrong_not_a_crash(monkeypatch):
    monkeypatch.setattr(workloads.cli, "main", lambda argv, out, err: out.write("garbage") and 0)
    outcome = workloads.run_op(workloads.make_pass("solve", 1)[0])
    assert (outcome.ok, outcome.correct, outcome.error) == (False, False, "malformed output")
