"""Command-line surface: catalog emission, verification, solving, chart export.

Exit codes are a stable contract: 0 success, 1 verification or numerical
failure, 2 usage error, 141 (128 + SIGPIPE) when the reader closes stdout
early.  Reports are deterministic for a fixed seed and flag set
(sorted keys, default float repr, cases ordered by id).  `verify`'s checks are
the rows of `CHECKS` (key, default tolerance, scope, residual), run in order
on one `VerifyContext` per entry.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import functools
import itertools
import json
import os
import sys
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import dual, integrate, lie_core, operators, specfun
from .cases import CASES, FREE_FIELD, case_spec
from .dual import Dual
from .fields import (FieldConfig, chi_residual, closedness_residual, exterior_derivative,
                     gauge_one_form, gauge_residual, interior_product, invariance_residual,
                     invariant_two_form, solve_chi)
from .geometry import (ChartOverflowError, RankDeficientError, chart_for, generator_jets,
                       hyperboloid_residual, induced_metric, killing_residual, sample_domain)
from .integrate import (ansatz, default_grid, grid_axes, grid_nodes, joint_system_residual,
                        lambda_rep, nested_product, reduced_ode, reduction_coefficients,
                        solution_basis)
from .lie_core import (ALL_CASES, CaseId, INTEGRABLE_CASES, IntegrabilityRecord, subalgebra,
                       table3, table3_diff)
from .operators import commutation_table_fit, kg_operator, symmetry_check, symmetry_jets

SCHEMA_VERSION = 1

class UsageError(ValueError):
    pass


class ParameterOverflowError(OverflowError):
    """A value left floating-point range at the physics flags given."""


@dataclass
class RunConfig:
    command: str
    case: Optional[str] = None
    e: float = FieldConfig.e
    m: float = FieldConfig.m
    zeta: float = FieldConfig.zeta
    mu: float = FieldConfig.mu
    mu1: float = FieldConfig.mu1
    mu2: float = FieldConfig.mu2
    a: Optional[float] = None
    J: float = 1.0
    lam: Optional[complex] = None
    grid: tuple[int, int, int] = (10, 10, 10)
    seed: int = 20813
    fmt: str = "json"
    tolerances: dict = dc_field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    perturb: Optional[tuple[str, float]] = None

    def __post_init__(self):
        values = {"--e": self.e, "--m": self.m, "--mu": self.mu, "--mu1": self.mu1,
                  "--mu2": self.mu2, "--a": self.a, "--J": self.J, "--lambda": self.lam,
                  "--perturb": self.perturb[1] if self.perturb else None}
        for flag, value in values.items():
            if value is not None and not cmath.isfinite(value):
                raise UsageError(f"{flag} must be finite, got {value}")
        for key, limit in self.tolerances.items():
            # an infinite tolerance waives its check; a NaN or negative one
            # fails whatever the residual
            if cmath.isnan(limit):
                raise UsageError(f"--tol {key} must not be NaN")
            if limit < 0:
                raise UsageError(f"--tol {key} must not be negative, got {limit}")
        if self.seed < 0:
            raise UsageError(f"--seed must be non-negative, got {self.seed}")
        if self.a is not None and self.a <= 0:
            raise UsageError("a must be positive")
        if any(n < 2 for n in self.grid):
            raise UsageError("grid counts must be >= 2")


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' with both parts required (also accepts 'a-bi')."""
    t = text.strip().replace(" ", "")
    if not (t.endswith("i") or t.endswith("j")):
        raise UsageError(f"complex value '{text}' must end in i with both parts, e.g. 0.4+0.2i")
    body = t[:-1]
    split_at = None
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            split_at = k
            break
    if split_at is None:
        raise UsageError(f"complex value '{text}' must carry both real and imaginary parts")
    try:
        return complex(float(body[:split_at]), float(body[split_at:]))
    except ValueError as exc:
        raise UsageError(f"cannot parse complex value '{text}'") from exc


def _family_a(case: CaseId, run: RunConfig) -> Optional[float]:
    if case_spec(case).parameterized and run.a is None:
        raise UsageError(f"case {case.value} requires --a")
    return run.a


def _field_config(case: CaseId, run: RunConfig) -> FieldConfig:
    return FieldConfig(case, mu=run.mu, mu1=run.mu1, mu2=run.mu2, e=run.e,
                       m=run.m, zeta=run.zeta, parameter_a=_family_a(case, run))


def _resolve_case(text: str) -> CaseId:
    try:
        return CaseId(text)
    except ValueError:
        raise UsageError(f"unknown case '{text}'; choose from "
                         + ", ".join(c.value for c in ALL_CASES))


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def cmd_catalog(run: RunConfig, out) -> int:
    a = run.a if run.a is not None else 1.0
    subs = [subalgebra(spec.case_id, a) for spec in CASES]
    table = table3(subs, run.mu)
    entries = []
    for spec, sub in zip(CASES, subs):
        d = sub.to_dict()
        if spec.parameterized:
            d["parameter"] = {"name": "a", "value": a}
        d["field_template"] = spec.field.template
        d["table3"] = table[spec.case_id]._asdict()
        d["table3_reference"] = list(spec.table3_reference)
        entries.append(d)
    diff = {c.value: v for c, v in table3_diff(table).items()}
    doc = {"schema": SCHEMA_VERSION, "entries": entries, "table3_diff": diff}
    if run.fmt == "csv":
        w = csv.writer(out)
        w.writerow(["case", *IntegrabilityRecord._fields])
        # every column is a count but the decision, which is written as 0 or 1
        w.writerows([case.value, *map(int, rec)] for case, rec in table.items())
    else:
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

# verify's checks read one grid seed of an entry's first SEED_LANES sampled
# points.  The commutation fit reads its first FIT_LANES lanes and the symmetry
# commutator its first SYMMETRY_LANES: every check's points are a prefix of the
# seed's, so each reads lanes of one evaluation.
SEED_LANES, FIT_LANES, SYMMETRY_LANES = 15, 12, 6


def _lanes(jets, n: int):
    """The first ``n`` lanes of lane-first jet arrays."""
    return tuple(part[:n] for part in jets)


class VerifyContext:
    """What one entry's checks share, each built once.  The chart points are
    drawn first and the joint-system points second, so a seed fixes both; a J
    out of the entry's series is refused here, by its λ-representation, and
    what can fail numerically is built when a check first reads it."""

    def __init__(self, case: CaseId, run: RunConfig):
        self.case, self.run, self.cfg = case, run, _field_config(case, run)
        self.sub = subalgebra(case, self.cfg.parameter_a)
        self.chart = chart_for(case, self.cfg.parameter_a)
        rng = np.random.default_rng(run.seed)
        self.pts = sample_domain(self.chart, 40, rng)
        self.jet_pts = self.pts[:SEED_LANES]
        self.coords = Dual.seed_grid(dual.columns(self.jet_pts))
        self.sym_pts = self.jet_pts[:SYMMETRY_LANES]
        self.chi_extra = None if run.perturb is None else \
            [lambda c, s=run.perturb[1]: s * c[0]] + [None] * (self.sub.dim - 1)
        self.form = invariant_two_form(case, self.cfg)
        # at e = 0 the central term F l0 is 0, so F cannot be fitted: expect 0
        self.central = lie_core.standard_cocycle(case, self.cfg.mu if self.cfg.e else 0.0)
        self.integ = case_spec(case).integration
        if self.integ is not None:
            self.rep = lambda_rep(case, run.J, self.cfg)
            self.jpts = [[rng.uniform(lo, hi) for lo, hi in self.integ.grid] for _ in range(8)]

    @functools.cached_property
    def metric(self):
        return induced_metric(self.case, self.coords, self.cfg.parameter_a)

    @functools.cached_property
    def generators(self):
        return generator_jets(self.case, self.coords, self.cfg.parameter_a)

    @functools.cached_property
    def form_jets(self):
        return self.form.jets(self.coords)

    @functools.cached_property
    def d_form(self):
        """dF, which the closedness check and every Lie derivative read."""
        return exterior_derivative(self.form_jets)

    @functools.cached_property
    def interiors(self):
        """i_X F of every generator, which the invariance and chi checks read."""
        return [interior_product(x, self.form_jets) for x in self.generators]

    @functools.cached_property
    def gauge(self):
        return [a(self.coords) for a in gauge_one_form(self.case, self.cfg)]

    @functools.cached_property
    def chis(self):
        return [chi(self.coords) for chi in solve_chi(self.case, self.cfg, self.chi_extra)]

    @functools.cached_property
    def op_jets(self):
        """The symmetry operators' coefficient jets on every lane of the seed."""
        return symmetry_jets(self.generators, self.chis, self.gauge, self.cfg.e, self.coords)

    @functools.cached_property
    def fit(self):
        return commutation_table_fit(_lanes(self.op_jets, FIT_LANES), 1j * self.cfg.e)

    @functools.cached_property
    def ans(self):
        return ansatz(self.case, self.cfg, self.run.J, self.run.lam)

    @functools.cached_property
    def wave_op(self):
        return kg_operator(self.case, self.cfg)


def _reduced_coefficients(c: VerifyContext) -> float:
    ode = reduced_ode(c.case, c.cfg, c.run.J)
    pv, qv, v = reduction_coefficients(c.ans, c.wave_op, c.jpts[:5])
    closed = np.array([(ode.p(x), ode.q(x)) for x in v.tolist()])
    # relative to the closed form's size, so a steep family's large q passes
    return float(np.max(np.abs(np.stack([pv, qv], 1) - closed))) \
        / max(1.0, float(np.max(np.abs(closed))))


def _generator_parts(op_jets):
    """The values X_A^c and gradients d_a X_A^c of the generator components, the
    first three coefficients of each symmetry operator's jets."""
    vals, grads, _ = op_jets
    return vals[..., :3].real, grads[..., :3, :].real


class Check(NamedTuple):
    key: str
    tolerance: float
    residual: Callable[[VerifyContext], float]
    integrable_only: bool = False


# verify's checks, in the order they run.  A residual names what it calls when
# it runs, not when the table is built, so a wrapper installed on a name reaches it.
CHECKS = (
    Check("hyperboloid", 1e-12, lambda c: max(hyperboloid_residual(c.chart.embed(p))
                                              for p in c.pts)),
    Check("metric_identity", 1e-10, lambda c: c.metric.identity_residual()),
    # the metric is evaluated before the operator jets, so it raises first
    Check("killing", 1e-8, lambda c: killing_residual(c.metric, *_generator_parts(c.op_jets))),
    Check("field_closedness", 1e-10, lambda c: closedness_residual(c.d_form)),
    Check("field_invariance", 1e-10, lambda c: invariance_residual(c.generators, c.interiors,
                                                                   c.d_form)),
    Check("gauge_consistency", 1e-10, lambda c: gauge_residual(c.gauge, c.form_jets)),
    Check("chi_gradient", 1e-10, lambda c: chi_residual(c.chis, c.interiors)),
    Check("commutation_table", 1e-9, lambda c: c.fit.residual),
    Check("central_charge", 1e-9, lambda c: float(np.max(np.abs(c.fit.central - c.central)))),
    Check("structure_vs_catalog", 1e-9, lambda c: float(
        np.max(np.abs(c.fit.structure - c.sub.algebra.structure_constants)))),
    Check("lambda_commutation", 1e-10, lambda c: operators.representation_residual(
        c.rep.ops, c.sub.algebra.structure_constants, c.central, c.rep.ell0,
        [(0.35,), (0.8,), (-0.6,), (1.1,)]), True),
    Check("joint_system", 1e-8, lambda c: joint_system_residual(c.ans, c.rep, c.jpts), True),
    Check("reduced_coefficients", 1e-9, _reduced_coefficients, True),
    Check("wave_residual", 1e-6, lambda c: float(np.max(integrate.reduction_residual(
        c.ans, c.wave_op, solution_basis(c.case, c.cfg, c.run.J, c.run.lam).phi1,
        default_grid(c.case, (4, 4, 4)))[1])), True),
    Check("symmetry_commutator", 1e-8, lambda c: symmetry_check(
        c.wave_op, _lanes(c.op_jets, SYMMETRY_LANES), c.sym_pts, n_probes=2), True),
)
DEFAULT_TOLERANCES = {check.key: check.tolerance for check in CHECKS}


def _verify_case(entry: VerifyContext) -> dict:
    checks = {}
    for check in CHECKS:
        if entry.integ is not None or not check.integrable_only:
            value, limit = float(check.residual(entry)), entry.run.tolerances[check.key]
            checks[check.key] = {"residual": value, "tolerance": limit, "pass": value <= limit}
    return {"residuals": checks, "pass": all(c["pass"] for c in checks.values())}


def cmd_verify(run: RunConfig, out) -> int:
    if run.case in (None, "all"):
        selected = ALL_CASES
    else:
        selected = [_resolve_case(run.case)]
    if run.a is None:
        run.a = 1.0
    # every entry's context first: a usage error such as a J out of an entry's
    # series is refused before any check runs
    entries = [VerifyContext(case, run) for case in selected]
    results = {entry.case.value: _verify_case(entry) for entry in entries}
    overall = all(r["pass"] for r in results.values())
    report = {
        "schema": SCHEMA_VERSION,
        "seed": run.seed,
        "parameters": {"e": run.e, "m": run.m, "zeta": run.zeta, "mu": run.mu,
                       "mu1": run.mu1, "mu2": run.mu2, "a": run.a, "J": run.J},
        "cases": {k: results[k] for k in sorted(results)},
        "pass": overall,
    }
    json.dump(report, out, indent=2, sort_keys=True)
    out.write("\n")
    return 0 if overall else 1


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def _format_record(rec: dict) -> dict:
    out = {}
    for k, v in rec.items():
        if isinstance(v, complex):
            out[k] = {"re": v.real, "im": v.imag}
        else:
            out[k] = v
    return out


# one CSV row of `solve`'s body, as csv.writer writes it: numbers never need
# quoting, and \r\n is its line terminator.  The node's coordinates come first,
# as one prefix of per-axis strings, each formatted once as "%.12g,"
_SOLVE_ROW = "%s%.15g,%.15g,%.3e\r\n"


def cmd_solve(run: RunConfig, out, err) -> int:
    if run.case is None:
        raise UsageError("solve requires --case")
    case = _resolve_case(run.case)
    spec = case_spec(case)
    if spec.field is FREE_FIELD:
        raise UsageError("free-field case out of scope")
    if spec.integration is None:
        raise UsageError(f"case {case.value} is not integrable; "
                         "choose one of " + ", ".join(c.value for c in INTEGRABLE_CASES))
    cfg = _field_config(case, run)
    ans = ansatz(case, cfg, run.J, run.lam)  # first: it refuses a J out of range
    basis = solution_basis(case, cfg, run.J, run.lam)
    axes = grid_axes(spec.integration.grid, run.grid)
    grid = grid_nodes(axes)
    chart = chart_for(case, cfg.parameter_a)
    phi, residual = integrate.reduction_residual(ans, kg_operator(case, cfg), basis.phi1, grid)
    kept = np.isfinite(phi)
    dropped = len(grid) - int(np.count_nonzero(kept))
    verified = dropped < len(grid)
    worst = float(residual[kept].max()) if verified else 0.0
    csv.writer(out).writerow(list(chart.coord_names) + ["re_phi", "im_phi", "residual"])
    prefixes = map("".join, nested_product([["%.12g," % x for x in ax.tolist()]
                                            for ax in axes]))
    rows = zip(itertools.compress(prefixes, kept.tolist()),
               phi[kept].tolist(), residual[kept].tolist())
    out.writelines(_SOLVE_ROW % (pre, p.real, p.imag, r) for pre, p, r in rows)
    summary = {
        "schema": SCHEMA_VERSION,
        "case": case.value,
        "parameters": cfg.to_dict(),
        "J": run.J,
        "lambda": {"re": ans.lam.real, "im": ans.lam.imag},
        "special_function": _format_record(basis.record),
        "max_residual": worst,
        "dropped_branch_points": dropped,
        "grid": list(run.grid),
    }
    if dropped:
        err.write(f"warning: dropped {dropped} grid nodes at branch points\n")
    err.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if verified and worst <= run.tolerances["wave_residual"] else 1


# ----------------------------------------------------------------------
# chart
# ----------------------------------------------------------------------

def cmd_chart(run: RunConfig, out) -> int:
    if run.case is None:
        raise UsageError("chart requires --case")
    case = _resolve_case(run.case)
    chart = chart_for(case, _family_a(case, run))
    nodes = grid_nodes(grid_axes(chart.domain, run.grid))
    # every point is embedded before anything is written: a failure prints no rows
    rows = []
    for pt in nodes.tolist():
        x = chart.embed(pt)
        rows.append([case.value]
                    + [f"{c:.12g}" for c in pt]
                    + [f"{xa:.15g}" for xa in x]
                    + [f"{hyperboloid_residual(x):.3e}"])
    writer = csv.writer(out)
    writer.writerow(["case"] + list(chart.coord_names)
                    + ["x0", "x1", "x2", "x3", "hyperboloid_residual"])
    writer.writerows(rows)
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

_FLAGS = {
    "--case": {},
    "--seed": {"type": int},
    "--format": {"dest": "fmt", "choices": ("json", "csv")},
    "--grid": {"help": "comma-separated axis counts, e.g. 10,10,10"},
    "--lambda": {"dest": "lam",
                 "help": "complex value as a+bi, both parts required; attach a "
                         "negative value with =, e.g. --lambda=-0.5+0.1i"},
    "--perturb": {"help": "inject a fault, e.g. chi:1e-3"},
    "--tol": {"action": "append", "help": "tolerance override KEY=VALUE (repeatable)"},
}  # any other flag is a float
_PHYSICS = ("--e", "--m", "--zeta", "--mu", "--mu1", "--mu2", "--a", "--J", "--lambda")

# each command is offered exactly the flags it reads
_COMMANDS = {
    "catalog": ("emit the subalgebra catalog with the computed classification table",
                ("--mu", "--a", "--format")),
    "verify": ("run the per-case verification suite",
               ("--case", "--seed") + _PHYSICS + ("--perturb", "--tol")),
    "solve": ("sample a solution family and its residuals", ("--case", "--grid") + _PHYSICS),
    "chart": ("export embedding samples of one chart", ("--case", "--a", "--grid")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process.  Parsing does not
    change it: what a call gives, ``--tol``'s list too, lives in that call's
    namespace."""
    ap = argparse.ArgumentParser(
        prog="dskg",
        description="Symmetry algebras and noncommutative integration of the "
                    "charged wave equation on the 3D de Sitter hyperboloid.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help, flags) in _COMMANDS.items():
        # a flag the user leaves out stays out of the namespace: RunConfig holds
        # every default
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        for flag in flags:
            # verify runs every entry without --case; solve and chart need one
            p.add_argument(flag, required=flag == "--case" and name != "verify",
                           **_FLAGS.get(flag, {"type": float}))
    return ap


def _run_config_from(ns: argparse.Namespace) -> RunConfig:
    given = {k: v for k, v in vars(ns).items() if k in RunConfig.__dataclass_fields__}
    grid = given.pop("grid", None)
    if grid is not None:
        parts = [int(x) for x in grid.split(",")]
        if len(parts) == 1:
            parts = parts * 3
        if len(parts) != 3:
            raise UsageError("grid spec needs 1 or 3 counts")
        given["grid"] = tuple(parts)
    elif ns.command == "chart":
        given["grid"] = (5, 5, 5)
    lam = given.pop("lam", None)
    if lam is not None:
        given["lam"] = parse_complex(lam)
    tol = dict(DEFAULT_TOLERANCES)
    for item in vars(ns).get("tol", []):
        if "=" not in item:
            raise UsageError(f"bad tolerance override '{item}'")
        key, val = item.split("=", 1)
        if key not in tol:
            raise UsageError(f"unknown tolerance key '{key}'")
        tol[key] = float(val)
    spec = given.pop("perturb", None)
    if spec is not None:
        if ":" not in spec:
            raise UsageError(f"bad perturbation spec '{spec}'")
        kind, eps = spec.split(":", 1)
        given["perturb"] = (kind, float(eps))
        if kind != "chi":
            raise UsageError(f"unknown perturbation target '{kind}'")
    return RunConfig(tolerances=tol, **given)


def _command(run: RunConfig, ns: argparse.Namespace, out, err) -> int:
    """Run ``run``'s command.  numpy's overflow warning is raised, as Python's
    overflow is, so no warning leaks; an overflow outside the chart map names the
    physics flags given (``ns`` holds only those), which set the regime.
    ``np.errstate(over="raise")`` would do the same, but it slows the many small
    ufunc calls of ``verify`` by a few percent."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "overflow encountered", RuntimeWarning)
            if run.command == "catalog":
                return cmd_catalog(run, out)
            if run.command == "verify":
                return cmd_verify(run, out)
            if run.command == "solve":
                return cmd_solve(run, out, err)
            if run.command == "chart":
                return cmd_chart(run, out)
            raise UsageError(f"unknown command {run.command}")
    except ChartOverflowError:
        raise
    except (OverflowError, RuntimeWarning) as exc:
        if isinstance(exc, RuntimeWarning) and not str(exc).startswith("overflow encountered"):
            raise
        dests = {flag: _FLAGS.get(flag, {}).get("dest", flag[2:]) for flag in _PHYSICS}
        given = [f"{flag} {vars(ns)[d]}" for flag, d in dests.items() if d in vars(ns)]
        case = f"{run.case}: " if run.case not in (None, "all") else ""
        raise ParameterOverflowError(f"{case}overflow beyond floating-point range at "
                                     f"{', '.join(given) or 'the default parameters'}") from exc


def main(argv: Optional[Sequence[str]] = None,
         stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        # argparse writes usage errors and --help to the process streams
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _command(_run_config_from(ns), ns, out, err)
    except (ArithmeticError, RankDeficientError, specfun.DomainError, specfun.PoleError,
            specfun.StepSizeUnderflow) as exc:
        err.write(f"error: {exc}\n")
        return 1
    except (ValueError, KeyError) as exc:  # UsageError is a ValueError
        err.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:  # e.g. `dskg verify | head`
        if out is sys.stdout:
            # the interpreter flushes stdout at exit: let that write go nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
