"""`src` carries only what a command runs.

One run of the command set below under `sys.setprofile` must enter every
function that `src/dskg` defines, methods and nested defs included; dunder
methods are exempt.  A def that only the tests call belongs in the tests.
The allowlist names the defs that stay although no command enters them yet,
each tagged with why; it shrinks as the ROADMAP open items named in the tags
land, and a def that a command starts to enter must leave it.

The benchmark in `perfbench/` reaches into `src` by name too, so its tracing
is installed and restored here once: a cleanup that drops a name it spans
fails Tier-1, not only `pytest perfbench`.
"""

import ast
import importlib
import io
import sys
import types
from pathlib import Path

import dskg
from dskg import cli, dual, operators, specfun
from dskg.cases import INTEGRABLE_CASES, case_spec
from dskg.integrate import SpecialSolution
from dskg.lie_core import ALL_CASES

SRC = Path(dskg.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

SPANNED = "spanned by perfbench/tracing.py; the next benchmark change drops it (ROADMAP item 6)"
BENCHMARK = "called by the benchmark's bases workload"
ORACLE = "an oracle pair that verify is to run (ROADMAP item 7)"
DECORATOR = "a decorator: it runs when specfun is imported"
APPENDIX = "the Appendix chart construction, checked on one entry (ROADMAP item 3)"

ALLOWLIST = {
    "dual.Dual.seed": SPANNED,
    "operators.DiffOp1.apply": SPANNED,
    "operators.DiffOp1.apply_jet": SPANNED,
    "operators.DiffOp2.apply_scaled": SPANNED,
    # verify reads each entry's operators as one evaluation (symmetry_jets);
    # this per-operator route is its oracle
    "operators.symmetry_operators": SPANNED,
    "integrate.ReducedODE.residual": BENCHMARK,
    "integrate.SolutionBasis.wronskian": BENCHMARK,
    "specfun._lifted": DECORATOR,
    "specfun._lifted.evaluate": "the Dual-argument entry point of tests and benchmark spans",
    # phi2 of every closed-form basis: bound with phi1, evaluated only by tests
    "specfun.kummer_u.jet": ORACLE,
    # series vs RK
    "specfun.ode_integrate": ORACLE,
    "specfun.ode_integrate.rhs": ORACLE,
    "specfun.DenseSolution.jet": ORACLE,
    # closed-form vs divergence-form wave operator
    "operators.kg_generic_coefficients": ORACLE,
    "operators.kg_cross_residual": ORACLE,
    # the cocycle class
    "lie_core.coboundary_solve": ORACLE,
    "lie_core.coboundary_shift": ORACLE,
    "fields.cocycle_from_config": ORACLE,
    "fields.TwoForm.matrix": ORACLE,
    "geometry.rectify": APPENDIX,
    "geometry.matexp": APPENDIX,
    "geometry.rep_matrices": APPENDIX,
    "geometry.pushforward": APPENDIX,
    "lie_core.SubalgebraSpec.generator_matrices": APPENDIX,
}

GRID = "2"


def _commands():
    """(argv, exit code): the paper's commands, on a cut-down grid."""
    family = ["--a", "1"]
    runs = [(["catalog"], 0), (["catalog", "--format", "csv"], 0),
            (["verify", "--case", "all"], 0),
            # the perturbed chi is caught although its own tolerance is loosened
            (["verify", "--case", "g3_2", "--mu", "1", "--perturb", "chi:1e-3",
              "--tol", "chi_gradient=1e-2"], 1)]
    for case in INTEGRABLE_CASES:
        a = family if case_spec(case).parameterized else []
        runs.append((["solve", "--case", case.value, "--grid", GRID] + a, 0))
    runs.append((["solve", "--case", "g3_2", "--grid", GRID, "--lambda=0.5+0.1i"], 0))
    # the neutral limit, served by an elementary basis
    runs.append((["solve", "--case", "g3_2", "--grid", GRID, "--e", "0"], 0))
    for case in ALL_CASES:
        a = family if case_spec(case).parameterized else []
        runs.append((["chart", "--case", case.value, "--grid", GRID] + a, 0))
    return runs


def src_defs():
    """{(file name, line): qualified name} of every def in `src`, keyed by the
    line its code object starts on: the first decorator's, if it has one."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                out[(path.name, line)] = f"{path.stem}.{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return out


def clear_src_caches():
    """Empty every ``functools`` cache held by a `src` module or class, and
    return the qualified names of the caches emptied."""
    cleared = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("dskg" if path.stem == "__init__"
                                         else f"dskg.{path.stem}")
        for name, value in vars(module).items():
            members = [(name, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                members += [(f"{name}.{key}", getattr(value, key)) for key in vars(value)]
            for qualname, fn in members:
                owner = getattr(fn, "__module__", None)
                if hasattr(fn, "cache_clear") and owner == module.__name__:
                    fn.cache_clear()
                    cleared.append(f"{path.stem}.{qualname}")
    return cleared


def entered_by_commands():
    """The (file name, line) of every `src` function the command set enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # a cached def runs only on its first call in a process, so every cache is
    # emptied first, whichever tests ran before.  specfun keeps no module-level
    # cache: each basis binds its own ratio tables, weights and last-result
    # slots, so each command starts them empty
    assert "cli.build_parser" in clear_src_caches()
    assert not [name for name, fn in vars(specfun).items() if hasattr(fn, "cache_clear")]
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        ran = [(argv, cli.main(argv, io.StringIO(), io.StringIO())) for argv, _ in _commands()]
    finally:
        sys.setprofile(previous)
    assert ran == _commands()
    return {(Path(c.co_filename).name, c.co_firstlineno) for c in codes
            if Path(c.co_filename).parent == SRC}


def test_commands_enter_every_def_but_the_allowlist():
    assert len(ALLOWLIST) <= 24
    defs = src_defs()
    assert set(ALLOWLIST) <= set(defs.values()), set(ALLOWLIST) - set(defs.values())
    entered = entered_by_commands()
    unentered = {name for key, name in defs.items()
                 if key not in entered and not name.rsplit(".", 1)[1].startswith("__")}
    assert sorted(unentered - set(ALLOWLIST)) == [], "only the tests call these"
    assert sorted(set(ALLOWLIST) - unentered) == [], "a command enters these now"


def test_benchmark_tracing_installs_and_restores():
    # the benchmark's own module, read and run here without writing anything
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(tracing))
    owners = [dskg] + [sys.modules[f"dskg.{layer}"] for layer in tracing.LAYERS] \
        + [operators.DiffOp1, operators.DiffOp2, SpecialSolution, dual.Dual]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracing.install(tracer).restore()
    for owner, attrs in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in attrs.items()), owner
    # the jet-cache hook reads the cache a SpecialSolution fills
    solution = SpecialSolution(lambda v: (v * v, 2.0 * v, 2.0))
    tracer._jet_hit((solution, 0.5))
    solution.jet(0.5)
    tracer._jet_hit((solution, 0.5))
    assert tracer.counts["integrate.jet_cache.hits"] == [1]
