"""Spans and counters around dskg's layers, installed from outside the program.

The layers are the modules of ``src/dskg``.  :func:`install` replaces each
spanned function with a timing wrapper everywhere it is bound: its home
module, every ``from ... import`` binding in the other dskg modules, and
class attributes for methods.  High-frequency leaf calls (``Dual``
arithmetic, ``specfun.gamma``) get a counter only.  The returned handle's
``restore`` puts every original back, so traced and untraced passes can
alternate in one process.

Spans are kept in memory as (name id, start, end, parent span, operation)
and written out by :meth:`Tracer.write_spans` when the benchmark ends.
A layer's self time is the duration of its spans minus the time their child
spans cover; dual arithmetic has no spans, so its time is self time of the
spanned caller it runs under, and its cost is read from its counts.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from typing import Callable, Optional

from dskg.integrate import BranchPointError

SPANNED = {
    "cli": ("main",),
    "lie_core": ("subalgebra", "standard_cocycle", "integrability_check", "table3_diff"),
    "geometry": ("chart_for", "chart_jets", "metric_jet", "hyperboloid_residual",
                 "induced_metric", "killing_residual"),
    "fields": ("invariant_two_form", "solve_chi", "invariance_residual", "gauge_residual",
               "chi_residual"),
    "operators": ("symmetry_operators", "commutator", "commutation_table_fit",
                  "representation_residual", "symmetry_check", "kg_operator",
                  "DiffOp1.apply", "DiffOp2.apply_scaled"),
    "integrate": ("lambda_rep", "ansatz", "joint_system_residual", "reduction_coefficients",
                  "reduction_residual", "reduced_ode", "solution_basis",
                  "SpecialSolution.jet"),
    "specfun": ("whittaker_m", "whittaker_w", "kummer_m", "kummer_u", "bessel_j",
                "bessel_y", "hyp2f1", "legendre_p", "legendre_q", "ode_integrate"),
}
LAYERS = tuple(SPANNED) + ("dual",)

COUNTED = {
    "specfun.gamma.calls": ("specfun", ("gamma",)),
    "dual.add.calls": ("dual", ("Dual.__add__", "Dual.__radd__")),
    "dual.mul.calls": ("dual", ("Dual.__mul__", "Dual.__rmul__")),
    "dual.lift.calls": ("dual", ("Dual.lift",)),
    "dual.reciprocal.calls": ("dual", ("Dual.reciprocal",)),
}
DUAL_OPS = tuple(k for k in COUNTED if k.startswith("dual."))


class Tracer:
    """In-memory spans, per-function totals and per-layer self time."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.op_id = -1
        self.calls = {f"{layer}.{fn}": 0 for layer, fns in SPANNED.items() for fn in fns}
        self.busy = dict.fromkeys(self.calls, 0.0)
        self.self_s = dict.fromkeys(SPANNED, 0.0)
        self.errors = dict.fromkeys(SPANNED, 0)
        self.counts = {key: [0] for key in COUNTED}
        self.counts["specfun.ode_integrate.steps"] = [0]
        self.counts["integrate.jet_cache.hits"] = [0]
        self.counts["integrate.branch_drops"] = [0]
        self._stack: list = []  # [span index, time covered by children]

    # -- wrappers -----------------------------------------------------

    def span(self, layer: str, name: str, fn: Callable,
             before: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``before(args)``/``after(result)`` feed counters."""
        key = f"{layer}.{name}"
        name_id = len(self.names)
        self.names.append(key)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, busy, self_s = self.calls, self.busy, self.self_s
        calls.setdefault(key, 0)
        busy.setdefault(key, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[key] += 1
                busy[key] += dur
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name_id, t0, t1, parent, self.op_id)
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        cell = self.counts[key]

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _error(self, layer: str, exc: Exception) -> None:
        # count each exception once per layer it passes through
        seen = exc.__dict__.setdefault("_perfbench_layers", set())
        if not seen and isinstance(exc, BranchPointError):
            self.counts["integrate.branch_drops"][0] += 1
        if layer not in seen:
            seen.add(layer)
            self.errors[layer] += 1

    def root_time(self) -> float:
        """Total duration of the root spans (one per traced operation)."""
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[3] == -1)

    def write_spans(self, path) -> None:
        """Write the spans as gzip CSV: name, start, end, parent index, operation."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op\n")
            for s in self.spans:
                if s is not None:
                    fh.write(f"{self.names[s[0]]},{s[1]:.9f},{s[2]:.9f},{s[3]},{s[4]}\n")

    # -- hooks --------------------------------------------------------

    def _jet_hit(self, args) -> None:
        solution, v = args[0], args[1]
        if complex(v) in solution._cache:
            self.counts["integrate.jet_cache.hits"][0] += 1

    def _ode_steps(self, result) -> None:
        self.counts["specfun.ode_integrate.steps"][0] += len(result._segments)


class Installed:
    """Handle returned by :func:`install`; ``restore`` undoes every patch."""

    def __init__(self, patches):
        self.patches = patches

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []


def _modules():
    return {layer: importlib.import_module(f"dskg.{layer}") for layer in LAYERS}


def _patch(modules, layer: str, qualname: str, make: Callable, patches: list) -> None:
    home = modules[layer]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(home, cls_name)
        original = owner.__dict__[attr]
        patches.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return
    original = getattr(home, qualname)
    wrapped = make(original)
    for mod in list(modules.values()) + [importlib.import_module("dskg")]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> Installed:
    """Wrap every spanned and counted function of the dskg layers."""
    modules = _modules()
    patches: list = []
    hooks = {"integrate.SpecialSolution.jet": {"before": tracer._jet_hit},
             "specfun.ode_integrate": {"after": tracer._ode_steps}}
    for layer, names in SPANNED.items():
        for qualname in names:
            extra = hooks.get(f"{layer}.{qualname}", {})
            _patch(modules, layer, qualname,
                   lambda fn, l=layer, q=qualname, x=extra: tracer.span(l, q, fn, **x),
                   patches)
    for key, (layer, names) in COUNTED.items():
        for qualname in names:
            _patch(modules, layer, qualname,
                   lambda fn, k=key: tracer.counter(k, fn), patches)
    return Installed(patches)


def layer_metrics(tracer: Tracer, passes: int, units: int, bytes_out: int) -> dict:
    """Per-pass per-layer metrics (name -> (value, unit)) from one traced run."""
    n = max(passes, 1)
    out = {}
    for layer, fns in SPANNED.items():
        for fn in fns:
            key = f"{layer}.{fn}"
            out[f"{key}.calls"] = (tracer.calls[key] / n, "count/pass")
            out[f"{key}.busy_s"] = (tracer.busy[key] / n, "s/pass")
        out[f"{layer}.self_s"] = (tracer.self_s[layer] / n, "s/pass")
        out[f"{layer}.errors"] = (tracer.errors[layer] / n, "count/pass")
    counts = {k: v[0] for k, v in tracer.counts.items()}
    out["cli.bytes_out"] = (bytes_out / n, "B/pass")
    jet_calls = tracer.calls["integrate.SpecialSolution.jet"]
    out["integrate.jet_cache.hit_ratio"] = (
        counts["integrate.jet_cache.hits"] / jet_calls if jet_calls else 0.0, "1")
    out["integrate.branch_drops"] = (counts["integrate.branch_drops"] / n, "count/pass")
    out["specfun.gamma.calls"] = (counts["specfun.gamma.calls"] / n, "count/pass")
    out["specfun.ode_integrate.steps"] = (counts["specfun.ode_integrate.steps"] / n,
                                          "count/pass")
    for key in DUAL_OPS:
        out[key] = (counts[key] / n, "count/pass")
    out["dual.ops_per_unit"] = (sum(counts[k] for k in DUAL_OPS) / max(units, 1), "ops/unit")
    return out
