"""dskg benchmark: one workload, one process, one thread, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload {reproduce,solve,bases} --seed N \
        --seconds S --trace {0,1}

A run first measures set-up (``setup_s``: fresh interpreters that import
``dskg.cli`` and run the workload's first operation), runs that first
operation once untimed, then repeats the workload's pass, the same seeded
operations each time, until ``--seconds`` have elapsed.  Every output is
checked as it completes, and every repeat must be byte-identical to the
first.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes (spans and counters
installed by ``tracing.py``) and reports the per-layer metrics.  The last
line of stdout is one JSON object; a record with the machine details is
written to ``perfbench/out/``.  See ``NOTES.md`` for what each metric means.
"""

import os
import sys

# pinned before numpy is first imported: one BLAS thread, serial `verify`
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60
# Time of one calibration snippet on an uncontended core of the 2-core
# development machine (Intel Xeon, Python 3.11.7); it sets the scale of the
# reference-speed seconds in which the gated times are reported.
CAL_REF_S = 1.33e-3
CAL_ITERATIONS = 10000


def _cal_step(w: float, i: int) -> float:
    return w * 0.5 + (i & 7)


def calibrate(repeats: int = 1) -> float:
    """Median time of a fixed pure-Python snippet: the machine's current speed.

    The snippet does complex arithmetic and function calls, like the
    program, and allocates no containers, so it never triggers the garbage
    collector and its time depends on nothing the program does.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        z, w = 0.3 + 0.1j, 1.0
        for i in range(CAL_ITERATIONS):
            z = z * (0.999 + 0.001j) + 1e-3
            w = _cal_step(w, i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Everything measured over the timed operations of one run.

    ``reference`` holds the first output of each operation of the pass; it
    may be shared by two tallies so traced and untraced passes are compared.
    """

    def __init__(self, label: str, reference: dict):
        self.label = label
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.incorrect: Counter = Counter()
        self.failures: Counter = Counter()
        self.samples: dict[int, list[float]] = {}
        self.ratios: dict[int, list[float]] = {}
        self.margins: dict[int, float] = {}
        self.cals: list[float] = []
        self.passes = 0
        self.units = 0
        self.bytes_out = 0

    def add(self, index: int, op, outcome, latency: float, cal: float) -> None:
        self.attempted += 1
        self.samples.setdefault(index, []).append(latency)
        self.ratios.setdefault(index, []).append(latency / cal)
        self.cals.append(cal)
        if not outcome.ok:
            self.failed += 1
            self.failures[f"{op.label}: {outcome.error}"] += 1
        elif outcome.margin is not None:
            self.margins[index] = outcome.margin
        if not outcome.correct:
            self.incorrect[f"{op.label}: {outcome.error}"] += 1
        if self.reference.setdefault(index, outcome.output) != outcome.output:
            self.incorrect[f"{op.label}: {self.label} output differs from the first"] += 1
        self.units += outcome.units
        self.bytes_out += outcome.bytes_out

    def absorb(self, other: "Tally") -> None:
        """Add another tally's operation counts and failures to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.incorrect.update(other.incorrect)
        self.failures.update(other.failures)

    def ref_times(self) -> list[float]:
        """Each operation's median time over the run's repeats, at reference speed."""
        return [CAL_REF_S * statistics.median(r) for r in self.ratios.values()]


def run_pass(ops, tally: Tally, run_op) -> None:
    """Run and time each operation, bracketed by calibration samples."""
    clock = time.perf_counter
    before = calibrate()
    for index, op in enumerate(ops):
        t0 = clock()
        outcome = run_op(op)
        latency = clock() - t0
        after = calibrate()
        tally.add(index, op, outcome, latency, (before + after) / 2)
        before = after
    tally.passes += 1


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters: (measured, at reference speed)."""
    times, ref = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate(3)
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        cal = (before + calibrate(3)) / 2
        times.append(float(proc.stdout.split()[-1]))
        ref.append(times[-1] * CAL_REF_S / cal)
    return times, ref


def machine_record(seed: int) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "platform": platform.platform(), "seed": seed,
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "THREADS")}}


def end_to_end(tally: Tally, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """(gated metrics, extra metrics printed for people) as name -> (value, unit)."""
    ref = tally.ref_times()
    raw = [statistics.median(s) for s in tally.samples.values()]
    margins = sorted(tally.margins.values())
    metrics = {
        "setup_s": (statistics.median(setup[1]), "s"),
        "wall_s": (sum(ref), "s"),
        "op_s_p50": (statistics.median(ref), "s"),
        "pass_ratio": ((tally.attempted - tally.failed) / tally.attempted, "1"),
        "margin_dec": (statistics.quantiles(margins, n=10, method="inclusive")[0]
                       if len(margins) > 1 else sum(margins), "decades"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    every = sorted(t for s in tally.samples.values() for t in s)
    extra = {"fail_ratio": (tally.failed / tally.attempted, "1"),
             "margin_min_dec": (min(margins, default=0.0), "decades"),
             "setup_raw_s": (statistics.median(setup[0]), "s"),
             "wall_raw_s": (sum(raw), "s"),
             "op_raw_s_p50": (statistics.median(raw), "s"),
             "cal_s": (statistics.median(tally.cals), "s"),
             "ops": (len(ref), "count"), "passes": (tally.passes, "count")}
    if len(every) >= 100:  # at least ten samples beyond the 90th percentile
        extra["op_raw_s_p90"] = (statistics.quantiles(every, n=10)[8], "s")
    return metrics, extra


def _timed_loop(seconds: float, body) -> None:
    # whole passes, at least one, ending as close to the deadline as possible
    clock = time.perf_counter
    deadline = clock() + seconds
    index = 0
    while True:
        start = clock()
        body(index)
        index += 1
        now = clock()
        if now + (now - start) / 2 >= deadline:
            return


def run_untraced(workloads, args) -> tuple[Tally, dict]:
    setup = setup_times(args.workload, args.seed)
    ops = workloads.make_pass(args.workload, args.seed)
    workloads.run_op(ops[0])  # untimed; its cost is part of setup_s
    tally = Tally("untraced", {})
    _timed_loop(args.seconds, lambda _: run_pass(ops, tally, workloads.run_op))
    metrics, extra = end_to_end(tally, setup)
    return tally, {"metrics": metrics, "extra": extra}


def run_traced(workloads, tracing, args) -> tuple[Tally, dict]:
    tracer = tracing.Tracer()
    traced_basis = tracer.span("integrate", "bases_operation", workloads.basis_op)
    reference: dict = {}
    plain, traced = Tally("untraced", reference), Tally("traced", reference)
    ops = workloads.make_pass(args.workload, args.seed)

    def traced_op(op):
        tracer.op_id += 1
        return workloads.run_op(op, basis_fn=traced_basis)

    def traced_pass():
        handle = tracing.install(tracer)
        try:
            run_pass(ops, traced, traced_op)
        finally:
            handle.restore()

    def pair(index):
        # alternate which side runs first
        if index % 2:
            traced_pass()
        run_pass(ops, plain, workloads.run_op)
        if not index % 2:
            traced_pass()

    workloads.run_op(ops[0])
    _timed_loop(args.seconds, pair)
    passes = traced.passes
    metrics = tracing.layer_metrics(tracer, passes, traced.units, traced.bytes_out)
    metrics["trace.overhead_ratio"] = (sum(traced.ref_times()) / sum(plain.ref_times()), "1")
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{args.workload}.spans.csv.gz")
    merged = Tally("all", {})
    for t in (plain, traced):
        merged.absorb(t)
    extra = {"traced_passes": (passes, "count"), "spans": (len(tracer.spans), "count"),
             "root_span_s": (tracer.root_time() / passes, "s/pass")}
    return merged, {"metrics": metrics, "extra": extra}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("reproduce", "solve", "bases"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dskg" / "cli.py").is_file():
        print(f"error: no dskg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.trace:
        import tracing
        tally, result = run_traced(workloads, tracing, args)
    else:
        tally, result = run_untraced(workloads, args)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(args.seed),
              "failures": dict(tally.failures), "incorrect": dict(tally.incorrect)}
    for name, value in record["machine"].items():
        print(f"# {name}: {value}")
    for name, count in sorted(tally.failures.items()):
        print(f"# failed {count}x {name}")
    for name, count in sorted(tally.incorrect.items()):
        print(f"# INCORRECT {count}x {name}")
    for group in ("metrics", "extra"):
        for name, (value, unit) in result[group].items():
            print(f"{name} {value:.6g} {unit}")
        record[group] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result[group].items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": not tally.incorrect, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
