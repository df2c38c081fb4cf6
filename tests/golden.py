"""The golden corpus: fixed invocations whose outputs must stay byte-identical.

Each entry of ``golden.json`` is one CLI invocation (run in-process through
``dskg.cli.main``) or one seeded set of ``bases`` jets (built through
``integrate.solution_basis``), with its exit code and its stdout and stderr.
A short output is stored as full text, so that a failing test shows the diff;
a long one as its length and sha256 digest.

Regenerate the file after a change that alters an output on purpose, and cite
its ``git diff``:

    PYTHONPATH=src python tests/golden.py

The digests tie the corpus to the numpy and libm it was made with: a
toolchain change that moves a last bit fails the check too.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from dskg import cli, integrate
from dskg.fields import FieldConfig
from dskg.lie_core import CaseId, PARAMETERIZED_CASES

PATH = Path(__file__).with_name("golden.json")

# outputs up to this many characters are kept as text, longer ones as digests
TEXT_LIMIT = 4096

INTEGRABLE = ("g3_1", "g3_2", "g3_3a", "g3_4", "g3_5")
FAMILY_A = {"g3_3a": ("--a", "1")}

INVOCATIONS = (
    ("catalog",),
    ("catalog", "--format", "csv"),
    ("catalog", "--a", "2.3"),
    ("catalog", "--mu", "0"),
    ("catalog", "--mu", "1e-12"),
    ("catalog", "--a", "0.37"),
    ("catalog", "--a", "1e300"),
    ("catalog", "--a", "0.5", "--mu", "0"),
    ("verify", "--case", "all"),
    ("verify", "--case", "all", "--seed", "3"),
    ("verify", "--case", "all", "--seed", "101", "--a", "2.3"),
    ("verify", "--case", "all", "--e", "0"),
    ("verify", "--case", "all", "--lambda=0.5+0.1i"),
    ("verify", "--case", "all", "--perturb", "chi:1e-3", "--seed", "5"),
    ("verify", "--case", "g3_2", "--mu", "1", "--perturb", "chi:1e-3"),
    ("verify", "--case", "g1_1"),
    ("verify", "--case", "g3_4", "--seed", "7"),
    ("verify", "--case", "g1_3a", "--a", "4.5", "--seed", "2"),
    *(("solve", "--case", case, "--grid", "10") + FAMILY_A.get(case, ())
      for case in INTEGRABLE),
    ("chart", "--case", "g1_1"),
    ("chart", "--case", "g1_3a", "--a", "1"),
    ("chart", "--case", "g2_3"),
    ("chart", "--case", "g3_4"),
    ("chart", "--case", "g4_1"),
    # refusals and numerical failures: their messages and exit codes
    ("verify", "--case", "all", "--J", "0"),
    ("verify", "--case", "g1_1", "--seed", "-1"),
    ("verify", "--case", "g3_3a", "--a", "40"),
    ("solve", "--case", "g3_1", "--lambda=0+0i", "--grid", "3"),
    ("solve", "--case", "g1_1"),
    ("chart", "--case", "g9_9"),
)

BASES_SEEDS = (101, 202, 303)
BASES_NODES = 4
# the range of the characteristic variable v on each entry's default grid
V_RANGE = {
    "g3_1": (0.7 * math.exp(-1.0), 0.7 * math.exp(0.5)),
    "g3_2": (-0.5, 0.5),
    "g3_3a": (-0.7, 0.3),
    "g3_4": (-1.2, 1.2),
    "g3_5": (0.8, math.pi - 0.8),
}


def run_invocation(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def bases_output(seed: int) -> tuple[int, str, str]:
    """One seeded parameter draw per integrable entry; the repr of both basis
    members' 2-jets at BASES_NODES drawn values of v."""
    rng = np.random.default_rng(seed)
    lines = []
    for name in INTEGRABLE:
        case = CaseId(name)
        p = {k: float(rng.uniform(0.05, 1.0)) for k in ("e", "mu", "mu1", "mu2")}
        p["m"] = float(rng.uniform(0.0, 1.5))
        p["zeta"] = float(rng.choice([0.0, 1.0 / 6.0]))
        J = float(rng.uniform(0.25, 4.0))
        a = float(rng.uniform(0.5, 2.0)) if case in PARAMETERIZED_CASES else None
        basis = integrate.solution_basis(case, FieldConfig(case, parameter_a=a, **p), J)
        for v in rng.uniform(*V_RANGE[name], BASES_NODES).tolist():
            lines.append(f"{name} J={J!r} a={a!r} {p!r} v={v!r}: "
                         f"{basis.phi1.jet(v)!r} {basis.phi2.jet(v)!r}")
    return 0, "\n".join(lines) + "\n", ""


def label(argv) -> str:
    return " ".join(argv)


def stored(text: str):
    """What the corpus keeps of one output stream."""
    if len(text) <= TEXT_LIMIT:
        return text
    return {"length": len(text), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def record(code: int, out: str, err: str) -> dict:
    return {"exit": code, "stdout": stored(out), "stderr": stored(err)}


def corpus() -> dict:
    """Every entry's record, keyed by its label, as the program makes it now."""
    runs = {label(argv): record(*run_invocation(argv)) for argv in INVOCATIONS}
    runs.update({f"bases seed {s}": record(*bases_output(s)) for s in BASES_SEEDS})
    return runs


def main() -> int:
    PATH.write_text(json.dumps(corpus(), indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
