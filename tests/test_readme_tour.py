"""The README's "Library quick tour" runs as printed."""

import contextlib
import io
from pathlib import Path

from dskg.cases import CaseId, case_spec
from dskg.lie_core import IntegrabilityRecord

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_source():
    """The tour's one ```python block."""
    section = README.read_text().split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_tour_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour_source(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    g34 = IntegrabilityRecord(*case_spec(CaseId.G34).table3_reference)
    assert lines[0] == str(g34._asdict())
    assert lines[1] == "[0. 0. 1.]"  # the derived bracket [X1, X2] = X3
    assert abs(complex(lines[-1])) < 1e-10  # the wave operator on a solution
