"""The byte-identical contract: every invocation of the golden corpus still
gives the exit code, stdout and stderr recorded in ``golden.json``
(ROADMAP item 21).  ``tests/golden.py`` says how to regenerate the file."""

import json

import pytest

import golden

RECORDED = json.loads(golden.PATH.read_text())
RUNS = {golden.label(argv): argv for argv in golden.INVOCATIONS}
RUNS.update({f"bases seed {s}": s for s in golden.BASES_SEEDS})


def test_the_corpus_lists_every_recorded_entry():
    assert list(RUNS) == list(RECORDED)


@pytest.mark.parametrize("label", list(RUNS))
def test_output_is_byte_identical(label):
    what = RUNS[label]
    made = golden.bases_output(what) if isinstance(what, int) else golden.run_invocation(what)
    assert golden.record(*made) == RECORDED[label], (
        f"{label!r} changed its output.  If the change is intended, regenerate "
        "tests/golden.json (see tests/golden.py) and list the invocation in "
        "CHANGES.md; a numpy or libm change that moves a last bit shows here too.")
