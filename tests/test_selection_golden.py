"""Size, selection and John-Nirenberg outputs stay byte-identical.

The fixture was recorded by selection_golden.py from the Fraction-based
implementation; any change to the exact results, witness trees, grab
order or tie-breaking shows up as a byte difference.
"""

from __future__ import annotations

from selection_golden import FIXTURE, golden_text


def test_selection_outputs_match_the_golden_fixture():
    assert golden_text() == FIXTURE.read_text(encoding="utf-8")
