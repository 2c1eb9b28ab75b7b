"""CLI outputs stay byte-identical.

The fixture was recorded by cli_golden.py before the packet pairings
moved onto the integer butterfly tables, and its counting, select-trees
and render cases before the two variation DPs became one; any change to
an exact value, a float rendering or a row order shows up as a byte
difference.
"""

from __future__ import annotations

from cli_golden import FIXTURE, golden_text


def test_cli_reports_match_the_golden_fixture():
    assert golden_text() == FIXTURE.read_text(encoding="utf-8")
