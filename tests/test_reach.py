"""``tests/reach.py`` reads the pinned runs of ``test_golden.py`` without
importing it, and reads only the constants that name those runs.

These checks parse source only; they start no run.
"""

import pathlib

import reach
import test_golden


def test_reach_reads_the_pinned_runs_past_a_non_literal_constant():
    source = pathlib.Path(test_golden.__file__).read_text()
    golden = reach._golden(source + "\nSUITES = sorted(OFF_DIAGONAL_SHA256)\n")
    for name in reach._PINNED:
        assert getattr(golden, name) == getattr(test_golden, name)
