"""``tests/reach.py`` reads the pinned runs of ``test_golden.py`` without
importing it, and reads only the constants that name those runs; its
allowlist names existing ``src/`` statements, each once, for a fixed reason.

These checks parse source only; they start no run.
"""

import pathlib

import pytest
import reach
import test_golden


def test_reach_reads_the_pinned_runs_past_a_non_literal_constant():
    source = pathlib.Path(test_golden.__file__).read_text()
    golden = reach._golden(source + "\nSUITES = sorted(OFF_DIAGONAL_SHA256)\n")
    for name in reach._PINNED:
        assert getattr(golden, name) == getattr(test_golden, name)


def test_every_allowlist_entry_names_one_src_statement_for_a_fixed_reason():
    entries = reach.allowlist(reach.ALLOWLIST.read_text())
    present = {
        (path.stem, *key)
        for path in reach.PACKAGE.glob("*.py")
        for key in reach.statements(path.read_text()).values()
    }
    keys = [entry[:3] for entry in entries]
    assert entries and len(set(keys)) == len(keys)
    assert {reason for *_, reason in entries} <= set(reach.REASONS)
    assert [key for key in keys if key not in present] == []


def test_statements_key_each_line_by_its_innermost_statement_and_def():
    source = (
        "import sys\n"
        "class A:\n"
        "    @staticmethod\n"
        "    def f(x):\n"
        "        try:\n"
        "            return g(\n"
        "                x)\n"
        "        except OSError:\n"
        "            return None\n"
        "TABLE = {\n"
        "    1: lambda a: (\n"
        "        a),\n"
        "}\n"
    )
    keys = reach.statements(source)
    assert keys[1] == ("<module>", "import sys")
    assert keys[3] == keys[4] == ("A", "def f(x):")
    assert keys[5] == ("A.f", "try:")
    assert keys[6] == keys[7] == ("A.f", "return g(")
    assert keys[8] == ("A.f", "except OSError:")
    assert keys[9] == ("A.f", "return None")
    assert keys[10] == keys[13] == ("<module>", "TABLE = {")
    assert keys[11] == keys[12] == ("<module>", "1: lambda a: (")


def test_allowlist_reads_four_fields_with_a_known_reason_and_skips_comments():
    text = "# a comment\n\ncli  main  refusal  return 2  # kept\n"
    assert reach.allowlist(text) == [("cli", "main", "return 2  # kept", "refusal")]
    for bad in ("cli main return 2\n", "cli main refusal\n"):
        with pytest.raises(ValueError, match="line 1"):
            reach.allowlist(bad)
