import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("count_lines", ROOT / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

# each line that counts ends in "# +"; the comment marks it and is no code of its own
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # +

# a comment alone


class Record:  # +
    """Class docstring."""

    TEXT = """a multi-line string  # +
that is not a docstring  # +
"""  # +

    def method(self):  # +
        """Method docstring,

        with a blank line.
        """
        return (  # +
            os.sep  # +
        )  # +


async def task():  # +
    \'\'\'Function docstring.\'\'\'
    x = "not a docstring"  # +
    "nor this: a string after the first statement"  # +
    return x  # +
'''


def test_counts_code_lines_only():
    assert count_lines.count_lines(FIXTURE) == FIXTURE.count("# +\n")
    assert count_lines.count_lines(FIXTURE) == 13


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "count_lines.py"), str(tmp_path / "pkg")],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [
        f"    13 {tmp_path / 'pkg' / 'a.py'}",
        f"     1 {tmp_path / 'pkg' / 'b.py'}",
        "    14 total",
    ]
