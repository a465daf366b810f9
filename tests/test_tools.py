import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 4 code lines: the import, the class line, the def line and the return;
# the docstrings, comment-only lines and blank lines do not count
MODULE = '''"""Module docstring
over two lines."""

# a comment-only line
import os


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,
        over two lines."""
        # another comment
        return os.sep  # a trailing comment counts with its code
'''

# 4 code lines: a statement spanning three lines, then one more
SPANNING = '''total = (1 +
         2 +
         3)
print(total)
'''


def code_lines(directory):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(directory)], capture_output=True, text=True, check=False
    )


def test_counts_per_module_and_total(tmp_path):
    (tmp_path / "package").mkdir()
    (tmp_path / "package" / "spanning.py").write_text(SPANNING)
    (tmp_path / "module.py").write_text(MODULE)
    (tmp_path / "notes.txt").write_text("not a module\n")
    result = code_lines(tmp_path)
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout.splitlines() == [
        "     4 module.py",
        "     4 package/spanning.py",
        "     8 total",
    ]


def test_directory_without_modules_exits_two(tmp_path):
    result = code_lines(tmp_path)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"no Python modules under {tmp_path}\n"
