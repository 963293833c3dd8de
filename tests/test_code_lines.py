"""tools/code_lines.py, the count of code lines that ROADMAP and CHANGES
quote: docstrings, comments and blank lines are out; every other line that
holds a token is in."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# the 8 lines that count end with "# in", but for the string's first line,
# where a "#" would be part of the string
FIXTURE = '''"""The module docstring,
over two lines."""
# a comment on a line of its own
import os  # in

TABLE = (1,  # in
         2)  # in: a bracketed continuation


class Shape:  # in
    """The class docstring."""

    def area(self):  # in
        """The function docstring,
        over two lines."""
        # another comment
        text = """a string that is no docstring,
        over two lines"""  # in
        return len(text) + len(os.sep)  # in
'''


def test_counts_the_fixture_exactly(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    out = subprocess.run([sys.executable, "-B", str(TOOL), str(path)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert [line.split()[0] for line in out] == ["8", "8"]
    assert out[-1].split()[1] == "total"
