import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


@pytest.mark.parametrize("source, expected", [
    ("", 0),
    ('"""Module docstring."""\nx = 1\n', 1),
    # comments, blank lines and docstrings of every kind do not count
    ('"""Module\n\ndocstring."""\n\n# a comment\n\nclass A:\n'
     '    """Class\n    doc."""\n\n    def f(self):\n        """Doc."""\n'
     '        return 1  # trailing\n', 3),
    # a string that is not a docstring counts on every line it spans
    ('x = 1\ny = """one\ntwo\nthree"""\n', 4),
    # so does a statement continued over several lines
    ("z = f(\n    1,\n\n    2)\n", 3),
])
def test_counted_lines(source, expected):
    assert code_lines.code_lines(source) == expected

