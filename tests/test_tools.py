import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")


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


def test_report_digest_is_stable():
    # one line per gallery entry and n in {2, 3, 5}, then three reports
    # with samples, the sweep's sign split and its solves, the constant
    # pieces, the polynomial pieces, the rational and tail pieces and the
    # dense reads; a second run, in a fresh process, prints the same
    lines = _load("report_digest").digest_lines()
    assert len(lines) == 30
    assert [line.split(None, 1)[1] for line in lines[21:]] == [
        *(f"{name} n=3 samples"
          for name in ("flat", "abresch_tail", "sign_changing_beta_ln2")),
        "sweep sign pieces seed=1", "sweep solves seed=1 count=200 tol=1e-08",
        "constant pieces kappa=-4.0,-1.0,-1e-06,0.0,1e-06,1.0,4.0 tol=1e-08,1e-12",
        "polynomial pieces degree=1,2,5 tol=1e-06,1e-08,1e-12",
        "rational and tail pieces seed=3 count=20 tol=1e-06,1e-08,1e-12",
        "dense reads seed=1 count=200 points=33"]
    assert all(len(line.split()[0]) == 64 for line in lines)
    out = subprocess.run([sys.executable, str(_TOOLS / "report_digest.py")],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == lines
