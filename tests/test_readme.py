"""README's library quick start runs as written, and the numbers in its
comments are the ones the code computes."""

import json
import re
from pathlib import Path

import pytest

import radialgeo as rg

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    section = README.read_text(encoding="utf-8").split("## Library quick start")[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start(tmp_path, monkeypatch, capsys):
    code = quick_start()
    # volumes.csv: 0.8 x the model volumes of the block's own profile
    profile = rg.power_tail_profile(-6.0, 4.0)
    ms = rg.ModelSpace(n=3, f=rg.solve(profile, 4096.0, 1e-8))
    radii = [256.0 * k for k in range(1, 9)]
    (tmp_path / "volumes.csv").write_text("t,vol\n" + "".join(
        f"{t!r},{0.8 * v!r}\n" for t, v in zip(radii, rg.ball_volumes(ms, radii))))
    monkeypatch.chdir(tmp_path)
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    report = json.loads(capsys.readouterr().out)

    c_text = re.search(r"# finite: c ~ (-?\d+\.(\d+))", code)
    assert ns["tc"].is_finite
    assert ns["tc"].value == pytest.approx(float(c_text.group(1)),
                                           abs=0.5 * 10.0 ** -len(c_text.group(2)))

    n_arg, cap, n = re.search(
        r"ends_bound\(.*, (\d+)\)\s*# at most (\d+) ends for n = (\d+)",
        code).groups()
    assert n_arg == n
    assert ns["eb"].integer_bound == int(cap)
    assert report["inputs"]["n"] == int(n)
    assert f"number of ends of M is at most {cap}" in [
        c["statement"] for c in report["conclusions"]]
