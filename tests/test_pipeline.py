import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radialgeo as rg
from radialgeo.errors import ConfigurationError, IngestError
from radialgeo.gallery import entry_by_name
from radialgeo.pipeline import (
    AnalysisOptions,
    VolumeSamples,
    bg_ratio_check,
    cli_main,
    evaluate_theorem,
    ingest_samples,
    report_to_dict,
    report_to_json,
)

PI = math.pi


def report_floats(obj):
    """Every float in a report dict, depth first."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for item in obj for x in report_floats(item)]
    return [obj] if isinstance(obj, float) else []


def write_samples(path, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write("t,vol\n")
        for t, v in rows:
            fh.write(f"{t},{v}\n")


@pytest.fixture
def flat_config(tmp_path):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({
        "profile": {"segments": [], "tail": {"kind": "zero"}},
        "n": 2, "tol": 1e-8, "t_end": 256.0,
    }))
    return str(cfg)


class TestIngest:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "v.csv"
        write_samples(path, [(1, PI), (2, 4 * PI), (3, 9 * PI)])
        samples = ingest_samples(str(path), 2)
        assert len(samples) == 3
        assert samples.t == (1.0, 2.0, 3.0)
        assert samples.n == 2
        assert samples.source == str(path)

    def test_decreasing_t_names_row(self, tmp_path):
        path = tmp_path / "v.csv"
        write_samples(path, [(1, 1.0), (3, 2.0), (2, 3.0)])
        with pytest.raises(IngestError, match="row 4"):
            ingest_samples(str(path), 2)

    def test_nonpositive_volume_names_row(self, tmp_path):
        path = tmp_path / "v.csv"
        write_samples(path, [(1, 1.0), (2, -2.0)])
        with pytest.raises(IngestError, match="row 3"):
            ingest_samples(str(path), 2)

    def test_malformed_number(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("t,vol\n1,abc\n")
        with pytest.raises(IngestError, match="row 2"):
            ingest_samples(str(path), 2)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("radius,volume\n1,2\n")
        with pytest.raises(IngestError, match="header"):
            ingest_samples(str(path), 2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("")
        with pytest.raises(IngestError):
            ingest_samples(str(path), 2)

    def test_header_only(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("t,vol\n")
        with pytest.raises(IngestError, match="no data rows"):
            ingest_samples(str(path), 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_samples(str(tmp_path / "none.csv"), 2)


class TestVolumeSamples:
    def test_validation(self):
        with pytest.raises(ValueError):
            VolumeSamples(t=(), vol=(), n=2)
        with pytest.raises(ValueError):
            VolumeSamples(t=(1.0, 1.0), vol=(1.0, 1.0), n=2)
        with pytest.raises(ValueError):
            VolumeSamples(t=(0.0, 1.0), vol=(1.0, 1.0), n=2)
        with pytest.raises(ValueError):
            VolumeSamples(t=(1.0,), vol=(-1.0,), n=2)
        with pytest.raises(ValueError):
            VolumeSamples(t=(1.0,), vol=(1.0,), n=1)


@pytest.fixture(scope="module")
def flat_ms():
    return rg.ModelSpace(n=2, f=rg.solve(rg.zero_profile(), 64.0, 1e-10))


class TestBGRatioCheck:
    def test_exact_model_volumes(self, flat_ms):
        ts = (1.0, 2.0, 4.0, 8.0)
        samples = VolumeSamples(t=ts, vol=tuple(PI * t * t for t in ts), n=2)
        res = bg_ratio_check(samples, flat_ms)
        assert res.monotone_ok
        np.testing.assert_allclose(res.ratios, 1.0, rtol=1e-10)
        assert res.ratio_limit.value == pytest.approx(1.0, rel=1e-10)

    def test_half_model_volumes(self, flat_ms):
        ts = (1.0, 2.0, 4.0)
        samples = VolumeSamples(t=ts, vol=tuple(0.5 * PI * t * t for t in ts), n=2)
        res = bg_ratio_check(samples, flat_ms)
        assert res.monotone_ok
        assert res.ratio_limit.value == pytest.approx(0.5, rel=1e-10)

    def test_increasing_ratio_flagged(self, flat_ms):
        samples = VolumeSamples(t=(1.0, 2.0),
                                vol=(0.5 * PI, 0.6 * 4 * PI), n=2)
        res = bg_ratio_check(samples, flat_ms)
        assert not res.monotone_ok

    def test_ratio_above_one_flagged(self, flat_ms):
        samples = VolumeSamples(t=(1.0, 2.0),
                                vol=(1.2 * PI, 1.1 * 4 * PI), n=2)
        res = bg_ratio_check(samples, flat_ms)
        assert not res.monotone_ok

    def test_dimension_mismatch(self, flat_ms):
        samples = VolumeSamples(t=(1.0,), vol=(1.0,), n=3)
        with pytest.raises(ValueError):
            bg_ratio_check(samples, flat_ms)

    def test_sample_beyond_window(self, flat_ms):
        samples = VolumeSamples(t=(100.0,), vol=(1.0,), n=2)
        with pytest.raises(ConfigurationError):
            bg_ratio_check(samples, flat_ms)


class TestEvaluateTheorem:
    def test_flat_with_exact_samples(self):
        ts = tuple(float(k) for k in range(1, 9))
        samples = VolumeSamples(t=ts, vol=tuple(PI * t * t for t in ts), n=2)
        rep = evaluate_theorem(rg.zero_profile(), 2, samples=samples)
        assert rep.hypothesis_ok
        assert rep.manifold_growth_limit.value == pytest.approx(PI, abs=1e-6)
        statements = [c.statement for c in rep.conclusions]
        assert any("lim vol" in s for s in statements)
        assert any("finite topological type" in s for s in statements)
        assert any("at most 2" in s for s in statements)
        assert any("(-inf, 2*pi)" in s for s in statements)

    def test_no_samples_no_topology_claim(self):
        rep = evaluate_theorem(rg.zero_profile(), 2)
        statements = [c.statement for c in rep.conclusions]
        assert statements == ["lim vol B_t(p)/t^n exists"]
        assert rep.manifold_growth_limit is None
        assert rep.ratio_limit is None

    def test_hyperbolic_hypothesis_failure(self):
        rep = evaluate_theorem(rg.constant_profile(-1.0), 2)
        assert not rep.hypothesis_ok
        assert rep.conclusions == []
        assert rep.m_prime_limit.divergent
        assert any("diverges" in w for w in rep.warnings)

    def test_bad_samples_keep_existence_only(self):
        samples = VolumeSamples(t=(1.0, 2.0), vol=(0.5 * PI, 0.6 * 4 * PI), n=2)
        rep = evaluate_theorem(rg.zero_profile(), 2, samples=samples)
        statements = [c.statement for c in rep.conclusions]
        assert statements == ["lim vol B_t(p)/t^n exists"]
        assert rep.manifold_growth_limit is None
        assert any("contradict" in w for w in rep.warnings)

    def test_beta_n3_with_scaled_samples(self, beta_ln2_profile):
        opts = AnalysisOptions()
        f = rg.solve(beta_ln2_profile, opts.t_end, opts.tol)
        ms = rg.ModelSpace(n=3, f=f)
        ts = tuple(256.0 * k for k in range(1, 9))
        model_vols = rg.ball_volumes(ms, ts)
        samples = VolumeSamples(t=ts, vol=tuple(0.8 * v for v in model_vols), n=3)
        rep = evaluate_theorem(beta_ln2_profile, 3, opts, samples)
        assert rep.hypothesis_ok
        assert rep.ratio_limit.value == pytest.approx(0.8, rel=1e-9)
        assert rep.manifold_growth_limit.value == pytest.approx(
            0.8 * rep.growth.closed_form.value, rel=1e-9)
        expected_cap = math.floor(2.0 * rep.ends.m_prime_inf.value ** 2)
        assert rep.ends.integer_bound == expected_cap
        statements = [c.statement for c in rep.conclusions]
        assert any(f"at most {expected_cap}" in s for s in statements)

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            evaluate_theorem(rg.zero_profile(), 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_moment_boundary_limits_diverge(self, n):
        rep = evaluate_theorem(entry_by_name("moment_boundary").profile, n)
        assert rep.slope_limit.divergent
        assert rep.growth.direct.divergent
        assert rep.m_prime_limit.divergent

    def test_slow_tail_did_not_settle(self):
        # K = -1/(1+t)^2.05 has a finite moment, but at T = 4096 the tail
        # bracket has 1 + a J1 < 0 and cannot bound lim m'
        rep = evaluate_theorem(rg.power_tail_profile(-1.0, 2.05), 3)
        data = json.loads(report_to_json(rep))
        assert data["m_prime_limit"]["divergent"] is False
        assert data["m_prime_limit"]["value"] > 1.0
        assert data["m_prime_limit"]["err"] is None
        assert any("m' limit did not settle" in w for w in rep.warnings)
        assert data["ends_bound"]["conclusive"] is False
        assert data["ends_bound"]["integer_bound"] is None
        assert not any(math.isnan(x) for x in report_floats(report_to_dict(rep)))


# K = -1 on [0, 100), then zero: f' ~ cosh(100) ~ 1.3e43 past t = 100, so
# the volume probes f**(n-1) pass float range at n = 8, and the growth
# closed form and the ends cap at n = 9; c itself stays finite.
DEEP_WELL = rg.CurvatureProfile((rg.Segment(0.0, 100.0, (-1.0,)),),
                                rg.ZeroTail())


class TestHighDimension:
    @staticmethod
    def check(data):
        assert data["total_curvature"]["classification"] == "finite"
        assert data["growth"]["direct"]["divergent"] is False
        assert data["growth"]["direct"]["err"] is None  # did not settle
        assert data["hypothesis_ok"] is True
        if data["inputs"]["n"] == 9:
            assert data["growth"]["closed_form"]["err"] is None
            assert data["ends_bound"]["conclusive"] is False

    @pytest.mark.parametrize("n", [8, 9])
    def test_evaluate_theorem(self, n):
        rep = evaluate_theorem(DEEP_WELL, n)
        assert not any(math.isnan(x) for x in report_floats(report_to_dict(rep)))
        self.check(json.loads(report_to_json(rep)))

    @pytest.mark.parametrize("n", [8, 9])
    def test_cli_analyze(self, n, tmp_path):
        cfg = tmp_path / "deep.json"
        cfg.write_text(json.dumps({"profile": rg.profile_to_dict(DEEP_WELL),
                                   "n": n}))
        out = tmp_path / "report.json"
        assert cli_main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        assert "NaN" not in text and "Infinity" not in text
        self.check(json.loads(text))


class TestReportJson:
    def test_deterministic_bytes(self):
        ts = (1.0, 2.0, 3.0)
        samples = VolumeSamples(t=ts, vol=tuple(PI * t * t for t in ts), n=2)
        a = report_to_json(evaluate_theorem(rg.zero_profile(), 2, samples=samples))
        b = report_to_json(evaluate_theorem(rg.zero_profile(), 2, samples=samples))
        assert a == b
        assert a.endswith("\n")

    def test_structure_and_float_format(self):
        rep = evaluate_theorem(rg.zero_profile(), 2)
        text = report_to_json(rep)
        data = json.loads(text)
        for key in ("inputs", "total_curvature", "slope_limit",
                    "m_prime_limit", "growth", "ratio_limit",
                    "manifold_growth_limit", "ends_bound", "conclusions",
                    "warnings", "hypothesis_ok"):
            assert key in data
        assert data["growth"]["direct"]["value"] == pytest.approx(PI, rel=1e-11)
        assert "3.14159265359" in text  # 12 significant digits
        assert data["inputs"]["n"] == 2
        assert data["ends_bound"]["integer_bound"] == 2

    def test_divergent_values_stay_json(self):
        rep = evaluate_theorem(rg.constant_profile(-1.0), 2)
        data = json.loads(report_to_json(rep))
        assert data["total_curvature"]["classification"] == "negative_divergent"
        assert data["total_curvature"]["c_minus"] is None
        assert data["m_prime_limit"]["divergent"] is True
        assert data["ends_bound"]["integer_bound"] is None


class TestCli:
    def test_gallery_list(self, capsys):
        assert cli_main(["gallery", "list"]) == 0
        out = capsys.readouterr().out
        assert "flat" in out
        assert "sign_changing_beta_ln2" in out

    def test_gallery_analyze_flat(self, capsys):
        rc = cli_main(["gallery", "analyze", "flat", "-n", "2",
                       "--t-end", "256"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["growth"]["direct"]["value"] == pytest.approx(PI, rel=1e-9)
        assert data["hypothesis_ok"] is True

    def test_gallery_analyze_hyperbolic_exits_1(self, capsys):
        rc = cli_main(["gallery", "analyze", "hyperbolic", "-n", "2"])
        assert rc == 1
        data = json.loads(capsys.readouterr().out)
        assert data["hypothesis_ok"] is False

    def test_gallery_analyze_spherical_exits_1(self, capsys):
        rc = cli_main(["gallery", "analyze", "spherical", "-n", "2"])
        assert rc == 1
        assert "compact" in capsys.readouterr().err

    def test_unknown_gallery_name_exits_2(self, capsys):
        assert cli_main(["gallery", "analyze", "nope", "-n", "2"]) == 2

    def test_missing_config_exits_2(self, capsys):
        assert cli_main(["analyze", "--config", "/nonexistent.json"]) == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert cli_main(["analyze", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"profile": {"segments": [], "tail": {"kind": "zero"}}}))
        assert cli_main(["analyze", "--config", str(cfg)]) == 2  # missing n

    def test_unknown_flag_exits_2(self, capsys):
        assert cli_main(["gallery", "analyze", "flat", "-n", "2", "--bogus"]) == 2

    def test_analyze_with_samples_and_out(self, tmp_path, flat_config, capsys):
        samples = tmp_path / "v.csv"
        write_samples(samples, [(t, PI * t * t) for t in (1.0, 2.0, 3.0, 4.0)])
        out = tmp_path / "report.json"
        rc = cli_main(["analyze", "--config", flat_config,
                       "--samples", str(samples), "--out", str(out)])
        assert rc == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        data = json.loads(raw)
        assert data["manifold_growth_limit"]["value"] == pytest.approx(PI, abs=1e-6)
        statements = [c["statement"] for c in data["conclusions"]]
        assert any("finite topological type" in s for s in statements)

    def test_polynomial_segment_config(self, tmp_path, capsys):
        cfg = tmp_path / "pw.json"
        cfg.write_text(json.dumps({
            "profile": {"segments": [[0.0, 2.0, 1.0, -1.0]],
                        "tail": {"kind": "zero"}},
            "n": 2, "t_end": 64.0,
        }))
        rc = cli_main(["analyze", "--config", str(cfg)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total_curvature"]["classification"] == "finite"
        assert data["inputs"]["profile"]["segments"] == [[0.0, 2.0, 1.0, -1.0]]

    def test_env_tol_override(self, flat_config, capsys, monkeypatch):
        monkeypatch.setenv("RADIALGEO_TOL", "1e-6")
        rc = cli_main(["analyze", "--config", flat_config])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["inputs"]["tol"] == 1e-6
        assert any("RADIALGEO_TOL=1e-6" in w for w in data["warnings"])

    def test_tabulate(self, tmp_path, flat_config):
        out = tmp_path / "table.csv"
        rc = cli_main(["tabulate", "--config", flat_config,
                       "--t-max", "4", "--step", "0.5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,f,fp,m,mp,vol_n"
        assert len(lines) == 10  # grid 0, 0.5, ..., 4
        row = lines[-1].split(",")
        assert float(row[0]) == 4.0
        assert float(row[1]) == pytest.approx(4.0, rel=1e-10)   # f = t
        assert float(row[3]) == pytest.approx(4.0, rel=1e-10)   # m = t
        assert float(row[5]) == pytest.approx(16 * PI, rel=1e-9)

    def test_tabulate_truncates_at_first_zero(self, tmp_path, capsys):
        cfg = tmp_path / "sph.json"
        cfg.write_text(json.dumps({
            "profile": {"segments": [], "tail": {"kind": "constant", "kappa": 1.0}},
            "n": 2,
        }))
        rc = cli_main(["tabulate", "--config", str(cfg),
                       "--t-max", "6", "--step", "1.0"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "truncated" in captured.err
        lines = captured.out.strip().split("\n")
        assert lines[0] == "t,f,fp,m,mp"  # no vol_n for a compact model
        assert float(lines[-1].split(",")[0]) <= math.pi + 1e-9


def test_module_entry_point_runs_without_warnings():
    src = str(Path(rg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "radialgeo", "gallery", "list"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("flat:")
