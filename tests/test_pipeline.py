import csv
import functools
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import radialgeo as rg
from radialgeo import asymptotics, curvature_profile, jacobi, pipeline
from radialgeo.errors import ConfigurationError, IngestError
from radialgeo.gallery import entry_by_name, list_gallery
from radialgeo.model_space import log_ball_volumes, saturating_exp
from radialgeo.pipeline import (
    DEFAULT_T_END,
    DEFAULT_TOL,
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
        with pytest.raises(IngestError, match="empty file"):
            ingest_samples(str(path), 2)

    # numpy's loadtxt warns on input with no data; under the suite's
    # filterwarnings = error that warning would fail these cases
    @pytest.mark.parametrize("text", ["t,vol\n", "t,vol", "t,vol\n\n\r\n", "t,vol\n \n,\n"])
    def test_header_only(self, tmp_path, text):
        path = tmp_path / "v.csv"
        path.write_bytes(text.encode())
        with pytest.raises(IngestError, match="no data rows"):
            ingest_samples(str(path), 2)

    @pytest.mark.parametrize("text", ["t,vol\n1.5,2.5\n", "t,vol\n1.5,2.5", "t,vol\r\n1.5,2.5\r\n"])
    def test_single_data_row(self, tmp_path, text):
        path = tmp_path / "v.csv"
        path.write_bytes(text.encode())
        samples = ingest_samples(str(path), 2)
        assert (samples.t, samples.vol) == ((1.5,), (2.5,))

    # the second file has fields quoted whole, which the C pass reads
    @pytest.mark.parametrize("body", ["1,2\r\n3,4\r\n", '1,2\r\n"3","4"\r\n'])
    def test_byte_order_mark(self, tmp_path, body):
        path = tmp_path / "v.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"t,vol\r\n{body}".encode())
        samples = ingest_samples(str(path), 2)
        assert (samples.t, samples.vol) == ((1.0, 3.0), (2.0, 4.0))

    @pytest.mark.parametrize("data, message", [
        (b"t,vol\n1.0,2.0\n\xff\xfe,3\n", "row 3: byte 0xff is not valid UTF-8"),
        (b"t,vol\n1.0,2.0\n2.0,3.0,\xc3\n", "row 3: byte 0xc3 is not valid UTF-8"),
        (b"t,vol\xe9\n1.0,2.0\n", "row 1: byte 0xe9 is not valid UTF-8"),
        # an encoded surrogate is not UTF-8 either
        (b"t,vol\n1,2\n3,4\xed\xb2\x80\n", "row 3: byte 0xed is not valid UTF-8"),
        # an earlier row's value fault comes first
        (b"t,vol\n1.0,-2.0\n\xff,3\n", "row 2: vol must be positive"),
    ])
    def test_undecodable_byte_names_row(self, tmp_path, capsys, data, message):
        path = tmp_path / "v.csv"
        path.write_bytes(data)
        with pytest.raises(IngestError) as got:
            ingest_samples(str(path), 2)
        assert str(got.value) == f"{path}: {message}"
        assert cli_main(["gallery", "analyze", "flat", "-n", "2",
                         "--samples", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("body, samples", [
        # csv joins the quoted lines into row 2's third field, while the
        # C parser would read 3,4 as a sample of its own
        ('1,2,"x\n3,4,"\n5,6\n', ((1.0, 5.0), (2.0, 6.0))),
        ('"1.0","2.0"\n', ((1.0,), (2.0,))),
        ("1_0,2\n١٢,5\n", ((10.0, 12.0), (2.0, 5.0))),
        ("1,2\r3,4\n", ((1.0, 3.0), (2.0, 4.0))),
    ])
    def test_row_reader_values(self, tmp_path, body, samples):
        path = tmp_path / "v.csv"
        path.write_bytes(f"t,vol\n{body}".encode())
        got = ingest_samples(str(path), 2)
        assert (got.t, got.vol) == samples

    def test_field_past_csv_limit_names_row(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("t,vol\n1,2\n2," + "9" * 200_000 + "\n")
        with pytest.raises(IngestError) as got:
            ingest_samples(str(path), 2)
        assert str(got.value) == (f"{path}: row 3: field larger than field "
                                  f"limit ({csv.field_size_limit()})")

    def test_separator_float_refuses(self, tmp_path):
        # numpy strips U+001C..U+001F as whitespace, float() does not
        path = tmp_path / "v.csv"
        path.write_bytes("t,vol\n1,2\n2\x1c,3\n".encode())
        with pytest.raises(IngestError) as got:
            ingest_samples(str(path), 2)
        assert str(got.value) == (f"{path}: row 3: could not convert string "
                                  f"to float: '2\\x1c'")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_samples(str(tmp_path / "none.csv"), 2)


def ingest_row_by_row(path):
    """Reference for ingest_samples: every check made row by row, in file
    order; returns the times and volumes, or raises IngestError."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, valid in the files given here
        ts: list[float] = []
        vols: list[float] = []
        for i in itertools.count(2):
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:  # a NUL byte before Python 3.11
                raise IngestError(f"{path}: row {i}: {exc}") from exc
            for c in "".join(row):
                if "\udc80" <= c <= "\udcff":
                    raise IngestError(f"{path}: row {i}: byte 0x{ord(c) - 0xdc00:02x} "
                                      f"is not valid UTF-8")
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise IngestError(f"{path}: row {i}: expected two columns")
            try:
                t, vol = float(row[0]), float(row[1])
            except ValueError as exc:
                raise IngestError(f"{path}: row {i}: {exc}") from exc
            if not (math.isfinite(t) and math.isfinite(vol)):
                raise IngestError(f"{path}: row {i}: values must be finite")
            if ts and t <= ts[-1]:
                raise IngestError(
                    f"{path}: row {i}: t = {t:g} does not increase past {ts[-1]:g}"
                )
            if t <= 0:
                raise IngestError(f"{path}: row {i}: t must be positive")
            if vol <= 0:
                raise IngestError(f"{path}: row {i}: vol must be positive")
            ts.append(t)
            vols.append(vol)
    if not ts:
        raise IngestError(f"{path}: no data rows")
    return tuple(ts), tuple(vols)


# digits that float() reads, numpy's C parser does not
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def faulty_rows(draw):
    """Data rows of a samples CSV, each with its line end, valid but for
    faults at random rows: non-finite values, t that repeats, falls or is
    <= 0, vol <= 0, malformed floats, short rows, blank or
    whitespace-only rows, and rows that numpy's C parser reads otherwise
    than csv and float() (underscores, non-ASCII digits, quotes, a lone
    CR, '#', NUL, tabs, a trailing comma, the separators U+001C..U+001F),
    or text drawn from their characters."""
    count = draw(st.integers(0, 12))
    ts = list(itertools.accumulate(draw(st.lists(
        st.floats(1e-3, 10.0), min_size=count, max_size=count))))
    vols = draw(st.lists(st.floats(1e-3, 1e3), min_size=count, max_size=count))
    rows = [f"{t!r},{v!r}" for t, v in zip(ts, vols)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        t, v = repr(ts[i]), repr(vols[i])
        before = ts[i - 1] if i else ts[i]
        rows[i] = draw(st.sampled_from([
            f"nan,{v}", f"{t},inf", f"-inf,{v}", f"{t},nan",
            f"{before!r},{v}", f"{before - 0.5!r},{v}", f"{before - 20.0!r},{v}",
            f"0,{v}", f"-1.5,{v}", f"{t},0", f"{t},-2.5", f"0,-1",
            f"abc,{v}", f"{t},1..2", f",{v}", f"{t},", t,
            "", "  ,  ", " ", f"{t},{v},extra",
            f"{t}_0,{v}", f"{t.translate(_ARABIC_INDIC)},{v}", f'"{t}","{v}"',
            f'{t},{v},"', f"{t},{v}\r{t}", ",", "\t", "\t ,", f"#{t},{v}",
            f"{t}\x00,{v}", f"\t{t},\t{v}", f"{t},{v},", f"{t}\x1c,{v}",
            f"{t},\x1f{v}",
        ]) | st.text(st.sampled_from('0123456789.,e-_"# \t\r\n\x00\x1d\xa0٣'),
                     max_size=8))
    ends = [draw(st.sampled_from(["\n", "\r\n"]))] * len(rows)
    lone_cr = draw(st.integers(0, 3 * len(rows)))
    if lone_cr < len(rows):
        ends[lone_cr] = "\r"
    return [row + end for row, end in zip(rows, ends)]


class TestIngestMatchesRowByRow:
    @settings(max_examples=400, deadline=None)
    @given(rows=faulty_rows())
    def test_first_faulty_row_wins(self, rows, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "faulty.csv"
        path.write_bytes(("t,vol\n" + "".join(rows)).encode())
        try:
            expected = ingest_row_by_row(str(path))
        except IngestError as exc:
            with pytest.raises(IngestError) as got:
                ingest_samples(str(path), 2)
            assert str(got.value) == str(exc)
        else:
            samples = ingest_samples(str(path), 2)
            assert (samples.t, samples.vol) == expected

    def test_value_fault_before_parse_fault(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("t,vol\n1,1\n2,-1\n3,abc\n")
        with pytest.raises(IngestError, match="row 3: vol must be positive"):
            ingest_samples(str(path), 2)
        path.write_text("t,vol\n1,1\n2,abc\n1,-1\n")
        with pytest.raises(IngestError, match="row 3: could not convert"):
            ingest_samples(str(path), 2)


# every way a field may hold a quote: quoted whole, spaces around the
# quotes, a doubled quote, a quoted comma or line break, a quote inside
# the field, an unbalanced quote, text after the closing quote
_WHOLE = ("{}", '"{}"')
_ANY_QUOTES = _WHOLE + (' "{}"', '"{}" ', '" {} "', '"{}""0"', '"{},5"', '"{}\n"', '"\n{}"',
                        '{}"', '"{}', '"{}"x', '""', '"')


@st.composite
def quoted_bodies(draw):
    """A samples CSV, header included, whose fields are quoted in one of
    the ways of _ANY_QUOTES each, or, in half the files, only quoted
    whole; a third field, quoted or not, may follow."""
    count = draw(st.integers(1, 8))
    ts = itertools.accumulate(draw(st.lists(st.floats(1e-3, 10.0), min_size=count,
                                            max_size=count)))
    vols = draw(st.lists(st.floats(1e-3, 1e3), min_size=count, max_size=count))
    forms = draw(st.sampled_from([_WHOLE, _ANY_QUOTES]))
    field = st.sampled_from(forms)
    header = draw(field).format("t") + "," + draw(field).format("vol")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    rows = [draw(field).format(repr(t)) + "," + draw(field).format(repr(v))
            + draw(st.sampled_from(["", ",", ',""', ',"a,b"', ',"x\ny"'])) for t, v in zip(ts, vols)]
    return "".join(row + end for row in [header, *rows])


class TestQuotedSamples:
    @settings(max_examples=400, deadline=None)
    @given(body=quoted_bodies())
    def test_same_values_or_error_as_row_reader(self, body, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "quoted.csv"
        path.write_bytes(body.encode())
        try:
            expected = pipeline._read_rows(str(path))
        except IngestError as exc:
            with pytest.raises(IngestError) as got:
                ingest_samples(str(path), 2)
            assert str(got.value) == str(exc)
        else:
            samples = ingest_samples(str(path), 2)
            assert (samples.t, samples.vol) == expected

    def test_every_short_quoted_body_reads_as_row_reader(self, tmp_path):
        # every body of up to five characters from a quote, a digit, a
        # comma, a space and a line break that holds a quote
        path = tmp_path / "v.csv"
        for k in range(1, 6):
            for chars in itertools.product('"1, \n', repeat=k):
                if '"' not in chars:
                    continue
                path.write_bytes(("t,vol\n" + "".join(chars)).encode())
                try:
                    expected = pipeline._read_rows(str(path))
                except IngestError as exc:
                    with pytest.raises(IngestError) as got:
                        ingest_samples(str(path), 2)
                    assert str(got.value) == str(exc)
                else:
                    samples = ingest_samples(str(path), 2)
                    assert (samples.t, samples.vol) == expected

    def test_fields_quoted_whole_skip_the_row_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "v.csv"
        path.write_text('"t","vol"\n"1.5","2.5"\n"3","4e2"\n')

        def refuse(path):
            raise AssertionError("read row by row")
        monkeypatch.setattr(pipeline, "_read_rows", refuse)
        samples = ingest_samples(str(path), 2)
        assert (samples.t, samples.vol) == ((1.5, 3.0), (2.5, 400.0))


class TestVolumeSamples:
    def test_validation(self):
        with pytest.raises(ValueError):
            VolumeSamples(t=(), vol=(), n=2)
        with pytest.raises(ValueError, match="sample 2: t = 1 does not increase"):
            VolumeSamples(t=(1.0, 1.0), vol=(1.0, 1.0), n=2)
        with pytest.raises(ValueError, match="sample 1: t must be positive"):
            VolumeSamples(t=(0.0, 1.0), vol=(1.0, 1.0), n=2)
        with pytest.raises(ValueError, match="sample 1: vol must be positive"):
            VolumeSamples(t=(1.0,), vol=(-1.0,), n=2)
        with pytest.raises(ValueError, match="sample 2: values must be finite"):
            VolumeSamples(t=(1.0, math.inf), vol=(1.0, 1.0), n=2)
        with pytest.raises(ValueError, match="sample 1: values must be finite"):
            VolumeSamples(t=(1.0,), vol=(math.nan,), n=2)
        with pytest.raises(ValueError):
            VolumeSamples(t=(1.0,), vol=(1.0,), n=1)


def bg_ratios_by_sample(vols, log_model_volumes):
    """Reference for the ratios of bg_ratio_check: one sample at a time."""
    return [saturating_exp(math.log(v) - lm) for v, lm in zip(vols, log_model_volumes)]


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

    # steps between radii, and log ratios: ordinary ones, ones near 709,
    # where exp leaves float range (at about 709.78), and ones past it
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-6, 2.0),
                              st.floats(-40.0, 1.0) | st.floats(708.0, 712.0)
                              | st.sampled_from([709.0, 709.78, 709.7827, 709.79, 800.0])),
                    min_size=1, max_size=40))
    def test_bits_equal_per_sample_reference(self, flat_ms, draws):
        ts = tuple(itertools.accumulate(step for step, _ in draws))
        lms = log_ball_volumes(flat_ms, ts)
        vols = tuple(min(saturating_exp(d + lm), sys.float_info.max)
                     for (_, d), lm in zip(draws, lms))
        res = bg_ratio_check(VolumeSamples(t=ts, vol=vols, n=2), flat_ms)
        ratios = bg_ratios_by_sample(vols, lms)
        assert [r.hex() for r in res.ratios] == [r.hex() for r in ratios]
        assert all(type(r) is float for r in res.ratios)
        assert res.monotone_ok == (
            all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
            and all(r <= 1.0 + 1e-9 for r in ratios))

    def test_ratio_past_float_range(self, flat_ms):
        # the model volume of the tiny ball is about 3e-18
        res = bg_ratio_check(VolumeSamples(t=(1e-9, 1.0), vol=(1e300, 1.0), n=2),
                             flat_ms)
        assert res.ratios[0] == math.inf
        assert res.ratios[1] == pytest.approx(1.0 / PI)
        assert not res.monotone_ok


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

    @pytest.mark.parametrize("ratios, lo_below_zero", [
        ((1.0, 0.95, 0.9, 0.88, 0.87, 0.86), False),
        ((0.9, 0.5, 0.1, 0.05, 0.01), True)])
    def test_manifold_enclosure_holds_every_corner(self, abresch_profile, ratios,
                                                   lo_below_zero):
        ts = tuple(256.0 * k for k in range(1, len(ratios) + 1))
        ms = rg.ModelSpace(n=3, f=rg.solve(abresch_profile, DEFAULT_T_END, DEFAULT_TOL))
        vols = tuple(r * v for r, v in zip(ratios, rg.ball_volumes(ms, ts)))
        rep = evaluate_theorem(abresch_profile, 3,
                               samples=VolumeSamples(t=ts, vol=vols, n=3))
        r, g = rep.ratio_limit, rep.growth.closed_form
        mg = rep.manifold_growth_limit
        assert g.lo < g.hi
        # the ratio limit is nonnegative, so its lower end counts from 0
        assert (r.lo < 0.0) == lo_below_zero
        for x in (max(r.lo, 0.0), r.value, r.hi):
            for y in (g.lo, g.value, g.hi):
                assert mg.lo <= x * y <= mg.hi
        assert mg.value == r.value * g.value

    def test_topological_type_states_sample_assumption(self):
        ts = tuple(float(k) for k in range(1, 9))
        samples = VolumeSamples(t=ts, vol=tuple(PI * t * t for t in ts), n=2)
        reasons = {c.statement: c.reason for c in evaluate_theorem(
            rg.zero_profile(), 2, samples=samples).conclusions}
        reason = reasons["M has finite topological type"]
        assert "the mean minus the spread of the last min(5, count) ratios" in reason
        assert "asymptotic regime" in reason
        for c in evaluate_theorem(rg.zero_profile(), 2).conclusions:
            assert "asymptotic regime" not in c.reason

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            evaluate_theorem(rg.zero_profile(), 1)

    def test_integral_float_dimension(self, abresch_profile):
        ts = (256.0, 512.0, 1024.0)
        ms = rg.ModelSpace(n=3, f=rg.solve(abresch_profile, 4096.0, 1e-8))
        vols = tuple(0.8 * v for v in rg.ball_volumes(ms, ts))
        as_int, as_float = (
            report_to_json(evaluate_theorem(
                abresch_profile, n, samples=VolumeSamples(t=ts, vol=vols, n=n)))
            for n in (3, 3.0))
        assert as_float == as_int
        assert type(VolumeSamples(t=ts, vol=vols, n=3.0).n) is int

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


def count_solves(monkeypatch):
    """Route every solve, direct or through solve_m, through a counter;
    returns the list that collects one entry per solve."""
    calls = []

    def counting(*args):
        calls.append(args)
        return rg.solve(*args)

    monkeypatch.setattr(jacobi, "solve", counting)
    monkeypatch.setattr(pipeline, "solve", counting)
    return calls


# the entries with K <= 0, where min(K, 0) = K and m is f
NONPOSITIVE_ENTRIES = {"flat", "hyperbolic", "abresch_tail", "moment_boundary"}


@functools.lru_cache(maxsize=None)
def reference_m_prime_limit(name):
    profile = entry_by_name(name).profile
    return rg.slope_limit(rg.solve_m(profile, DEFAULT_T_END, DEFAULT_TOL))


class TestComparisonSolve:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(e.name for e in list_gallery()
                                            if e.name != "spherical"))
    def test_m_prime_limit_is_solve_m(self, name, n, monkeypatch):
        expected = reference_m_prime_limit(name)
        calls = count_solves(monkeypatch)
        built = []
        signed_part = curvature_profile._signed_part

        def counting_signed_part(profile, keep_negative):
            built.append(profile)
            return signed_part(profile, keep_negative)

        monkeypatch.setattr(curvature_profile, "_signed_part", counting_signed_part)
        report = evaluate_theorem(entry_by_name(name).profile, n)
        assert report.m_prime_limit == expected
        # the K <= 0 test builds no profile: min(K, 0) is built once, by
        # solve_m, and only where it differs from K
        nonpositive = name in NONPOSITIVE_ENTRIES
        assert len(calls) == (1 if nonpositive else 2)
        assert len(built) == (0 if nonpositive else 1)

    @pytest.mark.parametrize("name", ["flat", "hyperbolic", "abresch_tail",
                                      "sign_changing_beta_ln2", "moment_boundary",
                                      "sign_changing_beta_neg_ln2"])
    def test_one_slope_limit_per_solution(self, name, monkeypatch):
        # c, both growth routes and the report's slope read one enclosure
        # of lim f'; lim m' takes one more, unless m is f (K <= 0)
        calls = []

        def counting(sol):
            calls.append(sol)
            return rg.slope_limit(sol)

        monkeypatch.setattr(asymptotics, "slope_limit", counting)
        monkeypatch.setattr(pipeline, "slope_limit", counting)
        profile = entry_by_name(name).profile
        report = evaluate_theorem(profile, 3)
        nonpositive = name in NONPOSITIVE_ENTRIES
        assert len(calls) == (1 if nonpositive else 2)
        f, m = calls[0], calls[-1]
        assert f.profile is profile
        assert (m is f) == nonpositive
        assert report.slope_limit == report.total_curvature.slope == rg.slope_limit(f)
        assert report.m_prime_limit == rg.slope_limit(m)

    def test_tabulate_nonpositive_matches_solve_m(self, tmp_path, monkeypatch):
        profile = rg.CurvatureProfile(
            (rg.Segment(0.0, 2.0, (-0.5, -0.25)),
             rg.Segment(2.0, 3.0, (-4.5, 3.0, -0.5))),  # touches 0 at t = 3
            rg.PowerDecayTail(-1.0, 3.0))
        cfg = write_config(tmp_path / "model.json", profile, 3)
        args = ["tabulate", "--config", cfg, "--t-max", "20", "--step", "0.25"]
        calls = count_solves(monkeypatch)
        assert cli_main([*args, "--out", str(tmp_path / "a.csv")]) == 0
        assert len(calls) == 1
        monkeypatch.setattr(pipeline, "_comparison_solution",
                            lambda f, t_end: rg.solve_m(f.profile, t_end, f.tol))
        assert cli_main([*args, "--out", str(tmp_path / "b.csv")]) == 0
        assert len(calls) == 3
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# K = -1 on [0, 100), then zero: f' ~ cosh(100) ~ 1.3e43 past t = 100, so
# the growth closed form and the ends cap pass float range at n = 9 and
# the direct route with them; c itself stays finite.
DEEP_WELL = rg.CurvatureProfile((rg.Segment(0.0, 100.0, (-1.0,)),),
                                rg.ZeroTail())

# n = 86 puts 4096**n past float range, n = 344 Gamma(n/2), and from
# n = 460 on omega_{n-1} underflows to 0
HIGH_DIMS = [85, 86, 90, 343, 344, 400, 1000]
HIGH_DIM_PROFILES = {"flat": rg.zero_profile(),
                     "abresch_tail": entry_by_name("abresch_tail").profile,
                     "deep_well": DEEP_WELL}


@functools.lru_cache(maxsize=None)
def high_dim_report(name, n):
    return report_to_json(evaluate_theorem(HIGH_DIM_PROFILES[name], n))


def write_config(path, profile, n):
    path.write_text(json.dumps({"profile": rg.profile_to_dict(profile), "n": n}))
    return str(path)


def module_env():
    """The environment for ``python -m radialgeo`` in a child process, with
    this checkout's package first on its path."""
    src = str(Path(rg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def log_omega(n):
    return math.log(2.0) + n / 2.0 * math.log(PI) - math.lgamma(n / 2.0)


def log_add(a, b):
    hi, lo = max(a, b), min(a, b)
    return hi + math.log1p(math.exp(lo - hi))


def deep_well_log_volume8(t):
    """log vol B_t of DEEP_WELL at n = 8, t >= 50, in closed form: f = sinh
    on [0, 100], then f = S + C (t - 100) with S = sinh 100, C = cosh 100.

    int_0^t sinh^7 = P(cosh t) + 16/35 with P(c) = c^7/7 - 3c^5/5 + c^3 - c.
    """
    c = math.cosh(min(t, 100.0))
    log_well = (7.0 * math.log(c) - math.log(7.0)
                + math.log1p(-21.0 / (5.0 * c ** 2) + 7.0 / c ** 4
                             - 7.0 / c ** 6 + 16.0 / (5.0 * c ** 7)))
    if t > 100.0:
        S, C = math.sinh(100.0), math.cosh(100.0)
        end = S + C * (t - 100.0)
        log_line = (8.0 * math.log(end) - math.log(8.0 * C)
                    + math.log1p(-(S / end) ** 8))
        log_well = log_add(log_well, log_line)
    return log_omega(8) + log_well


class TestHighDimension:
    @staticmethod
    def check(data):
        assert data["total_curvature"]["classification"] == "finite"
        assert data["growth"]["direct"]["divergent"] is False
        assert data["hypothesis_ok"] is True
        if data["inputs"]["n"] == 8:
            # lim vol B_t / t^8 = (omega_7/8) cosh(100)^7 ~ 3.2e302; the
            # direct route reaches it in logs
            exact = math.exp(log_omega(8) - math.log(8.0)
                             + 7.0 * math.log(math.cosh(100.0)))
            direct = data["growth"]["direct"]
            assert direct["value"] == pytest.approx(exact, rel=1e-4)
            assert abs(direct["value"] - exact) <= direct["err"]
        else:
            # (cosh 100)^8 is past float range
            assert data["growth"]["direct"]["err"] is None  # did not settle
            assert data["growth"]["closed_form"]["err"] is None
            assert data["ends_bound"]["conclusive"] is False

    @pytest.mark.parametrize("n", [8, 9])
    def test_evaluate_theorem(self, n):
        rep = evaluate_theorem(DEEP_WELL, n)
        assert not any(math.isnan(x) for x in report_floats(report_to_dict(rep)))
        self.check(json.loads(report_to_json(rep)))

    @pytest.mark.parametrize("n", [8, 9])
    def test_cli_analyze(self, n, tmp_path):
        cfg = write_config(tmp_path / "deep.json", DEEP_WELL, n)
        out = tmp_path / "report.json"
        assert cli_main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert "NaN" not in text and "Infinity" not in text
        self.check(json.loads(text))

    @pytest.mark.parametrize("n", HIGH_DIMS)
    @pytest.mark.parametrize("name", HIGH_DIM_PROFILES)
    def test_no_dimension_crashes(self, name, n, tmp_path):
        text = high_dim_report(name, n)
        assert "NaN" not in text and "Infinity" not in text
        data = json.loads(text)
        assert data["inputs"]["n"] == n
        assert data["hypothesis_ok"] is True
        for route in ("direct", "closed_form"):
            limit = data["growth"][route]
            assert limit["value"] is None or limit["value"] >= 0.0
        cfg = write_config(tmp_path / "model.json", HIGH_DIM_PROFILES[name], n)
        out = tmp_path / "report.json"
        assert cli_main(["analyze", "--config", cfg, "--out", str(out)]) in (0, 1)
        assert out.read_text() == text

    @pytest.mark.parametrize("n", HIGH_DIMS)
    def test_flat_closed_form_is_omega_over_n(self, n):
        data = json.loads(high_dim_report("flat", n))
        # omega_{n-1}/n from lgamma, which never leaves float range here
        log_oracle = (math.log(2.0) + n / 2.0 * math.log(PI)
                      - math.lgamma(n / 2.0) - math.log(n))
        closed = data["growth"]["closed_form"]
        assert closed["value"] == pytest.approx(math.exp(log_oracle), rel=1e-9)
        # c = 2 pi (1 - s) is finite: the closed form is the direct route
        assert closed == data["growth"]["direct"]
        assert abs(closed["value"] - math.exp(log_oracle)) <= closed["err"]

    @pytest.mark.parametrize("n", [450, 500, 700, 900, 1000])
    def test_abresch_growth_in_logs(self, n):
        # omega_{n-1} underflows and s^(n-1) overflows, but their product
        # in logs is finite, and 0 only below float range
        rep = evaluate_theorem(entry_by_name("abresch_tail").profile, n)
        assert not any(math.isnan(x) for x in report_floats(report_to_dict(rep)))
        g = rep.growth.direct
        if n >= 900:  # (omega/n) s^(n-1) is below 1e-330 here
            assert g.value == 0.0 and g.hi > 0.0
        else:
            assert g.value > 0.0

    def test_module_entry_point_flat_n90(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "radialgeo", "gallery",
             "analyze", "flat", "-n", "90"],
            env=module_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "NaN" not in proc.stdout and "Infinity" not in proc.stdout
        data = json.loads(proc.stdout)
        # 4096**90 overflows, vol B_t / t^90 in logs does not
        exact = math.exp(log_omega(90) - math.log(90.0))
        direct = data["growth"]["direct"]
        # the report prints 12 digits, so the bar itself is not comparable
        assert direct["value"] == pytest.approx(exact, rel=1e-12)
        assert direct["err"] is not None  # settled
        assert data["growth"]["closed_form"]["value"] == pytest.approx(
            exact, rel=1e-12)

    def test_flat_n200_on_unit_window(self):
        # the coefficient is (omega/n) s^(n-1) with s = f'(1) = 1, and its
        # bar the image of s's: at most n s.err / s times the value
        rep = evaluate_theorem(rg.zero_profile(), 200, AnalysisOptions(t_end=1.0))
        data = json.loads(report_to_json(rep))
        exact = math.exp(log_omega(200) - math.log(200.0))
        direct = data["growth"]["direct"]
        assert direct["value"] == pytest.approx(exact, rel=1e-10)
        # err bounds the estimate; the report rounds both to 12 digits
        estimate, s = rep.growth.direct, rep.slope_limit
        assert (abs(estimate.value - exact) <= estimate.err
                <= 200 * s.err / s.value * estimate.value)
        assert direct["err"] == float(f"{estimate.err:.12g}")
        assert data["growth"]["closed_form"]["value"] == pytest.approx(
            exact, rel=1e-12)

    def test_bg_ratios_past_float_range(self, tmp_path, capsys):
        # model volumes pass float range from t = 150 on at n = 8; the
        # ratios against them come from logs and stay true
        ts = (50.0, 100.0, 150.0, 200.0, 300.0)
        log_model = [deep_well_log_volume8(t) for t in ts]
        assert [lv > math.log(sys.float_info.max) for lv in log_model] == [
            False, False, True, True, True]
        vols = (0.6 * math.exp(log_model[0]), 0.5 * math.exp(log_model[1]),
                1e300, 1e300, 1e300)
        expected = [math.exp(math.log(v) - lv) for v, lv in zip(vols, log_model)]
        samples = VolumeSamples(t=ts, vol=vols, n=8)
        ms = rg.ModelSpace(n=8, f=rg.solve(DEEP_WELL, 4096.0, 1e-8))
        bg = bg_ratio_check(samples, ms)
        assert bg.ratios == pytest.approx(expected, rel=1e-4)
        assert 0.0 < bg.ratios[-1] < bg.ratios[-2] < bg.ratios[-3] < 1e-16
        assert bg.monotone_ok is True
        rep = evaluate_theorem(DEEP_WELL, 8, samples=samples)
        assert rep.bg_ratios == bg.ratios and rep.bg_monotone_ok is True
        csv_path = tmp_path / "v.csv"
        write_samples(csv_path, zip(ts, vols))
        cfg = write_config(tmp_path / "deep.json", DEEP_WELL, 8)
        out = tmp_path / "report.json"
        assert cli_main(["analyze", "--config", cfg, "--samples", str(csv_path),
                         "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["bg_monotone_ok"] is True
        assert data["bg_ratios"] == pytest.approx(expected, rel=1e-4)

    def test_underflowed_omega_gives_true_ratios(self):
        # omega_499 underflows to 0, yet log vol B_t = log omega_499 +
        # 500 log t - log 500 is exact in logs
        n = 500

        def log_model(t):
            return log_omega(n) + n * math.log(t) - math.log(n)

        # volumes 1 and 2 at radii 1 and 2 exceed the model's e^-848 and
        # e^-500: the true ratios e^848 (past float range) and e^502
        rep = evaluate_theorem(rg.zero_profile(), n, samples=VolumeSamples(
            t=(1.0, 2.0), vol=(1.0, 2.0), n=n))
        assert rep.bg_ratios[0] == math.inf
        assert rep.bg_ratios[1] == pytest.approx(
            math.exp(math.log(2.0) - log_model(2.0)), rel=1e-9)
        assert rep.bg_monotone_ok is False
        assert any("contradict" in w for w in rep.warnings)
        assert json.loads(report_to_json(rep))["bg_ratios"][0] is None
        # half the model volume at radii where it is a normal float
        ts = (2.0, 4.0)
        vols = tuple(0.5 * math.exp(log_model(t)) for t in ts)
        rep = evaluate_theorem(rg.zero_profile(), n, samples=VolumeSamples(
            t=ts, vol=vols, n=n))
        assert rep.bg_ratios == pytest.approx([0.5, 0.5], rel=1e-9)
        assert rep.bg_monotone_ok is True

    def test_tail_average_past_float_range(self, beta_ln2_profile):
        # lim f' = 1/2 keeps the model volumes in range at n = 86 while
        # 4096**86 is not: in logs the direct route and the tail average
        # of vol_i / t_i^n settle on the exact omega/n (1/2)^85
        n, ts = 86, (512.0, 1024.0, 2048.0, 4096.0)
        ms = rg.ModelSpace(n=n, f=rg.solve(beta_ln2_profile, 4096.0, 1e-8))
        vols = tuple(0.5 * v for v in rg.ball_volumes(ms, ts))
        rep = evaluate_theorem(beta_ln2_profile, n,
                               samples=VolumeSamples(t=ts, vol=vols, n=n))
        assert rep.bg_monotone_ok is True
        exact = math.exp(log_omega(n) - math.log(n) + (n - 1) * math.log(0.5))
        direct = rep.growth.direct
        assert direct.value == pytest.approx(exact, rel=1e-5)
        assert abs(direct.value - exact) <= direct.err
        assert rep.growth.discrepancy == abs(
            direct.value - rep.growth.closed_form.value)
        assert rep.manifold_growth_limit.value == pytest.approx(
            0.5 * rep.growth.closed_form.value, rel=1e-12)
        assert not any("direct tail average" in w for w in rep.warnings)


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


def json_text(obj):
    out = []
    pipeline._write_json(obj, out)
    return "".join(out)


def json_text_by_element(values):
    """A list written element by element, as the general path does."""
    return "[" + ", ".join(json_text(v) for v in values) + "]"


class TestJsonFloatList:
    def test_special_values(self):
        values = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324,
                  2.2250738585072014e-308 / 3, 1e300, -1e300, 1.0 / 3.0]
        text = json_text(values)
        assert text == json_text_by_element(values)
        assert text == ("[null, null, null, 0, 0, 4.94065645841e-324, "
                        "7.41691286169e-309, 1e+300, -1e+300, 0.333333333333]")
        assert json_text(tuple(values)) == text
        assert json_text([]) == "[]"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True)))
    def test_same_text_as_general_path(self, values):
        assert json_text(values) == json_text_by_element(values)

    # long lists of finite nonzero floats, some with a zero, an infinity
    # or a nan among them
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False).filter(bool),
                    min_size=1, max_size=2000),
           st.lists(st.tuples(st.integers(0, 1999),
                              st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])),
                    max_size=3))
    def test_long_lists(self, values, specials):
        for i, x in specials:
            values[i % len(values)] = x
        assert json_text(values) == json_text_by_element(values)

    @pytest.mark.parametrize("values, text", [
        ([True, 1.0], "[true, 1]"),
        ([1, 2.5], "[1, 2.5]"),
        ([None, 1.0], "[null, 1]"),
        ([[1.0], 2.0], "[[1], 2]"),
        ([np.float64(0.5), 1.0], "[0.5, 1]"),
    ])
    def test_mixed_lists_keep_general_path(self, values, text):
        assert json_text(values) == text == json_text_by_element(values)


# any code point, lone surrogates included, and the ones JSON escapes or a
# careless encoder would
_JSON_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\u2028", "\u2029",
                     "\ud800", "\udfff", "\xe9", "\U0001f600"])), max_size=12)


class TestJsonStrings:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(_JSON_TEXT, st.one_of(_JSON_TEXT, st.lists(_JSON_TEXT, max_size=4)),
                           max_size=6))
    def test_same_text_as_json_dumps(self, obj):
        assert json_text(obj) == json.dumps(obj, ensure_ascii=False)


def tabulate_by_row(profile, n, tol, t_max, step):
    """Reference for the tabulate table: f, f', m and m' evaluated row by
    row, as scalars."""
    f = rg.solve(profile, t_max, tol)
    m = pipeline._comparison_solution(f, t_max)
    t_stop = min(f.t_end, m.t_end)
    grid = []
    k = 0
    while k * step <= t_stop * (1 + 1e-12):
        grid.append(min(k * step, t_stop))
        k += 1
    with_vol = f.first_zero is None
    lines = ["t,f,fp,m,mp" + (",vol_n" if with_vol else "")]
    vols = rg.ball_volumes(rg.ModelSpace(n=n, f=f), grid) if with_vol else None
    for i, t in enumerate(grid):
        row = [t, float(f.f(t)), float(f.fp(t)), float(m.f(t)), float(m.fp(t))]
        if with_vol:
            row.append(vols[i])
        lines.append(",".join(format(x, ".12g") for x in row))
    return "".join(line + "\n" for line in lines)


class TestCli:
    @pytest.mark.parametrize("name, t_max, step", [
        ("sign_changing_beta_ln2", 30.0, 0.37),
        ("abresch_tail", 200.0, 1.5),
        ("hyperbolic", 300.0, 0.7),
        ("spherical", 6.0, 0.1),
    ])
    def test_tabulate_matches_row_by_row(self, tmp_path, name, t_max, step):
        profile = entry_by_name(name).profile
        cfg = write_config(tmp_path / "model.json", profile, 3)
        out = tmp_path / "table.csv"
        assert cli_main(["tabulate", "--config", cfg, "--t-max", repr(t_max),
                         "--step", repr(step), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == tabulate_by_row(
            profile, 3, DEFAULT_TOL, t_max, step)

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
        assert capsys.readouterr().err.startswith(
            "error: unknown gallery entry 'nope'; known: flat, ")

    def test_missing_config_exits_2(self, capsys):
        assert cli_main(["analyze", "--config", "/nonexistent.json"]) == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert cli_main(["analyze", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"profile": {"segments": [], "tail": {"kind": "zero"}}}))
        assert cli_main(["analyze", "--config", str(cfg)]) == 2  # missing n

    def test_non_integral_config_dimension_exits_2(self, tmp_path, capsys):
        for n in (2.5, math.inf, math.nan):
            cfg = write_config(tmp_path / "model.json", rg.zero_profile(), n)
            assert cli_main(["analyze", "--config", cfg]) == 2
            assert "needs an integer 'n'" in capsys.readouterr().err

    # a value float() cannot take, or a non-list of segments, is an input
    # error that names its field, not a TypeError traceback
    @pytest.mark.parametrize("config, field", [
        ({"tol": None}, "'tol', got None"),
        ({"t_end": None}, "'t_end', got None"),
        ({"tol": [1e-8]}, "'tol', got [1e-08]"),
        ({"t_end": [64.0]}, "'t_end', got [64.0]"),
        ({"t_end": "far"}, "'t_end', got 'far'"),
        ({"profile": {"segments": 5}}, "'segments' must be a list, got 5"),
        ({"profile": {"segments": [[0.0, 1.0, "x"]]}}, "segment 0 is malformed"),
    ])
    def test_config_field_of_wrong_type_exits_2(self, tmp_path, capsys, config, field):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"n": 2, "profile": {"segments": []}, **config}))
        for command in (["analyze"], ["tabulate", "--t-max", "1", "--step", "1"]):
            assert cli_main([command[0], "--config", str(cfg), *command[1:]]) == 2
            assert field in capsys.readouterr().err

    def test_infinite_t_end_exits_2(self, tmp_path, capsys):
        # the window would otherwise end wherever the growth guard falls
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            evaluate_theorem(rg.zero_profile(), 2, AnalysisOptions(t_end=math.inf))
        assert cli_main(["gallery", "analyze", "flat", "-n", "2", "--t-end", "inf"]) == 2
        assert "t_end must be positive and finite, got inf" in capsys.readouterr().err
        cfg = tmp_path / "model.json"
        cfg.write_text('{"n": 2, "t_end": Infinity, "profile": {"segments": []}}')
        assert cli_main(["analyze", "--config", str(cfg)]) == 2
        assert "t_end must be positive and finite, got inf" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag, value", [
        ("--t-max", "nan"), ("--step", "nan"), ("--t-max", "inf")])
    def test_tabulate_refuses_endless_grid(self, flat_config, flag, value):
        # a nan step or an infinite t_max would grow the grid without end:
        # run it in a child process under a timeout, so a regression fails
        # instead of hanging
        args = {"--t-max": "4", "--step": "0.5", flag: value}
        proc = subprocess.run(
            [sys.executable, "-m", "radialgeo", "tabulate", "--config", flat_config,
             *(x for item in args.items() for x in item)],
            env=module_env(), capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stderr == ("error: --t-max must be positive and finite, "
                               "--step positive\n")

    @pytest.mark.parametrize("t_max, step", [("4096", "1e-9"), ("4096", "4e-4")])
    def test_tabulate_refuses_grid_past_row_cap(self, flat_config, tmp_path, t_max, step):
        # about 4e12 and 1.02e7 rows, against a cap of 1e7; in a child
        # process with bounded memory and time, so a regression fails
        # instead of exhausting the host
        out = tmp_path / "table.csv"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
             "from radialgeo.pipeline import cli_main; sys.exit(cli_main(sys.argv[1:]))",
             "tabulate", "--config", flat_config, "--t-max", t_max, "--step", step,
             "--out", str(out)],
            env=module_env(), capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert "--t-max" in proc.stderr and "--step" in proc.stderr
        assert not out.exists()

    def test_analyze_crossing_at_segment_end(self, tmp_path, capsys):
        # K = k0 - (k0/t1) t crosses zero at t1 itself, then a well: the
        # wedge is no part of min(K, 0), the well all of it
        t1, k0 = 1.1554683150798821, 0.8552431612418072
        profile = rg.CurvatureProfile(
            (rg.Segment(0.0, t1, (k0, -(k0 / t1))),
             rg.Segment(t1, 3.8152184344605047, (-0.5209805983941052,))),
            rg.ZeroTail())
        assert cli_main(["analyze", "--config",
                         write_config(tmp_path / "model.json", profile, 3)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total_curvature"]["c_plus"] > 0.0
        assert data["ends_bound"]["integer_bound"] == 78

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
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "radialgeo", "gallery", "list"],
        env=module_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("flat:")
