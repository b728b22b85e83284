"""Full theorem evaluation, volume-data ingestion, and the command line.

``evaluate_theorem`` runs the whole chain for one curvature profile and
dimension: solve the warping function, compute total curvature, slope and
m' limits, the growth coefficient, and the ends bound; optionally ingest
measured ball volumes of a manifold, check Bishop-Gromov ratio
monotonicity against the model, and certify the conclusions that the
computed quantities support.  Reports serialize to deterministic JSON
(stable key order, floats at 12 significant digits).

Conclusions are gated conservatively:

* any divergent total-curvature class voids the finiteness hypothesis:
  the report carries warnings and no conclusions;
* "finite topological type" and the ends cap are emitted only when
  volume samples are present, Bishop-Gromov monotonicity holds, and the
  manifold growth limit clears its own error estimate by 10x;
* without samples, nothing about the manifold's topology is claimed.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring
from typing import NamedTuple

import numpy as np

from .asymptotics import (
    CurvatureClass,
    LimitEstimate,
    TotalCurvatureResult,
    slope_limit,
    total_curvature,
)
from .curvature_profile import (
    CurvatureProfile,
    profile_from_dict,
    profile_to_dict,
)
from .ends import EndsBound, ends_bound
from .errors import (
    ConfigurationError,
    IngestError,
    ModelCompactnessError,
    RadialGeoError,
)
from .gallery import entry_by_name, list_gallery
from .jacobi import WarpingSolution, solve, solve_m
from .model_space import (
    GrowthCoefficient,
    ModelSpace,
    ball_volumes,
    check_dimension,
    growth_coefficient,
    log_ball_volumes,
    saturating_exp,
)

__all__ = [
    "AnalysisOptions",
    "VolumeSamples",
    "BGRatioCheck",
    "Conclusion",
    "TheoremReport",
    "ingest_samples",
    "bg_ratio_check",
    "evaluate_theorem",
    "report_to_json",
    "cli_main",
    "main",
    "DEFAULT_TOL",
    "DEFAULT_T_END",
]

DEFAULT_TOL = 1e-8
DEFAULT_T_END = 4096.0

# signal-to-error factor a growth limit must clear to count as nonzero
_NONZERO_SNR = 10.0
# relative disagreement between the factored and the directly extrapolated
# manifold growth limit that triggers a warning
_FACTORIZATION_WARN = 0.05

_MONOTONE_SLACK = 1e-9

# samples at the end whose ratios or probes average to a tail limit
_TAIL_WINDOW = 5

# a samples file holding any of these is read by the csv row reader alone
# (see ingest_samples)
_ROW_READER_ONLY = '"\x1c\x1d\x1e\x1f'


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs of one evaluation run."""

    tol: float = DEFAULT_TOL
    t_end: float = DEFAULT_T_END


def _sample_fault(t, vol) -> tuple[int, str] | None:
    """The index of the first sample that fails a check, in order, and why;
    None when every sample passes.

    A sample must be finite, have t above the previous sample's t, and
    have t and vol positive; a sample failing several checks is reported
    by the first of them in that order.  One numpy pass over all samples.
    """
    t, vol = np.asarray(t, dtype=float), np.asarray(vol, dtype=float)
    with np.errstate(invalid="ignore"):  # nan compares false, and fails first
        bad = ~(np.isfinite(t) & np.isfinite(vol)) | (t <= 0.0) | (vol <= 0.0)
        bad[1:] |= t[1:] <= t[:-1]
    if not bad.any():
        return None
    i = int(bad.argmax())
    ti, vi = float(t[i]), float(vol[i])
    if not (math.isfinite(ti) and math.isfinite(vi)):
        return i, "values must be finite"
    if i and ti <= t[i - 1]:
        return i, f"t = {ti:g} does not increase past {float(t[i - 1]):g}"
    if ti <= 0:
        return i, "t must be positive"
    return i, "vol must be positive"


@dataclass(frozen=True)
class VolumeSamples:
    """Measured ball volumes (t_i, vol_i) of a manifold, all finite, t
    strictly increasing and positive, volumes positive, with declared
    dimension."""

    t: tuple[float, ...]
    vol: tuple[float, ...]
    n: int
    source: str | None = None

    def __post_init__(self):
        if len(self.t) != len(self.vol) or not self.t:
            raise ValueError("need equally many times and volumes, at least one")
        fault = _sample_fault(self.t, self.vol)
        if fault is not None:
            raise ValueError(f"sample {fault[0] + 1}: {fault[1]}")
        object.__setattr__(self, "n", check_dimension(self.n))

    def __len__(self) -> int:
        return len(self.t)


def _open_samples(path: str, errors: str = "strict"):
    try:
        return open(path, newline="", encoding="utf-8-sig", errors=errors)
    except OSError as exc:
        raise IngestError(f"{path}: cannot open: {exc}") from exc


def _is_header(row: list[str]) -> bool:
    return [h.strip().lower() for h in row[:2]] == ["t", "vol"]


def _read_rows(path: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The times and volumes of a samples file, read row by row with
    ``csv`` and float(); IngestError naming the first faulty row, as
    ``ingest_samples`` describes."""
    ts: list[float] = []
    vols: list[float] = []
    rows: list[int] = []

    def check_values():
        fault = _sample_fault(ts, vols)
        if fault is not None:
            k, reason = fault
            raise IngestError(f"{path}: row {rows[k]}: {reason}")

    def fail(i, reason):
        check_values()  # an earlier row's fault comes first
        raise IngestError(f"{path}: row {i}: {reason}")

    # surrogateescape reads each byte that is not UTF-8 as a lone surrogate
    # U+DC80..U+DCFF, which no decoded UTF-8 holds and encode() refuses
    with _open_samples(path, errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        for i in itertools.count(1):
            try:
                row = next(reader)
            except StopIteration:
                if i == 1:
                    raise IngestError(f"{path}: empty file") from None
                break
            except csv.Error as exc:  # a NUL byte before Python 3.11, a huge field
                fail(i, exc)
            text = "".join(row)
            try:
                text.encode()
            except UnicodeEncodeError as exc:
                fail(i, f"byte 0x{ord(text[exc.start]) - 0xDC00:02x} is not valid UTF-8")
            if i == 1:
                if not _is_header(row):
                    fail(i, f"expected header 't,vol', got {','.join(row)!r}")
                continue
            try:
                t, vol = float(row[0]), float(row[1])
            except (IndexError, ValueError) as exc:
                if not text.strip():  # a blank row parses as neither
                    continue
                fail(i, "expected two columns" if len(row) < 2 else exc)
            ts.append(t)
            vols.append(vol)
            rows.append(i)
    check_values()
    if not ts:
        raise IngestError(f"{path}: no data rows")
    return tuple(ts), tuple(vols)


def ingest_samples(path: str, n: int) -> VolumeSamples:
    """Read volume samples from a CSV file with header ``t,vol``.

    The file is UTF-8, with or without a byte-order mark.  Values are
    parsed as float() parses them.  Every fault names the offending row
    (1-based, counting the header as row 1), a byte that is not UTF-8
    included.  Blank rows are skipped.  When several rows are faulty, the
    first in file order is named, whether its fault is in parsing (a
    short row, a malformed number, an undecodable byte) or in the values
    (see ``VolumeSamples``); rows after a parse fault are not read.

    The data rows are parsed in one pass of numpy's C tokenizer, which
    rounds as float() does, and validated once, by ``VolumeSamples``.
    Only a file that this pass refuses, or whose values fail that
    validation, is read again row by row with ``csv``, which names the
    row at fault.  A quote, or a separator U+001C..U+001F that numpy
    strips as whitespace and float() refuses, sends a file to the row
    reader before the C pass, since there the two could read different
    values.
    """
    try:
        with _open_samples(path) as fh:
            header = next(csv.reader(fh), None)
            body = fh.read()
        # a body with no data rows goes to the row reader: numpy warns on it
        if (header is not None and _is_header(header) and body.strip()
                and not any(c in body for c in _ROW_READER_ONLY)):
            data = np.loadtxt(io.StringIO(body), delimiter=",", usecols=(0, 1),
                              comments=None, ndmin=2)
            return VolumeSamples(t=tuple(data[:, 0].tolist()),
                                 vol=tuple(data[:, 1].tolist()), n=n, source=path)
    except (ValueError, csv.Error):
        pass  # not UTF-8, or refused by the C pass or by VolumeSamples
    ts, vols = _read_rows(path)
    return VolumeSamples(t=ts, vol=vols, n=n, source=path)


class BGRatioCheck(NamedTuple):
    ratios: list[float]
    monotone_ok: bool
    ratio_limit: LimitEstimate


def bg_ratio_check(samples: VolumeSamples, ms: ModelSpace) -> BGRatioCheck:
    """Bishop-Gromov ratios vol(manifold)/vol(model) at the sample radii.

    The ratios are formed in logs, so a model volume past float range
    still gives the true ratio; a ratio past float range reads inf.
    Under a true radial curvature lower bound the ratios are nonincreasing
    and at most 1; ``monotone_ok`` reports whether the data respect that
    (with 1e-9 slack).  The ratio limit is estimated by the average of the
    last min(5, count) ratios, with their spread as the error bar: the
    convergence rate carries no a-priori model, so this is an honest
    smoothing, not an extrapolation.  Nonincreasing ratios keep the limit
    below the last one, so the upper end is sound; the lower end assumes
    the last samples are in their asymptotic regime.

    Each step is one pass over all samples: ``math.log`` of the volumes,
    one subtraction of the model's log volumes, ``math.exp`` (numpy's
    exp rounds differently in the last bits), and the two order checks
    as array comparisons.  The ratios are those of
    ``saturating_exp(math.log(v) - log_model_volume)`` bit for bit.
    """
    if samples.n != ms.n:
        raise ValueError(
            f"sample dimension {samples.n} != model dimension {ms.n}"
        )
    if samples.t[-1] > ms.f.t_end * (1 + 1e-15):
        raise ConfigurationError(
            f"sample radius {samples.t[-1]:g} exceeds the solution window "
            f"[0, {ms.f.t_end:g}]"
        )
    log_ratios = np.subtract(list(map(math.log, samples.vol)),
                             log_ball_volumes(ms, samples.t))
    # exp stays in float range below 709 on any libm; saturating_exp
    # takes the rare log ratio above
    ratios = list(map(math.exp, np.minimum(log_ratios, 709.0).tolist()))
    for i in np.flatnonzero(log_ratios > 709.0).tolist():
        ratios[i] = saturating_exp(log_ratios.item(i))
    r = np.array(ratios)
    monotone_ok = bool((r[1:] <= r[:-1] + _MONOTONE_SLACK).all()
                       and (r <= 1.0 + _MONOTONE_SLACK).all())
    window = ratios[-_TAIL_WINDOW:]
    limit = LimitEstimate(value=sum(window) / len(window),
                          err=max(window) - min(window))
    return BGRatioCheck(ratios=ratios, monotone_ok=monotone_ok,
                        ratio_limit=limit)


@dataclass(frozen=True)
class Conclusion:
    statement: str
    reason: str


@dataclass
class TheoremReport:
    """Everything one evaluation produced, ready for serialization."""

    inputs: dict
    total_curvature: TotalCurvatureResult
    slope_limit: LimitEstimate
    m_prime_limit: LimitEstimate
    growth: GrowthCoefficient
    ends: EndsBound
    ratio_limit: LimitEstimate | None
    bg_ratios: list[float] | None
    bg_monotone_ok: bool | None
    manifold_growth_limit: LimitEstimate | None
    conclusions: list[Conclusion]
    warnings: list[str]
    hypothesis_ok: bool


def _comparison_solution(f: WarpingSolution, t_end: float) -> WarpingSolution:
    """m, the solve of m'' + min(K, 0) m = 0 on [0, t_end], given the solve
    f of K itself on the same window at the same tolerance.

    Where K <= 0 the negative part is the profile itself, so ``solve_m``
    would integrate the very same profile: f is returned, bit for bit what
    that solve gives, truncation included.  Such a model has no first
    zero, so the zero check of ``solve_m`` could not fire either.
    """
    if f.profile.is_nonpositive:
        return f
    return solve_m(f.profile, t_end, f.tol)


def evaluate_theorem(profile: CurvatureProfile, n: int,
                     opts: AnalysisOptions | None = None,
                     samples: VolumeSamples | None = None) -> TheoremReport:
    """Run the full evaluation chain for one profile and dimension.

    Raises ModelCompactnessError when the warping function has a zero
    (the noncompactness hypothesis fails structurally); other hypothesis
    failures are reported, not raised, so the report can still be written.
    """
    n = check_dimension(n)
    opts = opts or AnalysisOptions()
    warnings: list[str] = []

    f = solve(profile, opts.t_end, opts.tol)
    if f.first_zero is not None:
        raise ModelCompactnessError(f.first_zero)
    if f.truncated:
        warnings.append(
            f"warping function passed the growth guard at t = {f.t_end:.6g}; "
            f"the analysis window was truncated there"
        )

    tc = total_curvature(f)
    sl = slope_limit(f)
    m = _comparison_solution(f, opts.t_end)
    ml = slope_limit(m)
    if not (ml.divergent or math.isfinite(ml.err)):
        warnings.append(
            f"m' limit did not settle: the tail bracket at t = {m.t_end:.6g} "
            f"does not bound it"
        )

    ms = ModelSpace(n=n, f=f)
    growth = growth_coefficient(ms, tc)
    eb = ends_bound(ml, n)

    ratio_limit = None
    bg_ratios = None
    bg_monotone: bool | None = None
    manifold_growth: LimitEstimate | None = None
    if samples is not None:
        bg = bg_ratio_check(samples, ms)
        bg_ratios, bg_monotone, ratio_limit = bg.ratios, bg.monotone_ok, bg.ratio_limit
        if not bg_monotone:
            warnings.append(
                "volume ratios against the model are not nonincreasing in "
                "[0, 1]: the data contradict the declared radial curvature "
                "lower bound"
            )
        elif tc.is_finite:
            # the closed form certifies: its enclosure bounds the limit, and
            # the product of two nonnegative enclosures is monotone in both
            r, g = ratio_limit, growth.closed_form
            manifold_growth = LimitEstimate.of_bounds(
                r.value * g.value, max(r.lo, 0.0) * g.lo, r.hi * g.hi)
            # direct tail average of vol_i / t_i^n as a cross-check of the
            # factored estimate; a probe past float range (inf) skips it
            tail = list(zip(samples.t[-_TAIL_WINDOW:], samples.vol[-_TAIL_WINDOW:]))
            direct_avg = sum(saturating_exp(math.log(v) - n * math.log(t))
                             for t, v in tail) / len(tail)
            scale = max(abs(manifold_growth.value), abs(direct_avg), 1e-300)
            if abs(direct_avg - manifold_growth.value) > _FACTORIZATION_WARN * scale:
                warnings.append(
                    f"factored growth limit {manifold_growth.value:.6g} and "
                    f"direct tail average {direct_avg:.6g} disagree by more "
                    f"than {_FACTORIZATION_WARN:.0%}: samples may be far "
                    f"from their asymptotic regime"
                )

    conclusions: list[Conclusion] = []
    if tc.classification is CurvatureClass.NEGATIVE_DIVERGENT:
        hypothesis_ok = False
        warnings.append(
            "the negative part of the total curvature diverges: the "
            "finiteness hypothesis fails and nothing can be certified"
        )
    elif tc.classification is CurvatureClass.POSITIVE_DIVERGENT:
        hypothesis_ok = False
        warnings.append(
            "the positive part of the total curvature diverges while the "
            "warping function stays positive: inconsistent with a "
            "noncompact model (Cohn-Vossen), nothing can be certified"
        )
    else:
        hypothesis_ok = True
        conclusions.append(Conclusion(
            statement="lim vol B_t(p)/t^n exists",
            reason="the manifold is not less curved than a model of finite "
                   "total curvature, so the volume ratio against the model "
                   "is monotone and the model growth coefficient converges",
        ))
        nonzero = (manifold_growth is not None
                   and manifold_growth.value > _NONZERO_SNR * manifold_growth.err)
        if nonzero:
            conclusions.append(Conclusion(
                statement="total curvature of the model surface lies in "
                          "(-inf, 2*pi)",
                reason="a nonzero manifold growth limit forces a positive "
                       "model growth coefficient, which excludes the value "
                       "2*pi",
            ))
            conclusions.append(Conclusion(
                statement="M has finite topological type",
                reason="finite total curvature below 2*pi together with the "
                       "nonzero volume growth limit; the lower end of the "
                       "ratio limit, the mean minus the spread of the last "
                       f"min({_TAIL_WINDOW}, count) ratios, assumes those "
                       "samples are in their asymptotic regime",
            ))
            if eb.conclusive:
                conclusions.append(Conclusion(
                    statement=f"number of ends of M is at most "
                              f"{eb.integer_bound}",
                    reason=f"2 (lim m')^(n-1) = {eb.raw_bound:.6g} with "
                           f"lim m' = {eb.m_prime_inf.value:.6g}, n = {n}",
                ))
            else:
                warnings.append(
                    "the nonzero-growth branch fired but the m' limit did "
                    "not settle; no ends bound is claimed"
                )

    inputs = {
        "profile": profile_to_dict(profile),
        "n": n,
        "tol": opts.tol,
        "t_end": opts.t_end,
        "samples_path": samples.source if samples is not None else None,
        "samples_count": len(samples) if samples is not None else None,
    }
    return TheoremReport(
        inputs=inputs,
        total_curvature=tc,
        slope_limit=sl,
        m_prime_limit=ml,
        growth=growth,
        ends=eb,
        ratio_limit=ratio_limit,
        bg_ratios=bg_ratios,
        bg_monotone_ok=bg_monotone,
        manifold_growth_limit=manifold_growth,
        conclusions=conclusions,
        warnings=warnings,
        hypothesis_ok=hypothesis_ok,
    )


# ---------------------------------------------------------------------------
# deterministic JSON


def _fin(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _limit_dict(le: LimitEstimate | None) -> dict | None:
    if le is None:
        return None
    if le.divergent:
        return {"divergent": True, "last_probe": _fin(le.value)}
    return {"divergent": False, "value": _fin(le.value), "err": _fin(le.err)}


def report_to_dict(report: TheoremReport) -> dict:
    tc = report.total_curvature
    eb = report.ends
    return {
        "inputs": report.inputs,
        "total_curvature": {
            "classification": tc.classification.value,
            "value": _fin(tc.value),
            "err": _fin(tc.err),
            "c_plus": _fin(tc.c_plus),
            "c_minus": _fin(tc.c_minus),
        },
        "slope_limit": _limit_dict(report.slope_limit),
        "m_prime_limit": _limit_dict(report.m_prime_limit),
        "growth": {
            "direct": _limit_dict(report.growth.direct),
            "closed_form": _limit_dict(report.growth.closed_form),
            "discrepancy": _fin(report.growth.discrepancy),
        },
        "ratio_limit": _limit_dict(report.ratio_limit),
        "bg_ratios": report.bg_ratios,
        "bg_monotone_ok": report.bg_monotone_ok,
        "manifold_growth_limit": _limit_dict(report.manifold_growth_limit),
        "ends_bound": {
            "m_prime_inf": _limit_dict(eb.m_prime_inf),
            "two_lambda": _fin(eb.two_lambda),
            "raw_bound": _fin(eb.raw_bound),
            "integer_bound": eb.integer_bound,
            "conclusive": eb.conclusive,
        },
        "conclusions": [{"statement": c.statement, "reason": c.reason}
                        for c in report.conclusions],
        "warnings": list(report.warnings),
        "hypothesis_ok": report.hypothesis_ok,
    }


def _float_text(x: float) -> str:
    """A float as JSON: 12 significant digits, 0 for either zero, null
    when not finite."""
    if not math.isfinite(x):
        return "null"
    if x == 0.0:
        return "0"
    return format(x, ".12g")


def _write_json(obj, out: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``out``.

    Strings go through ``encode_basestring``, which is
    ``json.dumps(x, ensure_ascii=False)`` for a str without a new
    JSONEncoder per call.  A list of floats is written in one pass: by a
    single ``"%.12g"`` format call when every element is finite and
    nonzero (``"%.12g" % x`` is ``format(x, ".12g")``), else element by
    element through ``_float_text``.
    """
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(encode_basestring(str(k)))
            out.append(": ")
            _write_json(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) and set(map(type, obj)) <= {float}:
        if all(map(math.isfinite, obj)) and 0.0 not in obj:
            out.append("[" + ", ".join(["%.12g"] * len(obj)) % tuple(obj) + "]")
        else:
            out.append("[" + ", ".join(map(_float_text, obj)) + "]")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _write_json(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_to_json(report: TheoremReport) -> str:
    """Serialize a report deterministically.

    Keys keep insertion order, floats print with 12 significant digits,
    non-finite floats become null (divergence is expressed by the
    classification fields).  Identical inputs give byte-identical output.
    """
    out: list[str] = []
    _write_json(report_to_dict(report), out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# CLI


def _env_tol(opts: AnalysisOptions) -> tuple[AnalysisOptions, str | None]:
    """Apply the RADIALGEO_TOL override to ``opts``; also returns the
    report warning that names it, or None when the variable is unset."""
    raw = os.environ.get("RADIALGEO_TOL")
    if raw is None:
        return opts, None
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"RADIALGEO_TOL is not a float: {raw!r}") from exc
    return (replace(opts, tol=tol),
            f"tolerance {tol:g} set by the environment variable "
            f"RADIALGEO_TOL={raw}")


def _load_config(path: str) -> tuple[CurvatureProfile, int, AnalysisOptions]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "profile" not in data:
        raise ConfigurationError(f"config {path} needs a 'profile' object")
    profile = profile_from_dict(data["profile"])
    try:
        n = check_dimension(data.get("n"))
    except (TypeError, ValueError):
        raise ConfigurationError(f"config {path} needs an integer 'n' >= 2") from None
    opts = {}
    for key, default in (("tol", DEFAULT_TOL), ("t_end", DEFAULT_T_END)):
        try:
            opts[key] = float(data.get(key, default))
        except (TypeError, ValueError):
            raise ConfigurationError(f"config {path} needs a number for "
                                     f"'{key}', got {data[key]!r}") from None
    return profile, n, AnalysisOptions(**opts)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _run_analysis(profile: CurvatureProfile, n: int, opts: AnalysisOptions,
                  samples_path: str | None, out_path: str | None) -> int:
    opts, note = _env_tol(opts)
    samples = ingest_samples(samples_path, n) if samples_path else None
    report = evaluate_theorem(profile, n, opts, samples)
    if note is not None:
        report.warnings.append(note)
    _emit(report_to_json(report), out_path)
    return 0 if report.hypothesis_ok else 1


def _cmd_analyze(args) -> int:
    profile, n, opts = _load_config(args.config)
    return _run_analysis(profile, n, opts, args.samples, args.out)


def _cmd_tabulate(args) -> int:
    profile, n, opts = _load_config(args.config)
    opts, _ = _env_tol(opts)
    # written to refuse nan too: with a nan step or an infinite t_max the
    # grid below would never end
    if not (0 < args.t_max < math.inf and args.step > 0):
        raise ConfigurationError("--t-max must be positive and finite, "
                                 "--step positive")
    f = solve(profile, args.t_max, opts.tol)
    m = _comparison_solution(f, args.t_max)
    t_stop = min(f.t_end, m.t_end)
    if t_stop < args.t_max:
        sys.stderr.write(
            f"note: table truncated at t = {t_stop:.6g} "
            f"(first zero or growth guard)\n"
        )
    grid = []
    k = 0
    while True:
        t = k * args.step
        if t > t_stop * (1 + 1e-12):
            break
        grid.append(min(t, t_stop))
        k += 1
    with_vol = f.first_zero is None
    buf = io.StringIO()
    header = "t,f,fp,m,mp" + (",vol_n" if with_vol else "")
    buf.write(header + "\n")
    columns = [grid, f.f(grid).tolist(), f.fp(grid).tolist(),
               m.f(grid).tolist(), m.fp(grid).tolist()]
    if with_vol:
        columns.append(ball_volumes(ModelSpace(n=n, f=f), grid))
    for row in zip(*columns):
        buf.write(",".join(format(x, ".12g") for x in row) + "\n")
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_gallery_list(_args) -> int:
    for entry in list_gallery():
        sys.stdout.write(f"{entry.name}: {entry.oracle_summary()}\n")
        if entry.notes:
            sys.stdout.write(f"    {entry.notes}\n")
    return 0


def _cmd_gallery_analyze(args) -> int:
    entry = entry_by_name(args.name)
    opts = AnalysisOptions(tol=args.tol, t_end=args.t_end)
    return _run_analysis(entry.profile, args.n, opts, args.samples, args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialgeo",
        description="Radial curvature comparison toolkit: warping functions, "
                    "total curvature, volume growth and ends bounds for "
                    "rotationally symmetric model spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="evaluate the theorem for a config")
    p_an.add_argument("--config", required=True, help="JSON config file")
    p_an.add_argument("--samples", help="CSV of manifold ball volumes (t,vol)")
    p_an.add_argument("--out", help="write the JSON report here (default stdout)")
    p_an.set_defaults(func=_cmd_analyze)

    p_tab = sub.add_parser("tabulate", help="CSV table of f, f', m, m' on a grid")
    p_tab.add_argument("--config", required=True, help="JSON config file")
    p_tab.add_argument("--t-max", type=float, required=True, dest="t_max")
    p_tab.add_argument("--step", type=float, required=True)
    p_tab.add_argument("--out", help="write the CSV here (default stdout)")
    p_tab.set_defaults(func=_cmd_tabulate)

    p_gal = sub.add_parser("gallery", help="built-in curvature families")
    gal_sub = p_gal.add_subparsers(dest="gallery_command", required=True)
    p_list = gal_sub.add_parser("list", help="list families and their oracles")
    p_list.set_defaults(func=_cmd_gallery_list)
    p_ga = gal_sub.add_parser("analyze", help="evaluate the theorem for a family")
    p_ga.add_argument("name")
    p_ga.add_argument("-n", type=int, required=True, help="dimension n >= 2")
    p_ga.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_ga.add_argument("--t-end", type=float, default=DEFAULT_T_END, dest="t_end")
    p_ga.add_argument("--samples", help="CSV of manifold ball volumes (t,vol)")
    p_ga.add_argument("--out", help="write the JSON report here (default stdout)")
    p_ga.set_defaults(func=_cmd_gallery_analyze)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    0 on success, 1 when a hypothesis of the theorem fails (divergent
    total curvature, compact model), 2 on input or usage errors.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ModelCompactnessError as exc:
        sys.stderr.write(f"hypothesis failure: {exc}\n")
        return 1
    except (RadialGeoError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
