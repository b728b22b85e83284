"""The three benchmark workloads: their ops, checks, CLI runs and digests.

Each workload builds its inputs from a seed and exposes ``blocks``, a
list of op lists that run.py runs round-robin.  An op runs one
unit of library work and raises ``CheckFailed`` when its output is wrong.
Report bytes are pinned on an op's first run; every later run of that op,
and the CLI, must reproduce them byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import inputs
import radialgeo as rg
from radialgeo import pipeline
from radialgeo.errors import ModelCompactnessError

GALLERY_DIMS = (2, 3)
CERTIFY_ENTRIES = ("flat", "abresch_tail", "sign_changing_beta_ln2")
CERTIFY_N = 3
CERTIFY_SAMPLES = 1000
SWEEP_PROFILES = 2000
SWEEP_BLOCK = 100
SWEEP_TOL = 1e-8
SWEEP_GRID = 33
# a fixed criterion-7 profile for the warm-up op and the CLI runs, so
# that neither set-up time nor the CLI's cost depends on the seed
SWEEP_FIXED = ((0.0, 20.0, 0.5, -0.05), (20.0, 50.0, -0.2, 0.0))

# tolerances of the acceptance suite
_C_TOL = 1e-5
_LIMIT_TOL = 1e-6
_GROWTH_REL = 1e-4
_ZERO_TOL = 1e-9
# criterion 7's slack on f <= m
STURM_SLACK = 1e-9


class CheckFailed(Exception):
    """An op produced output that fails its correctness check."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.pinned: dict[str, str] = {}

    def _pin(self, key: str, text: str) -> None:
        """Fix the first output of an op; later runs must repeat it."""
        first = self.pinned.setdefault(key, text)
        _check(first == text, f"{key}: output differs from its first run")

    def blocks(self) -> list[list]:
        raise NotImplementedError

    def warmup(self):
        """The op run once per set-up, outside the timed loop."""
        return self.blocks()[0][0]

    def cli_runs(self) -> list[tuple[list[str], object]]:
        """(arguments, check) pairs; check(exit_code) raises CheckFailed."""
        raise NotImplementedError

    def notes(self) -> list[str]:
        """Readable lines on known program issues seen in the run."""
        return []

    def _cli_report_check(self, key: str, out: Path, expect: int = 0):
        """Check for a CLI run that writes the report of the op ``key``."""
        def check(code):
            _check(code == expect, f"CLI {key}: exit code {code}, expected {expect}")
            _check(out.read_text(encoding="utf-8") == self.pinned.get(key),
                   f"CLI {key}: report bytes differ from the in-process report")
        return check

    def digest(self) -> str:
        """sha256 of every pinned output, in key order."""
        h = hashlib.sha256()
        for key in sorted(self.pinned):
            h.update(self.pinned[key].encode("utf-8"))
        return h.hexdigest()


# ---------------------------------------------------------------------------
# gallery: every entry x n in {2, 3}, no samples, default options


def _check_limit(label: str, limit, expected) -> None:
    if expected == "divergent":
        _check(limit.divergent, f"{label} should diverge")
    else:
        _check(not limit.divergent and abs(limit.value - expected) <= _LIMIT_TOL,
               f"{label} = {limit.value!r}, expected {expected!r}")


def check_gallery_report(entry, report) -> None:
    oracle = entry.oracle
    tc = report.total_curvature
    c = oracle.get("c")
    if c == "divergent":
        _check(not tc.is_finite, f"{entry.name}: total curvature should diverge")
        _check(not report.hypothesis_ok, f"{entry.name}: hypothesis should fail")
    elif c is not None:
        _check(tc.is_finite and abs(tc.value - c) <= _C_TOL,
               f"{entry.name}: c = {tc.value!r}, expected {c!r}")
        _check(report.hypothesis_ok, f"{entry.name}: hypothesis should hold")
        g = report.growth
        _check(g.direct.is_finite and abs(g.direct.value - g.closed_form.value)
               <= _GROWTH_REL * abs(g.closed_form.value),
               f"{entry.name}: growth routes disagree: {g.discrepancy!r}")
    if "slope_limit" in oracle:
        _check_limit(f"{entry.name}: slope limit", report.slope_limit,
                     oracle["slope_limit"])
    if "m_prime_inf" in oracle:
        _check_limit(f"{entry.name}: m' limit", report.m_prime_limit,
                     oracle["m_prime_inf"])


class Gallery(Workload):
    """Each op is one gallery entry x n through evaluate_theorem and
    report_to_json.  The gallery is fixed, so the seed changes nothing."""

    name = "gallery"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.pairs = [(e, n) for e in rg.list_gallery() for n in GALLERY_DIMS]

    def _op(self, entry, n):
        def run(tracer):
            key = f"{entry.name} n={n}"
            try:
                report = pipeline.evaluate_theorem(entry.profile, n)
            except ModelCompactnessError as exc:
                zero = entry.oracle.get("first_zero")
                _check(zero is not None and abs(exc.first_zero - zero) <= _ZERO_TOL,
                       f"{key}: unexpected compact model at {exc.first_zero!r}")
                self._pin(key, f"refused: {exc}\n")
                return
            self._pin(key, pipeline.report_to_json(report))
            _check("first_zero" not in entry.oracle, f"{key}: compact model accepted")
            check_gallery_report(entry, report)
        return run

    def blocks(self):
        return [[self._op(e, n) for e, n in self.pairs]]

    def cli_runs(self):
        runs = []
        for name, n in (("abresch_tail", 3), ("sign_changing_beta_ln2", 2),
                        ("hyperbolic", 2)):
            out = self.work_dir / f"gallery_{name}_{n}.json"
            expect = 1 if name == "hyperbolic" else 0
            args = ["gallery", "analyze", name, "-n", str(n), "--out", str(out)]
            runs.append((args, self._cli_report_check(f"{name} n={n}", out, expect)))
        return runs


# ---------------------------------------------------------------------------
# sweep: random criterion-7 profiles through solve and solve_m


def _profile(segments) -> rg.CurvatureProfile:
    return rg.CurvatureProfile(
        tuple(rg.Segment(lo, hi, (c0, c1)) for lo, hi, c0, c1 in segments),
        rg.ZeroTail())


def f_below_m(fv, mv, slack) -> bool:
    """Sturm comparison f <= m, with a slack relative to max(1, |m|)."""
    return bool((fv <= mv + slack * np.maximum(1.0, np.abs(mv))).all())


def check_sweep(f, m, fv, mv) -> bool:
    """The convexity and Sturm invariants of acceptance criterion 7.

    f and m come from separate solves at SWEEP_TOL, so f <= m fails the
    op only when it is off by more than that tolerance.  Returns whether
    it also holds to criterion 7's own slack, STURM_SLACK, which is below
    the solves' error: one criterion-7 profile gives f - m = 1.0e-9 * m
    at tol 1e-8 and f <= m at tol 1e-10.
    """
    mp = m.fps
    _check(bool((np.diff(mp) >= -1e-9 * np.maximum(1.0, np.abs(mp[:-1]))).all()),
           "m' decreases")
    _check(bool((mp >= 1.0 - 1e-9).all()), "m' < 1")
    _check(bool((m.fs >= m.ts - 1e-9).all()), "m < t")
    _check(f_below_m(fv, mv, SWEEP_TOL), "f > m")
    return f_below_m(fv, mv, STURM_SLACK)


class Sweep(Workload):
    """Each op solves f and m for one seeded random profile on [0, 50]
    and checks the criterion-7 invariants on a dense grid."""

    name = "sweep"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.raw = inputs.sweep_profiles(self.rng, SWEEP_PROFILES, SWEEP_BLOCK)
        self.profiles = [_profile(segs) for segs in self.raw]
        # ops with f <= m within SWEEP_TOL but not within STURM_SLACK, by profile
        self.sturm_misses: dict[str, int] = {}

    def _op(self, profile, label, pin=False):
        def run(tracer):
            f = rg.solve(profile, inputs.SWEEP_T_END, SWEEP_TOL)
            m = rg.solve_m(profile, inputs.SWEEP_T_END, SWEEP_TOL)
            grid = np.linspace(0.0, min(f.t_end, m.t_end), SWEEP_GRID)
            with tracer.span("jacobi.dense") if tracer else nullcontext() as sp:
                values = np.stack([f.f(grid), f.fp(grid), m.f(grid), m.fp(grid)])
            if sp is not None:
                sp.counts["points"] = values.size
            if not check_sweep(f, m, values[0], values[2]):
                self.sturm_misses[label] = self.sturm_misses.get(label, 0) + 1
            if pin:
                self._pin(label, values.tobytes().hex())
        return run

    def warmup(self):
        return self._op(_profile(SWEEP_FIXED), "fixed profile")

    def notes(self):
        return [f"sturm_slack_misses = {sum(self.sturm_misses.values())} ops "
                f"(f - m beyond criterion 7's slack {STURM_SLACK:g} but within "
                f"the solve tolerance {SWEEP_TOL:g})"
                + "".join(f"; {label} x{count}: {self.raw[int(label.split()[1])]}"
                          for label, count in sorted(self.sturm_misses.items())
                          if label.startswith("profile "))]

    def blocks(self):
        # the first block is pinned: every run, traced or not, covers it
        return [[self._op(self.profiles[i], f"profile {i:04d}", pin=i < SWEEP_BLOCK)
                 for i in range(lo, lo + SWEEP_BLOCK)]
                for lo in range(0, SWEEP_PROFILES, SWEEP_BLOCK)]

    def cli_runs(self):
        config = self.work_dir / "sweep.json"
        out = self.work_dir / "sweep.csv"
        config.write_text(json.dumps({
            "profile": {"segments": [list(s) for s in SWEEP_FIXED],
                        "tail": {"kind": "zero"}},
            "n": 2, "tol": SWEEP_TOL}), encoding="utf-8")
        args = ["tabulate", "--config", str(config), "--t-max",
                repr(inputs.SWEEP_T_END), "--step",
                repr(inputs.SWEEP_T_END / (SWEEP_GRID - 1)), "--out", str(out)]
        return [(args, self._cli_check(out))]

    def _cli_check(self, out):
        def check(code):
            _check(code == 0, f"CLI tabulate: exit code {code}")
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            _check(rows[0][:5] == ["t", "f", "fp", "m", "mp"] and len(rows) > 1,
                   "CLI tabulate: malformed table")
            table = np.array(rows[1:], dtype=float)
            _check(f_below_m(table[:, 1], table[:, 3], STURM_SLACK),
                   "CLI tabulate: f > m")
        return check


# ---------------------------------------------------------------------------
# certify: finite entries at n = 3 with ~1e3 measured ball volumes


def _expected_statements(entry) -> list[str]:
    ends = math.floor(2.0 * entry.oracle["m_prime_inf"] ** (CERTIFY_N - 1))
    return ["lim vol B_t(p)/t^n exists",
            "total curvature of the model surface lies in (-inf, 2*pi)",
            "M has finite topological type",
            f"number of ends of M is at most {ends}"]


class Certify(Workload):
    """Each op ingests one entry's sample CSV and certifies it through
    evaluate_theorem(..., samples) and report_to_json."""

    name = "certify"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        t_max = pipeline.DEFAULT_T_END
        self.entries = [rg.entry_by_name(name) for name in CERTIFY_ENTRIES]
        self.csv = {}
        for entry in self.entries:
            radii, vols = inputs.certify_samples(
                self.rng, entry.name, CERTIFY_N, CERTIFY_SAMPLES, t_max)
            path = work_dir / f"{entry.name}.csv"
            path.write_text("t,vol\n" + "".join(
                f"{t!r},{v!r}\n" for t, v in zip(radii.tolist(), vols.tolist())),
                encoding="utf-8")
            self.csv[entry.name] = path

    def _op(self, entry):
        expected = _expected_statements(entry)

        def run(tracer):
            samples = pipeline.ingest_samples(str(self.csv[entry.name]), CERTIFY_N)
            report = pipeline.evaluate_theorem(entry.profile, CERTIFY_N, None, samples)
            self._pin(entry.name, pipeline.report_to_json(report))
            _check(report.bg_monotone_ok is True,
                   f"{entry.name}: Bishop-Gromov monotonicity rejected")
            statements = [c.statement for c in report.conclusions]
            _check(statements == expected,
                   f"{entry.name}: conclusions {statements}, expected {expected}")
        return run

    def blocks(self):
        return [[self._op(e) for e in self.entries]]

    def cli_runs(self):
        runs = []
        for entry in self.entries:
            config = self.work_dir / f"{entry.name}.json"
            config.write_text(json.dumps({"profile": rg.profile_to_dict(entry.profile),
                                          "n": CERTIFY_N}), encoding="utf-8")
            out = self.work_dir / f"{entry.name}_cli.json"
            args = ["analyze", "--config", str(config), "--samples",
                    str(self.csv[entry.name]), "--out", str(out)]
            runs.append((args, self._cli_report_check(entry.name, out)))
        return runs


WORKLOADS = {w.name: w for w in (Gallery, Sweep, Certify)}
