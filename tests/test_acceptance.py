"""Acceptance suite: the toolkit's exit criteria.

Each test prints one pass/fail line.  Run with `pytest -v -s
tests/test_acceptance.py` to see the lines stream; tolerances and time
budgets are asserted, not just reported.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import radialgeo as rg
from radialgeo.curvature_profile import tail_moment_finite
from radialgeo.gallery import abresch_f, entry_by_name
from radialgeo.pipeline import VolumeSamples, cli_main, evaluate_theorem

from conftest import m_prime_limit, random_linear_profile

PI = math.pi
TWO_PI = 2.0 * math.pi


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_1_jacobi_closed_forms():
    with criterion(1, "Jacobi closed forms for constant curvatures"):
        cases = [
            (rg.zero_profile(), 2.0, 2.0, 1.0, None),
            (rg.constant_profile(-1.0), 2.0, math.sinh(2.0), math.cosh(2.0), None),
            (rg.constant_profile(1.0), 4.0, math.sin(2.0), math.cos(2.0), PI),
        ]
        for profile, t_end, f2, fp2, zero in cases:
            start = time.perf_counter()
            sol = rg.solve(profile, t_end, 1e-10)
            fv, fpv = sol.f(2.0), sol.fp(2.0)
            elapsed = time.perf_counter() - start
            assert abs(fv - f2) <= 1e-9 * abs(f2)
            assert abs(fpv - fp2) <= 1e-9 * abs(fp2)
            if zero is None:
                assert sol.first_zero is None
            else:
                assert abs(sol.first_zero - zero) <= 1e-9
            assert elapsed < 0.1, f"solve took {elapsed:.3f}s"


def test_criterion_2_total_curvature_oracle():
    with criterion(2, "total curvature of the sign-changing family"):
        for name, expected in (("sign_changing_beta_ln2", PI),
                               ("sign_changing_beta_neg_ln2", -TWO_PI)):
            profile = entry_by_name(name).profile
            start = time.perf_counter()
            sol = rg.solve(profile, 4096.0, 1e-8)
            tc = rg.total_curvature(sol)
            elapsed = time.perf_counter() - start
            assert tc.is_finite
            assert abs(tc.value - expected) <= 1e-5, name
            assert elapsed < 2.0, f"{name} took {elapsed:.2f}s"


def test_criterion_3_identity_suite():
    with criterion(3, "slope and m' identities on the finite gallery"):
        tol = 1e-8
        start = time.perf_counter()
        for name in ("flat", "abresch_tail", "sign_changing_beta_ln2",
                     "sign_changing_beta_neg_ln2"):
            profile = entry_by_name(name).profile
            sol = rg.solve(profile, 4096.0, tol)
            tc = rg.total_curvature(sol)
            sl = rg.slope_limit(sol)
            budget = max(1e-5, 10.0 * (tc.err + TWO_PI * sl.err))
            assert abs(tc.value - TWO_PI * (1.0 - sl.value)) <= budget, name

            ml = m_prime_limit(profile, tol)
            msol = rg.solve_m(profile, 65536.0, 1e-12)
            c_star = rg.total_curvature(msol)
            assert abs(ml.value - (1.0 - c_star.value / TWO_PI)) <= 10.0 * tol, name
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"identity suite took {elapsed:.2f}s"


def test_criterion_4_growth_routes():
    with criterion(4, "growth coefficient: direct vs closed form"):
        flat_sol = rg.solve(rg.zero_profile(), 4096.0, 1e-8)
        flat_tc = rg.total_curvature(flat_sol)
        for n, expected in ((2, PI), (3, 4.0 * PI / 3.0)):
            g = rg.growth_coefficient(rg.ModelSpace(n=n, f=flat_sol), flat_tc)
            assert abs(g.direct.value - expected) <= 1e-9 * expected
            assert abs(g.closed_form.value - expected) <= 1e-9 * expected
            rel = abs(g.direct.value - g.closed_form.value) / expected
            assert rel <= 1e-4

        profile = entry_by_name("sign_changing_beta_ln2").profile
        sol = rg.solve(profile, 4096.0, 1e-8)
        tc = rg.total_curvature(sol)
        g = rg.growth_coefficient(rg.ModelSpace(n=2, f=sol), tc)
        assert abs(g.closed_form.value - PI / 2.0) <= 1e-4
        rel = abs(g.direct.value - g.closed_form.value) / (PI / 2.0)
        assert rel <= 1e-4


def test_criterion_5_divergence_handling(capsys):
    with criterion(5, "divergent families are classified, never forced"):
        hyper = rg.constant_profile(-1.0)
        sol = rg.solve(hyper, 4096.0, 1e-8)
        tc = rg.total_curvature(sol)
        assert tc.classification is rg.CurvatureClass.NEGATIVE_DIVERGENT
        assert m_prime_limit(hyper, 1e-8).divergent
        assert cli_main(["gallery", "analyze", "hyperbolic", "-n", "2"]) == 1
        capsys.readouterr()  # swallow the report the CLI printed

        boundary = entry_by_name("moment_boundary").profile
        assert not tail_moment_finite(rg.negative_part(boundary).tail)
        assert m_prime_limit(boundary, 1e-8).divergent


def test_criterion_6_ends_bound():
    with criterion(6, "ends bound: flat value and composition identity"):
        for profile in (rg.zero_profile(), rg.constant_profile(1.0)):
            for n in range(2, 7):
                eb = rg.ends_bound(m_prime_limit(profile, 1e-8), n)
                assert eb.raw_bound == 2.0
                assert eb.integer_bound == 2
        for x in (1.0, 1.5, 2.0, 10.0):
            le = rg.LimitEstimate(value=x, err=0.0)
            for n in range(2, 7):
                angle = rg.angle_bound(le)
                composed = rg.packing_bound(angle, n)
                target = 2.0 * x ** (n - 1)
                assert abs(composed - target) <= 1e-12 * target


def test_criterion_7_random_profile_invariants():
    with criterion(7, "convexity and Sturm invariants on 1000 random profiles"):
        rng = np.random.default_rng(20260809)
        start = time.perf_counter()
        for _ in range(1000):
            profile = random_linear_profile(rng)
            f = rg.solve(profile, 50.0, 1e-8)
            m = rg.solve_m(profile, 50.0, 1e-8)

            mp = m.fps
            assert (np.diff(mp) >= -1e-9 * np.maximum(1.0, np.abs(mp[:-1]))).all()
            assert (mp >= 1.0 - 1e-9).all()
            assert (m.fs >= m.ts - 1e-9).all()

            hi = min(f.t_end, m.t_end)
            grid = np.linspace(0.0, hi, 33)
            fv, mv = f.f(grid), m.f(grid)
            # slack scaled by the solution size: at growth-guard scales an
            # absolute 1e-9 would be below representable resolution
            assert (fv <= mv + 1e-9 * np.maximum(1.0, np.abs(mv))).all()
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0, f"sweep took {elapsed:.1f}s"


def test_criterion_8_pipeline_end_to_end():
    with criterion(8, "pipeline certification on flat data"):
        ts = tuple(float(k) for k in range(1, 9))
        exact = VolumeSamples(t=ts, vol=tuple(PI * t * t for t in ts), n=2)
        rep = evaluate_theorem(rg.zero_profile(), 2, samples=exact)
        assert abs(rep.manifold_growth_limit.value - PI) <= 1e-6
        statements = [c.statement for c in rep.conclusions]
        assert any("finite topological type" in s for s in statements)
        assert any("at most 2" in s for s in statements)
        assert any("(-inf, 2*pi)" in s for s in statements)

        rising = VolumeSamples(t=(1.0, 2.0), vol=(0.5 * PI, 0.6 * 4.0 * PI), n=2)
        rep = evaluate_theorem(rg.zero_profile(), 2, samples=rising)
        assert any("contradict" in w for w in rep.warnings)
        assert [c.statement for c in rep.conclusions] == \
            ["lim vol B_t(p)/t^n exists"]


def test_criterion_9_ode_order_check():
    with criterion(9, "solver error drops at least 4x per tolerance decade"):
        profile = entry_by_name("abresch_tail").profile
        reference = abresch_f(100.0)
        errors = []
        for tol in (1e-6, 1e-7, 1e-8, 1e-9):
            sol = rg.solve(profile, 100.0, tol)
            errors.append(abs(sol.f(100.0) - reference))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 4.0, errors
