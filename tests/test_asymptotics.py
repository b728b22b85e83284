import math
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import radialgeo as rg
from radialgeo.asymptotics import CurvatureClass, LimitEstimate, _solve_err
from radialgeo.errors import ConfigurationError
from radialgeo.gallery import entry_by_name

from conftest import m_prime_limit

TWO_PI = 2.0 * math.pi
SINH_SQRT6_OVER = math.sinh(math.sqrt(6.0)) / math.sqrt(6.0)

# DOP853 references at rtol 1e-13, solved to t = 1e6
BETA_LN2_MP_INF = 1.1214340585525671
BETA_NEG_LN2_MP_INF = 2.1273491144304177


class TestLimitEstimate:
    def test_err_nonnegative(self):
        with pytest.raises(ValueError):
            LimitEstimate(value=1.0, err=-1.0)

    def test_divergent_marker(self):
        le = LimitEstimate.of_divergent(123.0)
        assert le.divergent and not le.is_finite
        assert le.value == 123.0
        assert math.isinf(le.err)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e300, 1e300), st.floats(0.0, 1e300))
    def test_symmetric_enclosure_keeps_err(self, value, err):
        le = LimitEstimate(value, err)
        assert le.lo <= value <= le.hi
        assert (le.lo, le.hi) == (value - err, value + err)
        assert struct.pack("<d", le.err) == struct.pack("<d", err)

    def test_asymmetric_err_is_larger_distance(self):
        le = LimitEstimate.of_bounds(1.0, 0.5, 3.0)
        assert (le.value, le.lo, le.hi, le.err) == (1.0, 0.5, 3.0, 2.0)
        assert LimitEstimate.of_bounds(2.0, -1.0, 2.0).err == 3.0
        assert LimitEstimate.of_bounds(2.0, 2.0, 2.0).err == 0.0

    @pytest.mark.parametrize("lo, hi", [(1.5, 2.0), (0.0, 0.5), (2.0, 0.0)])
    def test_asymmetric_refuses_value_outside(self, lo, hi):
        with pytest.raises(ValueError):
            LimitEstimate.of_bounds(1.0, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 2.0), (0.0, math.inf),
                                        (math.nan, 2.0), (0.0, math.nan)])
    def test_non_finite_end_did_not_settle(self, lo, hi):
        le = LimitEstimate.of_bounds(1.0, lo, hi)
        assert le.err == math.inf and not le.divergent
        assert (le.lo, le.hi) == (-math.inf, math.inf)

    @pytest.mark.parametrize("value, err", [(math.inf, 0.0), (math.nan, 1.0),
                                            (1.0, math.inf), (1.0, math.nan),
                                            (1e308, 1e308)])
    def test_non_finite_symmetric_did_not_settle(self, value, err):
        le = LimitEstimate(value, err)
        assert le.err == math.inf
        assert (le.lo, le.hi) == (-math.inf, math.inf)


_SLOPE = st.floats(min_value=-1e12, max_value=1e12)


class TestSolveErr:
    # the scale slope_limit wrote out before, bit for bit
    @given(tol=st.floats(min_value=1e-14, max_value=1e-3), a=_SLOPE)
    @settings(max_examples=300, deadline=None)
    def test_bits_equal_written_scales(self, tol, a):
        f = SimpleNamespace(tol=tol)
        assert _solve_err(f, a).hex() == (tol * (1.0 + abs(a))).hex()


class TestSlopeLimit:
    def test_flat_is_one(self):
        sol = rg.solve(rg.zero_profile(), 100.0, 1e-10)
        sl = rg.slope_limit(sol)
        assert sl.is_finite
        assert sl.value == pytest.approx(1.0, abs=1e-12)

    def test_hyperbolic_diverges(self):
        sol = rg.solve(rg.constant_profile(-1.0), 30.0, 1e-10)
        sl = rg.slope_limit(sol)
        assert sl.divergent
        assert sl.value == pytest.approx(math.cosh(30.0), rel=1e-6)

    def test_beta_family(self, beta_ln2_solution):
        sl = rg.slope_limit(beta_ln2_solution)
        assert sl.value == pytest.approx(0.5, abs=1e-6)

    def test_abresch(self, abresch_profile):
        sol = rg.solve(abresch_profile, 4096.0, 1e-10)
        sl = rg.slope_limit(sol)
        assert sl.value == pytest.approx(SINH_SQRT6_OVER, abs=1e-8)


class TestTotalCurvature:
    def test_flat_zero(self):
        sol = rg.solve(rg.zero_profile(), 100.0, 1e-10)
        tc = rg.total_curvature(sol)
        assert tc.classification is CurvatureClass.FINITE
        assert tc.value == 0.0
        assert tc.c_plus == 0.0 and tc.c_minus == 0.0

    def test_hyperbolic_negative_divergent(self):
        prof = rg.constant_profile(-1.0)
        sol = rg.solve(prof, 20.0, 1e-10)
        tc = rg.total_curvature(sol)
        assert tc.classification is CurvatureClass.NEGATIVE_DIVERGENT
        assert tc.value is None
        assert tc.c_minus == -math.inf
        assert tc.c_plus == 0.0

    def test_positive_divergent_tail(self):
        # a = 0.1 < 1/4 keeps f zero-free while the positive integral diverges
        prof = rg.power_tail_profile(0.1, 2.0)
        sol = rg.solve(prof, 200.0, 1e-10)
        assert sol.first_zero is None
        tc = rg.total_curvature(sol)
        assert tc.classification is CurvatureClass.POSITIVE_DIVERGENT
        assert tc.c_plus == math.inf

    def test_beta_ln2_is_pi(self, beta_ln2_profile, beta_ln2_solution):
        tc = rg.total_curvature(beta_ln2_solution)
        assert tc.classification is CurvatureClass.FINITE
        assert tc.value == pytest.approx(math.pi, abs=1e-6)
        assert tc.value == tc.c_plus + tc.c_minus
        assert tc.value <= TWO_PI + 1e-6

    def test_abresch_matches_closed_form(self, abresch_profile):
        sol = rg.solve(abresch_profile, 4096.0, 1e-10)
        tc = rg.total_curvature(sol)
        assert tc.value == pytest.approx(TWO_PI * (1.0 - SINH_SQRT6_OVER), abs=1e-6)
        assert tc.c_plus == 0.0

    @pytest.mark.parametrize("profile, t_end", [
        (rg.zero_profile(), 100.0), (rg.constant_profile(-1.0), 20.0),
        (rg.power_tail_profile(0.1, 2.0), 200.0),
        (rg.power_tail_profile(-6.0, 4.0), 4096.0)])
    def test_slope_in_every_class(self, profile, t_end):
        sol = rg.solve(profile, t_end, 1e-10)
        assert rg.total_curvature(sol).slope == rg.slope_limit(sol)

    def test_first_zero_rejected(self):
        prof = rg.constant_profile(1.0)
        sol = rg.solve(prof, 4.0, 1e-10)
        with pytest.raises(ValueError):
            rg.total_curvature(sol)

    def test_window_before_tail_rejected(self, beta_ln2_profile):
        sol = rg.solve(beta_ln2_profile, 100.0, 1e-8)
        with pytest.raises(ConfigurationError):
            rg.total_curvature(sol)

    def test_slope_identity_on_finite_gallery(self):
        # c = 2 pi (1 - lim f'), since the curvature integral telescopes f'
        for name in ("flat", "abresch_tail", "sign_changing_beta_ln2",
                     "sign_changing_beta_neg_ln2"):
            prof = entry_by_name(name).profile
            sol = rg.solve(prof, 4096.0, 1e-8)
            tc = rg.total_curvature(sol)
            sl = rg.slope_limit(sol)
            budget = max(1e-5, 10.0 * (tc.err + TWO_PI * sl.err))
            assert abs(tc.value - TWO_PI * (1.0 - sl.value)) <= budget, name


FINITE_GALLERY = ("flat", "abresch_tail", "sign_changing_beta_ln2",
                  "sign_changing_beta_neg_ln2")


def _quad_part(part, f, slope):
    """2 pi * integral of part * f by scipy quadrature of the dense output:
    one quad per solver step on each stretch where the part is nonzero,
    and the tail on [T, oo) against the linear continuation of f."""
    quad = pytest.importorskip("scipy.integrate").quad
    T = f.t_end
    stretches = [(s.t_start, s.t_end, s) for s in part.segments if not s.is_zero]
    if not isinstance(part.tail, rg.ZeroTail):
        stretches.append((part.t_tail, T, part.tail))
    total = 0.0
    for a, b, piece in stretches:
        cuts = [a, *(t for t in f.ts if a < t < b), b]
        for lo, hi in zip(cuts, cuts[1:]):
            total += quad(lambda t: piece.evaluate(t) * f.f(t), lo, hi,
                          epsabs=0.0, epsrel=1e-13, limit=200)[0]
    if not isinstance(part.tail, rg.ZeroTail):
        fT = f.f(T)
        total += quad(lambda t: part.tail.evaluate(t) * (fT + slope * (t - T)),
                      T, math.inf, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
    return TWO_PI * total


class TestTotalCurvatureOracles:
    @pytest.mark.parametrize("name", FINITE_GALLERY)
    def test_parts_match_quadrature(self, name):
        prof = entry_by_name(name).profile
        sol = rg.solve(prof, 4096.0, 1e-8)
        tc = rg.total_curvature(sol)
        slope = rg.slope_limit(sol).value
        for value, part in ((tc.c_plus, rg.positive_part(prof)),
                            (tc.c_minus, rg.negative_part(prof))):
            assert abs(value - _quad_part(part, sol, slope)) <= tc.err, name

    @pytest.mark.parametrize("name", FINITE_GALLERY)
    def test_telescoped_parts_within_bar(self, name):
        # c is 2 pi (1 - s); the telescoped sides are a second route to it
        sol = rg.solve(entry_by_name(name).profile, 4096.0, 1e-8)
        tc = rg.total_curvature(sol)
        assert tc.value == TWO_PI * (1.0 - tc.slope.value)
        assert tc.err == TWO_PI * tc.slope.err
        assert abs(tc.c_plus + tc.c_minus - tc.value) <= tc.err, name

    @pytest.mark.parametrize("name", FINITE_GALLERY)
    def test_error_bar_covers_closed_form(self, name):
        entry = entry_by_name(name)
        sol = rg.solve(entry.profile, 4096.0, 1e-8)
        tc = rg.total_curvature(sol)
        assert abs(tc.value - entry.oracle["c"]) <= tc.err, name


class TestMPrimeLimit:
    def test_flat_is_one(self):
        ml = m_prime_limit(rg.zero_profile(), 1e-8)
        assert ml.is_finite
        assert ml.value == 1.0

    def test_positive_curvature_is_one(self):
        ml = m_prime_limit(rg.constant_profile(1.0), 1e-8)
        assert ml.value == 1.0

    def test_hyperbolic_diverges(self):
        ml = m_prime_limit(rg.constant_profile(-1.0), 1e-8)
        assert ml.divergent
        assert ml.value > 1e6

    def test_moment_boundary_diverges(self):
        ml = m_prime_limit(rg.power_tail_profile(-1.0, 2.0), 1e-8)
        assert ml.divergent

    def test_abresch(self, abresch_profile):
        ml = m_prime_limit(abresch_profile, 1e-8)
        assert ml.value == pytest.approx(SINH_SQRT6_OVER, abs=1e-6)
        assert ml.err < 1e-6

    def test_beta_ln2_reference(self, beta_ln2_profile):
        ml = m_prime_limit(beta_ln2_profile, 1e-8)
        assert ml.value == pytest.approx(BETA_LN2_MP_INF, abs=1e-6)

    def test_beta_neg_ln2_reference(self):
        prof = entry_by_name("sign_changing_beta_neg_ln2").profile
        ml = m_prime_limit(prof, 1e-8)
        assert ml.value == pytest.approx(BETA_NEG_LN2_MP_INF, abs=1e-6)

    def test_at_least_one(self):
        for name in ("flat", "abresch_tail", "sign_changing_beta_ln2"):
            ml = m_prime_limit(entry_by_name(name).profile, 1e-8)
            assert ml.value >= 1.0 - 1e-12

    def test_cross_identity_via_public_api(self, abresch_profile,
                                           beta_ln2_profile):
        # m'(inf) must equal 1 - c/(2 pi) for the (min(K,0), m) surface
        tol = 1e-8
        for prof in (abresch_profile, beta_ln2_profile):
            ml = m_prime_limit(prof, tol)
            msol = rg.solve_m(prof, 65536.0, 1e-12)
            c_star = rg.total_curvature(msol)
            assert abs(ml.value - (1.0 - c_star.value / TWO_PI)) <= 10.0 * tol

    def test_monotone_in_curvature(self):
        # deeper negative curvature produces a larger limit slope
        deep = m_prime_limit(rg.power_tail_profile(-6.0, 4.0), 1e-8)
        shallow = m_prime_limit(rg.power_tail_profile(-3.0, 4.0), 1e-8)
        assert deep.value > shallow.value > 1.0


class TestSlopeLimitOracles:
    @pytest.mark.parametrize("name", FINITE_GALLERY)
    def test_slope_covers_oracle(self, name):
        entry = entry_by_name(name)
        sl = rg.slope_limit(rg.solve(entry.profile, 4096.0, 1e-8))
        assert abs(sl.value - entry.oracle["slope_limit"]) <= sl.err, name

    @pytest.mark.parametrize("name", FINITE_GALLERY)
    def test_m_prime_covers_oracle(self, name):
        entry = entry_by_name(name)
        ml = m_prime_limit(entry.profile, 1e-8)
        assert abs(ml.value - entry.oracle["m_prime_inf"]) <= ml.err, name

    def test_window_before_tail_did_not_settle(self, beta_ln2_profile):
        sol = rg.solve(beta_ln2_profile, 100.0, 1e-8)
        sl = rg.slope_limit(sol)
        assert not sl.divergent
        assert sl.value == sol.fp(100.0)
        assert sl.err == math.inf


def power_tail_slope(a: float, p: float) -> float:
    """lim f' for K = a/(1+t)^p with a < 0 and p > 2, from Bessel functions.

    With u = 1+t, q = p-2, nu = 1/q and z = (2 sqrt|a|/q) u^(-q/2), the
    solutions are f = alpha sqrt(u) I_nu(z) + beta sqrt(u) K_nu(z); the
    I_nu term tends to a constant, the K_nu term to a line of slope
    beta Gamma(nu)/2 (sqrt|a|/q)^(-nu).  alpha and beta are fitted to
    f(0) = 0, f'(0) = 1.
    """
    special = pytest.importorskip("scipy.special")
    q = p - 2.0
    nu = 1.0 / q
    r = math.sqrt(-a) / q
    z0 = 2.0 * r
    dz = -0.5 * q * z0  # dz/du at u = 1
    i0, k0 = special.iv(nu, z0), special.kv(nu, z0)
    i1, k1 = special.ivp(nu, z0) * dz, special.kvp(nu, z0) * dz
    # alpha i0 + beta k0 = 0 and alpha i1 + beta k1 = 1
    beta = i0 / (i0 * k1 - k0 * i1)
    return beta * math.gamma(nu) / 2.0 * r ** (-nu)


class TestPowerTailBessel:
    def test_oracle_reproduces_abresch(self):
        assert power_tail_slope(-6.0, 4.0) == pytest.approx(SINH_SQRT6_OVER,
                                                            rel=1e-13)

    @pytest.mark.parametrize("p", [2.25, 2.5, 2.75, 3.0, 4.0])
    @pytest.mark.parametrize("a", [-0.5, -1.0, -6.0])
    def test_error_bar_covers_closed_form(self, a, p):
        prof = rg.power_tail_profile(a, p)
        exact = power_tail_slope(a, p)
        for sol in (rg.solve(prof, 4096.0, 1e-8), rg.solve_m(prof, 4096.0, 1e-8)):
            le = rg.slope_limit(sol)
            assert not le.divergent
            assert abs(le.value - exact) <= le.err, (a, p, le)
            # at T = 4096 only a = -6, p = 2.25 has 1 + a J1 <= 0
            assert math.isfinite(le.err) or (a, p) == (-6.0, 2.25)
