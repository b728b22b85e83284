import math

import pytest
from hypothesis import given, settings, strategies as st

import radialgeo as rg
from radialgeo.asymptotics import LimitEstimate

from conftest import m_prime_limit

PI = math.pi


def finite(x: float) -> LimitEstimate:
    return LimitEstimate(value=x, err=0.0)


class TestAngleBound:
    def test_flat_case(self):
        assert rg.angle_bound(finite(1.0)) == pytest.approx(PI, rel=1e-15)

    def test_slope_two(self):
        assert rg.angle_bound(finite(2.0)) == pytest.approx(PI / 2, rel=1e-15)

    def test_divergent_is_inconclusive(self):
        assert rg.angle_bound(LimitEstimate.of_divergent(1e9)) is None

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            rg.angle_bound(finite(0.5))

    def test_tiny_noise_clamped(self):
        assert rg.angle_bound(finite(1.0 - 1e-12)) <= PI

    def test_curvature_form_identity(self):
        # 2 pi^2 / (2 pi - c*) with c* = 2 pi (1 - x) equals pi / x
        for x in (1.0, 1.1214340586, 2.1273491144, 2.3466310880087231):
            c_star = 2 * PI * (1.0 - x)
            via_curvature = 2 * PI ** 2 / (2 * PI - c_star)
            assert rg.angle_bound(finite(x)) == pytest.approx(
                via_curvature, rel=1e-12)


class TestPackingBound:
    def test_half_sphere_pair(self):
        assert rg.packing_bound(PI, 2) == 2.0

    def test_quarter_angle_n3(self):
        assert rg.packing_bound(PI / 2, 3) == pytest.approx(8.0, rel=1e-15)

    def test_high_dimension_flat(self):
        assert rg.packing_bound(PI, 5) == 2.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rg.packing_bound(0.0, 3)
        with pytest.raises(ValueError):
            rg.packing_bound(-0.1, 3)
        with pytest.raises(ValueError):
            rg.packing_bound(PI / 2, 1)


class TestComposition:
    @given(x=st.floats(min_value=1.0, max_value=100.0,
                       allow_nan=False, allow_infinity=False),
           n=st.integers(min_value=2, max_value=8))
    @settings(max_examples=300, deadline=None)
    def test_reproduces_theorem_bound(self, x, n):
        angle = rg.angle_bound(finite(x))
        assert rg.packing_bound(angle, n) == pytest.approx(
            2.0 * x ** (n - 1), rel=1e-12)


class TestEndsBound:
    def test_flat_every_dimension(self):
        for n in range(2, 7):
            eb = rg.ends_bound(m_prime_limit(rg.zero_profile(), 1e-8), n)
            assert eb.conclusive
            assert eb.raw_bound == 2.0
            assert eb.integer_bound == 2
            assert eb.two_lambda == pytest.approx(PI, rel=1e-15)

    def test_positive_curvature_still_two(self):
        eb = rg.ends_bound(m_prime_limit(rg.constant_profile(1.0), 1e-8), 4)
        assert eb.raw_bound == 2.0

    def test_divergent_is_inconclusive(self):
        eb = rg.ends_bound(m_prime_limit(rg.constant_profile(-1.0), 1e-8), 3)
        assert not eb.conclusive
        assert eb.two_lambda == 0.0
        assert eb.integer_bound is None
        assert math.isinf(eb.raw_bound)

    def test_arithmetic_example(self):
        eb = rg.ends_bound(m_prime_limit(rg.power_tail_profile(-6.0, 4.0), 1e-8), 3)
        expected = 2.0 * (math.sinh(math.sqrt(6.0)) / math.sqrt(6.0)) ** 2
        assert eb.raw_bound == pytest.approx(expected, rel=1e-6)
        assert eb.integer_bound == math.floor(eb.raw_bound)
        assert eb.integer_bound >= 2

    def test_monotone_in_tail_depth(self):
        deep = rg.ends_bound(m_prime_limit(rg.power_tail_profile(-6.0, 4.0), 1e-8), 3)
        shallow = rg.ends_bound(m_prime_limit(rg.power_tail_profile(-3.0, 4.0), 1e-8), 3)
        assert deep.m_prime_inf.value > shallow.m_prime_inf.value
        assert deep.raw_bound > shallow.raw_bound >= 2.0

    def test_reuses_precomputed_limit(self):
        eb = rg.ends_bound(finite(2.0), 3)
        assert eb.raw_bound == pytest.approx(8.0, rel=1e-12)

    def test_narrow_dip_is_counted(self):
        # K = 40 (t - 50)(t - 50.5) is negative only on (50, 50.5), where
        # m goes from slope 1 to lim m'; that stretch alone is the oracle
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        seg = rg.Segment(0.0, 128.0, (40.0 * 50.0 * 50.5, -40.0 * 100.5, 40.0))
        prof = rg.CurvatureProfile((seg,), rg.ZeroTail())
        ref = solve_ivp(lambda t, y: [y[1], -seg.evaluate(t) * y[0]],
                        (50.0, 50.5), [50.0, 1.0], method="DOP853",
                        rtol=1e-13, atol=1e-13).y[1, -1]
        eb = rg.ends_bound(m_prime_limit(prof, 1e-8), 3)
        assert eb.m_prime_inf.value == pytest.approx(ref, abs=1e-6)
        assert eb.integer_bound == math.floor(2.0 * ref ** 2) == 4077

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            rg.ends_bound(finite(1.0), 1)

    def test_cap_at_upper_end_of_limit(self):
        # the true limit may lie anywhere up to value + err; just below
        # sqrt 2 the central bound 2 (lim m')^2 floors to 3 ends
        eb = rg.ends_bound(LimitEstimate(math.sqrt(2.0) - 1e-12, 1e-9), 3)
        assert eb.raw_bound < 4.0
        assert eb.integer_bound == 4

    def test_unsettled_limit_is_inconclusive(self):
        eb = rg.ends_bound(LimitEstimate(1.5, math.inf), 3)
        assert not eb.conclusive
        assert eb.integer_bound is None
        assert eb.raw_bound == pytest.approx(4.5, rel=1e-12)
