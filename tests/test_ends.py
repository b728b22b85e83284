import math
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings, strategies as st

import radialgeo as rg
from radialgeo.asymptotics import LimitEstimate

from conftest import m_prime_limit

PI = math.pi


def finite(x: float) -> LimitEstimate:
    return LimitEstimate(value=x, err=0.0)


def check_cap(eb, hi: float, n: int) -> None:
    """``eb.integer_bound`` against the exact cap 2 max(hi, 1)^(n-1) at 50
    digits: at least its floor, and above it by at most the margin of the
    map's rounding up, 3 * 2^-50 (1 + log 2 + (n-1) |log max(hi, 1)|)
    relative, so by at most one where that margin is below one; equal to
    it wherever the cap lies farther below the next integer than the
    margin.  Past float range it is inconclusive."""
    x = max(hi, 1.0)
    with localcontext() as ctx:
        ctx.prec = 50
        exact = 2 * Decimal(x) ** (n - 1)
        margin = exact * Decimal(3.0 * 2.0 ** -50 * (1.0 + math.log(2.0)
                                                     + (n - 1) * math.log(x)))
    if eb.integer_bound is None:
        assert not eb.conclusive and exact + margin >= Decimal(sys.float_info.max), n
        return
    floor = int(exact)
    assert floor <= eb.integer_bound <= int(exact + margin), n
    if floor + 1 - exact > margin:
        assert eb.integer_bound == floor, n


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

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.0 - 1e-9, 6.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.integers(2, 8))
    def test_cap_floors_upper_end(self, value, below, above, n):
        ml = LimitEstimate.of_bounds(value, value - below, value + above)
        check_cap(rg.ends_bound(ml, n), ml.hi, n)

    @pytest.mark.parametrize("hi", [1.0, 1.0 + 2.0 ** -52, 1.5, 2.0 - 2.0 ** -52, 2.0,
                                    math.sinh(math.sqrt(6.0)) / math.sqrt(6.0), 10.0])
    def test_cap_against_exact(self, hi):
        # in logs without the rounding up, x = 2 at n = 4 floors to 15,
        # where the cap is 16; 2 x**(n-1) can round below a cap past 2^53
        # (x = sinh(sqrt 6)/sqrt 6 at n = 47)
        for n in [*range(2, 51), 450, 1000]:
            eb = rg.ends_bound(LimitEstimate.of_bounds(1.0, 1.0, hi), n)
            check_cap(eb, hi, n)
            assert eb.raw_bound == 2.0

    def test_cap_reads_hi_of_asymmetric_limit(self):
        # err = 0.4 would give 2 (1.4 + 0.4)^2 = 6.48; hi gives 2 (1.42)^2
        eb = rg.ends_bound(LimitEstimate.of_bounds(1.4, 1.0, 1.42), 3)
        assert eb.integer_bound == 4

    def test_unsettled_limit_is_inconclusive(self):
        eb = rg.ends_bound(LimitEstimate(1.5, math.inf), 3)
        assert not eb.conclusive
        assert eb.integer_bound is None
        assert eb.raw_bound == pytest.approx(4.5, rel=1e-12)


def wedge_then_well(t1, k0, k2, t2, k3=0.0):
    """K = k0 - (k0/t1) t on [0, t1), its coefficients formed in floats so
    that the root lands within ulps of t1; then K = k2 + k3 t on [t1, t2)
    and a zero tail."""
    return rg.CurvatureProfile((rg.Segment(0.0, t1, (k0, -(k0 / t1))),
                                rg.Segment(t1, t2, (k2, k3))), rg.ZeroTail())


def well_m_prime(t1, kneg, t2):
    """lim m' for ``wedge_then_well`` with a constant kneg < 0: m = t up to
    t1, then t1 cosh(w s) + sinh(w s)/w with s = t - t1 and
    w = sqrt(-kneg)."""
    w, d = math.sqrt(-kneg), t2 - t1
    return t1 * w * math.sinh(w * d) + math.cosh(w * d)


class TestCrossingAtSegmentEnd:
    """A sign crossing that lands on a segment end, so the split cuts
    there or within ulps of it: m' must see the whole well, and c_plus the
    whole wedge."""

    T1, T2, KNEG = 1.1554683150798821, 3.8152184344605047, -0.5209805983941052

    def test_ends_cap(self):
        prof = wedge_then_well(self.T1, 0.8552431612418072, self.KNEG, self.T2)
        report = rg.evaluate_theorem(prof, 3)
        assert not prof.is_nonpositive
        assert report.total_curvature.c_plus > 0.0
        assert report.m_prime_limit.value == pytest.approx(
            well_m_prime(self.T1, self.KNEG, self.T2), rel=1e-6)
        assert report.ends.integer_bound == 78

    @pytest.mark.parametrize("t1, k0, k2, k3, t2", [
        # the well starts at its own root; a split that took the wedge for
        # nonpositive gave lim m' < 1, which the ends bound refuses
        (2.7075427365733864, 1.6136671285007003, 2.130364492378996,
         -0.7868258046686066, 5.0598852761744055),
        # a sign piece two ulps wide before t1
        (1.7047624714818537, 1.7363176760315095, 0.03645164558158571,
         -0.021382243093315136, 9.466113555949862),
    ])
    def test_linear_well_against_scipy(self, t1, k0, k2, k3, t2):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        prof = wedge_then_well(t1, k0, k2, t2, k3)
        # min(K, 0) is 0 on the wedge, so m = t there
        ref = solve_ivp(lambda t, y: [y[1], -min(k2 + k3 * t, 0.0) * y[0]],
                        (t1, t2), [t1, 1.0], method="DOP853",
                        rtol=1e-13, atol=1e-13).y[1, -1]
        report = rg.evaluate_theorem(prof, 3)
        assert report.total_curvature.c_plus > 0.0
        assert report.m_prime_limit.value == pytest.approx(ref, rel=1e-6)
        assert report.ends.integer_bound >= math.floor(2.0 * ref ** 2)

    @settings(max_examples=150, deadline=None)
    @given(t1=st.floats(0.3, 1.5), k0=st.floats(0.05, 1.0),
           kneg=st.floats(-1.0, -0.2), width=st.floats(1.0, 4.0))
    @example(t1=T1, k0=0.8552431612418072, kneg=KNEG, width=T2 - T1)
    def test_closed_form(self, t1, k0, kneg, width):
        t2 = t1 + width
        try:
            report = rg.evaluate_theorem(wedge_then_well(t1, k0, kneg, t2), 3)
        except rg.ModelCompactnessError:
            return
        assert report.total_curvature.c_plus > 0.0
        assert report.m_prime_limit.value == pytest.approx(
            well_m_prime(t1, kneg, t2), rel=1e-6)
