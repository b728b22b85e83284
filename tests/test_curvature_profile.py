import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import radialgeo as rg
from radialgeo.curvature_profile import Segment, tail_moment_finite
from radialgeo.errors import ProfileError


def linear_1mt_profile():
    # K(t) = 1 - t on [0, 2), zero tail
    return rg.CurvatureProfile((Segment(0.0, 2.0, (1.0, -1.0)),), rg.ZeroTail())


_COEFF = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(min_value=-10.0, max_value=10.0,
                             allow_nan=False, allow_infinity=False))
# a constant term >= 0.5 and the others zero or in [0.25, 2] keep every
# real root of the denominator below -0.2, off any segment
_DEN_HIGHER = st.one_of(st.sampled_from([0.0, -0.0]),
                        st.floats(min_value=0.25, max_value=2.0))


@st.composite
def segments_and_times(draw):
    """A polynomial (degree 0 to 6) or rational segment and a time in it."""
    num = tuple(draw(st.lists(_COEFF, min_size=1, max_size=7)))
    # a leading coefficient so small that num's roots leave float range
    # is refused (see TestValidation)
    lead = next((c for c in reversed(num) if c), 1.0)
    assume(all(math.isfinite(c / lead) for c in num))
    den = (1.0,)
    if draw(st.booleans()):
        den = (draw(st.floats(min_value=0.5, max_value=2.0)),
               *draw(st.lists(_DEN_HIGHER, max_size=6)))
    t_start = draw(st.floats(min_value=0.0, max_value=50.0))
    t_end = t_start + draw(st.floats(min_value=1e-3, max_value=50.0))
    t = draw(st.floats(min_value=t_start, max_value=t_end))
    return Segment(t_start, t_end, num, den), t


class TestScalarEvaluator:
    @given(case=segments_and_times())
    @settings(max_examples=500, deadline=None)
    def test_bits_equal_evaluate(self, case):
        # float.hex tells -0.0 from 0.0, which == does not
        seg, t = case
        assert seg.evaluator(t).hex() == seg.evaluate(t).hex()

    def test_signed_zero_leading_coefficient(self):
        # 0.0 * t + (-0.0) is +0.0, not the coefficient itself
        for num in ((-0.0,), (-0.0, -0.0), (1.0, -0.0), (1.0, 2.0, -0.0),
                    (0.0, 0.0, 0.0, -0.0)):
            seg = Segment(0.0, 1.0, num)
            for t in (0.0, 0.5, 1.0):
                assert seg.evaluator(t).hex() == seg.evaluate(t).hex()

    def test_built_once(self):
        seg = Segment(0.0, 1.0, (1.0, 2.0), (1.0, 1.0))
        assert seg.evaluator is seg.evaluator

    def test_solved_profile_pickles(self):
        profile = rg.CurvatureProfile((Segment(0.0, 1.0, (1.0, 2.0)),), rg.ZeroTail())
        rg.solve(profile, 2.0, 1e-8)
        copy = pickle.loads(pickle.dumps(profile))
        assert copy == profile
        assert copy.segments[0].evaluator(0.5) == 2.0


class TestEvaluation:
    def test_zero_profile(self):
        assert rg.zero_profile().evaluate(5.0) == 0.0

    def test_constant_profile(self):
        assert rg.constant_profile(-1.0).evaluate(2.0) == -1.0

    def test_power_tail_direct_substitution(self):
        prof = rg.power_tail_profile(-1.0, 3.0)
        assert prof.evaluate(1.0) == pytest.approx(-0.125, rel=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            rg.zero_profile().evaluate(-0.1)
        with pytest.raises(ValueError):
            rg.zero_profile().evaluate_array(np.array([0.5, -0.5]))

    def test_array_matches_scalar(self, beta_ln2_profile):
        ts = np.linspace(0.0, 4100.0, 57)
        arr = beta_ln2_profile.evaluate_array(ts)
        scal = np.array([beta_ln2_profile.evaluate(float(t)) for t in ts])
        np.testing.assert_allclose(arr, scal, rtol=1e-14)

    def test_callable_alias(self):
        prof = rg.constant_profile(3.0)
        assert prof(1.5) == 3.0


class TestValidation:
    def test_segments_must_be_contiguous(self):
        with pytest.raises(ProfileError):
            rg.CurvatureProfile(
                (Segment(0.0, 1.0, (1.0,)), Segment(1.5, 2.0, (1.0,))))

    def test_first_segment_starts_at_zero(self):
        with pytest.raises(ProfileError):
            rg.CurvatureProfile((Segment(0.5, 1.0, (1.0,)),))

    def test_denominator_root_rejected(self):
        # den = t - 1 vanishes inside [0, 2)
        with pytest.raises(ProfileError):
            Segment(0.0, 2.0, (1.0,), (-1.0, 1.0))

    def test_power_tail_needs_positive_exponent(self):
        with pytest.raises(ProfileError):
            rg.PowerDecayTail(-1.0, 0.0)

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ProfileError):
            Segment(0.0, 1.0, (math.inf,))

    # a subnormal leading coefficient puts the companion matrix, and so the
    # roots, past float range (the suite turns any RuntimeWarning into an
    # error, so none may be emitted on the way)
    @pytest.mark.parametrize("num, den", [
        ((1.0,), (1.0, 0.0, 5e-324)),
        ((1.0, 0.0, 5e-324), (1.0,)),
        ((1.0, 5e-324), (1.0,)),
    ])
    def test_roots_past_float_range_rejected(self, num, den, tmp_path, capsys):
        coeffs = re.escape(str(den if len(den) > 1 else num))
        with pytest.raises(ProfileError, match=f"coefficients {coeffs} put its roots"):
            Segment(0.0, 1.0, num, den)
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"n": 2, "profile": {"segments": [
            {"t_start": 0.0, "t_end": 1.0, "num": list(num), "den": list(den)}]}}))
        assert rg.cli_main(["analyze", "--config", str(cfg)]) == 2
        assert f"coefficients {str(den if len(den) > 1 else num)} put its roots" in (
            capsys.readouterr().err)


class TestSignedParts:
    def test_constant_negative_is_fixed_point(self):
        prof = rg.constant_profile(-1.0)
        neg = rg.negative_part(prof)
        for t in (0.0, 1.0, 7.5):
            assert neg.evaluate(t) == prof.evaluate(t)
        assert rg.positive_part(prof).evaluate(3.0) == 0.0

    def test_constant_positive_clips_to_zero(self):
        prof = rg.constant_profile(1.0)
        assert rg.negative_part(prof).evaluate(3.0) == 0.0
        assert rg.positive_part(prof).evaluate(3.0) == 1.0

    def test_linear_profile_split_point(self):
        neg = rg.negative_part(linear_1mt_profile())
        assert neg.breakpoints == pytest.approx((0.0, 1.0, 2.0), abs=1e-12)
        assert neg.evaluate(0.5) == 0.0
        assert neg.evaluate(1.5) == pytest.approx(-0.5, abs=1e-12)
        pos = rg.positive_part(linear_1mt_profile())
        assert pos.evaluate(0.5) == pytest.approx(0.5, abs=1e-12)
        assert pos.evaluate(1.5) == 0.0

    @pytest.mark.parametrize("factory", [
        linear_1mt_profile,
        lambda: rg.power_tail_profile(-6.0, 4.0),
        lambda: rg.constant_profile(2.0),
    ])
    def test_dense_pointwise_oracle(self, factory):
        # 10^4 sample points against the min/max clip of direct evaluation
        prof = factory()
        ts = np.linspace(0.0, 10.0, 10_000)
        vals = prof.evaluate_array(ts)
        neg = rg.negative_part(prof).evaluate_array(ts)
        pos = rg.positive_part(prof).evaluate_array(ts)
        np.testing.assert_allclose(neg, np.minimum(vals, 0.0), atol=1e-12)
        np.testing.assert_allclose(pos, np.maximum(vals, 0.0), atol=1e-12)
        assert (neg <= 0).all()
        assert (pos >= 0).all()

    def test_beta_profile_parts(self, beta_ln2_profile):
        ts = np.linspace(0.0, 4200.0, 10_000)
        vals = beta_ln2_profile.evaluate_array(ts)
        neg = rg.negative_part(beta_ln2_profile).evaluate_array(ts)
        pos = rg.positive_part(beta_ln2_profile).evaluate_array(ts)
        np.testing.assert_allclose(neg + pos, vals, atol=1e-12)
        np.testing.assert_allclose(neg, np.minimum(vals, 0.0), atol=1e-12)

    def test_idempotence(self, beta_ln2_profile):
        neg = rg.negative_part(beta_ln2_profile)
        neg2 = rg.negative_part(neg)
        ts = np.linspace(0.0, 4200.0, 2001)
        np.testing.assert_allclose(neg2.evaluate_array(ts),
                                   neg.evaluate_array(ts), atol=1e-13)

    def test_resplitting_does_not_proliferate_segments(self, beta_ln2_profile):
        # zero pieces created by one split must survive another split
        # as single pieces, not one per scan sample
        neg = rg.negative_part(beta_ln2_profile)
        assert len(rg.negative_part(neg).segments) == len(neg.segments)
        assert len(rg.positive_part(neg).segments) == len(neg.segments)

    @given(t=st.floats(min_value=0.0, max_value=100.0,
                       allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_parts_sum_identity(self, t):
        prof = linear_1mt_profile()
        total = (rg.negative_part(prof).evaluate(t)
                 + rg.positive_part(prof).evaluate(t))
        assert total == pytest.approx(prof.evaluate(t), abs=1e-12)


@st.composite
def roots_and_touches(draw):
    """A polynomial segment c * prod (t - r)^m with crossings (m = 1) and
    tangential touches (m = 2), its roots packed into narrow clusters."""
    base = draw(st.floats(min_value=0.5, max_value=100.0))
    roots, mults = [], []
    r = base
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        roots.append(r)
        mults.append(draw(st.sampled_from((1, 2))))
        r += base * draw(st.floats(min_value=1e-5, max_value=0.5))
    c = draw(st.sampled_from((-1.0, 1.0))) * draw(
        st.floats(min_value=1e-3, max_value=1e3))
    coeffs = c * np.polynomial.polynomial.polyfromroots(
        [x for x, m in zip(roots, mults) for _ in range(m)])
    t_end = roots[-1] + draw(st.floats(min_value=1e-3, max_value=50.0))
    seg = Segment(0.0, t_end, tuple(coeffs))
    return seg, roots


class TestExactSignSplit:
    def test_narrow_dip_inside_one_scan_cell(self):
        # K = 40 (t - 50)(t - 50.5): both roots fall between two points of
        # a 129-point grid over [0, 128]
        seg = Segment(0.0, 128.0, (40.0 * 50.0 * 50.5, -40.0 * 100.5, 40.0))
        prof = rg.CurvatureProfile((seg,), rg.ZeroTail())
        neg = rg.negative_part(prof)
        assert [(s.t_start, s.t_end) for s in neg.segments if not s.is_zero] \
            == [pytest.approx((50.0, 50.5), abs=1e-12)]
        assert neg.evaluate(50.25) == pytest.approx(-2.5, rel=1e-12)
        assert rg.positive_part(prof).evaluate(50.25) == 0.0

    def test_touch_at_midpoint_kept(self):
        # K = (t - 1)^2 on [0, 2] touches zero exactly at the midpoint
        prof = rg.CurvatureProfile((Segment(0.0, 2.0, (1.0, -2.0, 1.0)),),
                                   rg.ZeroTail())
        assert rg.positive_part(prof).evaluate(0.5) == 0.25
        assert rg.negative_part(prof).evaluate(0.5) == 0.0

    @given(case=roots_and_touches())
    @settings(max_examples=300, deadline=None)
    def test_parts_next_to_roots(self, case):
        seg, roots = case
        prof = rg.CurvatureProfile((seg,), rg.ZeroTail())
        pos, neg = rg.positive_part(prof), rg.negative_part(prof)
        gaps = [b - a for a, b in zip(roots, roots[1:])] or [roots[0]]
        for r in roots:
            for d in (0.0, 1e-9 * r, 1e-6 * r, *(g / k for g in gaps
                                                 for k in (3.0, 4.0))):
                for t in (r - d, r + d):
                    if not 0.0 <= t < seg.t_end:
                        continue
                    k = prof.evaluate(t)
                    p, q = pos.evaluate(t), neg.evaluate(t)
                    assert p + q == k
                    # K keeps one sign on each piece up to its rounding
                    noise = 1e-13 * sum(abs(c) * t ** i
                                        for i, c in enumerate(seg.num))
                    assert p >= -noise and q <= noise, (t, k, p, q)


class TestMomentClass:
    """Convergence of the first moment of min(K, 0), decided from the
    tail of the negative part."""

    @staticmethod
    def moment_finite(prof):
        return tail_moment_finite(rg.negative_part(prof).tail)

    def test_constant_negative_diverges(self):
        assert not self.moment_finite(rg.constant_profile(-1.0))

    def test_cubic_decay_converges(self):
        assert self.moment_finite(rg.power_tail_profile(-1.0, 3.0))

    def test_quadratic_decay_diverges(self):
        assert not self.moment_finite(rg.power_tail_profile(-1.0, 2.0))

    def test_positive_tails_converge(self):
        assert self.moment_finite(rg.constant_profile(2.0))
        assert self.moment_finite(rg.power_tail_profile(5.0, 1.0))

    def test_zero_profile_converges(self):
        assert self.moment_finite(rg.zero_profile())


class TestContinuity:
    def test_gallery_profiles_are_continuous(self):
        for entry in rg.list_gallery():
            assert entry.profile.is_continuous(), entry.name

    def test_discontinuous_junction_detected(self):
        prof = linear_1mt_profile()  # jumps from -1 to 0 at t = 2
        defects = prof.continuity_defects()
        assert len(defects) == 1
        t, left, right = defects[0]
        assert t == 2.0
        assert left == pytest.approx(-1.0)
        assert right == 0.0

    def test_split_profiles_stay_continuous(self, beta_ln2_profile):
        assert rg.negative_part(beta_ln2_profile).is_continuous()
        assert rg.positive_part(beta_ln2_profile).is_continuous()


class TestJsonSchema:
    def test_roundtrip_polynomial(self):
        prof = linear_1mt_profile()
        back = rg.profile_from_dict(rg.profile_to_dict(prof))
        ts = np.linspace(0.0, 5.0, 101)
        np.testing.assert_array_equal(back.evaluate_array(ts),
                                      prof.evaluate_array(ts))

    def test_roundtrip_rational_and_tails(self, beta_ln2_profile):
        back = rg.profile_from_dict(rg.profile_to_dict(beta_ln2_profile))
        ts = np.linspace(0.0, 5000.0, 101)
        np.testing.assert_array_equal(back.evaluate_array(ts),
                                      beta_ln2_profile.evaluate_array(ts))
        const = rg.profile_from_dict(rg.profile_to_dict(rg.constant_profile(-2.0)))
        assert const.evaluate(1.0) == -2.0

    def test_malformed_inputs(self):
        with pytest.raises(ProfileError):
            rg.profile_from_dict({"segments": [[0.0, 1.0]], "tail": {"kind": "zero"}})
        with pytest.raises(ProfileError):
            rg.profile_from_dict({"segments": [], "tail": {"kind": "nope"}})
        with pytest.raises(ProfileError):
            rg.profile_from_dict({"segments": [], "tail": {"kind": "power", "a": 1.0}})
        with pytest.raises(ProfileError):
            rg.profile_from_dict([1, 2, 3])
