import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import radialgeo as rg
from radialgeo import curvature_profile
from radialgeo.curvature_profile import Segment, _sign_pieces, tail_moment_finite
from radialgeo.errors import ProfileError
from radialgeo.gallery import entry_by_name


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


def _horner(coeffs, t):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _reference(seg, t):
    """num(t)/den(t) by the plain Horner loop, the denominator skipped for
    a polynomial."""
    v = _horner(seg.num, t)
    if not seg.is_polynomial:
        v /= _horner(seg.den, t)
    return v


class TestScalarEvaluator:
    @given(case=segments_and_times())
    @settings(max_examples=500, deadline=None)
    def test_bits_equal_evaluate(self, case):
        # float.hex tells -0.0 from 0.0, which == does not
        seg, t = case
        assert seg.evaluate(t).hex() == _reference(seg, t).hex()

    def test_signed_zero_leading_coefficient(self):
        # 0.0 * t + (-0.0) is +0.0, not the coefficient itself
        for num in ((-0.0,), (-0.0, -0.0), (1.0, -0.0), (1.0, 2.0, -0.0),
                    (0.0, 0.0, 0.0, -0.0)):
            seg = Segment(0.0, 1.0, num)
            for t in (0.0, 0.5, 1.0):
                assert seg.evaluate(t).hex() == _reference(seg, t).hex()

    def test_built_once(self):
        seg = Segment(0.0, 1.0, (1.0, 2.0), (1.0, 1.0))
        assert seg.evaluate is seg.evaluate

    def test_solved_profile_pickles(self):
        profile = rg.CurvatureProfile((Segment(0.0, 1.0, (1.0, 2.0)),), rg.ZeroTail())
        rg.solve(profile, 2.0, 1e-8)
        copy = pickle.loads(pickle.dumps(profile))
        assert copy == profile
        assert copy.segments[0].evaluate(0.5) == 2.0


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


    # a zero polynomial has no roots, so no root of it lands on the segment
    @pytest.mark.parametrize("den", [(0.0,), (0.0, -0.0), (-0.0, 0.0, 0.0)])
    def test_zero_denominator_rejected(self, den, tmp_path, capsys):
        message = f"segment denominator {den} is identically zero"
        with pytest.raises(ProfileError, match=re.escape(message)):
            Segment(0.0, 1.0, (1.0,), den)
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"n": 2, "profile": {"segments": [
            {"t_start": 0.0, "t_end": 1.0, "num": [1.0], "den": list(den)}]}}))
        assert rg.cli_main(["analyze", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err


class TestRootPolish:
    # numpy's polyroots returns [-1/e, 0] for (1, 1, e): one call on the
    # whole polynomial loses the root near -1
    @pytest.mark.parametrize("e", [1e-17, 2.4e-109, 1e-20])
    def test_spread_denominator_accepted(self, e):
        seg = Segment(0.0, 1.0, (1.0,), (1.0, 1.0, e))
        for t in (0.0, 0.5, 1.0):
            assert seg.evaluate(t) == pytest.approx(1.0 / (1.0 + t), rel=1e-15)

    def test_spread_denominator_root_refused(self, tmp_path, capsys):
        # -0.5 + t + 1e-17 t^2 comes back as [-1e17, 0] too, but its root
        # at 0.5 is genuine
        den = (-0.5, 1.0, 1e-17)
        with pytest.raises(ProfileError, match="vanishes at t = 0.5"):
            Segment(0.0, 1.0, (1.0,), den)
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"n": 2, "profile": {"segments": [
            {"t_start": 0.0, "t_end": 1.0, "num": [1.0], "den": list(den)}]}}))
        assert rg.cli_main(["analyze", "--config", str(cfg)]) == 2
        assert "vanishes at t = 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("den", [(1.0, -2.0, 1.0), (-1.0, 3.0, -3.0, 1.0)])
    def test_multiple_root_refused(self, den):
        # (t - 1)^2 and (t - 1)^3; the triple root is found to about 2e-6
        with pytest.raises(ProfileError, match=r"vanishes at t = (1|0\.99999)"):
            Segment(0.0, 2.0, (1.0,), den)

    def test_spread_double_root_refused(self):
        # (t - 1/2)^2 (1 + 1e-12 t): one polyroots call loses the double
        # root and the segment was accepted, with K = 3.6e16 at t = 1/2
        den = tuple(np.polynomial.polynomial.polymul(
            (0.25, -1.0, 1.0), (1.0, 1e-12)).tolist())
        with pytest.raises(ProfileError, match="vanishes at t = 0.5"):
            Segment(0.0, 1.0, (1.0,), den)

    def test_spread_critical_point_found(self):
        # K' = 100 - 100 t - 1e-15 t^2 comes back as [-1e17, 0]; the
        # maximum 50 sits at t = 1
        seg = Segment(0.0, 2.0, (0.0, 100.0, -50.0, -1e-15 / 3))
        assert seg.max_on(0.0, 2.0) == pytest.approx(50.0, rel=1e-15)

    # K' of each loses its small roots in one polyroots call; the last
    # one's companion matrix leaves float range
    @pytest.mark.parametrize("num, den, t_end, expected", [
        # t^2/(1 + t^3), largest at t = 2^(1/3)
        ((0.0, 0.0, 1.0, 0.0, 5.4264396209745885e-185), (1.0, 0.0, 0.0, 1.0),
         2.0, 2.0 ** (2.0 / 3.0) / 3.0),
        # t^2 - t^3, largest at t = 2/3
        ((0.0, 4.782901010898796e-164, 1.0, -1.0, -1e-17), (1.0,), 9.0, 4.0 / 27.0),
        # a t^2 - 6 t^3 with a = 2^-8, largest at t = a/9
        ((0.0, 1.1905151101379114e-235, 0.00390625, -6.0, -1e-12), (1.0,), 1.0,
         (0.00390625 / 9.0) ** 2 * 0.00390625 / 3.0),
        # t^5/(1 + t^5) is increasing
        ((0.0, 0.0, 0.0, 0.0, 2.2250738585e-313, 1.0),
         (1.0, 0.0, 0.0, 0.0, 0.0, 1.0), 1.0, 0.5),
    ])
    def test_spread_maximum_found(self, num, den, t_end, expected):
        seg = Segment(0.0, t_end, num, den)
        assert seg.max_on(0.0, t_end) == pytest.approx(expected, rel=1e-12)

    def test_newton_polygon_slices(self):
        roots = sorted(r.real for r in curvature_profile._roots((1.0, 1.0, 1e-17)))
        assert roots == pytest.approx([-1e17, -1.0], rel=1e-15)

    def test_slice_root_polished(self):
        # the slice (1, 1) gives -1; the root of 1 + t + 1e-9 t^2 near it
        # is -1 - 1e-9 - 2e-18 - ...
        roots = Segment._real_roots((1.0, 1.0, 1e-9))
        assert min(roots, key=abs) == pytest.approx(-1.000000001000000002, rel=1e-15)

    def test_accurate_roots_keep_their_bits(self):
        assert Segment._real_roots((-2.0, 0.0, 1.0)) == tuple(
            float(r) for r in curvature_profile.npoly.polyroots((-2.0, 0.0, 1.0)))


@st.composite
def spread_segments_and_times(draw):
    """A polynomial segment whose leading coefficient is 1e-12 to 1e-20
    times its others, and a time in it."""
    num = draw(st.lists(st.floats(min_value=-10.0, max_value=10.0),
                        min_size=2, max_size=4))
    lead = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(
        st.integers(min_value=12, max_value=20))
    t_start = draw(st.floats(min_value=0.0, max_value=50.0))
    t_end = t_start + draw(st.floats(min_value=1e-3, max_value=50.0))
    t = draw(st.floats(min_value=t_start, max_value=t_end))
    return Segment(t_start, t_end, (*num, lead)), t


class TestMaxOn:
    """``max_on`` caps the solver's step where K > 0, so it must reach the
    true maximum: it is checked against a dense grid, up to rounding."""

    @given(case=st.one_of(segments_and_times(), spread_segments_and_times()))
    @settings(max_examples=500, deadline=None)
    def test_at_least_grid_max(self, case):
        seg, t = case
        for a, b in ((seg.t_start, seg.t_end), (seg.t_start, t), (t, seg.t_end)):
            if not a < b:
                continue
            grid = seg.evaluate(np.linspace(a, b, 4001))
            # a bound on |num(t)/den(t)|, for the rounding: den >= 0.5 on
            # t >= 0 (see segments_and_times)
            scale = 2.0 * _horner([abs(c) for c in seg.num], b)
            assert seg.max_on(a, b) >= float(grid.max()) - 1e-12 * scale


class TestSignPiecesCache:
    SEGMENTS = [
        Segment(0.0, 2.0, (1.0, -1.0)),
        Segment(0.0, 2.0, (1.0, -2.0, 1.0)),
        Segment(0.0, 128.0, (40.0 * 50.0 * 50.5, -40.0 * 100.5, 40.0)),
        Segment(1.0, 3.0, (0.0, -0.0)),
        Segment(0.0, 4.0, (-1.0, 0.5), (1.0, 0.0, 1.0)),
    ]

    @pytest.mark.parametrize("seg", SEGMENTS)
    def test_equals_fresh_split(self, seg):
        assert seg.sign_pieces == tuple(_sign_pieces(seg))
        assert seg.sign_pieces is seg.sign_pieces

    def test_found_once_per_evaluation(self, monkeypatch):
        # a fresh profile: the session's gallery profiles may hold the
        # split already
        profile = entry_by_name("sign_changing_beta_ln2").profile
        calls = []

        def counting(seg):
            calls.append(id(seg))
            return _sign_pieces(seg)

        monkeypatch.setattr(curvature_profile, "_sign_pieces", counting)
        report = rg.evaluate_theorem(profile, 3)
        assert report.m_prime_limit.is_finite
        assert sorted(calls) == sorted(id(s) for s in profile.segments)

    @pytest.mark.parametrize("seg", SEGMENTS)
    def test_cached_segment_pickles(self, seg):
        pieces = seg.sign_pieces
        copy = pickle.loads(pickle.dumps(seg))
        assert copy == seg
        assert copy.sign_pieces == pieces


class TestRealRootsCache:
    def test_negative_part_reuses_denominator_roots(self, monkeypatch):
        # a fresh beta profile: its segment checked the degree-8
        # denominator (1 + t^2)^4 when it was built
        profile = entry_by_name("sign_changing_beta_ln2").profile
        den = curvature_profile._trimmed(profile.segments[0].den)
        assert len(den) == 9
        real = curvature_profile.npoly.polyroots
        calls = []

        def counting(coeffs):
            calls.append(tuple(coeffs))
            return real(coeffs)

        monkeypatch.setattr(curvature_profile.npoly, "polyroots", counting)
        neg = curvature_profile.negative_part(profile)
        assert len(neg.segments) > len(profile.segments)
        assert all(s.den == profile.segments[0].den for s in neg.segments
                   if not s.is_zero)
        assert calls.count(den) == 0

    def test_roots_are_a_tuple(self):
        roots = Segment._real_roots((-1.0, 0.0, 1.0))
        assert isinstance(roots, tuple)
        assert sorted(roots) == pytest.approx([-1.0, 1.0])
        assert Segment._real_roots((-1.0, 0.0, 1.0)) is roots


class TestSignedParts:
    def test_constant_negative_is_fixed_point(self):
        prof = rg.constant_profile(-1.0)
        neg = rg.negative_part(prof)
        for t in (0.0, 1.0, 7.5):
            assert neg.evaluate(t) == prof.evaluate(t)
        assert rg.positive_part(prof).evaluate(3.0) == 0.0

    @pytest.mark.parametrize("segments, tail, nonpositive", [
        ((), rg.ZeroTail(), True),
        ((Segment(0.0, 1.0, (0.0,)), Segment(1.0, 2.0, (1.0, -1.0))),
         rg.PowerDecayTail(-1.0, 3.0), True),  # touches 0 at t = 1
        ((Segment(0.0, 2.0, (-1.0, 1.0)),), rg.ZeroTail(), False),
        ((), rg.ConstantTail(1.0), False),
        # a vanishing tail that is not a ZeroTail is swapped for one
        ((), rg.ConstantTail(0.0), False),
        ((), rg.PowerDecayTail(0.0, 2.0), False),
    ])
    def test_nonpositive_is_own_negative_part(self, segments, tail, nonpositive):
        prof = rg.CurvatureProfile(segments, tail)
        neg = rg.negative_part(prof)
        assert prof.is_nonpositive is nonpositive
        assert (neg is prof) is nonpositive
        assert (neg == prof) is nonpositive
        assert neg.is_nonpositive

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
