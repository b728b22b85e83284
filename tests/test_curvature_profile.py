import json
import math
import pickle
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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


def _stage_values(piece, xs):
    """K at five times from one call of the piece's five-point evaluator."""
    return piece._stages(*xs)


def _hexes(values):
    return [v.hex() for v in values]


# spread magnitudes, and both zeros, for degree 0 to 8
_SPREAD_COEFF = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(min_value=-2.0, max_value=2.0),
              st.integers(min_value=-12, max_value=4)))


class TestStageEvaluator:
    """A piece's five-point evaluator gives the bits of five ``evaluate``
    calls at times t >= 0.  The stepper reads it on rational segments and
    power tails only; a polynomial segment's evaluator runs the same chains
    over its unit denominator, whose division is exact."""

    @given(case=segments_and_times(), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_segment_bits_equal_evaluate(self, case, data):
        seg, t = case
        others = data.draw(st.lists(st.floats(min_value=seg.t_start, max_value=seg.t_end),
                                    min_size=4, max_size=4))
        xs = data.draw(st.permutations([t, *others]))
        assert _hexes(_stage_values(seg, xs)) == _hexes(map(seg.evaluate, xs))

    @given(num=st.lists(_SPREAD_COEFF, min_size=1, max_size=9),
           den=st.one_of(st.just([1.0]), st.lists(_DEN_HIGHER, max_size=8).map(
               lambda rest: [1.0, *rest])),
           xs=st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0)),
                       min_size=5, max_size=5))
    @settings(max_examples=400, deadline=None)
    def test_spread_coefficients_degree_0_to_8(self, num, den, xs):
        # den = [1.0] is a polynomial: the unit denominator's chain gives
        # 1.0 and the division leaves the numerator's bits
        seg = Segment(0.0, 20.0, num, den)
        assert _hexes(_stage_values(seg, xs)) == _hexes(map(seg.evaluate, xs))

    def test_signed_zeros_and_t_zero(self):
        # 0.0 * t + (-0.0) is +0.0: every chain starts from 0.0, not from
        # the leading coefficient
        times = [0.0, 0.0, 0.5, 1.0, 5e-324]
        for num in ((-0.0,), (0.0,), (-0.0, -0.0), (1.0, -0.0), (-0.0, 1.0),
                    (1.0, 2.0, -0.0), (0.0, 0.0, 0.0, -0.0), (-1.0,), (-0.0, -0.0, -0.0)):
            for den in ((1.0,), (2.0,), (1.0, -0.0), (1.0, 0.5, -0.0)):
                seg = Segment(0.0, 1.0, num, den)
                assert _hexes(_stage_values(seg, times)) == _hexes(map(seg.evaluate, times)), (num, den)

    def test_constant_pieces_marked(self):
        # the solver takes these pieces in closed form and never reads
        # their stage values: zero and constant tails have no evaluator,
        # and each marked piece gives one value at every t >= 0
        xs = [0.0, 2.0, 2.5, 3.0, 7.0]
        for piece in (Segment(0.0, 1.0, (0.0,)), Segment(2.0, 3.0, (-1.5,), (3.0,)),
                      Segment(0.0, 1.0, (-1.0, 0.0, -0.0), (2.0, 0.0)),
                      Segment(0.0, 1.0, (0.0, -0.0)), rg.PowerDecayTail(0.0, 2.0),
                      rg.ZeroTail(), rg.ConstantTail(-2.0), rg.ConstantTail(0.25),
                      rg.ConstantTail(-0.0)):
            assert piece._constant, piece
            assert len(set(_hexes(map(piece.evaluate, xs)))) == 1, piece
        for tail in (rg.ZeroTail(), rg.ConstantTail(1.0)):
            assert not hasattr(tail, "_stages")
        for piece in (Segment(0.0, 1.0, (1.0,), (1.0, 1e-300)), rg.PowerDecayTail(1.0, 2.0)):
            assert not piece._constant, piece
            assert callable(piece._stages)
        # a non-constant polynomial is not constant either, and the solver
        # takes it by Taylor transfer matrices (test_stepper_sees_no_polynomial)
        assert not Segment(0.0, 1.0, (0.0, 1.0))._constant

    @given(num=st.lists(_SPREAD_COEFF, min_size=2, max_size=9).filter(lambda c: any(c[1:])),
           tol=st.sampled_from([1e-3, 1e-8, 1e-14]))
    @settings(max_examples=50, deadline=None)
    def test_stepper_sees_no_polynomial(self, num, tol):
        # solve and solve_m never read a polynomial segment's stage values
        # or its critical points, on the segment or on the negative part's
        # pieces cut from it
        try:
            seg = Segment(0.0, 2.0, num)
        except ProfileError:
            assume(False)
        profile = rg.CurvatureProfile((seg, Segment(2.0, 3.0, (1.0,), (1.0, 1.0))),
                                      rg.ConstantTail(-1.0))
        stages, critical = Segment._stages, Segment.__dict__["_critical_points"].func

        def rational_only(method):
            def read(self):
                assert not self.is_polynomial, self
                return method(self)
            return read
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Segment, "_stages", property(rational_only(stages.fget)))
            patch.setattr(Segment, "_critical_points", property(rational_only(critical)))
            for solver in (rg.solve, rg.solve_m):
                solver(profile, 4.0, tol)

    @given(a=st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=10.0)),
           p=st.one_of(st.sampled_from([2.0, 2.2, 4.0]),
                       st.floats(min_value=0.1, max_value=8.0)),
           xs=st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
                       min_size=5, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_power_tail_bits_equal_evaluate(self, a, p, xs):
        tail = rg.PowerDecayTail(a, p)
        assert _hexes(_stage_values(tail, xs)) == _hexes(map(tail.evaluate, xs))

    def test_cut_pieces_share_evaluate(self):
        # the negative part's pieces cut from a segment share its
        # evaluate and critical points; a segment kept whole is reused
        profile = entry_by_name("sign_changing_beta_ln2").profile
        seg = profile.segments[0]
        neg = rg.negative_part(profile)
        zero, kept = neg.segments
        assert zero.is_zero and kept.num == seg.num and kept.den == seg.den
        assert kept.evaluate is seg.evaluate
        assert kept._critical_points is seg._critical_points
        whole = rg.CurvatureProfile((Segment(0.0, 1.0, (-1.0, 0.5)),
                                     Segment(1.0, 2.0, (1.0,))), rg.ZeroTail())
        assert rg.negative_part(whole).segments[0] is whole.segments[0]

    def test_signed_parts_validate_and_isolate_nothing(self, monkeypatch):
        # a cut piece and a zero piece are built without Segment's checks,
        # which the enclosing segment passed, and hold their one sign piece,
        # so neither signed part, nor solve_m on it, bounds a polynomial or
        # isolates a root once the profile's own sign split is known
        profile = rg.CurvatureProfile(
            (Segment(0.0, 2.0, (0.5, -1.0)), Segment(2.0, 6.0, (8.0, -6.0, 1.0)),
             Segment(6.0, 9.0, (1.0, -0.3), (1.0, 0.5))), rg.ZeroTail())
        split = list(profile.sign_pieces())
        for seg in profile.segments:
            seg._critical_points  # noqa: B018  (cached, as a solve leaves it)

        def refuse(*args):
            raise AssertionError("validated or isolated again")
        monkeypatch.setattr(curvature_profile, "_bernstein", refuse)
        monkeypatch.setattr(curvature_profile, "_sign_pieces", refuse)
        for part, keep_positive in ((rg.negative_part, False), (rg.positive_part, True)):
            pieces = part(profile).segments
            assert [(p.t_start, p.t_end) for p in pieces] == [(lo, hi) for _, lo, hi, _ in split]
            for piece, (seg, lo, hi, positive) in zip(pieces, split):
                kept = positive == keep_positive
                assert piece.num == (seg.num if kept else (0.0,))
                assert piece.sign_pieces == ((lo, hi, positive if kept else False),)
        rg.solve_m(profile, 10.0, 1e-8)


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

    # a subnormal leading coefficient is an ordinary polynomial on the
    # segment (the suite turns any RuntimeWarning into an error, so none may
    # be emitted on the way)
    @pytest.mark.parametrize("num, den", [
        ((1.0,), (1.0, 0.0, 5e-324)),
        ((1.0, 0.0, 5e-324), (1.0,)),
        ((1.0, 5e-324), (1.0,)),
    ])
    def test_subnormal_leading_coefficient_accepted(self, num, den):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seg = Segment(0.0, 1.0, num, den)
            for t in (0.0, 0.5, 1.0):
                assert seg.evaluate(t) == 1.0
            assert seg.sign_pieces == ((0.0, 1.0, True),)
            assert seg.max_on(0.0, 1.0) == 1.0

    # a polynomial whose values leave float range on its segment is refused,
    # the numerator's as well as the denominator's
    @pytest.mark.parametrize("num, den", [
        ((1.0, 1e300), (1.0,)),
        ((1.0,), (1.0, 1e300)),
        ((1.0, 0.0, 0.0, -1e300), (1.0,)),
    ])
    def test_coefficients_past_float_range_rejected(self, num, den, tmp_path, capsys):
        coeffs = str(den if len(den) > 1 else num)
        message = f"polynomial coefficients {coeffs} leave float range on [0.0, 1e+20]"
        with pytest.raises(ProfileError, match=re.escape(message)):
            Segment(0.0, 1e20, num, den)
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"n": 2, "profile": {"segments": [
            {"t_start": 0.0, "t_end": 1e20, "num": list(num), "den": list(den)}]}}))
        assert rg.cli_main(["analyze", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    # an identically zero denominator is named as such, not as a vanishing
    # at one point
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
    # (1, 1, e) has one root near -1 and one near -1/e: coefficients
    # spread over up to 109 decades, positive on the whole segment
    @pytest.mark.parametrize("e", [1e-17, 2.4e-109, 1e-20])
    def test_spread_denominator_accepted(self, e):
        seg = Segment(0.0, 1.0, (1.0,), (1.0, 1.0, e))
        for t in (0.0, 0.5, 1.0):
            assert seg.evaluate(t) == pytest.approx(1.0 / (1.0 + t), rel=1e-15)

    def test_spread_denominator_root_refused(self, tmp_path, capsys):
        # -0.5 + t + 1e-17 t^2 spreads its roots too, and its root at 0.5
        # is genuine
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
        # (t - 1)^2 and (t - 1)^3; the triple root's value is at rounding
        # level for about 3e-5 around 1
        with pytest.raises(ProfileError, match=r"vanishes at t = (1|0\.99999)"):
            Segment(0.0, 2.0, (1.0,), den)

    def test_spread_double_root_refused(self):
        # (t - 1/2)^2 (1 + 1e-12 t): a double root whose value around 1/2
        # is at rounding level, next to a far root at -1e12
        den = tuple(np.polynomial.polynomial.polymul(
            (0.25, -1.0, 1.0), (1.0, 1e-12)).tolist())
        with pytest.raises(ProfileError, match="vanishes at t = 0.5"):
            Segment(0.0, 1.0, (1.0,), den)

    def test_spread_critical_point_found(self):
        # K' = 100 - 100 t - 1e-15 t^2 has roots near 1 and -1e17; the
        # maximum 50 sits at t = 1
        seg = Segment(0.0, 2.0, (0.0, 100.0, -50.0, -1e-15 / 3))
        assert seg.max_on(0.0, 2.0) == pytest.approx(50.0, rel=1e-15)

    # K' of each spreads its coefficients over hundreds of decades, down
    # to subnormal ones
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


def _exact_poly(coeffs):
    """The float coefficients as exact rationals, without trailing zeros."""
    c = [Fraction(x) for x in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _exact_value(c, t):
    acc = Fraction(0)
    for x in reversed(c):
        acc = acc * t + x
    return acc


def _divmod(u, v):
    """Quotient and remainder of the polynomials u / v over the rationals."""
    u, q = list(u), [Fraction(0)] * max(len(u) - len(v) + 1, 1)
    while len(u) >= len(v) and any(u):
        k = len(u) - len(v)
        q[k] = u[-1] / v[-1]
        u = [x - q[k] * v[i - k] if i >= k else x for i, x in enumerate(u)][:-1]
    while len(u) > 1 and u[-1] == 0:
        u.pop()
    return q, u or [Fraction(0)]


def _sturm(c):
    """The Sturm sequence p, p', -rem(p, p'), ... over the rationals of the
    square-free part p of c, whose roots are those of c."""
    def sequence(p):
        seq = [p, [i * x for i, x in enumerate(p)][1:] or [Fraction(0)]]
        while any(seq[-1]):
            r = _divmod(seq[-2], seq[-1])[1]
            if not any(r):
                break
            seq.append([-x for x in r])
        return seq
    seq = sequence(c)
    if len(seq[-1]) > 1:  # c / gcd(c, c') is square-free
        seq = sequence(_divmod(c, seq[-1])[0])
    return seq


def _distinct_roots(seq, lo, hi):
    """Distinct real roots in the closed [lo, hi] (Sturm's theorem counts
    those in (lo, hi])."""
    def variations(t):
        signs = [v > 0 for v in (_exact_value(p, t) for p in seq) if v != 0]
        return sum(x != y for x, y in zip(signs, signs[1:]))
    lo, hi = Fraction(lo), Fraction(hi)
    return variations(lo) - variations(hi) + (_exact_value(seq[0], lo) == 0)


def _rounding_bound(coeffs, hi):
    """A bound on |p| over a cell [lo, hi] that ``_root_intervals`` leaves
    undecided without halving it.  With A = |c| + (d + 1) 2^-1022, the
    error bounds of ``_bernstein`` there are at most (d + 1) 2^-50 A(hi),
    plus the underflow term (d + 2) 2^(d-1073) (1 + A(hi + 1)), where
    A(hi + 1) sums A's Taylor coefficients at hi.  A cell at rounding level
    keeps |p| within a few such bounds, and a narrow one (2^-52 of its end,
    or two subnormal steps) adds the slope across it."""
    d = len(coeffs) - 1
    u = (d + 1) * Fraction(2) ** -1022
    size = [abs(Fraction(x)) + u for x in coeffs]
    slope = [k * x for k, x in enumerate(size)][1:] or [Fraction(0)]
    hi = Fraction(hi)
    return (8 * (d + 1) * Fraction(2) ** -50 * _exact_value(size, hi)
            + 4 * (d + 2) * Fraction(2) ** (d - 1073) * (1 + _exact_value(size, hi + 1))
            + Fraction(2) ** -1073 * _exact_value(slope, hi))


@st.composite
def polynomials_on_intervals(draw):
    """A nonzero polynomial of degree <= 8 and an interval [a, b] with a
    in [0, 99] and b up to 100 or up to 1e20: random coefficients, products
    of roots of multiplicity 1 to 3 (in [0, 100], in [a, b] or at its ends,
    scaled down to subnormal size), or coefficients spread by a leading one
    1e-12 to 1e-20 times the others."""
    a = draw(st.floats(min_value=0.0, max_value=99.0))
    if draw(st.booleans()):
        a = 0.0
    b = draw(st.one_of(st.floats(min_value=a, max_value=100.0),
                       st.floats(min_value=a, max_value=1e20)).filter(lambda x: x > a))
    kind = draw(st.sampled_from(("random", "roots", "spread")))
    if kind == "roots":
        roots = []
        while len(roots) < 6:
            r = draw(st.one_of(st.floats(min_value=0.0, max_value=100.0),
                               st.floats(min_value=a, max_value=b),
                               st.sampled_from((a, b))))
            roots += [r] * draw(st.integers(min_value=1, max_value=3))
            if draw(st.booleans()):
                break
        scale = draw(st.sampled_from((-1.0, 1.0))) * draw(st.one_of(
            st.floats(min_value=1e-3, max_value=1e3),
            st.sampled_from((1e-150, 1e-300, 1e-310, 1e-320))))
        coeffs = scale * np.polynomial.polynomial.polyfromroots(roots)
    else:
        coeffs = draw(st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=10.0)),
            min_size=1, max_size=9 - (kind == "spread")))
        if kind == "spread":
            coeffs.append(draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(
                st.integers(min_value=12, max_value=20)))
    coeffs = tuple(float(x) for x in coeffs)
    assume(any(coeffs))
    return coeffs, a, b


class TestRootIntervals:
    """``_root_intervals`` against an exact Sturm count over the rationals
    of the float coefficients."""

    @given(case=polynomials_on_intervals())
    # a subnormal interval: 2^-52 b underflows below the float spacing there
    @example(case=((-1.3030363133252084e-308, 585.6148587353217), 0.0,
                   2.225073858507e-311))
    # subnormal coefficients, whose rounding is absolute, not relative
    @example(case=((1e-320, -4e-320, 6e-320, -4e-320, 1e-320), 0.0, 1.0))
    @example(case=((-1e-323, 4.64e-322, -8.25e-321, 5.707e-320, -1.0562e-319,
                    1e-320), 0.0, 0.375))
    # roots at 1 and 3 far below the end of a long interval: halving must
    # go on down to them, not stop at a width set by the end
    @example(case=((-3.0, 4.0, -1.0), 0.0, 1e20))
    @example(case=((0.0, -3.0, 4.0, -1.0), 0.0, 1e20))
    @example(case=((-3.0, 4.0, -1.0), 0.5, 1e20))
    # a root at 1e-110 on an interval so short that w^3 underflows to zero:
    # the lost t^3 term must leave the sign undecided
    @example(case=((-1e-320, 0.0, 0.0, 1e10), 0.0, 2e-110))
    # a cell so small that w^3 / C(6, 3) underflows to zero
    @example(case=((-0.0, -0.0, -0.0, 216.0, -216.0, 72.0, -8.0),
                   4.3274400632703003e-159, 1.0))
    # a band where the polynomial is at underflow level far from its root
    # at 0: every coefficient there must be, or halving runs to the floor
    @example(case=((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, -1e-12),
                   6.442263153241927e-195, 1.0))
    # a root at 0 split off: the leaves past it are certified on the rest
    # of the polynomial, whose Bernstein coefficients differ from the whole's
    @example(case=((-0.0, 3.75e-320, -1e-320), 0.0, 11.0))
    @example(case=((-0.0, -0.0, 2.49997e-319, -3.49996e-319, 1.1e-319, -1e-320),
                   0.0, 3.0))
    @settings(max_examples=300, deadline=None)
    def test_against_sturm(self, case):
        coeffs, a, b = case
        intervals = curvature_profile._root_intervals(coeffs, a, b)
        exact = _exact_poly(coeffs)
        seq = _sturm(exact)
        ends = [a, *(t for iv in intervals for t in iv), b]
        assert ends == sorted(ends)
        # every root lies in an interval: the open gaps between them hold none
        gaps = list(zip(ends[::2], ends[1::2]))
        for k, (g0, g1) in enumerate(gaps):
            if g0 < g1:
                # a gap is open at the ends it shares with an interval
                inside = _distinct_roots(seq, g0, g1)
                if k > 0:
                    inside -= _exact_value(exact, Fraction(g0)) == 0
                if k < len(gaps) - 1:
                    inside -= _exact_value(exact, Fraction(g1)) == 0
                assert inside == 0, (g0, g1)
                # and the float value between them has the exact sign, or is
                # zero where t times the rest underflows past a root at 0
                t = 0.5 * (g0 + g1)
                if g0 < t < g1:
                    v, w = curvature_profile._polynomial(coeffs)(t), _exact_value(
                        exact, Fraction(t))
                    assert w != 0 and (v == 0 or (v > 0) == (w > 0)), (t, v, w)
                    assert v != 0 or exact[0] == 0
        # past a root at 0 split off, the isolator certifies the rest
        # c_k + c_(k+1) t + ... of the polynomial, whose roots are the
        # whole's where t > 0
        zeros = next((i for i, c in enumerate(coeffs) if c), 0) if a == 0.0 else 0
        for lo, hi in intervals:
            bern, err = curvature_profile._bernstein(
                coeffs[zeros:] if lo > 0.0 else coeffs, lo, hi)
            signs = [x > 0 for x in bern]
            if (all(abs(x) > e for x, e in zip(bern, err))
                    and sum(x != y for x, y in zip(signs, signs[1:])) == 1):
                assert _distinct_roots(seq, lo, hi) == 1, (lo, hi)
                continue
            # any other interval is made of cells where the polynomial is
            # at rounding level or too narrow to halve, so its exact values
            # stay within a few rounding bounds: distinct roots far apart
            # cannot share it
            bound = _rounding_bound(coeffs, hi)
            for k in range(33):
                t = Fraction(lo) + (Fraction(hi) - Fraction(lo)) * k / 32
                assert abs(_exact_value(exact, t)) <= bound, (lo, hi, t)

    @pytest.mark.parametrize("coeffs, a, b, expected", [
        # an exact root at 0 is split off, and the simple leaf after it
        # starts past 0
        ((0.0, -0.3, 1.0), 0.0, 1.0, ((0.0, 0.0), (0.25, 0.5))),
        ((0.0, 0.0, -0.3, 1.0), 0.0, 1.0, ((0.0, 0.0), (0.25, 0.5))),
        # simple leaves that touch stay apart
        ((-3.0, 4.0, -1.0), 0.0, 4.0, ((0.0, 2.0), (2.0, 4.0))),
    ])
    def test_leaves(self, coeffs, a, b, expected):
        assert curvature_profile._root_intervals(coeffs, a, b) == expected

    @staticmethod
    def count_conversions(monkeypatch):
        calls = []
        real = curvature_profile._bernstein

        def counting(coeffs, a, b):
            calls.append((a, b))
            return real(coeffs, a, b)
        monkeypatch.setattr(curvature_profile, "_bernstein", counting)
        return calls

    @pytest.mark.parametrize("coeffs", [(1.0, -2.0, 1.0), (-1.0, 3.0, -3.0, 1.0)])
    def test_rounding_level_leaves_merge(self, coeffs, monkeypatch):
        # (t - 1)^2 and (t - 1)^3 on [0, 2]: halving stops where the
        # polynomial is at rounding level, so the search stays short
        calls = self.count_conversions(monkeypatch)
        (lo, hi), = curvature_profile._root_intervals(coeffs, 0.0, 2.0)
        assert lo < 1.0 < hi and hi - lo < 1e-4
        assert len(calls) <= 100

    @pytest.mark.parametrize("name", ["sign_changing_beta_ln2",
                                      "sign_changing_beta_neg_ln2"])
    def test_critical_points_past_a_root_at_zero(self, name, monkeypatch):
        # K' of the beta entries is odd, so its numerator vanishes at t = 0
        seg = entry_by_name(name).profile.segments[0]
        curvature_profile._root_intervals.cache_clear()
        calls = self.count_conversions(monkeypatch)
        points = seg._critical_points
        assert points[0] == 0.0 and len(points) == 2
        assert 0 < len(calls) <= 30

    @pytest.mark.parametrize("c", [1.999 + 0.001 * k / 200 for k in range(200)])
    def test_triple_denominator_roots_near_the_end_refused(self, c):
        den = tuple(np.polynomial.polynomial.polyfromroots([c, c, c]).tolist())
        with pytest.raises(ProfileError, match="vanishes at t = (1.99|2)"):
            Segment(0.0, 2.0, (1.0,), den)

    @pytest.mark.parametrize("mult", [2, 3])
    @pytest.mark.parametrize("t_start, t_end, root", [
        (0.0, 1.5, 0.0), (0.5, 2.0, 0.5), (0.3, 1.0, 0.3), (1.0, 2.0, 1.0),
        (0.0, 2.0, 2.0), (0.0, 0.3, 0.3), (0.5, 1.999995, 1.999995),
        (10.0, 100.0, 100.0),
    ])
    def test_multiple_denominator_roots_at_the_ends_refused(self, t_start, t_end,
                                                             root, mult):
        den = tuple(np.polynomial.polynomial.polyfromroots([root] * mult).tolist())
        with pytest.raises(ProfileError, match="vanishes"):
            Segment(t_start, t_end, (1.0,), den)

    def test_denominator_root_just_past_the_end_accepted(self):
        # t - 1 - 1e-13 is certified nonzero on the closed [0, 1]: no
        # window around the segment refuses it
        seg = Segment(0.0, 1.0, (1.0,), (-1.0 - 1e-13, 1.0))
        assert seg.evaluate(1.0) == pytest.approx(-1e13, rel=1e-3)


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

    def test_critical_points_far_below_a_long_segment_end(self):
        # K = -t^3/3 + 2 t^2 - 3 t has K' = -(t - 1)(t - 3): on [1/2, 1e20)
        # its maximum 0 sits at t = 3, where no end of the interval is
        seg = Segment(0.0, 1e20, (0.0, -3.0, 2.0, -1.0 / 3.0))
        assert seg._critical_points == pytest.approx((1.0, 3.0), rel=1e-15)
        assert seg.max_on(0.5, 1e20) == pytest.approx(0.0, abs=1e-14)


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
        # a fresh beta profile: the pieces of its first negative part check
        # the degree-8 denominator (1 + t^2)^4 on their own intervals
        profile = entry_by_name("sign_changing_beta_ln2").profile
        den = profile.segments[0].den
        assert len(den) == 9
        first = curvature_profile.negative_part(profile)
        real = curvature_profile._bernstein
        calls = []

        def counting(coeffs, a, b):
            calls.append(coeffs)
            return real(coeffs, a, b)

        monkeypatch.setattr(curvature_profile, "_bernstein", counting)
        neg = curvature_profile.negative_part(profile)
        assert neg == first
        assert len(neg.segments) > len(profile.segments)
        assert all(s.den == den for s in neg.segments if not s.is_zero)
        assert calls.count(den) == 0

    def test_roots_are_a_tuple(self):
        roots = curvature_profile._root_intervals((-1.0, 0.0, 1.0), 0.0, 2.0)
        assert isinstance(roots, tuple)
        assert len(roots) == 1 and roots[0][0] <= 1.0 <= roots[0][1]
        assert curvature_profile._root_intervals((-1.0, 0.0, 1.0), 0.0, 2.0) is roots
        # the interval is part of the key
        assert curvature_profile._root_intervals((-1.0, 0.0, 1.0), 0.0, 0.5) == ()


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

    def test_bump_far_below_a_long_segment_end(self):
        # K = -(t - 1)(t - 3) is positive on (1, 3) only, a bump twenty
        # decades below the end of its segment
        prof = rg.CurvatureProfile((Segment(0.0, 1e20, (-3.0, 4.0, -1.0)),),
                                   rg.ZeroTail())
        assert prof.segments[0].sign_pieces == (
            (0.0, 1.0, False), (1.0, 3.0, True), (3.0, 1e20, False))
        assert not prof.is_nonpositive
        neg, pos = rg.negative_part(prof), rg.positive_part(prof)
        assert neg.evaluate(2.0) == 0.0 and pos.evaluate(2.0) == 1.0
        assert neg.evaluate(5.0) == -8.0 and pos.evaluate(5.0) == 0.0

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

    def test_crossing_at_a_segment_end(self):
        # K = k0 - (k0/t1) t on [0, t1): its root lands on t1 itself, where
        # K reads rounding noise below zero; the segment stays positive
        t1, k0 = 1.1554683150798821, 0.8552431612418072
        seg = Segment(0.0, t1, (k0, -(k0 / t1)))
        assert seg.evaluate(t1) < 0.0
        assert seg.sign_pieces == ((0.0, t1, True),)
        prof = rg.CurvatureProfile((seg, Segment(t1, 3.0, (-0.5,))), rg.ZeroTail())
        assert not prof.is_nonpositive
        assert rg.negative_part(prof).segments[0].is_zero
        # the mirror case: the same kind of line on [t1, t1 + 2), whose
        # root bisects to t1 itself, where K reads rounding noise above
        # zero; no cut is made, and the segment is nonpositive
        t1, k0 = 2.597433036397459, 0.21053794576073193
        seg = Segment(t1, t1 + 2.0, (k0, -(k0 / t1)))
        assert seg.evaluate(t1) > 0.0
        assert seg.sign_pieces == ((t1, t1 + 2.0, False),)

    def test_cuts_closer_than_any_width(self):
        # K = (t - 1e-20)(t - 2e-20) dips below zero on a piece 1e-20 wide,
        # and its value there, -2.5e-41, is far above its rounding
        seg = Segment(0.0, 1.0, (2e-40, -3e-20, 1.0))
        (a, b, p), (c, d, q), (e, f, r) = seg.sign_pieces
        assert (a, c, e, f) == (0.0, b, d, 1.0)
        assert (p, q, r) == (True, False, True)
        assert b == pytest.approx(1e-20, rel=1e-15)
        assert d == pytest.approx(2e-20, rel=1e-15)
        neg = rg.negative_part(rg.CurvatureProfile((seg,), rg.ZeroTail()))
        assert neg.evaluate(1.5e-20) == seg.evaluate(1.5e-20) < 0.0

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
