import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import radialgeo as rg
from radialgeo.curvature_profile import Segment
from radialgeo.gallery import abresch_f, abresch_fp, beta_profile, entry_by_name
from radialgeo.pipeline import DEFAULT_T_END, DEFAULT_TOL

# Reference integration of the piecewise profile K(t) = 1 - t on [0, 2),
# zero tail, run with scipy DOP853 at rtol = atol = 1e-13 and frozen here.
PIECEWISE_F5 = 6.8498035253323408
PIECEWISE_FP5 = 1.6208328830964513


# solve(profile, DEFAULT_T_END, DEFAULT_TOL) on each gallery profile:
# n_steps, n_rejected, then t_end and f, f' at the last node as float.hex.
# Any change to the solver's arithmetic or step control moves these.
GALLERY_TRACE = {
    "flat": (6, 0, "0x1.0000000000000p+12",
             "0x1.ffffffffffffep+11", "0x1.0000000000000p+0"),
    "hyperbolic": (1847, 0, "0x1.15bcb05b9cfe0p+7",
                   "0x1.45256282f94c9p+199", "0x1.45256282f94c9p+199"),
    "spherical": (37, 0, "0x1.921fb542c572ep+1",
                  "-0x1.b1bc68f4fd800p-43", "-0x1.ffffffd90a5b9p-1"),
    "abresch_tail": (85, 1, "0x1.0000000000000p+12",
                     "0x1.2c4284e892c88p+13", "0x1.2c5e64cbdd681p+1"),
    "sign_changing_beta_ln2": (82, 1, "0x1.0000000000000p+12",
                               "0x1.000000a438d5ep+11", "0x1.fffffe82b31e2p-2"),
    "sign_changing_beta_neg_ln2": (81, 1, "0x1.0000000000000p+12",
                                   "0x1.fffffecc0d749p+12", "0x1.000000c8e5e3dp+1"),
    "moment_boundary": (117, 1, "0x1.0000000000000p+12",
                        "0x1.31b56b35ed30ep+18", "0x1.ee86baab9de59p+6"),
}


def piecewise_1mt():
    return rg.CurvatureProfile((Segment(0.0, 2.0, (1.0, -1.0)),), rg.ZeroTail())


class TestClosedForms:
    def test_flat(self):
        sol = rg.solve(rg.zero_profile(), 10.0, 1e-10)
        assert sol.f(10.0) == pytest.approx(10.0, rel=1e-12)
        assert sol.fp(10.0) == pytest.approx(1.0, rel=1e-12)
        assert sol.first_zero is None

    def test_hyperbolic(self):
        sol = rg.solve(rg.constant_profile(-1.0), 2.0, 1e-10)
        assert sol.f(2.0) == pytest.approx(math.sinh(2.0), rel=1e-9)
        assert sol.fp(2.0) == pytest.approx(math.cosh(2.0), rel=1e-9)

    def test_spherical_first_zero(self):
        sol = rg.solve(rg.constant_profile(1.0), 4.0, 1e-10)
        assert sol.first_zero == pytest.approx(math.pi, abs=1e-9)
        assert sol.t_end == sol.first_zero
        assert sol.f(2.0) == pytest.approx(math.sin(2.0), rel=1e-9)

    def test_scaled_spherical_first_zero(self):
        sol = rg.solve(rg.constant_profile(4.0), 4.0, 1e-10)
        assert sol.first_zero == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_initial_node_exact(self):
        sol = rg.solve(rg.constant_profile(-1.0), 1.0, 1e-8)
        assert sol.ts[0] == 0.0
        assert sol.fs[0] == 0.0
        assert sol.fps[0] == 1.0

    def test_abresch_closed_form(self, abresch_profile):
        sol = rg.solve(abresch_profile, 100.0, 1e-10)
        assert sol.f(100.0) == pytest.approx(abresch_f(100.0), rel=1e-9)
        assert sol.fp(100.0) == pytest.approx(abresch_fp(100.0), rel=1e-9)


class TestPiecewiseReference:
    def test_against_frozen_reference(self):
        sol = rg.solve(piecewise_1mt(), 5.0, 1e-12)
        assert sol.f(5.0) == pytest.approx(PIECEWISE_F5, rel=1e-9)
        assert sol.fp(5.0) == pytest.approx(PIECEWISE_FP5, rel=1e-9)

    def test_nodes_land_on_breakpoint(self):
        sol = rg.solve(piecewise_1mt(), 5.0, 1e-8)
        assert 2.0 in sol.ts.tolist()


class TestPreconditions:
    def test_t_end_positive(self):
        with pytest.raises(ValueError):
            rg.solve(rg.zero_profile(), 0.0, 1e-8)

    def test_tol_range(self):
        with pytest.raises(ValueError):
            rg.solve(rg.zero_profile(), 1.0, 1e-2)
        with pytest.raises(ValueError):
            rg.solve(rg.zero_profile(), 1.0, 1e-15)


class TestSolveM:
    def test_positive_curvature_gives_linear_m(self):
        m = rg.solve_m(rg.constant_profile(1.0), 10.0, 1e-10)
        assert m.first_zero is None
        assert m.f(10.0) == pytest.approx(10.0, rel=1e-12)
        assert m.fp(7.0) == pytest.approx(1.0, rel=1e-12)

    def test_hyperbolic_m(self):
        m = rg.solve_m(rg.constant_profile(-1.0), 2.0, 1e-10)
        assert m.f(2.0) == pytest.approx(math.sinh(2.0), rel=1e-9)

    def test_abresch_m_prime_at_100(self, abresch_profile):
        # K <= 0, so m coincides with f; reference from the closed form,
        # cross-checked against a DOP853 run at 1e-13
        m = rg.solve_m(abresch_profile, 100.0, 1e-10)
        assert m.fp(100.0) == pytest.approx(2.3459521948340218, rel=1e-9)


# no subnormals: a subnormal leading coefficient puts the roots past
# float range, which Segment refuses
_NONPOSITIVE = st.one_of(st.sampled_from([0.0, -0.0]),
                         st.floats(min_value=-1.0, max_value=0.0,
                                   allow_subnormal=False))


@st.composite
def nonpositive_segment(draw, lo, hi):
    """A segment on [lo, hi) whose float evaluation is <= 0 everywhere on
    it: a zero segment, a touching root, or coefficients all <= 0 over a
    denominator with positive coefficients."""
    kind = draw(st.sampled_from(("zero", "touch", "negative")))
    if kind == "zero":
        return Segment(lo, hi, draw(st.lists(st.sampled_from([0.0, -0.0]),
                                             min_size=1, max_size=3)))
    if kind == "touch":
        # -2^j (t - r)^2 with r a multiple of 1/8: the coefficients are
        # exact, and Horner's (2r - t) t is exact near r, so its rounding
        # never lifts the value above r^2 and the touch is never positive
        k = draw(st.integers(min_value=math.ceil(8 * lo),
                             max_value=max(math.floor(8 * hi), math.ceil(8 * lo))))
        r, c = k / 8.0, -(2.0 ** draw(st.integers(min_value=-3, max_value=1)))
        return Segment(lo, hi, (c * r * r, -2.0 * c * r, c))
    # with t >= 0 and every coefficient <= 0, each Horner step stays <= 0
    num = draw(st.lists(_NONPOSITIVE, min_size=1, max_size=4))
    den = (1.0,)
    if draw(st.booleans()):
        # positive on t >= 0: a constant term >= 0.5 and no negative
        # coefficient
        den = (draw(st.floats(min_value=0.5, max_value=2.0)),
               *draw(st.lists(st.one_of(st.just(0.0),
                                        st.floats(min_value=0.25, max_value=2.0)),
                              max_size=3)))
    return Segment(lo, hi, num, den)


@st.composite
def knots(draw):
    out = [0.0]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        out.append(out[-1] + draw(st.floats(min_value=0.1, max_value=5.0)))
    return out


@st.composite
def nonpositive_profiles(draw):
    """K <= 0: nonpositive segments, then a zero, negative constant or
    negative power tail."""
    ts = draw(knots())
    segments = tuple(draw(nonpositive_segment(lo, hi))
                     for lo, hi in zip(ts, ts[1:]))
    tail = draw(st.one_of(
        st.just(rg.ZeroTail()),
        st.builds(rg.ConstantTail, st.floats(min_value=-2.0, max_value=-1e-3)),
        st.builds(rg.PowerDecayTail, st.floats(min_value=-6.0, max_value=-1e-3),
                  st.floats(min_value=0.5, max_value=5.0))))
    return rg.CurvatureProfile(segments, tail)


_ANY_COEFF = st.floats(min_value=-2.0, max_value=2.0, allow_subnormal=False)


@st.composite
def profiles_with_positive_part(draw):
    """A profile that is positive somewhere: on a sign piece of one of its
    segments, or on its tail."""
    ts = draw(knots())
    segments = tuple(
        Segment(lo, hi, draw(st.lists(_ANY_COEFF, min_size=1, max_size=4)))
        for lo, hi in zip(ts, ts[1:]))
    tail = draw(st.one_of(
        st.just(rg.ZeroTail()),
        st.builds(rg.ConstantTail, _ANY_COEFF),
        st.builds(rg.PowerDecayTail, _ANY_COEFF,
                  st.floats(min_value=0.5, max_value=5.0))))
    profile = rg.CurvatureProfile(segments, tail)
    assume(tail.sign > 0
           or any(positive for *_, positive in profile.sign_pieces()))
    return profile


class TestNonpositiveIdentity:
    """Where K <= 0, min(K, 0) is K: the negative part is the profile
    itself and m is f, bit for bit."""

    @given(profile=nonpositive_profiles(),
           span=st.floats(min_value=0.5, max_value=10.0),
           tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
    @settings(max_examples=200, deadline=None)
    def test_m_is_f(self, profile, span, tol):
        assert profile.is_nonpositive
        assert rg.negative_part(profile) is profile
        t_end = profile.t_tail + span
        f, m = rg.solve(profile, t_end, tol), rg.solve_m(profile, t_end, tol)
        for name in ("ts", "fs", "fps", "d2_left", "d2_right"):
            assert getattr(m, name).tobytes() == getattr(f, name).tobytes(), name
        assert (m.n_steps, m.n_rejected, m.truncated, m.first_zero) == (
            f.n_steps, f.n_rejected, f.truncated, f.first_zero)

    @given(profile=profiles_with_positive_part())
    @settings(max_examples=200, deadline=None)
    def test_positive_part_changes_negative_part(self, profile):
        assert not profile.is_nonpositive
        assert rg.negative_part(profile) != profile


class TestDenseOutput:
    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
    def test_midpoints_match_reintegration(self, tol):
        profile = rg.constant_profile(-1.0)
        sol = rg.solve(profile, 2.0, tol)
        for j in range(len(sol.ts) - 1):
            tm = 0.5 * (float(sol.ts[j]) + float(sol.ts[j + 1]))
            ref = rg.solve(profile, tm, max(tol * 1e-3, 1e-14))
            scale = 1.0 + abs(ref.f(tm))
            assert abs(sol.f(tm) - ref.f(tm)) <= 10.0 * tol * scale
            assert abs(sol.fp(tm) - ref.fp(tm)) <= 10.0 * tol * scale

    def test_evaluation_outside_window_rejected(self):
        sol = rg.solve(rg.zero_profile(), 1.0, 1e-8)
        with pytest.raises(ValueError):
            sol.f(1.5)
        with pytest.raises(ValueError):
            sol.fp(-0.5)
        with pytest.raises(ValueError):
            sol.f([0.5, math.nan])

    def test_sequence_and_scalar_times(self):
        sol = rg.solve(rg.constant_profile(-1.0), 2.0, 1e-10)
        for fn in (sol.f, sol.fp):
            ref = fn(np.array([0.5, 1.5]))
            for times in ([0.5, 1.5], (0.5, 1.5)):
                out = fn(times)
                assert isinstance(out, np.ndarray)
                np.testing.assert_array_equal(out, ref)
            for t in (np.array(1.5), np.float64(1.5)):
                out = fn(t)
                assert type(out) is float
                assert out == ref[1]

    def test_positive_before_first_zero(self):
        sol = rg.solve(rg.constant_profile(1.0), 4.0, 1e-10)
        interior = np.linspace(1e-6, sol.first_zero - 1e-9, 500)
        assert (sol.f(interior) > 0).all()


@functools.lru_cache(maxsize=None)
def _gallery_solution(name, comparison):
    solver = rg.solve_m if comparison else rg.solve
    return solver(entry_by_name(name).profile, DEFAULT_T_END, DEFAULT_TOL)


@st.composite
def solutions(draw):
    """f or m of a gallery entry, or f of a random criterion-7 profile."""
    if draw(st.booleans()):
        return _gallery_solution(draw(st.sampled_from(sorted(GALLERY_TRACE))),
                                 draw(st.booleans()))
    from conftest import random_linear_profile
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    return rg.solve(random_linear_profile(rng), 50.0, 1e-8)


class TestScalarPath:
    """A single time is evaluated in Python floats; it must give the bits
    of the array path."""

    @given(sol=solutions(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bits_of_array_path(self, sol, data):
        end = sol.t_end
        t = data.draw(st.one_of(
            st.floats(min_value=0.0, max_value=end),
            st.sampled_from(sol.ts.tolist()),
            st.integers(min_value=0, max_value=math.floor(end)).map(float),
            st.sampled_from([0.0, -0.0, end, end * (1 + 1e-15)])))
        forms = [t, np.float64(t), np.array(t)] + ([int(t)] if t.is_integer() else [])
        for fn in (sol.f, sol.fp):
            expected = float.hex(fn(np.array([t]))[0])
            for x in forms:
                out = fn(x)
                assert type(out) is float, type(x)
                assert float.hex(out) == expected, (t, type(x))

    @given(sol=solutions(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_same_error_as_array_path(self, sol, data):
        end = sol.t_end
        t = data.draw(st.one_of(
            st.just(math.nan),
            st.floats(max_value=0.0, exclude_max=True),
            st.floats(min_value=end * (1 + 1e-15) + 1e-300, exclude_min=True)))
        for fn in (sol.f, sol.fp):
            with pytest.raises(ValueError) as array:
                fn(np.array([t]))
            for x in (t, np.float64(t), np.array(t)):
                with pytest.raises(ValueError) as scalar:
                    fn(x)
                assert str(scalar.value) == str(array.value)


class TestStepControl:
    def test_positive_cap_limits_steps(self):
        sol = rg.solve(rg.constant_profile(4.0), 1.5, 1e-8)
        steps = np.diff(sol.ts)
        assert (steps <= math.pi / 2.0 + 1e-12).all()

    def test_growth_guard_truncates(self):
        sol = rg.solve(rg.constant_profile(-1.0), 4096.0, 1e-8)
        assert sol.truncated
        assert sol.first_zero is None
        assert sol.t_end < 200.0
        assert max(abs(sol.fs[-1]), abs(sol.fps[-1])) >= rg.jacobi.GROWTH_GUARD


def _spike_profile():
    # K = 1/(1 + 1e6 (t - 10)^2) - 1e-3 on [0, 20): negative at both ends
    # of its piece and positive only within about 0.03 of t = 10, where
    # the stage points of a long step can all miss it
    den = (1.0 + 1e8, -2e7, 1e6)
    num = (1.0 - 1e-3 * den[0], -1e-3 * den[1], -1e-3 * den[2])
    return rg.CurvatureProfile((Segment(0.0, 20.0, num, den),), rg.ZeroTail())


STURM_CAP_PROFILES = {
    "negative_then_positive_constant": lambda: rg.CurvatureProfile(
        (Segment(0.0, 5.0, (-1.0,)),), rg.ConstantTail(4.0)),
    "positive_inside_negative_ends": lambda: rg.CurvatureProfile(
        (Segment(0.0, 4.0, (-3.0, 4.0, -1.0)),), rg.ZeroTail()),
    "positive_power_tail": lambda: rg.power_tail_profile(0.5, 3.0),
    "narrow_spike": _spike_profile,
}


class TestSturmCap:
    @staticmethod
    def cap_ratios(profile, sol):
        """h sqrt(max K) / pi of each accepted step where max K > 0."""
        ratios = []
        for t0, t1 in zip(sol.ts[:-1].tolist(), sol.ts[1:].tolist()):
            piece, _ = profile.piece_at(t0)
            kmax = piece.max_on(t0, t1)
            if kmax > 0.0:
                ratios.append((t1 - t0) * math.sqrt(kmax) / math.pi)
        return ratios

    @pytest.mark.parametrize("tol", [1e-3, 1e-8])
    @pytest.mark.parametrize("name", sorted(STURM_CAP_PROFILES))
    def test_cap_holds_on_every_positive_step(self, name, tol):
        profile = STURM_CAP_PROFILES[name]()
        ratios = self.cap_ratios(profile, rg.solve(profile, 60.0, tol))
        assert ratios, "no step met positive curvature"
        assert max(ratios) <= 1.0 + 1e-12

    def test_cap_binds_on_narrow_spike(self):
        # at tol 1e-3 the step control proposes a step across the spike
        # longer than the cap, so the cap sets that step: equality
        profile = _spike_profile()
        ratios = self.cap_ratios(profile, rg.solve(profile, 60.0, 1e-3))
        assert max(ratios) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("name", sorted(GALLERY_TRACE))
def test_gallery_step_trace_is_pinned(name):
    sol = rg.solve(entry_by_name(name).profile, DEFAULT_T_END, DEFAULT_TOL)
    assert (sol.n_steps, sol.n_rejected, sol.t_end.hex(), float(sol.fs[-1]).hex(),
            float(sol.fps[-1]).hex()) == GALLERY_TRACE[name]


class TestConvergence:
    @pytest.mark.parametrize("profile_factory,t_end,reference", [
        (lambda: rg.power_tail_profile(-6.0, 4.0), 100.0, abresch_f(100.0)),
        (lambda: rg.constant_profile(-1.0), 10.0, math.sinh(10.0)),
    ])
    def test_error_scales_with_tol(self, profile_factory, t_end, reference):
        # average rate over 8 tol halvings: at least a factor 2 for every
        # 2 halvings (single halvings fluctuate around the trend)
        profile = profile_factory()
        coarse = abs(rg.solve(profile, t_end, 1e-6).f(t_end) - reference)
        fine = abs(rg.solve(profile, t_end, 1e-6 / 256.0).f(t_end) - reference)
        assert fine < coarse / 64.0


class TestScalingCovariance:
    """K_lam(t) = lam^2 K(lam t) must give f_lam(t) = f(lam t)/lam."""

    LAM = 2.0

    def check(self, base, scaled, window):
        sol_base = rg.solve(base, self.LAM * window, 1e-10)
        sol_scaled = rg.solve(scaled, window, 1e-10)
        for t in np.linspace(0.05, window, 9):
            expected = sol_base.f(self.LAM * t) / self.LAM
            assert sol_scaled.f(float(t)) == pytest.approx(expected, rel=1e-9)

    def test_flat(self):
        self.check(rg.zero_profile(), rg.zero_profile(), 10.0)

    def test_hyperbolic(self):
        self.check(rg.constant_profile(-1.0),
                   rg.constant_profile(-self.LAM ** 2), 10.0)

    def test_abresch(self, abresch_profile):
        lam, W = self.LAM, 20.0
        num = (lam * lam * -6.0,)
        den = tuple(math.comb(4, k) * lam ** k for k in range(5))
        scaled = rg.CurvatureProfile(
            (Segment(0.0, W + 1.0, num, den),), rg.ZeroTail())
        self.check(abresch_profile, scaled, W)

    def test_beta_family(self):
        lam, W = self.LAM, 50.0
        base = beta_profile(math.log(2.0))
        seg = base.segments[0]
        num = tuple(c * lam ** (2 + i) for i, c in enumerate(seg.num))
        den = tuple(c * lam ** j for j, c in enumerate(seg.den))
        scaled = rg.CurvatureProfile(
            (Segment(0.0, W + 1.0, num, den),), rg.ZeroTail())
        self.check(base, scaled, W)


class TestScipyDifferential:
    """Randomized cross-check against an independent integrator."""

    @staticmethod
    def _scipy_state(profile, t_target):
        from scipy.integrate import solve_ivp
        y = np.array([0.0, 1.0])
        stops = [b for b in profile.breakpoints if 0.0 < b < t_target]
        for lo, hi in zip([0.0, *stops], [*stops, t_target]):
            res = solve_ivp(
                lambda t, y: [y[1], -profile.evaluate(t) * y[0]],
                (lo, hi), y, method="DOP853", rtol=1e-12, atol=1e-12)
            assert res.success
            y = res.y[:, -1]
        return y

    def test_random_profiles_match(self):
        # errors scale with the local state magnitude: at a zero crossing
        # of a 1e12-amplitude oscillation, "f = 0" means |f| small against
        # |f'|, not against 1
        from conftest import random_linear_profile
        rng = np.random.default_rng(7)
        zero_cases = 0
        for _ in range(40):
            profile = random_linear_profile(rng, t_end=20.0)
            sol = rg.solve(profile, 20.0, 1e-11)
            f_ref, fp_ref = self._scipy_state(profile, sol.t_end)
            scale = 1.0 + max(abs(f_ref), abs(fp_ref))
            assert abs(sol.f(sol.t_end) - f_ref) <= 1e-7 * scale
            assert abs(sol.fp(sol.t_end) - fp_ref) <= 1e-7 * scale
            if sol.first_zero is not None:
                zero_cases += 1
                # the independent route must agree the function vanishes here
                assert abs(f_ref) <= 1e-7 * scale
        assert zero_cases > 5  # the sweep actually exercised zero location

    def test_random_m_solves_match(self):
        from conftest import random_linear_profile
        rng = np.random.default_rng(11)
        for _ in range(20):
            profile = random_linear_profile(rng, t_end=20.0)
            neg = rg.negative_part(profile)
            m = rg.solve_m(profile, 20.0, 1e-11)
            f_ref, fp_ref = self._scipy_state(neg, m.t_end)
            scale = 1.0 + max(abs(f_ref), abs(fp_ref))
            assert abs(m.f(m.t_end) - f_ref) <= 1e-7 * scale
            assert abs(m.fp(m.t_end) - fp_ref) <= 1e-7 * scale


class TestSturmComparison:
    def test_f_below_m_on_gallery(self, beta_ln2_profile, abresch_profile):
        for profile in (beta_ln2_profile, abresch_profile,
                        rg.constant_profile(1.0)):
            f = rg.solve(profile, 50.0, 1e-10)
            m = rg.solve_m(profile, 50.0, 1e-10)
            hi = min(f.t_end, m.t_end)
            grid = np.linspace(0.0, hi, 200)
            fv, mv = f.f(grid), m.f(grid)
            assert (fv <= mv * (1 + 1e-9) + 1e-9).all()

    def test_m_convexity_nodes(self, beta_ln2_profile):
        m = rg.solve_m(beta_ln2_profile, 200.0, 1e-10)
        mp = m.fps
        assert (np.diff(mp) >= -1e-9 * np.maximum(1.0, np.abs(mp[:-1]))).all()
        assert (mp >= 1.0 - 1e-9).all()
        assert (m.fs >= m.ts - 1e-9).all()
