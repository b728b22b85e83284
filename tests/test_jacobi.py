import functools
import importlib.util
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import radialgeo as rg
import reference_stepper
from radialgeo import jacobi
from radialgeo.curvature_profile import Segment
from radialgeo.errors import IntegrationError, ProfileError
from radialgeo.gallery import abresch_f, abresch_fp, beta_profile, entry_by_name
from radialgeo.pipeline import DEFAULT_T_END, DEFAULT_TOL

# Reference integration of the piecewise profile K(t) = 1 - t on [0, 2),
# zero tail, run with scipy DOP853 at rtol = atol = 1e-13 and frozen here.
PIECEWISE_F5 = 6.8498035253323408
PIECEWISE_FP5 = 1.6208328830964513


# solve(profile, DEFAULT_T_END, DEFAULT_TOL) on each gallery profile:
# n_steps, n_rejected, then t_end and f, f' at the last node as float.hex.
# Any change to the solver's arithmetic or step control moves these.  The
# first three are constant pieces, solved in closed form on the grid of
# spacing _grid_u(tol)/omega: flat is one step to T, hyperbolic stops at
# the first grid node past the growth guard, spherical at its first zero.
GALLERY_TRACE = {
    "flat": (1, 0, "0x1.0000000000000p+12",
             "0x1.0000000000000p+12", "0x1.0000000000000p+0"),
    "hyperbolic": (856, 0, "0x1.1604fd4752c26p+7",
                   "0x1.7675e02c88e3ap+199", "0x1.7675e02c88e3ap+199"),
    "spherical": (20, 0, "0x1.921fb54442d18p+1",
                  "0x1.1a62633145c07p-53", "-0x1.0000000000000p+0"),
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


def _ulps(x, exact):
    """|x - exact| in units of the last place of exact."""
    return abs(x - exact) / math.ulp(exact)


class TestClosedForms:
    def test_flat(self):
        sol = rg.solve(rg.zero_profile(), 10.0, 1e-10)
        assert sol.ts.tolist() == sol.fs.tolist() == [0.0, 10.0]
        assert sol.fps.tolist() == [1.0, 1.0]
        assert sol.f(7.5) == 7.5 and sol.fp(7.5) == 1.0
        assert sol.first_zero is None

    def test_hyperbolic(self):
        # every node is sinh and cosh to rounding, the dense output in
        # between within tol
        sol = rg.solve(rg.constant_profile(-1.0), 2.0, 1e-10)
        for t, f, fp in zip(sol.ts.tolist(), sol.fs.tolist(), sol.fps.tolist()):
            assert f == math.sinh(t) if t == 0.0 else _ulps(f, math.sinh(t)) <= 4
            assert _ulps(fp, math.cosh(t)) <= 4
        for t in np.linspace(0.0, 2.0, 101).tolist():
            assert sol.f(t) == pytest.approx(math.sinh(t), rel=1e-10, abs=1e-10)
            assert sol.fp(t) == pytest.approx(math.cosh(t), rel=1e-10)

    def test_spherical_first_zero(self):
        sol = rg.solve(rg.constant_profile(1.0), 4.0, 1e-10)
        assert sol.first_zero == math.pi
        assert sol.t_end == sol.first_zero
        # the closed form at the stored zero time: sin(fl(pi))
        assert sol.fs[-1] == math.sin(math.pi) and sol.fps[-1] == -1.0
        for t, f, fp in zip(sol.ts[1:-1].tolist(), sol.fs[1:-1].tolist(),
                            sol.fps[1:-1].tolist()):
            assert _ulps(f, math.sin(t)) <= 4
            assert abs(fp - math.cos(t)) <= 4 * math.ulp(1.0)
        assert sol.f(2.0) == pytest.approx(math.sin(2.0), rel=1e-10)

    def test_scaled_spherical_first_zero(self):
        sol = rg.solve(rg.constant_profile(4.0), 4.0, 1e-10)
        assert _ulps(sol.first_zero, math.pi / 2.0) <= 4

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

    @pytest.mark.parametrize("t_end", [math.inf, math.nan, -math.inf])
    def test_t_end_finite(self, t_end):
        for solver in (rg.solve, rg.solve_m):
            with pytest.raises(ValueError, match="t_end must be positive and finite"):
                solver(rg.zero_profile(), t_end, 1e-8)

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


def _sliver_segments():
    # K = -1 on [0, 1), [1, 1 + 4e-16) and [1 + 4e-16, 3): the middle
    # segment is two ulps wide
    return rg.CurvatureProfile(tuple(
        Segment(a, b, (-1.0,)) for a, b in ((0.0, 1.0), (1.0, 1.0 + 4e-16),
                                             (1.0 + 4e-16, 3.0))), rg.ZeroTail())


def _sliver_sign_pieces():
    # K = (t - 1e-20)(t - 2e-20), split at 1e-20 and 2e-20
    return rg.CurvatureProfile((Segment(0.0, 1.0, (2e-40, -3e-20, 1.0)),),
                               rg.ZeroTail())


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

    def test_sliver_segment_taken(self):
        # the two-ulp segment is one step that lands on its end
        sol = rg.solve(_sliver_segments(), 10.0, 1e-8)
        assert 1.0 + 4e-16 in sol.ts.tolist()
        assert sol.f(3.0) == pytest.approx(math.sinh(3.0), rel=1e-7)
        assert sol.fp(10.0) == pytest.approx(math.cosh(3.0), rel=1e-7)

    def test_sliver_sign_pieces_solved(self):
        # m is solved across both pieces, and its slope stays 1 to rounding
        m = rg.solve_m(_sliver_sign_pieces(), 10.0, 1e-8)
        assert m.ts[1] == pytest.approx(1e-20, rel=1e-15)
        assert m.f(10.0) == pytest.approx(10.0, rel=1e-12)
        assert m.n_steps < 20


def _spike_profile():
    # K = 1/(1 + 1e6 (t - 10)^2) - 1e-3 on [0, 20): negative at both ends
    # of its piece and positive only within about 0.03 of t = 10, where
    # the stage points of a long step could all miss it; its poles
    # 10 +- 1e-3 i cap the steps that lead up to it
    den = (1.0 + 1e8, -2e7, 1e6)
    num = (1.0 - 1e-3 * den[0], -1e-3 * den[1], -1e-3 * den[2])
    return rg.CurvatureProfile((Segment(0.0, 20.0, num, den),), rg.ZeroTail())


def _origin_spike_profile():
    # K = 1e4/(1 + 1e8 t^2) on [0, 10): its peak is at t = 0, where f = 0,
    # so the first step's stages see little of it and the Sturm cap
    # pi/sqrt(K(0)) sets an accepted step; its poles +-1e-4 i lie behind
    # every step's start, so the pole cap never binds
    return rg.CurvatureProfile((Segment(0.0, 10.0, (1e4,), (1.0, 0.0, 1e8)),), rg.ZeroTail())


STURM_CAP_PROFILES = {
    "negative_then_positive_constant": lambda: rg.CurvatureProfile(
        (Segment(0.0, 5.0, (-1.0,)),), rg.ConstantTail(4.0)),
    "positive_inside_negative_ends": lambda: rg.CurvatureProfile(
        (Segment(0.0, 4.0, (-3.0, 4.0, -1.0)),), rg.ZeroTail()),
    "positive_power_tail": lambda: rg.power_tail_profile(0.5, 3.0),
    "narrow_spike": _spike_profile,
    "origin_spike": _origin_spike_profile,
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
        # at tol 1e-3 the step control proposes a first step across the
        # spike longer than the cap, so the cap sets that accepted step:
        # equality
        profile = _origin_spike_profile()
        ratios = self.cap_ratios(profile, rg.solve(profile, 60.0, 1e-3))
        assert max(ratios) == pytest.approx(1.0, rel=1e-12)


class TestPoleCap:
    """A stepper step on a rational segment is at most _POLE_RATIO times
    its start's distance to each pole ahead of it, so the steps that lead
    up to a narrow spike shrink with the distance, and the stage points
    cannot pass over it."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-8])
    def test_steps_on_narrow_spike(self, tol):
        profile = _spike_profile()
        sol = rg.solve(profile, 60.0, tol)
        poles = profile.segments[0]._poles
        ratios = []
        for t0, t1 in zip(sol.ts[:-1].tolist(), sol.ts[1:].tolist()):
            ahead = [math.hypot(re - t0, im) for re, im in poles if re > t0 and t1 <= 20.0]
            if ahead:
                ratios.append((t1 - t0) / (jacobi._POLE_RATIO * min(ahead)))
        assert max(ratios) == pytest.approx(1.0, rel=1e-12)
        # the spike is resolved: f at t = 60 agrees with DOP853
        f_ref, fp_ref = dop853_state(profile, 0.0, (0.0, 1.0), 60.0)
        scale = _GLOBAL_ERROR_PER_STEP * len(sol.ts) * tol * (1.0 + np.abs(sol.fs).max())
        assert abs(sol.fs[-1] - f_ref) <= scale
        assert abs(sol.fps[-1] - fp_ref) <= scale

    def test_floor_passes_a_real_pole(self):
        # a pole on the real axis inside the segment, as rounding can give:
        # the capped steps toward it shrink to the floor 4e-14 max(t, 1)
        # and then pass it instead of halving until they underflow
        t, steps = 0.0, 0
        while t <= 1.3:
            h = jacobi._pole_cap([(1.3, 0.0)], t, 1.0)
            assert h >= min(4e-14 * max(t, 1.0), 1.0)
            t, steps = t + h, steps + 1
        assert steps < 60
        # a proposal below the floor is kept
        assert jacobi._pole_cap([(1.3, 0.0)], 1.3 - 1e-15, 1e-16) == 1e-16

    def test_close_pole_pair_does_not_stall(self):
        # den ((t - 1.3)^2 + d^2)(t + 1e8) with d about 1.8e-7: numpy.roots
        # can put the close pair on the real axis inside [0, 2); the solve
        # passes the spike
        den = (169000000.00000316, -259999998.31, 99999997.4, 1.0)
        profile = rg.CurvatureProfile((Segment(0.0, 2.0, (1.0,), den),), rg.ZeroTail())
        for solver in (rg.solve, rg.solve_m):
            sol = solver(profile, 3.0, 1e-8)
            assert sol.ts[-1] == 3.0 and sol.first_zero is None and not sol.truncated
        assert_bits_of_reference(profile, 3.0, 1e-8)

    def test_poles_of_rational_segments_only(self):
        assert Segment(0.0, 1.0, (1.0, 2.0))._poles == ()
        assert Segment(0.0, 1.0, (1.0,), (2.0,))._poles == ()
        # den (t - 3)(t^2 + 1)
        poles = sorted(Segment(0.0, 1.0, (1.0,), (-3.0, 1.0, -3.0, 1.0))._poles)
        assert [re for re, _ in poles] == pytest.approx([0.0, 0.0, 3.0], abs=1e-12)
        assert [im for _, im in poles] == pytest.approx([1.0, 1.0, 0.0], abs=1e-12)


@pytest.mark.parametrize("name", sorted(GALLERY_TRACE))
def test_gallery_step_trace_is_pinned(name):
    sol = rg.solve(entry_by_name(name).profile, DEFAULT_T_END, DEFAULT_TOL)
    assert (sol.n_steps, sol.n_rejected, sol.t_end.hex(), float(sol.fs[-1]).hex(),
            float(sol.fps[-1]).hex()) == GALLERY_TRACE[name]
    # the closed form at the last node
    T = sol.t_end
    if name == "flat":
        assert sol.fs[-1] == T and sol.fps[-1] == 1.0
    elif name == "hyperbolic":
        assert sol.truncated and sol.fps[-2] < rg.jacobi.GROWTH_GUARD <= sol.fps[-1]
        assert _ulps(sol.fps[-1], math.cosh(T)) <= 4
        assert _ulps(sol.fs[-1], math.sinh(T)) <= 4
    elif name == "spherical":
        assert sol.first_zero == T and _ulps(T, math.pi) <= 4


def _run(solver, profile, t_end, tol):
    """The solution, or the IntegrationError the solve raised."""
    try:
        return solver(profile, t_end, tol)
    except IntegrationError as exc:
        return exc


def _outcome(sol):
    """Every bit a solve hands on: the node arrays and f'' values as
    float.hex, the counts, the first zero and the truncation flag; or the
    IntegrationError it raised."""
    if isinstance(sol, IntegrationError):
        return "IntegrationError", str(sol)
    arrays = [list(map(float.hex, getattr(sol, name).tolist()))
              for name in ("ts", "fs", "fps", "d2_left", "d2_right")]
    return (arrays, sol.n_steps, sol.n_rejected,
            None if sol.first_zero is None else sol.first_zero.hex(), sol.truncated)


def _first_stepless_start(profile):
    """Start of the first piece of ``profile`` that the solver takes
    without the stepper, in closed form (constant K) or by Taylor transfer
    matrices (a polynomial segment), or None."""
    for seg in profile.segments:
        if seg._constant or seg.is_polynomial:
            return seg.t_start
    return profile.t_tail if profile.tail._constant else None


def _prefix_bits(sol, k):
    """float.hex of nodes 0..k and of f'' on the steps before node k."""
    return [list(map(float.hex, a.tolist()))
            for a in (sol.ts[:k + 1], sol.fs[:k + 1], sol.fps[:k + 1],
                      sol.d2_left[:k], sol.d2_right[:k])]


def dop853_state(profile, t0, y0, t1):
    """(f, f') at t1 from (f, f') = y0 at t0, by scipy's DOP853 at
    rtol = atol = 1e-13, restarted at every breakpoint with the piece that
    holds on the interval, so no step sees the next piece's K."""
    from scipy.integrate import solve_ivp
    y = np.array(y0, dtype=float)
    stops = [b for b in profile.breakpoints if t0 < b < t1]
    for lo, hi in zip([t0, *stops], [*stops, t1]):
        ev = profile.piece_at(lo)[0].evaluate
        res = solve_ivp(lambda t, y: [y[1], -ev(t) * y[0]], (lo, hi), y,
                        method="DOP853", rtol=1e-13, atol=1e-13)
        assert res.success
        y = res.y[:, -1]
    return y


# The solve's error scale past a constant or polynomial piece: the
# accepted local errors summed over its steps there, each at most tol
# (1e-13 at least, DOP853's own) times 1 + the largest |f| or |f'| past the
# piece entry, and amplified by the flow after it.  Over about 14000 drawn profiles
# the error reached 36 times that scale per step; the bound keeps a margin.
_GLOBAL_ERROR_PER_STEP = 100.0


def assert_bits_of_reference(profile, t_end, tol):
    """solve and solve_m give the bits of ``reference_stepper`` on every
    node before the first constant or polynomial piece that they enter (and
    every bit of the solve when they enter none).  Past that node, where
    they take the piece in closed form or by Taylor transfer matrices and
    the stepper's step sequence moves, their last node agrees with DOP853
    from the entry node within the solve's error scale."""
    for new, old, pieces in ((rg.solve, reference_stepper.solve, profile),
                             (rg.solve_m, reference_stepper.solve_m,
                              rg.negative_part(profile))):
        ref, sol = _run(old, profile, t_end, tol), _run(new, profile, t_end, tol)
        failed = isinstance(ref, IntegrationError)
        t_c = _first_stepless_start(pieces)
        if t_c is None or t_c >= (ref.t_reached if failed else ref.t_end):
            assert _outcome(sol) == _outcome(ref), new.__name__
            continue
        if isinstance(sol, IntegrationError):
            # only where the stepper also failed past the entry
            assert failed, new.__name__
            continue
        k = sol.ts.tolist().index(t_c)
        if not failed:
            assert _prefix_bits(sol, k) == _prefix_bits(ref, k), new.__name__
        f_ref, fp_ref = dop853_state(pieces, t_c, (sol.fs[k], sol.fps[k]), sol.t_end)
        scale = (_GLOBAL_ERROR_PER_STEP * (len(sol.ts) - k) * max(tol, 1e-13)
                 * (1.0 + max(np.abs(sol.fs[k:]).max(), np.abs(sol.fps[k:]).max())))
        assert abs(sol.fs[-1] - f_ref) <= scale, new.__name__
        assert abs(sol.fps[-1] - fp_ref) <= scale, new.__name__


# tol drawn log-uniformly over the supported range, ends included
_TOLS = st.one_of(st.sampled_from([1e-14, 1e-3]),
                  st.floats(min_value=-14.0, max_value=-3.0).map(
                      lambda e: min(max(10.0 ** e, 1e-14), 1e-3)))


@st.composite
def _widths(draw):
    """A segment width: ordinary, or a sliver of a few ulps."""
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return None  # a sliver, sized from its start
    return draw(st.floats(min_value=0.05, max_value=4.0))


@st.composite
def _any_segment(draw, lo, hi, kind=None):
    """A segment of any kind on [lo, hi), with |K| kept moderate so that
    solves at tol 1e-14 stay short."""
    kind = kind or draw(st.sampled_from(("zero", "polynomial", "roots", "beta", "spike",
                                         "rational")))
    scale = max(1.0, hi)
    if kind == "zero":
        num = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=3))
        return Segment(lo, hi, num)
    if kind == "polynomial":
        # degree 0 to 8, each term at most 2 * 10^e on the segment
        degree = draw(st.integers(min_value=0, max_value=8))
        num = [0.0 if draw(st.integers(0, 6)) == 0 else
               draw(st.floats(min_value=-2.0, max_value=2.0))
               * 10.0 ** draw(st.integers(min_value=-12, max_value=0)) / scale ** k
               for k in range(degree + 1)]
        return Segment(lo, hi, num)
    if kind == "roots":
        # c (t - r_1) ... (t - r_k) with its roots inside: sign changes
        roots = draw(st.lists(st.floats(min_value=lo, max_value=hi), min_size=1, max_size=3))
        num = np.array([draw(st.floats(min_value=-2.0, max_value=2.0))])
        for r in roots:
            num = np.polynomial.polynomial.polymul(num, [-r, 1.0]) / scale
        return Segment(lo, hi, num.tolist())
    if kind == "beta":
        # the beta family's K, rescaled as K_lam(t) = lam^2 K(lam t)
        b = draw(st.floats(min_value=-1.5, max_value=1.5))
        lam = draw(st.floats(min_value=0.25, max_value=2.0))
        seg = beta_profile(b).segments[0]
        return Segment(lo, hi, [c * lam ** (2 + i) for i, c in enumerate(seg.num)],
                       [c * lam ** j for j, c in enumerate(seg.den)])
    if kind == "spike":
        # a/(1 + w (t - c)^2) - eps: positive only near c, whose poles
        # c +- i/sqrt(w) cap the steps that lead up to it, and where the
        # Sturm cap may set the step
        c = draw(st.floats(min_value=lo, max_value=hi))
        w = 10.0 ** draw(st.floats(min_value=2.0, max_value=8.0))
        a = 10.0 ** draw(st.floats(min_value=-1.0, max_value=3.0))
        eps = draw(st.floats(min_value=0.0, max_value=0.1))
        den = (1.0 + w * c * c, -2.0 * w * c, w)
        return Segment(lo, hi, (a - eps * den[0], -eps * den[1], -eps * den[2]), den)
    # a denominator with a constant term >= 0.5 and no negative coefficient
    num = draw(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=4))
    den = [draw(st.floats(min_value=0.5, max_value=2.0)),
           *draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                                    st.floats(min_value=0.25, max_value=2.0)),
                          max_size=4))]
    return Segment(lo, hi, num, den)


@st.composite
def any_profiles(draw):
    """Profiles over every piece kind: zero, polynomial (degree 0 to 8,
    spread coefficients), sign-changing, beta-like, narrow-spike and other
    rational segments, with slivers and discontinuous junctions; then a
    zero, a constant or a power tail of either sign."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return draw(st.sampled_from([_sliver_segments, _sliver_sign_pieces]))()
    knots = [0.0]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        width = draw(_widths())
        if width is None:
            ulps = draw(st.integers(min_value=1, max_value=4))
            width = ulps * math.ulp(max(knots[-1], 1.0))
        knots.append(knots[-1] + width)
    try:
        segments = tuple(draw(_any_segment(lo, hi)) for lo, hi in zip(knots, knots[1:]))
    except ProfileError:
        assume(False)
    value = st.floats(min_value=-2.0, max_value=2.0)
    tail = draw(st.one_of(
        st.just(rg.ZeroTail()),
        st.builds(rg.ConstantTail, st.one_of(st.sampled_from([-1.0, -0.0, 0.25]), value)),
        st.builds(rg.PowerDecayTail, st.floats(min_value=-6.0, max_value=6.0),
                  st.one_of(st.sampled_from([2.0, 2.2, 4.0]),
                            st.floats(min_value=0.5, max_value=5.0)))))
    return rg.CurvatureProfile(segments, tail)


@st.composite
def spike_profiles(draw):
    """One to three narrow spikes of positive curvature over a small
    negative K, where the pole cap sets many steps."""
    knots = [0.0]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        knots.append(knots[-1] + draw(st.floats(min_value=1.0, max_value=20.0)))
    return rg.CurvatureProfile(tuple(draw(_any_segment(lo, hi, "spike"))
                                     for lo, hi in zip(knots, knots[1:])), rg.ZeroTail())


class TestBitsOfReferenceStepper:
    """solve and solve_m read each step's curvature in one call; up to the
    first constant or polynomial piece they enter they give the bits of the
    stepper that called ``evaluate`` at every stage point and ``max_on`` at
    every step of a piece where K can be positive, on the negative part
    built of fresh segments (``reference_stepper``).  Past it they agree
    with DOP853.  Rational segments and power tails stay on the stepper, so
    the spike profiles, where the pole cap and the Sturm cap bind, are
    compared bit for bit."""

    @pytest.mark.parametrize("name", sorted(GALLERY_TRACE))
    def test_gallery(self, name):
        assert_bits_of_reference(entry_by_name(name).profile, DEFAULT_T_END, DEFAULT_TOL)

    @pytest.mark.parametrize("tol", [1e-3, 1e-8])
    @pytest.mark.parametrize("name", sorted(STURM_CAP_PROFILES))
    def test_sturm_cap_profiles(self, name, tol):
        assert_bits_of_reference(STURM_CAP_PROFILES[name](), 60.0, tol)

    def test_spike_where_cap_binds(self):
        # the Sturm cap sets an accepted step here (TestSturmCap), so the
        # stage values are read again at the capped length
        profile = _origin_spike_profile()
        ratios = TestSturmCap.cap_ratios(profile, rg.solve(profile, 60.0, 1e-3))
        assert max(ratios) == pytest.approx(1.0, rel=1e-12)
        assert_bits_of_reference(profile, 60.0, 1e-3)
        # the pole cap sets steps on the spike inside its segment
        assert_bits_of_reference(_spike_profile(), 60.0, 1e-3)

    @pytest.mark.parametrize("profile", [_sliver_segments, _sliver_sign_pieces])
    def test_slivers(self, profile):
        assert_bits_of_reference(profile(), 10.0, 1e-8)

    @given(profile=any_profiles(), span=st.floats(min_value=0.1, max_value=8.0),
           tol=_TOLS)
    # two zero slivers, then the spike 1/(1 + 1e7 (t - 1)^2), which the
    # stepper passed over before steps were capped at its poles
    @example(profile=rg.CurvatureProfile(
        (Segment(0.0, 2.0 ** -52, (0.0,)), Segment(2.0 ** -52, 2.0 ** -51, (0.0,)),
         Segment(2.0 ** -51, 2.0 + 2.0 ** -51, (1.0, 0.0, -0.0),
                 (10000001.0, -20000000.0, 10000000.0))), rg.ZeroTail()),
        span=1.0, tol=1e-7)
    @settings(max_examples=150, deadline=None)
    def test_drawn_profiles(self, profile, span, tol):
        assert_bits_of_reference(profile, profile.t_tail + span, tol)

    @given(profile=spike_profiles(),
           tol=st.floats(min_value=-6.0, max_value=-3.0).map(lambda e: min(10.0 ** e, 1e-3)))
    @settings(max_examples=60, deadline=None)
    def test_drawn_spikes(self, profile, tol):
        assert_bits_of_reference(profile, profile.t_tail + 5.0, tol)


_EPS = 2.0 ** -53

# K = kappa: both zeros, and either sign over [1e-300, 1e4] log-uniform
_KAPPAS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(min_value=-300.0, max_value=4.0)))


@st.composite
def constant_piece_cases(draw):
    """(profile, piece start, piece end, t_end, tol): a piece K = kappa
    entered at t = 0 or after a drawn line segment, as a segment of drawn
    width (few-ulp slivers included) or as the tail, with t_end finite or
    1e300."""
    kappa = draw(_KAPPAS)
    segments, start = [], 0.0
    if draw(st.booleans()):
        start = draw(st.floats(min_value=0.05, max_value=4.0))
        segments.append(Segment(0.0, start, (draw(st.floats(min_value=-2.0, max_value=2.0)),
                                             draw(st.floats(min_value=-2.0, max_value=2.0)))))
    end, tail = math.inf, rg.ConstantTail(kappa)
    if draw(st.booleans()):
        width = draw(_widths())
        if width is None:
            width = draw(st.integers(min_value=1, max_value=4)) * math.ulp(max(start, 1.0))
        end, tail = start + width, rg.ZeroTail()
        segments.append(Segment(start, end, (kappa,)))
    t_end = draw(st.one_of(st.just(1e300), st.floats(min_value=0.1, max_value=50.0).map(
        lambda span: start + span)))
    return rg.CurvatureProfile(tuple(segments), tail), start, end, t_end, draw(_TOLS)


def _after_sine(kappa):
    """K = 1 on [0, 2), then the tail K = kappa."""
    return rg.CurvatureProfile((Segment(0.0, 2.0, (1.0,)),), rg.ConstantTail(kappa))


def _closed_form(kappa, f0, g0, tau):
    """f, f' at offset tau from (f0, f0') on K = kappa, with math's
    functions, and the condition scales |f0 C| + |f0' S| and
    |f0' C| + |kappa f0 S| of their rounding."""
    omega = math.sqrt(abs(kappa))
    x = omega * tau
    if kappa > 0.0:
        c, s = math.cos(x), math.sin(x)
    elif kappa < 0.0:
        c, s = math.cosh(x), math.sinh(x)
    else:
        c, s = 1.0, x
    s = tau * (s / x) if x > 0.0 else tau
    return (f0 * c + g0 * s, g0 * c - kappa * f0 * s,
            abs(f0 * c) + abs(g0 * s), abs(g0 * c) + abs(kappa * f0 * s))


def _exact_f(kappa, t0, f0, g0, t):
    """f at t from (t0, f0, f0') on K = kappa, in 80-digit decimal
    arithmetic from the exact float inputs."""
    with localcontext() as ctx:
        ctx.prec = 80
        tau, f0, g0 = Decimal(t) - Decimal(t0), Decimal(f0), Decimal(g0)
        if kappa == 0.0:
            return f0 + g0 * tau
        omega = Decimal(abs(kappa)).sqrt()
        x = omega * tau
        if kappa < 0.0 and x > 1:
            e = x.exp()
            c, s = (e + 1 / e) / 2, (e - 1 / e) / 2
        else:
            # Taylor series of cos and sin, or of cosh and sinh where they
            # would cancel; x stays below 4 here
            sign = -1 if kappa > 0.0 else 1
            c = s = Decimal(0)
            term = Decimal(1)
            for k in range(100):
                if k % 2 == 0:
                    c += term
                else:
                    s += term
                    term *= sign
                term = term * x / (k + 1)
        return f0 * c + g0 * s / omega


class TestConstantPieceClosedForm:
    """A constant piece against its closed form: every node, the dense
    output on a 2001-point grid, the first zero and the truncation."""

    @given(case=constant_piece_cases())
    # after K = 1 on [0, 2), f' < 0: a zero far out on kappa < 0, where d
    # cancels, and one close by on a small kappa > 0, where pi - phi would
    @example(case=(_after_sine(-0.2094), 2.0, math.inf, 60.0, 1e-8))
    @example(case=(_after_sine(1e-6), 2.0, math.inf, 60.0, 1e-8))
    # a zero after 157 grid steps of kappa = 1e4 at tol 1e-14, where 0 at
    # the zero node, instead of the closed form at its stored time, moved
    # the last step's f' by about 40 tol
    @example(case=(rg.CurvatureProfile((Segment(0.0, 1.0, (0.0, 0.0)),), rg.ConstantTail(1e4)),
                   1.0, math.inf, 1e300, 1e-14))
    @settings(max_examples=150, deadline=None)
    def test_against_closed_form(self, case):
        profile, start, end, t_end, tol = case
        sol = rg.solve(profile, t_end, tol)
        assume(start < sol.t_end)  # a zero on the line segment ends the solve first
        kappa = profile.piece_at(start)[0].evaluate(start)
        omega = math.sqrt(abs(kappa))
        ts, fs, fps = sol.ts.tolist(), sol.fs.tolist(), sol.fps.tolist()
        k0 = ts.index(start)
        k1 = max(k for k in range(k0, len(ts)) if ts[k] <= end)
        f0, g0 = fs[k0], fps[k0]
        zero = sol.first_zero is not None and k1 == len(ts) - 1
        # nodes, the one at a zero included: math's functions at the offset
        # of each stored time, within 8 ulp of the condition scale (past
        # x = 700 math.cosh leaves float range)
        for k in range(k0 + 1, k1 + 1):
            tau = ts[k] - start
            if omega * tau > 700.0:
                break
            f, fp, cf, cfp = _closed_form(kappa, f0, g0, tau)
            assert abs(fs[k] - f) <= 16 * _EPS * cf, k
            assert abs(fps[k] - fp) <= 16 * _EPS * cfp, k
        # the dense output: the grid's interpolation bound, tol a at f and
        # tol omega a at f' with a = |f| + |f'|/omega at the step's left
        # node, plus rounding: of the oracle, and of the nodes and the
        # interpolant, whose basis coefficients sum to 32 (f) and 120 (f',
        # divided by h) on the values, so that a tight grid at tol 1e-14
        # loses digits to (f1 - f0)/h
        grid = np.linspace(ts[k0], ts[k1], 2001)
        grid = grid[omega * (grid - start) <= 700.0]
        dense_f, dense_fp = sol.f(grid).tolist(), sol.fp(grid).tolist()
        steps = np.clip(np.searchsorted(sol.ts, grid, side="right") - 1, k0, k1 - 1).tolist()
        for t, df, dfp, j in zip(grid.tolist(), dense_f, dense_fp, steps):
            f, fp, cf, cfp = _closed_form(kappa, f0, g0, t - start)
            h = ts[j + 1] - ts[j]
            ends = [_closed_form(kappa, f0, g0, ts[i] - start) for i in (j, j + 1)]
            r_f = sum(abs(fs[i]) + e[2] for i, e in zip((j, j + 1), ends))
            r_fp = sum(abs(fps[i]) + e[3] for i, e in zip((j, j + 1), ends))
            rounding = 512 * _EPS * (r_f + h * r_fp + h * h * abs(kappa) * r_f)
            a = abs(fs[j]) + abs(fps[j]) / omega if omega else 0.0
            assert abs(df - f) <= tol * (1.0 + a) + rounding + 16 * _EPS * cf, t
            assert abs(dfp - fp) <= tol * (1.0 + omega * a) + rounding / h + 16 * _EPS * cfp, t
        if zero:
            # the first zero, within 4 ulp of the exact one: the exact f
            # changes sign between the two ends of that window
            tz = sol.first_zero
            assert all(x > 0.0 for x in fs[k0 + 1:-1])
            lo, hi = max(tz - 4 * math.ulp(tz), start), tz + 4 * math.ulp(tz)
            assert _exact_f(kappa, start, f0, g0, lo) > 0
            assert _exact_f(kappa, start, f0, g0, hi) < 0
        if sol.truncated and k1 == len(ts) - 1:
            # at the first node past the guard
            guard = rg.jacobi.GROWTH_GUARD
            assert max(abs(fs[-1]), abs(fps[-1])) >= guard
            assert all(max(abs(x), abs(y)) < guard for x, y in zip(fs[:-1], fps[:-1]))


@st.composite
def polynomial_piece_cases(draw):
    """(profile, piece start, piece end, t_end, tol): a polynomial segment
    of degree 0 to 8 with coefficients spread over 13 decades, or a
    sign-changing product of roots, of drawn width (few-ulp slivers
    included), entered at t = 0 or after a drawn line segment, then a zero
    tail; t_end inside the piece or past it."""
    segments, start = [], 0.0
    if draw(st.booleans()):
        start = draw(st.floats(min_value=0.05, max_value=4.0))
        segments.append(Segment(0.0, start, (draw(st.floats(min_value=-2.0, max_value=2.0)),
                                             draw(st.floats(min_value=-2.0, max_value=2.0)))))
    width = draw(_widths())
    if width is None:
        width = draw(st.integers(min_value=1, max_value=4)) * math.ulp(max(start, 1.0))
    end = start + width
    try:
        segments.append(draw(_any_segment(start, end, draw(st.sampled_from(
            ("polynomial", "roots"))))))
    except ProfileError:
        assume(False)
    t_end = draw(st.one_of(st.just(end + 1.0),
                           st.floats(min_value=0.0, max_value=1.0).map(
                               lambda s: max(start + s * width, math.nextafter(start, math.inf)))))
    return rg.CurvatureProfile(tuple(segments), rg.ZeroTail()), start, end, t_end, draw(_TOLS)


def _airy_state(seg, t0, f0, g0, times):
    """(f, f') at ``times`` from (f, f') = (f0, g0) at t0 on a line
    K = c0 + c1 t, by Airy's functions, or None where they would cancel:
    with s = alpha (t + c0/c1) and alpha = -c1^(1/3), f = A Ai(s) + B Bi(s)
    (the Wronskian of Ai and Bi is 1/pi); used where |c1| lies in
    [1e-2, 1e2] and s within [-6, 3], so that neither the pair nor
    f'/alpha loses digits."""
    from scipy.special import airy
    c0, c1 = seg.num
    alpha = -np.cbrt(c1)
    s = alpha * (np.concatenate(([t0], times)) + c0 / c1)
    if not (1e-2 <= abs(c1) <= 1e2 and s.min() >= -6.0 and s.max() <= 3.0):
        return None
    ai, aip, bi, bip = airy(s)
    g = g0 / alpha
    a = math.pi * (f0 * bip[0] - g * bi[0])
    b = math.pi * (g * ai[0] - f0 * aip[0])
    return a * ai[1:] + b * bi[1:], alpha * (a * aip[1:] + b * bip[1:])


def _local_state(seg, t0, y0, t1):
    """(f, f') at t1 from y0 at t0 on the segment's K, by ``dop853_state``:
    over one step, whose omega h is far below 1, DOP853 errs by rounding."""
    return dop853_state(rg.CurvatureProfile((seg,), rg.ZeroTail()) if seg.t_start == 0.0
                        else rg.CurvatureProfile((Segment(0.0, seg.t_start, (0.0,)), seg),
                                                 rg.ZeroTail()), t0, y0, t1)


class TestPolynomialPieces:
    """A non-constant polynomial segment is taken by Taylor transfer
    matrices on a grid per sign piece: each step against DOP853, a line's
    nodes against Airy's functions, the dense output against the quintic
    Hermite bound, the first zero, the Sturm cap, truncation at the growth
    guard and the errors it raises."""

    @given(case=polynomial_piece_cases())
    @settings(max_examples=150, deadline=None)
    def test_against_reference(self, case):
        profile, start, end, t_end, tol = case
        sol = rg.solve(profile, t_end, tol)
        assume(start < sol.t_end)  # a zero on the line segment ends the solve first
        seg = profile.piece_at(start)[0]
        ts, fs, fps = sol.ts.tolist(), sol.fs.tolist(), sol.fps.tolist()
        k0 = ts.index(start)
        k1 = max(k for k in range(k0, len(ts)) if ts[k] <= end)
        zero = sol.first_zero is not None and k1 == len(ts) - 1
        # each step keeps omega h below pi, omega >= sqrt(max K), so it
        # holds at most one zero (Sturm)
        for j in range(k0, k1):
            kmax = seg.max_on(ts[j], ts[j + 1])
            assert kmax <= 0.0 or (ts[j + 1] - ts[j]) * math.sqrt(kmax) < math.pi
        # steps, at most 40 of them, against DOP853 from the step's left
        # node: the Taylor tail is at most tol 2^-16 (|f| + h |f'|) at f and
        # at h f', and rounding and DOP853 add some ulps
        last = k1 - 1 if zero else k1
        sampled = np.linspace(k0, last - 1, 40).astype(int).tolist() if last > k0 else []
        for j in sorted(set(sampled)):
            h = ts[j + 1] - ts[j]
            f_ref, fp_ref = _local_state(seg, ts[j], (fs[j], fps[j]), ts[j + 1])
            bound = (2.0 ** -16 * tol + 256 * _EPS) * (abs(fs[j]) + h * abs(fps[j]) + abs(f_ref))
            assert abs(fs[j + 1] - f_ref) <= bound, j
            assert abs(fps[j + 1] - fp_ref) <= bound / h + 256 * _EPS * abs(fp_ref), j
        # a line's nodes against Airy's functions from the entry
        f0, g0 = fs[k0], fps[k0]
        reach = np.maximum.accumulate(np.maximum(np.abs(fs[k0:k1 + 1]),
                                                 np.abs(fps[k0:k1 + 1])))
        if len(seg.num) == 2 and seg.num[1] != 0.0 and last > k0:
            airy_nodes = _airy_state(seg, start, f0, g0, np.array(ts[k0 + 1:last + 1]))
            if airy_nodes is not None:
                for k, rf, rfp in zip(range(k0 + 1, last + 1), *airy_nodes):
                    allowed = (1e-3 * tol + 1e-12) * (1.0 + reach[k - k0])
                    assert abs(fs[k] - rf) <= allowed and abs(fps[k] - rfp) <= allowed, k
        # the dense output on 201 points against DOP853 from each point's
        # left node: tol a at f and tol omega a at f', a = |f| + |f'|/omega
        # at the left node with the step's own omega, plus rounding: of the
        # interpolant, whose basis coefficients sum to 32 (f) and 120 (f',
        # divided by h) on the values, so that a tight grid at tol 1e-14
        # loses digits to (f1 - f0)/h (the FOUND on ``_hermite``)
        if k1 > k0:
            grid = np.linspace(ts[k0], ts[k1], 201)[1:]
            dense_f, dense_fp = sol.f(grid).tolist(), sol.fp(grid).tolist()
            steps = np.clip(np.searchsorted(sol.ts, grid, side="right") - 1,
                            k0, k1 - 1).tolist()
            kv = seg.evaluate(np.asarray(ts))
            for t, df, dfp, j in zip(grid.tolist(), dense_f, dense_fp, steps):
                if zero and j == k1 - 1:
                    break  # the zero node holds the dense value, checked below
                h = ts[j + 1] - ts[j]
                rf, rfp = _local_state(seg, ts[j], (fs[j], fps[j]), t)
                omega = jacobi._local_scales(seg.num, ts[j], h).item()
                a = abs(fs[j]) + abs(fps[j]) / omega
                r_f = abs(fs[j]) + abs(fs[j + 1])
                r_fp = abs(fps[j]) + abs(fps[j + 1])
                r_d2 = abs(kv[j] * fs[j]) + abs(kv[j + 1] * fs[j + 1])
                rounding = 512 * _EPS * (r_f + h * r_fp + h * h * r_d2)
                assert abs(df - rf) <= tol * a + rounding, t
                assert abs(dfp - rfp) <= tol * omega * a + rounding / h, t
        if zero:
            # the exact f, from the zero step's left node, is within the
            # dense bound of 0 at the first zero, and every node before it
            # is positive
            tz, j = sol.first_zero, len(ts) - 2
            assert abs(fs[-1]) <= 1e-12 * abs(fps[-1]) + 1e-300
            assert all(x > 0.0 for x in fs[k0 + 1:-1])
            h = ts[-1] - ts[j]
            omega = jacobi._local_scales(seg.num, ts[j], h).item()
            rz = _local_state(seg, ts[j], (fs[j], fps[j]), tz)[0]
            assert abs(rz) <= (tol * (abs(fs[j]) + abs(fps[j]) / omega) + 1e-12 * abs(fps[-1])
                               + 512 * _EPS * (abs(fs[j]) + h * abs(fps[j])))

    @pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-14])
    def test_sign_pieces_share_nodes_with_m(self, tol):
        # K = (t - 1)(t - 2)(t - 3)/2 on [0, 4): m takes the nonpositive
        # pieces [0, 1) and [2, 3) on the very nodes of f, and the zero
        # pieces [1, 2) and [3, 4) in one step each
        seg = Segment(0.0, 4.0, tuple(0.5 * c for c in (-6.0, 11.0, -6.0, 1.0)))
        profile = rg.CurvatureProfile((seg,), rg.ZeroTail())
        f, m = rg.solve(profile, 4.0, tol), rg.solve_m(profile, 4.0, tol)
        assert f.first_zero is None
        (_, c1, p1), (_, c2, p2), (_, c3, p3), (_, _, p4) = seg.sign_pieces
        assert (p1, p2, p3, p4) == (False, True, False, True)
        for lo, hi in ((0.0, c1), (c2, c3)):
            on_f = [t for t in f.ts.tolist() if lo <= t <= hi]
            assert on_f == [t for t in m.ts.tolist() if lo <= t <= hi] and len(on_f) > 2
        for lo, hi in ((c1, c2), (c3, 4.0)):
            assert [t for t in m.ts.tolist() if lo < t < hi] == []
        grid = np.linspace(0.0, 4.0, 2001)
        fv, mv = f.f(grid), m.f(grid)
        assert (fv <= mv + 1e-9 * np.maximum(1.0, np.abs(mv))).all()

    def test_guard_truncates_at_first_node_past_it(self):
        # K = -(100 + t): f grows like e^(10 t), past the guard near t = 14
        profile = rg.CurvatureProfile((Segment(0.0, 20.0, (-100.0, -1.0)),), rg.ZeroTail())
        sol = rg.solve(profile, 20.0, 1e-8)
        guard = rg.jacobi.GROWTH_GUARD
        assert sol.truncated and sol.first_zero is None
        assert max(abs(sol.fs[-1]), abs(sol.fps[-1])) >= guard
        assert (np.maximum(np.abs(sol.fs[:-1]), np.abs(sol.fps[:-1])) < guard).all()
        f_ref, fp_ref = dop853_state(profile, 0.0, (0.0, 1.0), sol.t_end)
        assert sol.fs[-1] == pytest.approx(f_ref, rel=1e-9)
        assert sol.fps[-1] == pytest.approx(fp_ref, rel=1e-9)

    def test_first_zero_of_airy(self):
        # K = t: f = pi (Bi(0) Ai(-t) - Ai(0) Bi(-t)) from f(0) = 0 and
        # f'(0) = 1, whose first zero lies between 2 and 3
        from scipy.optimize import brentq
        from scipy.special import airy
        ai0, _, bi0, _ = airy(0.0)

        def exact(t):
            ai, _, bi, _ = airy(-t)
            return math.pi * (bi0 * ai - ai0 * bi)
        tz = brentq(exact, 2.0, 3.0, xtol=1e-15)
        profile = rg.CurvatureProfile((Segment(0.0, 10.0, (0.0, 1.0)),), rg.ZeroTail())
        for tol in (1e-3, 1e-8, 1e-14):
            # dense f errs by at most tol (|f| + |f'|/omega) < 2 tol |f'|
            # there, and the bisection stops at 1e-12
            sol = rg.solve(profile, 10.0, tol)
            assert sol.first_zero == pytest.approx(tz, abs=2.0 * tol + 2e-12)

    def test_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(jacobi, "_MAX_STEPS", 100)
        sizes = spy_taylor_steps(monkeypatch)
        profile = rg.CurvatureProfile((Segment(0.0, 50.0, (-1.0, -1.0)),), rg.ZeroTail())
        with pytest.raises(IntegrationError, match="step budget exhausted"):
            rg.solve(profile, 50.0, 1e-8)
        # no pass builds more nodes than the budget allows
        assert all(len(left) <= 100 for left in sizes)

    def test_budget_exhausted_past_built_nodes(self, monkeypatch):
        # the first segment's 12 nodes are built and walked; the first span
        # of the second would take the solve past the budget, and both f
        # and m stop at its start, as the walk reaches it
        monkeypatch.setattr(jacobi, "_MAX_STEPS", 100)
        sizes = spy_taylor_steps(monkeypatch)
        profile = rg.CurvatureProfile((Segment(0.0, 5.0, (0.0, -0.01)),
                                       Segment(5.0, 50.0, (-1.0, -1.0))), rg.ZeroTail())
        for solver in (rg.solve, rg.solve_m):
            with pytest.raises(IntegrationError, match="step budget exhausted") as exc:
                solver(profile, 50.0, 1e-8)
            assert exc.value.t_reached == 5.0
        assert [len(left) for left in sizes] == [12]

    def test_plan_errors_raise_where_the_walk_meets_them(self):
        # f's first zero lies on the positive line, long before the piece
        # K about -1e16 at t = 1e6, whose grid underflows as in
        # test_step_size_underflow.  The plan finds that grid with the
        # line's, and f returns its zero, with the nodes of a window that
        # ends before that piece; m, whose K is 0 up to it, raises there
        profile = rg.CurvatureProfile((Segment(0.0, 10.0, (1.0, 0.1)),
                                       Segment(10.0, 1e6, (0.0,)),
                                       Segment(1e6, 1e6 + 1.0, (-1e16, -1.0))), rg.ZeroTail())
        f = rg.solve(profile, 2e6, 1e-8)
        assert jacobi._memo.pieces[-1].underflow == 1e6
        assert f.first_zero is not None
        assert _outcome(f) == _outcome(rg.solve(profile, 20.0, 1e-8))
        with pytest.raises(IntegrationError, match="step size underflow") as exc:
            rg.solve_m(profile, 2e6, 1e-8)
        assert exc.value.t_reached == 1e6

    def test_step_size_underflow(self):
        # K about 1e16 at t = 1e6: a spacing of 1e-9 is below 1e-14 t
        profile = rg.CurvatureProfile((Segment(0.0, 1e6, (0.0,)),
                                       Segment(1e6, 1e6 + 1.0, (1e16, 1.0))), rg.ZeroTail())
        with pytest.raises(IntegrationError, match="step size underflow"):
            rg.solve(profile, 2e6, 1e-8)
        # K about -1e197 on a sliver at t = 51.3: omega h is about 1e85, so
        # the grid is far below the floor; one stepper step there returned
        # nodes that were not finite
        start = 51.29526924936907
        sliver = rg.CurvatureProfile((Segment(0.0, start, (0.0,)), Segment(
            start, start + 2.1316282072803006e-14,
            (1.249482490166951e-215, -0.0, -5.126898674439344e+193, -0.0, -0.0,
             -7.610737520257498e-285, -0.0, -0.0, 0.001))), rg.ConstantTail(-0.5))
        for solver in (rg.solve, rg.solve_m):
            with pytest.raises(IntegrationError, match="step size underflow"):
                solver(sliver, start + 4e-14, 1.3863385413778344e-13)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_f_below_m_on_criterion_7_profiles(self, tol, seed):
        # criterion 7's Sturm comparison with its own slack, on a dense grid
        from conftest import random_linear_profile
        profile = random_linear_profile(np.random.default_rng(seed))
        f, m = rg.solve(profile, 50.0, tol), rg.solve_m(profile, 50.0, tol)
        grid = np.linspace(0.0, min(f.t_end, m.t_end), 2001)
        fv, mv = f.f(grid), m.f(grid)
        assert (fv <= mv + 1e-9 * np.maximum(1.0, np.abs(mv))).all()


def _report_digest():
    """tools/report_digest.py as a module: its polynomial profiles, and the
    bench inputs (``inputs``) that it imports."""
    path = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def plan_profiles():
    """(profile, t_end): the three polynomial profiles of
    tools/report_digest.py on [0, 20], then the first 50 of its sweep
    profiles on [0, 50]."""
    digest = _report_digest()
    cases = [(rg.CurvatureProfile(tuple(Segment(lo, hi, num) for lo, hi, num in segments),
                                  tail), digest.POLYNOMIAL_T_END)
             for _, segments, tail in digest.POLYNOMIAL_PROFILES]
    sweep = digest.inputs.sweep_profiles(np.random.default_rng(digest.SWEEP_SEED),
                                         digest.SWEEP_COUNT, digest.SWEEP_BLOCK)[:50]
    return cases + [(rg.CurvatureProfile(tuple(Segment(lo, hi, (c0, c1))
                                               for lo, hi, c0, c1 in segments),
                                         rg.ZeroTail()), digest.SOLVE_T_END)
                    for segments in sweep]


def spy_taylor_steps(monkeypatch):
    """Route ``jacobi._taylor_steps`` through a spy; returns the list that
    collects the left nodes of each pass."""
    passes = []
    taylor_steps = jacobi._taylor_steps

    def spy(num, left, h, order):
        passes.append(left.tolist())
        return taylor_steps(num, left, h, order)
    monkeypatch.setattr(jacobi, "_taylor_steps", spy)
    return passes


class TestPolynomialPlan:
    """f and m walk the transfer matrices of one plan per profile, t_end
    and tol: m's nodes after f's solve are those of a cold plan, m builds
    no matrix that f built, f builds none past the chunk that holds its
    first zero, and the plan's arrays are read-only."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-14])
    def test_sharing_changes_no_bits(self, tol, monkeypatch):
        for profile, t_end in plan_profiles():
            monkeypatch.setattr(jacobi, "_memo", None)
            m_cold = _outcome(_run(rg.solve_m, profile, t_end, tol))
            f_after_m = _outcome(_run(rg.solve, profile, t_end, tol))
            monkeypatch.setattr(jacobi, "_memo", None)
            assert _outcome(_run(rg.solve, profile, t_end, tol)) == f_after_m
            assert _outcome(_run(rg.solve_m, profile, t_end, tol)) == m_cold

    def test_memo_keys_on_t_end_and_tol(self, monkeypatch):
        # the same profile object over another window or at another tol
        # gets its own plan: its solves equal cold ones
        for profile, t_end in plan_profiles()[:6]:
            for window, tol in ((t_end, 1e-6), (0.6 * t_end, 1e-6), (0.6 * t_end, 1e-9)):
                monkeypatch.setattr(jacobi, "_memo", None)
                cold = [_outcome(_run(solver, profile, window, tol))
                        for solver in (rg.solve, rg.solve_m)]
                monkeypatch.setattr(jacobi, "_memo", None)
                rg.solve(profile, t_end, 1e-8)
                rg.solve_m(profile, t_end, 1e-8)
                assert [_outcome(_run(solver, profile, window, tol))
                        for solver in (rg.solve, rg.solve_m)] == cold

    @pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-14])
    def test_matrices_built_once_and_as_far_as_f_goes(self, tol, monkeypatch):
        passes = spy_taylor_steps(monkeypatch)
        zeros = 0
        for profile, t_end in plan_profiles():
            monkeypatch.setattr(jacobi, "_memo", None)
            passes.clear()
            f = rg.solve(profile, t_end, tol)
            by_f = list(passes)
            passes.clear()
            rg.solve_m(profile, t_end, tol)
            by_m = {t for left in passes for t in left}
            assert not by_m & {t for left in by_f for t in left}
            if f.first_zero is not None:
                zeros += 1
                # a pass holds at most one chunk of a positive piece, and
                # each such chunk starts before the zero
                positive = [(lo, hi) for _, lo, hi, up in profile.sign_pieces() if up]
                for left in by_f:
                    on_positive = [t for t in left if any(lo <= t < hi for lo, hi in positive)]
                    assert not on_positive or on_positive[0] < f.first_zero
                # chunks double from _CHUNK_NODES nodes, so on the piece of
                # the zero f built fewer than twice the nodes it walked
                # there, plus the first chunk
                for lo, hi in positive:
                    if lo < f.first_zero <= hi:
                        built = sum(lo <= t < hi for left in by_f for t in left)
                        walked = int(((f.ts >= lo) & (f.ts <= f.first_zero)).sum())
                        assert built <= 2 * walked + jacobi._CHUNK_NODES
            for piece in jacobi._memo.pieces:
                for array in (piece.t, piece.negk, *piece.chunks):
                    assert not array.flags.writeable
        assert zeros > 10


class TestConvergence:
    @pytest.mark.parametrize("profile_factory,t_end,reference", [
        (lambda: rg.power_tail_profile(-6.0, 4.0), 100.0, abresch_f),
        (lambda: rg.constant_profile(-1.0), 10.0, math.sinh),
    ])
    def test_error_scales_with_tol(self, profile_factory, t_end, reference):
        # average rate over 8 tol halvings: at least a factor 2 for every
        # 2 halvings (single halvings fluctuate around the trend).  The
        # error is the largest on a grid of the dense output: on a constant
        # piece the nodes are the closed form to rounding at every tol, and
        # tol sets the grid
        profile = profile_factory()
        grid = np.linspace(0.0, t_end, 201)[1:].tolist()

        def error(tol):
            sol = rg.solve(profile, t_end, tol)
            return max(abs(sol.f(t) - reference(t)) for t in grid)
        assert error(1e-6 / 256.0) < error(1e-6) / 64.0


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
