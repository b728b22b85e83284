import bisect
import dataclasses
import functools
import gc
import importlib.util
import math
import re
import sys
import weakref
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import radialgeo as rg
import taylor_oracle
from sturm_oracle import max_on
from radialgeo import jacobi, model_space
from radialgeo.curvature_profile import Segment, _taylor_shift
from radialgeo.errors import IntegrationError, ProfileError
from radialgeo.gallery import abresch_f, abresch_fp, beta_profile, entry_by_name
from radialgeo.pipeline import DEFAULT_T_END, DEFAULT_TOL

# Reference integration of the piecewise profile K(t) = 1 - t on [0, 2),
# zero tail, run with scipy DOP853 at rtol = atol = 1e-13 and frozen here.
PIECEWISE_F5 = 6.8498035253323408
PIECEWISE_FP5 = 1.6208328830964513


# solve(profile, DEFAULT_T_END, DEFAULT_TOL) on each gallery profile:
# n_steps, n_rejected, then t_end and f, f' at the last node as float.hex.
# Any change to the solver's arithmetic or grids moves these.  The first
# three are constant pieces, solved in closed form on the grid of spacing
# _grid_u(tol)/omega: flat is one step to T, hyperbolic stops at the first
# grid node past the growth guard, spherical at its first zero.  The
# others are a power tail or a rational segment, taken by Taylor transfer
# matrices.
GALLERY_TRACE = {
    "flat": (1, 0, "0x1.0000000000000p+12",
             "0x1.0000000000000p+12", "0x1.0000000000000p+0"),
    "hyperbolic": (856, 0, "0x1.1604fd4752c26p+7",
                   "0x1.7675e02c88e3ap+199", "0x1.7675e02c88e3ap+199"),
    "spherical": (20, 0, "0x1.921fb54442d18p+1",
                  "0x1.1a62633145c07p-53", "-0x1.0000000000000p+0"),
    "abresch_tail": (199, 0, "0x1.0000000000000p+12",
                     "0x1.2c4284e9d4459p+13", "0x1.2c5e64cd15c04p+1"),
    "sign_changing_beta_ln2": (395, 0, "0x1.0000000000000p+12",
                               "0x1.000000b172186p+11", "0x1.fffffe9d1bd41p-2"),
    "sign_changing_beta_neg_ln2": (400, 0, "0x1.0000000000000p+12",
                                   "0x1.fffffe9d1bd3cp+12", "0x1.000000b172161p+1"),
    "moment_boundary": (187, 0, "0x1.0000000000000p+12",
                        "0x1.31b56b2846190p+18", "0x1.ee86ba95a6610p+6"),
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

    @pytest.mark.parametrize("t_end", [2.2250738585e-313, 1e-310, 5e-324])
    def test_subnormal_t_end_refused(self, t_end):
        # a zero segment on [0, 1) to t_end = 2.2250738585e-313 at tol 1e-14
        # gave dense f' 1.0000000000222: subnormal nodes carry an absolute
        # quantum, 2.2e-11 of f there, which the dense bound does not count
        profile = rg.CurvatureProfile((Segment(0.0, 1.0, (0.0,)),), rg.ZeroTail())
        for solver in (rg.solve, rg.solve_m):
            with pytest.raises(ValueError, match="least normal float"):
                solver(profile, t_end, 1e-14)
        assert rg.solve(profile, sys.float_info.min, 1e-14).t_end == sys.float_info.min

    @pytest.mark.parametrize("profile", [
        # K = 0 on [0, 1e-310), then K = 0 on [1e-310, 1): a segment end
        rg.CurvatureProfile((Segment(0.0, 1e-310, (0.0,)), Segment(1e-310, 1.0, (0.0,)))),
        # K = t - 1e-310 on [0, 1): a sign-piece end, and a segment end of
        # the negative part
        rg.CurvatureProfile((Segment(0.0, 1.0, (-1e-310, 1.0)),)),
    ], ids=["zero_segments", "sign_pieces"])
    def test_subnormal_breakpoint_refused(self, profile):
        # the first of these solved to t_end = 1 at tol 1e-14 had the node
        # f(1e-310) subnormal, and dense f' and f 5e-14 off relative on
        # (0, 1e-310]; no walk is kept, so every call refuses it
        assert subnormal_end(profile, 1.0) == 1e-310
        for solver in (rg.solve, rg.solve_m):
            for _ in range(2):
                with pytest.raises(ValueError, match="breakpoint 1e-310 lies below the least normal"):
                    solver(profile, 1.0, 1e-14)

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


def _quintic_terms(h, y0, d0, a0, y1, d1, a1, s, derivative):
    """The quintic Hermite interpolant of one step, or its derivative, at
    the local coordinate s, written out term by term in Python floats:
    the reference that the array kernel ``jacobi._quintic`` must match bit
    for bit."""
    d0, d1 = d0 * h, d1 * h
    a0, a1 = a0 * h * h, a1 * h * h
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    s5 = s4 * s
    if not derivative:
        return (y0 * (1.0 - 10.0 * s3 + 15.0 * s4 - 6.0 * s5)
                + d0 * (s - 6.0 * s3 + 8.0 * s4 - 3.0 * s5)
                + a0 * 0.5 * (s2 - 3.0 * s3 + 3.0 * s4 - s5)
                + y1 * (10.0 * s3 - 15.0 * s4 + 6.0 * s5)
                + d1 * (-4.0 * s3 + 7.0 * s4 - 3.0 * s5)
                + a1 * 0.5 * (s3 - 2.0 * s4 + s5))
    return (y0 * (-30.0 * s2 + 60.0 * s3 - 30.0 * s4)
            + d0 * (1.0 - 18.0 * s2 + 32.0 * s3 - 15.0 * s4)
            + a0 * 0.5 * (2.0 * s - 9.0 * s2 + 12.0 * s3 - 5.0 * s4)
            + y1 * (30.0 * s2 - 60.0 * s3 + 30.0 * s4)
            + d1 * (-12.0 * s2 + 28.0 * s3 - 15.0 * s4)
            + a1 * 0.5 * (3.0 * s2 - 8.0 * s3 + 5.0 * s4)) / h


def _step_args(sol, j):
    """h, then f, f' and f'' at the left end and at the right end of step j,
    in Python floats."""
    ts, fs, fps = sol.ts, sol.fs, sol.fps
    return (ts.item(j + 1) - ts.item(j), fs.item(j), fps.item(j), sol.d2_left.item(j),
            fs.item(j + 1), fps.item(j + 1), sol.d2_right.item(j))


def _dense_reference(sol, t, derivative):
    """The dense output at one time t: its step located by bisect, as the
    last step that starts at or before t, and the local coordinate capped
    to [0, 1], then ``_quintic_terms``."""
    ts = sol.ts.tolist()
    j = min(max(bisect.bisect_right(ts, t) - 1, 0), len(ts) - 2)
    s = (t - ts[j]) / (ts[j + 1] - ts[j])
    s = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s
    return _quintic_terms(*_step_args(sol, j), s, derivative)


def _kernel_cases():
    """(name, solution): polynomial, rational and tail pieces, closed-form
    constant pieces, a first zero, a hyperbolic solve cut at the growth
    guard, and nodes of signed zeros, where only the order of the terms
    decides the sign of a zero."""
    lines = rg.CurvatureProfile((Segment(0.0, 7.0, (0.4, -0.15)), Segment(7.0, 30.0, (-0.2, 0.01))),
                                rg.ZeroTail())
    hyperbolic = rg.solve(rg.constant_profile(-4.0), 1e4, 1e-8)
    assert hyperbolic.truncated
    return [("lines f", rg.solve(lines, 50.0, 1e-8)),
            ("lines m", rg.solve_m(lines, 50.0, 1e-8)),
            ("spherical", rg.solve(rg.constant_profile(1.0), 10.0, 1e-10)),
            ("hyperbolic guard", hyperbolic),
            *((name, _gallery_solution(name, False)) for name in
              ("abresch_tail", "sign_changing_beta_ln2", "moment_boundary")),
            # at t = -0.0 every product is -0.0 times a basis row of signed
            # zeros; inside the second step every product is -0.0
            ("signed zeros", jacobi.WarpingSolution(
                rg.zero_profile(), 1e-8, np.array([0.0, 0.5, 1.0]), np.array([-0.0, -0.0, -0.0]),
                np.array([-0.0, -0.0, 0.0]), np.array([-0.0, -0.0]), np.array([-0.0, -0.0])))]


KERNEL_CASES = _kernel_cases()


class TestDenseKernel:
    """The array read (``jacobi._quintic`` on ``WarpingSolution._gather``)
    gives, point for point, the bits of the quintic written out term by
    term, at every kind of time and in every shape of input."""

    @staticmethod
    def times(sol):
        # t = -0.0 is in the window and reads s = -0.0 on the first step
        end = sol.t_end
        rng = np.random.default_rng(len(sol.ts))
        return [0.0, -0.0, end, end * (1 + 1e-15), *sol.ts.tolist(),
                *rng.uniform(0.0, end, 300).tolist(),
                # just past and just before nodes, s near 0 and near 1
                *(math.nextafter(t, math.inf) for t in sol.ts[:-1].tolist()),
                *(math.nextafter(t, -math.inf) for t in sol.ts[1:].tolist())]

    @pytest.mark.parametrize("name, sol", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
    @pytest.mark.parametrize("derivative", [False, True], ids=["f", "fp"])
    def test_points_of_every_shape(self, name, sol, derivative):
        read = sol.fp if derivative else sol.f
        times = self.times(sol)
        expected = [float.hex(_dense_reference(sol, t, derivative)) for t in times]
        assert [float.hex(x) for x in read(np.array(times)).tolist()] == expected
        assert [float.hex(x) for x in read(times).tolist()] == expected
        assert [float.hex(read(t)) for t in times] == expected
        # a 2-D array keeps its shape, and so does a block of points past
        # the kernel's block size
        k = len(times) // 2 * 2
        grid = read(np.array(times[:k]).reshape(2, -1))
        assert grid.shape == (2, k // 2)
        assert [float.hex(x) for x in grid.ravel().tolist()] == expected[:k]
        many = np.resize(np.array(times), 2 * jacobi._DENSE_POINTS + 7)
        assert ([float.hex(x) for x in read(many).tolist()]
                == [expected[i % len(times)] for i in range(len(many))])

    @pytest.mark.parametrize("name, sol", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
    def test_local_coordinates_in_two_dimensions(self, name, sol):
        # as _log_integrals reads the dense output: the local coordinates
        # of Gauss nodes times fractions u of the steps, one row per node
        x = model_space._gauss_rule(5)[0]
        steps = len(sol.ts) - 1
        j = np.arange(steps)
        u = np.concatenate(([-0.0, 0.0, 1.0],
                            np.random.default_rng(steps).uniform(0.0, 1.0, steps)))[:steps]
        s = u * x[:, None]
        got = jacobi._quintic(sol._gather(j), s, False)
        assert got.shape == (len(x), steps)
        expected = [[float.hex(_quintic_terms(*_step_args(sol, i), s[r, i].item(), False))
                     for i in range(steps)] for r in range(len(x))]
        assert [[float.hex(v) for v in row] for row in got.tolist()] == expected


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
    # of its piece and positive only within about 0.03 of t = 10; its
    # poles 10 +- 1e-3 i set the steps that lead up to it
    den = (1.0 + 1e8, -2e7, 1e6)
    num = (1.0 - 1e-3 * den[0], -1e-3 * den[1], -1e-3 * den[2])
    return rg.CurvatureProfile((Segment(0.0, 20.0, num, den),), rg.ZeroTail())


def _origin_spike_profile():
    # K = 1e4/(1 + 1e8 t^2) on [0, 10): its peak is at t = 0, where f = 0,
    # and its poles +-1e-4 i set the first steps
    return rg.CurvatureProfile((Segment(0.0, 10.0, (1e4,), (1.0, 0.0, 1e8)),), rg.ZeroTail())


def _close_pole_profile():
    # den ((t - 1.3)^2 + d^2)(t + 1e8) with d about 1.8e-7: numpy.roots
    # puts the close pair on the real axis inside [0, 2), and K's float
    # value there is mostly rounding
    den = (169000000.00000316, -259999998.31, 99999997.4, 1.0)
    return rg.CurvatureProfile((Segment(0.0, 2.0, (1.0,), den),), rg.ZeroTail())


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
        """h sqrt(max K) / pi of each step where max K > 0."""
        ratios = []
        for t0, t1 in zip(sol.ts[:-1].tolist(), sol.ts[1:].tolist()):
            piece, _ = profile.piece_at(t0)
            kmax = max_on(piece, t0, t1)
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
    elif name == "abresch_tail":
        # ten times closer than the tol 1e-8 that sets the grid asks
        assert abs(sol.fps[-1] / abresch_fp(T) - 1.0) <= 2.4e-11
        assert abs(sol.fs[-1] / abresch_f(T) - 1.0) <= 2.4e-11


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


def _rounding_of_k(profile, ts):
    """A bound on the rounding of K at the times ts, the nodes of a solve:
    on a rational segment 64 units of 2^-53 per degree times
    (sum |num_i| t^i + |K| sum |den_i| t^i)/|den|, where K's float value
    is partly rounding when den cancels; 64 units of K elsewhere."""
    ts = np.asarray(ts)
    bound = np.zeros_like(ts)
    for i, piece in enumerate((*profile.segments, profile.tail)):
        lo = profile.breakpoints[i] if i < len(profile.segments) else profile.t_tail
        hi = piece.t_end if i < len(profile.segments) else math.inf
        at = (ts >= lo) & (ts <= hi)
        t = ts[at]
        k = np.abs(np.asarray(piece.evaluate(t), dtype=float)) * np.ones_like(t)
        if isinstance(piece, Segment) and not piece.is_polynomial:
            mag = lambda c: sum(abs(x) * t ** j for j, x in enumerate(c))  # noqa: E731
            den = np.abs(np.polynomial.polynomial.polyval(t, piece.den))
            spread = (mag(piece.num) + k * mag(piece.den)) / den
            bound[at] = np.maximum(bound[at], 64 * _EPS * len(piece.den) * spread)
        bound[at] = np.maximum(bound[at], 64 * _EPS * k)
    return bound


def subnormal_end(profile, t_end):
    """The first segment or sign-piece end of ``profile`` in
    (0, sys.float_info.min) and below t_end, which a solve refuses, or
    None."""
    return next((hi for _, _, hi, _ in profile.sign_pieces()
                 if 0.0 < hi < sys.float_info.min and hi < t_end), None)


def assert_refused_if_subnormal_end(profile, t_end, tol):
    """Whether ``profile`` has a segment or sign-piece end below the least
    normal float before t_end, after checking that solve and solve_m
    refuse it, naming that end."""
    end = subnormal_end(profile, t_end)
    if end is not None:
        for solver in (rg.solve, rg.solve_m):
            with pytest.raises(ValueError, match=re.escape(
                    f"breakpoint {end!r} lies below the least normal float")):
                solver(profile, t_end, tol)
    return end is not None


def assert_matches_oracle(profile, t_end, tol):
    """solve and solve_m reach their end and agree there with the 50-digit
    Taylor oracle (``taylor_oracle``) on the profile and on its negative
    part, within the solve's error scale: per node the Taylor tail of at
    most 2^-16 tol of the state and some ulps of rounding, and the effect
    of K's own rounding over the step, summed over the nodes and amplified
    by the flow, which the largest |f| and |f'| stand for; at a first zero
    also the dense output's error.  A profile with a breakpoint below the
    least normal float must be refused instead."""
    if assert_refused_if_subnormal_end(profile, t_end, tol):
        return
    for solver, pieces in ((rg.solve, profile), (rg.solve_m, rg.negative_part(profile))):
        sol = solver(profile, t_end, tol)
        assert sol.t_end == t_end or sol.first_zero is not None or sol.truncated
        f_ref, fp_ref = taylor_oracle.state(pieces, sol.t_end)
        ts = sol.ts
        amp = 1.0 + max(np.abs(sol.fs).max(), np.abs(sol.fps).max())
        h = np.diff(ts)
        noise = float((h * (1.0 + h) * _rounding_of_k(pieces, ts[1:])).sum())
        scale = amp * (len(ts) * (2.0 ** -16 * tol + 2.0 ** -40) + 64.0 * (1.0 + ts[-1]) * noise)
        if sol.first_zero is not None:
            # a zero's node is the dense output's, within tol a at f and
            # tol omega a at f', with omega h at most 1 on its step
            scale += tol * amp * (1.0 + 1.0 / h[-1])
        assert abs(sol.fs[-1] - f_ref) <= scale, (solver.__name__, sol.fs[-1], f_ref, scale)
        assert abs(sol.fps[-1] - fp_ref) <= scale, (solver.__name__, sol.fps[-1], fp_ref, scale)


class TestOracle:
    """``taylor_oracle`` against closed forms in exact arithmetic, to 30
    digits: abresch_tail's power tail, moment_boundary's, and the beta
    family's rational K with b = ln 2 in 50 digits."""

    @staticmethod
    def closed_forms(t):
        d = Decimal
        x, s5, s6 = 1 + t, d(5).sqrt(), d(6).sqrt()
        u = s6 * t / x
        sinh, cosh = (u.exp() - (-u).exp()) / 2, (u.exp() + (-u).exp()) / 2
        phi, b = (1 + s5) / 2, d(2).ln()
        q = t * t / (1 + t * t)
        return {
            "abresch": ((d(-6), d(4)), x * sinh / s6, sinh / s6 + cosh / x),
            "moment": ((d(-1), d(2)), ((phi * x.ln()).exp() - ((1 - phi) * x.ln()).exp()) / s5,
                       (phi * ((phi - 1) * x.ln()).exp() + (phi - 1) * (-phi * x.ln()).exp()) / s5),
            "beta": (((6 * b, d(0), 4 * b - 4 * b * b, d(0), -2 * b),
                      tuple(map(d, (1, 0, 4, 0, 6, 0, 4, 0, 1)))),
                     t * (-b * q).exp(), (-b * q).exp() * (1 - 2 * b * q / (1 + t * t))),
        }

    @pytest.mark.parametrize("name", ["abresch", "moment", "beta"])
    @pytest.mark.parametrize("t", [10, 100])
    def test_closed_forms_to_30_digits(self, name, t):
        with localcontext() as ctx:
            ctx.prec = taylor_oracle.DIGITS
            data, f, fp = self.closed_forms(Decimal(t))[name]
            kind = "rational" if name == "beta" else "power"
            pieces = [(Decimal(0), taylor_oracle._INF, kind, data)]
            got_f, got_fp = taylor_oracle.integrate(pieces, Decimal(0), Decimal(0), Decimal(1),
                                                     Decimal(t))
            assert abs(got_f - f) <= Decimal("1e-30") * abs(f)
            assert abs(got_fp - fp) <= Decimal("1e-30") * abs(fp)


class TestRationalPieces:
    """Rational segments are taken by Taylor transfer matrices on a grid
    whose scale comes from the poles of K: narrow spikes, close poles and
    the beta family against the oracle, the pole discs, f <= m with m's
    nodes on f's, and the slope bar of a solve through them."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-8])
    def test_narrow_spike(self, tol):
        assert_matches_oracle(_spike_profile(), 60.0, tol)

    def test_spike_past_slivers(self):
        # two zero slivers, then the spike 1/(1 + 1e7 (t - 1)^2)
        profile = rg.CurvatureProfile(
            (Segment(0.0, 2.0 ** -52, (0.0,)), Segment(2.0 ** -52, 2.0 ** -51, (0.0,)),
             Segment(2.0 ** -51, 2.0 + 2.0 ** -51, (1.0, 0.0, -0.0),
                     (10000001.0, -20000000.0, 10000000.0))), rg.ZeroTail())
        for tol in (1e-7, 1e-12):
            assert_matches_oracle(profile, profile.t_tail + 1.0, tol)

    def test_close_pole_pair_does_not_stall(self):
        profile = _close_pole_profile()
        for solver in (rg.solve, rg.solve_m):
            sol = solver(profile, 3.0, 1e-8)
            assert sol.ts[-1] == 3.0 and sol.first_zero is None and not sol.truncated
        assert_matches_oracle(profile, 3.0, 1e-8)

    def test_pole_discs_hold_the_roots(self):
        assert Segment(0.0, 1.0, (1.0, 2.0))._poles == ()
        assert Segment(0.0, 1.0, (1.0,), (2.0,))._poles == ()
        # den (t - 3)(t^2 + 1): three discs of one root each
        discs = sorted(Segment(0.0, 1.0, (1.0,), (-3.0, 1.0, -3.0, 1.0))._poles,
                       key=lambda d: (d[0].real, d[0].imag))
        for (z, r, count), root in zip(discs, (-1j, 1j, 3.0)):
            assert count == 1 and abs(z - root) <= r < 1e-12
        # (1 + t)^2, whose double root numpy.roots gives twice: one disc
        # with both
        (z, r, count), = Segment(0.0, 1.0, (1.0,), (1.0, 2.0, 1.0))._poles
        assert count == 2 and abs(z + 1.0) <= r < 1e-6
        # (1 + t^2)^4 of the beta family: a disc of four roots about each
        # of +-i
        discs = entry_by_name("sign_changing_beta_ln2").profile.segments[0]._poles
        assert sorted(count for *_, count in discs) == [4, 4]
        for z, r, _ in discs:
            assert abs(z - (1j if z.imag > 0 else -1j)) <= r < 0.01
        # the close pair: its disc reaches the real axis, so the cells near
        # it take their scale from den itself
        close = _close_pole_profile().segments[0]._poles
        assert any(abs(z.imag) <= r and 1.29 < z.real < 1.31 for z, r, _ in close)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_f_below_m_by_the_same_maps(self, tol):
        # ROADMAP item 10's family, K = (k0 - c t)/(1 + d t^2) on [0, t1),
        # then -k2/(1 + d t^2) up to t2, then a zero tail: criterion 7's
        # slack of 1e-9 on a 2001-point grid, with m's nodes on the
        # nonpositive pieces those of f
        rng = np.random.default_rng(3)
        for _ in range(300):
            k0, c, d = 10.0 ** rng.uniform(-5, -3), rng.uniform(0.3, 1.0), 10.0 ** rng.uniform(-3, -1)
            t1, k2 = rng.uniform(5, 20), rng.uniform(0.05, 1.0)
            t2 = t1 + rng.uniform(1, 30)
            den = (1.0, 0.0, d)
            profile = rg.CurvatureProfile((Segment(0.0, t1, (k0, -c), den),
                                           Segment(t1, t2, (-k2,), den)), rg.ZeroTail())
            f, m = rg.solve(profile, 50.0, tol), rg.solve_m(profile, 50.0, tol)
            grid = np.linspace(0.0, min(f.t_end, m.t_end), 2001)
            fv, mv = f.f(grid), m.f(grid)
            assert (fv <= mv + 1e-9 * np.maximum(1.0, np.abs(mv))).all()
            for _, lo, hi, positive in profile.sign_pieces():
                if not positive and hi <= f.t_end:
                    on_f = f.ts[(f.ts >= lo) & (f.ts <= hi)]
                    on_m = m.ts[(m.ts >= lo) & (m.ts <= hi)]
                    assert on_f.tobytes() == on_m.tobytes() and len(on_f) > 2

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("name", ["abresch_tail", "moment_boundary", "sign_changing_beta_ln2",
                                      "sign_changing_beta_neg_ln2"])
    def test_dense_output_within_the_grid_bound(self, name, tol):
        # the dense output at the middle of 40 steps against the oracle
        # from the step's left node: within tol a at f and tol omega a at
        # f', a = |f| + |f'|/omega, with omega bounded below by the scale
        # of the step itself and above by x/h, plus rounding
        profile = entry_by_name(name).profile
        sol = rg.solve(profile, 60.0, tol)
        x = jacobi._taylor_rule(tol, None)[0]
        ts, fs, fps = sol.ts.tolist(), sol.fs.tolist(), sol.fps.tolist()
        for j in np.linspace(0, len(ts) - 2, 40).astype(int).tolist():
            h, mid = ts[j + 1] - ts[j], 0.5 * (ts[j] + ts[j + 1])
            piece = profile.piece_at(ts[j])[0]
            kind = jacobi._kind(piece)[0]
            low = kind.scales((), np.array([ts[j]]), np.array([h])).item()
            rf, rfp = taylor_oracle.state(profile, mid, ts[j], (fs[j], fps[j]))
            rounding = 512 * _EPS * (abs(fs[j]) + abs(fs[j + 1]) + h * (abs(fps[j]) + abs(fps[j + 1])))
            assert abs(sol.f(mid) - rf) <= tol * (abs(fs[j]) + abs(fps[j]) / low) + rounding, j
            assert abs(sol.fp(mid) - rfp) <= tol * (x / h * abs(fs[j]) + abs(fps[j])) + rounding / h, j

    def test_slope_bar_holds(self):
        # K = -0.97839/(1 - 0.2 t + 0.011142 t^2) on [0, 56.774), then a
        # zero tail: the slope is f'(56.774), which the stepper's solve
        # missed by 2.94 of its bar at tol 1e-8
        profile = rg.CurvatureProfile((Segment(0.0, 56.774, (-0.97839,),
                                               (1.0, -0.2, 0.011142)),), rg.ZeroTail())
        exact = taylor_oracle.state(profile, 56.774)[1]
        for tol in (1e-6, 1e-8):
            s = rg.slope_limit(rg.solve(profile, DEFAULT_T_END, tol))
            assert abs(s.value - exact) <= s.err, (tol, s.value, s.err, exact)


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
        # c +- i/sqrt(w) shorten the steps that lead up to it
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
    negative K, whose poles set the steps near them."""
    knots = [0.0]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        knots.append(knots[-1] + draw(st.floats(min_value=1.0, max_value=20.0)))
    return rg.CurvatureProfile(tuple(draw(_any_segment(lo, hi, "spike"))
                                     for lo, hi in zip(knots, knots[1:])), rg.ZeroTail())


class TestScales:
    """The local scale of a rational or power-tail cell bounds K's Taylor
    coefficients for every j: |K_j| <= omega^(j+2) at its ends and middle,
    with K_j in 50 digits (``taylor_oracle``), for j up to 60."""

    @staticmethod
    def check(kind, exact_kind, exact, a, w):
        omega = kind.scales((), np.array([a]), np.array([w])).item()
        if omega == math.inf:
            return False  # a cell the scale does not certify
        with localcontext() as ctx:
            ctx.prec = taylor_oracle.DIGITS
            for t in (a, a + 0.5 * w, a + w):
                series = taylor_oracle._Series(exact_kind, exact, Decimal(t))
                for j in range(61):
                    assert abs(series[j]) <= Decimal(omega) ** (j + 2) * Decimal(1 + 1e-12), (t, j)
        return True

    @given(data=st.data(), family=st.sampled_from(("beta", "spike", "rational")))
    @settings(max_examples=150, deadline=None)
    def test_rational_cells(self, data, family):
        lo = data.draw(st.floats(min_value=0.0, max_value=20.0))
        hi = lo + data.draw(st.floats(min_value=0.05, max_value=20.0))
        try:
            seg = data.draw(_any_segment(lo, hi, family))
        except ProfileError:
            assume(False)
        kind = jacobi._kind(seg)[0]
        assume(isinstance(kind, jacobi._Rational))
        a = data.draw(st.floats(min_value=lo, max_value=hi))
        w = (hi - a) * data.draw(st.floats(min_value=0.0, max_value=1.0))
        assume(w > 0.0)
        exact = (tuple(map(Decimal, seg.num)), tuple(map(Decimal, seg.den)))
        self.check(kind, "rational", exact, a, w)

    def test_far_out_cells(self):
        # at t = 1e34 a degree-8 denominator's powers of t leave float
        # range, so its coefficients are shifted by Horner's rule
        seg = Segment(1e34, 2e34, (1.0, -1e-34), (1.0,) + (0.0,) * 7 + (1e-272,))
        kind = jacobi._kind(seg)[0]
        assert kind.wide
        exact = (tuple(map(Decimal, seg.num)), tuple(map(Decimal, seg.den)))
        for a, w in ((1e34, 1e33), (1.5e34, 1e30)):
            assert self.check(kind, "rational", exact, a, w)

    @given(coef=st.floats(min_value=-10.0, max_value=10.0).filter(bool),
           p=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 4.0]), st.floats(min_value=0.1, max_value=8.0)),
           a=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4)))
    @settings(max_examples=150, deadline=None)
    def test_tail_cells(self, coef, p, a):
        self.check(jacobi._kind(rg.PowerDecayTail(coef, p))[0], "power",
                   (Decimal(coef), Decimal(p)), a, 1.0 + a)


class TestAgainstOracle:
    """solve and solve_m on every kind of piece, gallery entries, Sturm
    cap profiles, slivers and drawn profiles, against the 50-digit Taylor
    oracle (``assert_matches_oracle``)."""

    @pytest.mark.parametrize("name", sorted(GALLERY_TRACE))
    def test_gallery(self, name):
        assert_matches_oracle(entry_by_name(name).profile, 200.0, DEFAULT_TOL)

    @pytest.mark.parametrize("tol", [1e-3, 1e-8])
    @pytest.mark.parametrize("name", sorted(STURM_CAP_PROFILES))
    def test_sturm_cap_profiles(self, name, tol):
        assert_matches_oracle(STURM_CAP_PROFILES[name](), 60.0, tol)

    @pytest.mark.parametrize("profile", [_sliver_segments, _sliver_sign_pieces])
    def test_slivers(self, profile):
        assert_matches_oracle(profile(), 10.0, 1e-8)

    @given(profile=any_profiles(), span=st.floats(min_value=0.1, max_value=8.0),
           tol=_TOLS)
    @settings(max_examples=150, deadline=None)
    def test_drawn_profiles(self, profile, span, tol):
        assert_matches_oracle(profile, profile.t_tail + span, tol)

    @given(profile=spike_profiles(),
           tol=st.floats(min_value=-6.0, max_value=-3.0).map(lambda e: min(10.0 ** e, 1e-3)))
    @settings(max_examples=60, deadline=None)
    def test_drawn_spikes(self, profile, tol):
        assert_matches_oracle(profile, profile.t_tail + 5.0, tol)


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
        if assert_refused_if_subnormal_end(profile, t_end, tol):
            return  # a drawn line with a root below the least normal float
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
    # a line whose first zero lies on it, so the zero checks always run
    @example(case=(rg.CurvatureProfile((Segment(0.0, 10.0, (1.0, 0.1)),), rg.ZeroTail()),
                   0.0, 10.0, 11.0, 1e-8))
    @settings(max_examples=150, deadline=None)
    def test_against_reference(self, case):
        profile, start, end, t_end, tol = case
        if t_end < sys.float_info.min:
            # subnormal nodes carry an absolute quantum the dense bound
            # does not count: such a window is refused
            with pytest.raises(ValueError, match="least normal float"):
                rg.solve(profile, t_end, tol)
            return
        if assert_refused_if_subnormal_end(profile, t_end, tol):
            return  # a drawn root or segment end below the least normal float
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
            kmax = max_on(seg, ts[j], ts[j + 1])
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
            # the zero is bisected to float resolution, so the dense f
            # there is the quintic's rounding at the zero step
            tz, j = sol.first_zero, len(ts) - 2
            h = ts[-1] - ts[j]
            rounding = 512 * _EPS * (abs(fs[j]) + h * abs(fps[j]))
            assert abs(fs[-1]) <= rounding
            assert all(x > 0.0 for x in fs[k0 + 1:-1])
            omega = jacobi._local_scales(seg.num, ts[j], h).item()
            rz = _local_state(seg, ts[j], (fs[j], fps[j]), tz)[0]
            assert abs(rz) <= tol * (abs(fs[j]) + abs(fps[j]) / omega) + rounding

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
            # there, and the bisection runs to float resolution
            sol = rg.solve(profile, 10.0, tol)
            assert abs(sol.first_zero - tz) <= 2.0 * tol + 4 * math.ulp(tz)

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
        profile = _underflow_profile()
        f = rg.solve(profile, 2e6, 1e-8)
        assert jacobi._plan(profile, 2e6, 1e-8).pieces[-1].underflow == 1e6
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


def _underflow_profile():
    """A positive line, then K = 0 up to t = 1e6, then K about -1e16 on
    [1e6, 1e6 + 1), whose grid underflows."""
    return rg.CurvatureProfile((Segment(0.0, 10.0, (1.0, 0.1)),
                                Segment(10.0, 1e6, (0.0,)),
                                Segment(1e6, 1e6 + 1.0, (-1e16, -1.0))), rg.ZeroTail())


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
    """Route the ``kappa`` of every kind (``_Polynomial``, ``_Rational``
    and ``_Tail``), with which each ``_taylor_steps`` pass starts, through
    a spy; returns the list that collects the left nodes of each pass."""
    passes = []

    def spy(kappa):
        def run(*args):  # (self,) params, left, h, terms
            passes.append(args[-3].tolist())
            return kappa(*args)
        return run
    monkeypatch.setattr(jacobi._Polynomial, "kappa", staticmethod(spy(jacobi._Polynomial.kappa)))
    for kind in (jacobi._Rational, jacobi._Tail):
        monkeypatch.setattr(kind, "kappa", spy(kind.kappa))
    return passes


def spy_walks(monkeypatch):
    """Route every piece a solve walks, ``_taylor_piece`` and
    ``_constant_piece``, through a spy; returns the list that collects the
    name of each."""
    walks = []

    def spy(name, walk):
        def run(*args):
            walks.append(name)
            return walk(*args)
        return run
    for name in ("_taylor_piece", "_constant_piece"):
        monkeypatch.setattr(jacobi, name, spy(name, getattr(jacobi, name)))
    return walks


def empty_memo(monkeypatch):
    """Give ``jacobi`` an empty memo of plans, so that the next solve of
    any profile builds its plan cold."""
    monkeypatch.setattr(jacobi, "_memo", jacobi._Memo())


def _walk_matrices(num, left, h, order):
    """The transfer matrices of steps h from the nodes ``left`` on the
    polynomial num, by the Taylor recurrence with its terms summed in
    order, as (m00, m01, m10, m11) arrays: this test's own copy of the
    term sum."""
    kappa, power = [], h * h
    for c in _taylor_shift(num, left):
        kappa.append(c * power)
        power = power * h
    d = len(kappa) - 1
    b = [np.array([np.ones_like(h), np.zeros_like(h)]), np.array([np.zeros_like(h), np.ones_like(h)])]
    for k in range(order - 2):
        new = kappa[0] * b[k]
        for j in range(1, min(d, k) + 1):
            new += kappa[j] * b[k - j]
        new *= -1.0 / ((k + 2) * (k + 1))
        b.append(new)
    value, slope = b[0].copy(), b[0] * 0.0
    for k in range(1, order):
        value += b[k]
        slope += k * b[k]
    return value[0], h * value[1], slope[0] / h, slope[1]


def _walk_grid(num, lo, hi, tol):
    """The nodes of a polynomial sign piece [lo, hi), span by span: a span
    whose scale allows more than _SPAN_NODES nodes is halved, leftmost
    first, and a leaf is cut into cells with a uniform grid each."""
    degree = len(num) - 1
    xu = jacobi._taylor_rule(tol, degree)[0]
    nodes, todo = [], [(lo, hi)]
    while todo:
        a, b = todo.pop()
        n = (b - a) * jacobi._local_scales(tuple(np.array([c]) for c in num), np.array([a]),
                                           np.array([b - a])).item() / xu
        mid = 0.5 * (a + b)
        if n > jacobi._SPAN_NODES and a < mid < b:
            todo += [(mid, b), (a, mid)]
            continue
        cells = jacobi._cells(n)
        step = (b - a) / cells
        left = np.arange(float(cells)) * step + a
        right = (np.arange(float(cells)) + 1.0) * step + a
        right[-1] = b
        width = right - left
        if cells == 1:
            counts = [max(math.ceil(n), 1)]
        else:
            counts = np.maximum(np.ceil(width * jacobi._local_scales(
                tuple(np.full(cells, c) for c in num), left, width) / xu), 1.0).astype(int).tolist()
        for l, r, w, count in zip(left.tolist(), right.tolist(), width.tolist(), counts):
            grid = l + (w / count) * np.arange(1.0, count + 1.0)
            grid[-1] = r
            nodes.append(grid)
    return np.concatenate(nodes)


def _walk(profile, t_end, tol):
    """``_outcome`` of a solve of ``profile`` that takes constant pieces in
    closed form and walks each polynomial sign piece on its own grid with
    ``_walk_matrices``, piece after piece, with no plan."""
    t, f, fp, n_steps = 0.0, 0.0, 1.0, 0
    ts, fs, fps, d2_left, d2_right = [0.0], [0.0], [1.0], [], []
    zero = truncated = False
    guard = jacobi.GROWTH_GUARD
    while t < t_end and not (zero or truncated):
        piece, piece_end = profile.piece_at(t)
        bound, ev = min(piece_end, t_end), piece.evaluate
        k_t = ev(t)
        d2_left.append(-k_t * f)
        if piece._constant:
            new_t, new_f, new_fp, new_d2, zero = jacobi._constant_piece(t, f, fp, k_t, bound, tol)
            new = list(zip(*(list(map(float, x)) for x in (new_t, new_f, new_fp, new_d2))))
        else:
            new, last = [], (t, f, fp, -k_t * f)
            for lo, hi, _ in piece.sign_pieces:
                if zero or truncated or lo >= bound:
                    break
                nodes = _walk_grid(piece.num, lo, min(hi, t_end), tol)
                left = np.concatenate(([lo], nodes[:-1]))
                order = jacobi._taylor_rule(tol, len(piece.num) - 1)[1]
                negk = -ev(nodes)
                for tn, nk, c00, c01, c10, c11 in zip(nodes.tolist(), negk.tolist(), *(
                        m.tolist() for m in _walk_matrices(piece.num, left, nodes - left, order))):
                    f, fp = c00 * f + c01 * fp, c10 * f + c11 * fp
                    if f <= 0.0:
                        t0, f0, fp0, d0 = last
                        tz, fz, fpz = jacobi._locate_zero(t0, tn - t0, f0, fp0, d0, f, fp, nk * f)
                        new.append((tz, fz, fpz, -ev(tz) * fz))
                        zero = True
                        break
                    last = (tn, f, fp, nk * f)
                    new.append(last)
                    if not (f < guard and -guard < fp < guard):
                        truncated = True
                        break
        n_steps += len(new)
        for tn, fn, fpn, d2 in new:
            ts.append(tn)
            fs.append(fn)
            fps.append(fpn)
            d2_right.append(d2)
        d2_left += [d2 for *_, d2 in new[:-1]]
        t, f, fp = ts[-1], fs[-1], fps[-1]
        truncated = truncated or max(abs(f), abs(fp)) >= guard
    arrays = [list(map(float.hex, a)) for a in (ts, fs, fps, d2_left, d2_right)]
    return arrays, n_steps, 0, ts[-1].hex() if zero else None, truncated and not zero


class TestPolynomialBits:
    """solve and solve_m on polynomial profiles give the bits of a walk
    span by span with this test's own term sum (``_walk``), on the three
    polynomial profiles of tools/report_digest.py and its first 50 sweep
    profiles: the plan's batched rounds and shared matrices move no bit."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-14])
    def test_plan_keeps_the_bits_of_a_walk(self, tol):
        for profile, t_end in plan_profiles():
            assert _outcome(rg.solve(profile, t_end, tol)) == _walk(profile, t_end, tol)
            assert _outcome(rg.solve_m(profile, t_end, tol)) == _walk(
                rg.negative_part(profile), t_end, tol)


class TestPolynomialPlan:
    """f and m walk the transfer matrices of one plan per profile, t_end
    and tol: m's nodes after f's solve are those of a cold plan, m builds
    no matrix that f built, f builds none past the chunk that holds its
    first zero, and the plan's arrays are read-only."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-14])
    def test_sharing_changes_no_bits(self, tol, monkeypatch):
        for profile, t_end in plan_profiles():
            empty_memo(monkeypatch)
            m_cold = _outcome(_run(rg.solve_m, profile, t_end, tol))
            f_after_m = _outcome(_run(rg.solve, profile, t_end, tol))
            empty_memo(monkeypatch)
            assert _outcome(_run(rg.solve, profile, t_end, tol)) == f_after_m
            assert _outcome(_run(rg.solve_m, profile, t_end, tol)) == m_cold

    def test_memo_keys_on_t_end_and_tol(self, monkeypatch):
        # the same profile object over another window or at another tol
        # gets its own plan: its solves equal cold ones
        for profile, t_end in plan_profiles()[:6]:
            for window, tol in ((t_end, 1e-6), (0.6 * t_end, 1e-6), (0.6 * t_end, 1e-9)):
                empty_memo(monkeypatch)
                cold = [_outcome(_run(solver, profile, window, tol))
                        for solver in (rg.solve, rg.solve_m)]
                empty_memo(monkeypatch)
                rg.solve(profile, t_end, 1e-8)
                rg.solve_m(profile, t_end, 1e-8)
                assert [_outcome(_run(solver, profile, window, tol))
                        for solver in (rg.solve, rg.solve_m)] == cold

    @pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-14])
    def test_matrices_built_once_and_as_far_as_f_goes(self, tol, monkeypatch):
        passes = spy_taylor_steps(monkeypatch)
        zeros = 0
        for profile, t_end in plan_profiles():
            empty_memo(monkeypatch)
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
            for piece in jacobi._plan(profile, t_end, tol).pieces:
                for array in (piece.t, piece.negk, *piece.chunks):
                    assert not array.flags.writeable
        assert zeros > 10


class TestPlanMemo:
    """The memo keeps the plans of recent profiles with their finished
    walks: a profile solved again after others walks the plan its first
    solves built, or returns the solution they finished, with the bits of
    a cold solve, and the plans other than the newest hold at most
    _MEMO_NODES grid and walk nodes."""

    TAYLOR_ENTRIES = ("abresch_tail", "sign_changing_beta_ln2", "sign_changing_beta_neg_ln2",
                      "moment_boundary")

    def test_a_plan_outlives_the_solves_of_another_profile(self, monkeypatch):
        passes = spy_taylor_steps(monkeypatch)
        cases = [(entry_by_name(name).profile, DEFAULT_T_END) for name in self.TAYLOR_ENTRIES]
        cases += plan_profiles()
        solvers = (rg.solve, rg.solve_m)
        for (a, a_end), (b, b_end) in zip(cases, cases[1:]):
            empty_memo(monkeypatch)
            passes.clear()
            cold = [_outcome(_run(solver, a, a_end, 1e-8)) for solver in solvers]
            assert passes
            for solver in solvers:
                _run(solver, b, b_end, 1e-8)
            passes.clear()
            assert [_outcome(_run(solver, a, a_end, 1e-8)) for solver in solvers] == cold
            assert not passes

    def test_gallery_reports_keep_their_bytes_in_any_order(self, monkeypatch):
        entries = rg.list_gallery()

        def report(entry, n):
            try:
                return rg.report_to_json(rg.evaluate_theorem(entry.profile, n))
            except rg.ModelCompactnessError as exc:
                return f"refused: {exc}"
        pairs = [(entry, n) for entry in entries for n in (2, 3)]
        entry_major = {(entry.name, n): report(entry, n) for entry, n in pairs}
        n_major = {(entry.name, n): report(entry, n) for n in (2, 3) for entry in entries}
        cold = {}
        for entry, n in pairs:
            empty_memo(monkeypatch)
            cold[entry.name, n] = report(entry, n)
        assert entry_major == n_major == cold

    def test_older_plans_hold_at_most_the_budget(self, monkeypatch):
        empty_memo(monkeypatch)
        memo = jacobi._memo
        digest = _report_digest()
        sweep = digest.inputs.sweep_profiles(np.random.default_rng(digest.SWEEP_SEED),
                                             digest.SWEEP_COUNT, digest.SWEEP_BLOCK)
        profiles = [rg.CurvatureProfile(tuple(Segment(lo, hi, (c0, c1))
                                              for lo, hi, c0, c1 in segments), rg.ZeroTail())
                    for segments in sweep[:digest.SOLVE_COUNT]]
        early = weakref.ref(profiles[0])
        # the nodes of each profile's finished walks, f and m
        walked = {}
        for profile in profiles:
            for solver in (rg.solve, rg.solve_m):
                sol = solver(profile, digest.SOLVE_T_END, digest.SOLVE_TOL)
                walked.setdefault(id(profile), {})[id(sol)] = len(sol.ts)
                # the built grid nodes and the nodes of the kept walks
                grids = [sum(len(piece.t) for piece in plan.pieces) for plan in memo.older]
                sizes = [grid + sum(len(w.ts) for w in (plan.f, plan.m) if w is not None)
                         for grid, plan in zip(grids, memo.older)]
                # a plan keeps its walks unless they and its grid pass the
                # budget on their own
                for grid, plan in zip(grids, memo.older):
                    whole = grid + sum(walked[id(plan.profile)].values())
                    assert (plan.f is not None) == (whole <= jacobi._MEMO_NODES)
                    assert plan.f is not None or plan.m is None
                counted = sum(max(size, jacobi._CHUNK_NODES) for size in sizes)
                assert sum(sizes) <= counted == memo.nodes <= jacobi._MEMO_NODES
        # the memo let the early plans go, and with them their profiles
        assert len(memo.older) < len(profiles) - 1
        del profile, profiles
        gc.collect()
        assert early() is None
        # a plan with no built nodes counts as _CHUNK_NODES of them
        lines = [rg.CurvatureProfile((Segment(0.0, 1.0, (1.0, -1.0)),)) for _ in range(100)]
        for line in lines:
            assert not jacobi._plan(line, 1.0, 1e-8).pieces[0].built
        assert len(memo.older) == jacobi._MEMO_NODES // jacobi._CHUNK_NODES

    def test_plan_errors_raise_again_after_other_solves(self):
        profile = _underflow_profile()
        f = rg.solve(profile, 2e6, 1e-8)
        plan = jacobi._plan(profile, 2e6, 1e-8)
        with pytest.raises(IntegrationError, match="step size underflow") as first:
            rg.solve_m(profile, 2e6, 1e-8)
        for other, t_end in plan_profiles()[:5]:
            rg.solve(other, t_end, 1e-8)
            rg.solve_m(other, t_end, 1e-8)
        assert _outcome(rg.solve(profile, 2e6, 1e-8)) == _outcome(f)
        assert jacobi._plan(profile, 2e6, 1e-8) is plan
        with pytest.raises(IntegrationError, match="step size underflow") as again:
            rg.solve_m(profile, 2e6, 1e-8)
        assert str(again.value) == str(first.value)
        assert again.value.t_reached == first.value.t_reached == 1e6

    def test_solve_m_of_constant_pieces_keeps_its_walk(self, monkeypatch):
        # a negative part with no Taylor piece goes through the memo too:
        # its plan has no pieces and holds its walk, which a solve again
        # returns; the Taylor plan before it is not rebuilt either
        passes = spy_taylor_steps(monkeypatch)
        empty_memo(monkeypatch)
        profile = entry_by_name("abresch_tail").profile
        f = rg.solve(profile, DEFAULT_T_END, DEFAULT_TOL)
        constant = [rg.constant_profile(-1.0),
                    rg.CurvatureProfile((Segment(0.0, 1.0, (0.5,)), Segment(1.0, 2.0, (-0.5,))),
                                        rg.ConstantTail(-0.25))]
        first = [rg.solve_m(p, DEFAULT_T_END, DEFAULT_TOL) for p in constant]
        for p in constant:
            assert not jacobi._plan(p, DEFAULT_T_END, DEFAULT_TOL).pieces
        walks = spy_walks(monkeypatch)
        passes.clear()
        assert all(rg.solve_m(p, DEFAULT_T_END, DEFAULT_TOL) is m for p, m in zip(constant, first))
        assert rg.solve(profile, DEFAULT_T_END, DEFAULT_TOL) is f
        assert not passes and not walks

    def test_a_solve_again_returns_its_solution(self, monkeypatch):
        cases = [(entry.profile, DEFAULT_T_END) for entry in rg.list_gallery()]
        cases += plan_profiles()[:10]
        for profile, t_end in cases:
            empty_memo(monkeypatch)
            first = [_run(solver, profile, t_end, DEFAULT_TOL) for solver in (rg.solve, rg.solve_m)]
            walks = spy_walks(monkeypatch)
            again = [_run(solver, profile, t_end, DEFAULT_TOL) for solver in (rg.solve, rg.solve_m)]
            for a, b in zip(first, again):
                if isinstance(a, IntegrationError):
                    # the zero check of m raises again, from m's kept walk
                    assert str(a) == str(b)
                else:
                    assert a is b
            assert not walks
            monkeypatch.undo()

    def test_a_second_gallery_pass_walks_nothing(self, monkeypatch):
        # the gallery's plans and walks fit the budget together, so a pass
        # over every entry at n = 2 and 3 leaves every solve of the next
        # pass over the same profile objects a hit
        empty_memo(monkeypatch)
        entries = rg.list_gallery()

        def gallery_pass():
            out = []
            for entry in entries:
                for n in (2, 3):
                    try:
                        out.append(rg.report_to_json(rg.evaluate_theorem(entry.profile, n)))
                    except rg.ModelCompactnessError as exc:
                        out.append(f"refused: {exc}")
            return out
        first = gallery_pass()
        walks = spy_walks(monkeypatch)
        assert gallery_pass() == first
        assert not walks

    @pytest.mark.parametrize("name", ["flat", "hyperbolic", "abresch_tail", "moment_boundary"])
    def test_solve_m_of_a_nonpositive_profile_is_its_solve(self, name, monkeypatch):
        # min(K, 0) is K itself, so m is f's own object, either first
        profile = entry_by_name(name).profile
        empty_memo(monkeypatch)
        f = rg.solve(profile, DEFAULT_T_END, DEFAULT_TOL)
        assert rg.solve_m(profile, DEFAULT_T_END, DEFAULT_TOL) is f
        empty_memo(monkeypatch)
        m = rg.solve_m(profile, DEFAULT_T_END, DEFAULT_TOL)
        assert rg.solve(profile, DEFAULT_T_END, DEFAULT_TOL) is m
        assert jacobi._plan(profile, DEFAULT_T_END, DEFAULT_TOL).m is None

    def test_solutions_are_frozen(self):
        sol = rg.solve(entry_by_name("sign_changing_beta_ln2").profile, DEFAULT_T_END, DEFAULT_TOL)
        for name in ("ts", "fs", "fps", "d2_left", "d2_right"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sol, name)[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.first_zero = 1.0


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
