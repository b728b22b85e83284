import json
import math
import re
import sys
from decimal import Decimal, localcontext
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import radialgeo as rg
from radialgeo import model_space
from radialgeo.curvature_profile import Segment
from radialgeo.gallery import entry_by_name, list_gallery
from radialgeo.jacobi import _quintic
from radialgeo.asymptotics import CurvatureClass, LimitEstimate, TotalCurvatureResult
from radialgeo.model_space import (
    _BLOCK_VALUES,
    _gauss_rule,
    _log_omega,
    log_ball_volumes,
)
from radialgeo.pipeline import VolumeSamples, evaluate_theorem, report_to_json

PI = math.pi
DEEP_WELL = rg.CurvatureProfile((Segment(0.0, 100.0, (-1.0,)),), rg.ZeroTail())


class TestUnitSphereVolume:
    def test_circle(self):
        assert rg.unit_sphere_volume(2) == pytest.approx(2 * PI, rel=1e-12)

    def test_two_sphere(self):
        assert rg.unit_sphere_volume(3) == pytest.approx(4 * PI, rel=1e-12)

    def test_three_sphere(self):
        assert rg.unit_sphere_volume(4) == pytest.approx(2 * PI ** 2, rel=1e-12)

    def test_four_sphere(self):
        assert rg.unit_sphere_volume(5) == pytest.approx(8 * PI ** 2 / 3, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            rg.unit_sphere_volume(1)
        with pytest.raises(ValueError):
            rg.unit_sphere_volume(2.5)
        with pytest.raises(ValueError):
            rg.unit_sphere_volume(math.inf)
        with pytest.raises(ValueError):
            rg.unit_sphere_volume(math.nan)

    @pytest.mark.parametrize("n", [343, 344, 400, 1000, 1240, 2000])
    def test_past_gamma_range(self, n):
        # Gamma(n/2) overflows from n = 344 on, pi**(n/2) from n = 1240 on
        log_oracle = math.log(2.0) + n / 2.0 * math.log(PI) - math.lgamma(n / 2.0)
        assert rg.unit_sphere_volume(n) == pytest.approx(math.exp(log_oracle),
                                                         rel=1e-9)


class TestGaussRule:
    def test_built_once_per_dimension_and_read_only(self):
        x, w = _gauss_rule(5)
        assert _gauss_rule(5)[0] is x
        assert len(x) == 11 and not x.flags.writeable and not w.flags.writeable
        # exact for degree 5(n - 1) = 20 on [0, 1]
        assert float(w @ x ** 20) == pytest.approx(1.0 / 21.0, rel=1e-14)


class TestModelSpace:
    def test_rejects_compact_model(self):
        sol = rg.solve(rg.constant_profile(1.0), 4.0, 1e-8)
        with pytest.raises(ValueError):
            rg.ModelSpace(n=3, f=sol)

    def test_normalizes_dimension(self):
        sol = rg.solve(rg.zero_profile(), 4.0, 1e-8)
        ms = rg.ModelSpace(n=3.0, f=sol)
        assert type(ms.n) is int and ms.n == 3
        assert ms.omega == rg.unit_sphere_volume(3)

    def test_rejects_low_dimension(self):
        sol = rg.solve(rg.zero_profile(), 4.0, 1e-8)
        with pytest.raises(ValueError):
            rg.ModelSpace(n=1, f=sol)


@pytest.fixture(scope="module")
def flat_sol():
    return rg.solve(rg.zero_profile(), 64.0, 1e-10)


class TestBallVolumeOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("name", ["sign_changing_beta_ln2", "abresch_tail"])
    def test_matches_quadrature(self, n, name):
        quad = pytest.importorskip("scipy.integrate").quad
        sol = rg.solve(rg.entry_by_name(name).profile, 12.0, 1e-8)
        ms = rg.ModelSpace(n=n, f=sol)
        ts = sol.ts
        radii = sorted([0.0, ts[1], ts[3], ts[3], 0.3 * ts[4] + 0.7 * ts[5],
                        0.5 * (ts[-3] + ts[-2]), ts[-2], sol.t_end, sol.t_end])
        got = rg.ball_volumes(ms, radii)
        for r, v in zip(radii, got):
            cuts = [0.0, *(t for t in ts if 0.0 < t < r), r]
            ref = ms.omega * sum(
                quad(lambda t: sol.f(t) ** (n - 1), lo, hi,
                     epsabs=0.0, epsrel=1e-13)[0]
                for lo, hi in zip(cuts, cuts[1:]))
            assert v == pytest.approx(ref, rel=1e-12, abs=1e-300), (n, r)


class TestBallVolume:
    def test_flat_disk(self, flat_sol):
        ms = rg.ModelSpace(n=2, f=flat_sol)
        assert rg.ball_volume(ms, 3.0) == pytest.approx(9 * PI, rel=1e-10)

    def test_flat_ball(self, flat_sol):
        ms = rg.ModelSpace(n=3, f=flat_sol)
        assert rg.ball_volume(ms, 2.0) == pytest.approx(32 * PI / 3, rel=1e-10)

    def test_hyperbolic_ball(self):
        sol = rg.solve(rg.constant_profile(-1.0), 4.0, 1e-10)
        ms = rg.ModelSpace(n=3, f=sol)
        expected = PI * (math.sinh(2.0) - 2.0)  # 4 pi int_0^1 sinh^2
        assert rg.ball_volume(ms, 1.0) == pytest.approx(expected, rel=1e-9)

    def test_zero_radius(self, flat_sol):
        ms = rg.ModelSpace(n=2, f=flat_sol)
        assert rg.ball_volume(ms, 0.0) == 0.0

    def test_radius_beyond_window(self, flat_sol):
        ms = rg.ModelSpace(n=2, f=flat_sol)
        for t in (65.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                rg.ball_volume(ms, t)

    def test_batch_matches_singles(self, flat_sol):
        ms = rg.ModelSpace(n=3, f=flat_sol)
        radii = [0.5, 1.0, 2.0, 7.0, 30.0]
        batch = rg.ball_volumes(ms, radii)
        singles = [rg.ball_volume(ms, r) for r in radii]
        np.testing.assert_allclose(batch, singles, rtol=1e-10)
        assert all(b < a for b, a in zip(batch, batch[1:]))


def log_omega(n):
    return math.log(2.0) + n / 2.0 * math.log(PI) - math.lgamma(n / 2.0)


@pytest.fixture(scope="module")
def flat_4096():
    return rg.solve(rg.zero_profile(), 4096.0, 1e-10)


class TestLogBallVolumes:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 86, 344, 400, 1000])
    def test_flat_closed_form(self, flat_4096, n):
        # vol B_t = omega_{n-1} t^n / n, far past float range at large n
        radii = np.geomspace(1e-3, 4096.0, 25).tolist()
        got = log_ball_volumes(rg.ModelSpace(n=n, f=flat_4096), radii)
        for t, lv in zip(radii, got):
            exact = log_omega(n) + n * math.log(t) - math.log(n)
            assert abs(lv - exact) <= 1e-9 * max(1.0, abs(exact)), (n, t)

    @pytest.mark.parametrize("n, log_exact", [
        # 2 pi (cosh t - 1) = 4 pi sinh(t/2)^2
        (2, lambda t: math.log(4.0 * PI) + 2.0 * math.log(math.sinh(t / 2.0))),
        (3, lambda t: math.log(PI) + math.log(math.sinh(2.0 * t) - 2.0 * t)),
    ])
    def test_hyperbolic_closed_form(self, n, log_exact):
        sol = rg.solve(rg.constant_profile(-1.0), 40.0, 1e-10)
        radii = [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0]
        got = log_ball_volumes(rg.ModelSpace(n=n, f=sol), radii)
        for t, lv in zip(radii, got):
            exact = log_exact(t)
            assert abs(lv - exact) <= 1e-9 * max(1.0, abs(exact)), (n, t)

    def test_zero_radius(self, flat_sol):
        assert log_ball_volumes(rg.ModelSpace(n=3, f=flat_sol), [0.0]) == [-math.inf]

    def test_radii_validated(self, flat_sol):
        ms = rg.ModelSpace(n=3, f=flat_sol)
        got = log_ball_volumes(ms, [1.0, 2, 2.0, 3.0])
        assert got[1] == got[2] and all(type(v) is float for v in got)
        for radii in ((1.0, 2, 2.0, 3.0), np.array([1.0, 2.0, 2.0, 3.0])):
            assert log_ball_volumes(ms, radii) == got
        assert log_ball_volumes(ms, []) == []
        with pytest.raises(ValueError, match="radii must be nondecreasing"):
            log_ball_volumes(ms, [1.0, 3.0, 2.0])
        with pytest.raises(ValueError, match="outside solution window"):
            log_ball_volumes(ms, [1.0, math.nan])

    @pytest.mark.parametrize("radii", [[[1.0, 2.0], [3.0, 4.0]], np.ones((2, 3)), 2.0,
                                       np.array(2.0)])
    def test_radii_not_one_dimensional_refused(self, flat_sol, radii):
        ms = rg.ModelSpace(n=3, f=flat_sol)
        shape = re.escape(str(np.shape(radii)))
        for volumes in (log_ball_volumes, rg.ball_volumes):
            with pytest.raises(ValueError, match=f"radii must be a one-dimensional "
                                                 f"sequence, got shape {shape}"):
                volumes(ms, radii)

    def test_volumes_saturate_to_inf_past_float_range(self):
        # at n = 400 the flat volume leaves float range at t ~ 28.8
        n = 400
        sol = rg.solve(rg.zero_profile(), 64.0, 1e-10)
        radii = [8.0, 28.0, 28.7, 28.9, 29.0, 40.0, 64.0]
        log_max = math.log(sys.float_info.max)
        past = [log_omega(n) + n * math.log(t) - math.log(n) > log_max
                for t in radii]
        assert past == [False, False, False, True, True, True, True]
        got = rg.ball_volumes(rg.ModelSpace(n=n, f=sol), radii)
        assert [v == math.inf for v in got] == past
        assert all(0.0 < v < math.inf for v, p in zip(got, past) if not p)
        assert got[0] == pytest.approx(5.876e85, rel=1e-4)


def log_integrals_by_node(f, n, j, u):
    """Reference for model_space._log_integrals: one Gauss node across all
    steps at a time, each node a dense-output call of its own, the terms
    added by Python's sum."""
    x, w = _gauss_rule(n)
    if isinstance(j, slice):
        j = np.arange(len(f.ts) - 1)[j]

    def on_steps(s):
        return _quintic(f._gather(j), s, False)

    top = reduce(np.maximum, (on_steps(u * xk) for xk in x),
                 np.finfo(float).tiny)
    total = sum(wk * (on_steps(u * xk) / top) ** (n - 1)
                for xk, wk in zip(x, w))
    with np.errstate(divide="ignore"):
        return (np.log(u * (f.ts[1:][j] - f.ts[:-1][j]) * total)
                + (n - 1) * np.log(top))


def log_ball_volumes_by_node(ms, radii):
    """Reference for log_ball_volumes on log_integrals_by_node, with the
    prefix table built on every call."""
    full = np.logaddexp.accumulate(np.concatenate(
        ([-np.inf], log_integrals_by_node(ms.f, ms.n, slice(None), 1.0))))
    j, u = ms.f._locate(radii)
    return (_log_omega(ms.n)
            + np.logaddexp(full[j], log_integrals_by_node(ms.f, ms.n, j, u))
            ).tolist()


NONCOMPACT = [e.name for e in list_gallery() if "first_zero" not in e.oracle]
FINITE = ["flat", "abresch_tail", "sign_changing_beta_ln2",
          "sign_changing_beta_neg_ln2"]


@lru_cache(maxsize=None)
def gallery_solution(name):
    return rg.solve(entry_by_name(name).profile, 4096.0, 1e-8)


def hexes(values):
    return [float(v).hex() for v in values]


class TestLogBallVolumesBitIdentity:
    """The blocked evaluation gives the bits of the node-by-node one."""

    @pytest.mark.parametrize("n", [2, 3, 8, 40, 1000])
    @pytest.mark.parametrize("name", NONCOMPACT)
    def test_gallery(self, name, n):
        sol = gallery_solution(name)
        ms = rg.ModelSpace(n=n, f=sol)
        radii = sorted([0.0, *np.linspace(0.0, sol.t_end, 41).tolist(),
                        *sol.ts[::7].tolist(), sol.t_end])
        assert (hexes(log_ball_volumes(ms, radii))
                == hexes(log_ball_volumes_by_node(ms, radii)))

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_blocks_of_steps(self, monkeypatch, block):
        # the steps and radii are taken in blocks of _BLOCK_VALUES
        # columns, which give the bits of one block
        sol = gallery_solution("sign_changing_beta_ln2")
        ms = rg.ModelSpace(n=3, f=sol)
        radii = np.linspace(0.0, sol.t_end, 301).tolist()
        expected = hexes(log_ball_volumes(ms, radii))
        monkeypatch.setattr(model_space, "_BLOCK_VALUES", block)
        assert hexes(log_ball_volumes(ms, radii)) == expected

    def test_hyperbolic_n1000_spans_blocks(self):
        # the whole-step pass of this case runs in more than one block
        steps = len(gallery_solution("hyperbolic").ts) - 1
        assert len(_gauss_rule(1000)[0]) * steps > 2 * _BLOCK_VALUES

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(NONCOMPACT), n=st.sampled_from([2, 3, 8, 40]),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
           nodes=st.lists(st.integers(min_value=0), max_size=5))
    def test_drawn_radii(self, name, n, fractions, nodes):
        sol = gallery_solution(name)
        radii = sorted([*(x * sol.t_end for x in fractions),
                        *(float(sol.ts[i % len(sol.ts)]) for i in nodes)])
        ms = rg.ModelSpace(n=n, f=sol)
        assert (hexes(log_ball_volumes(ms, radii))
                == hexes(log_ball_volumes_by_node(ms, radii)))

    def test_one_pass_per_call(self, monkeypatch):
        # one _log_integrals call per log_ball_volumes call, recorded as
        # which of its parts are whole steps
        calls = []
        log_integrals = model_space._log_integrals

        def counting(f, n, parts):
            calls.append(tuple(isinstance(j, slice) for j, _ in parts))
            return log_integrals(f, n, parts)

        monkeypatch.setattr(model_space, "_log_integrals", counting)
        sol = gallery_solution("abresch_tail")
        ms = rg.ModelSpace(n=3, f=sol)
        first = log_ball_volumes(ms, [1.0, 2.0])
        assert log_ball_volumes(ms, [1.0, 2.0]) == first
        # each call sums the whole steps in the pass of its own radii
        assert calls == [(True, False), (True, False)]
        # the same bits whatever radii come with them, on any model space
        other = rg.ModelSpace(n=3, f=sol)
        radii = [0.0, 0.5, 1.0, 2.0, 3.0, sol.t_end]
        both = log_ball_volumes(other, radii)
        assert hexes(both) == hexes(log_ball_volumes(ms, radii))
        assert hexes(both[2:4]) == hexes(first)
        # a report without samples reads no volume, one with samples one pass
        calls.clear()
        evaluate_theorem(rg.zero_profile(), 2)
        assert calls == []
        ts = (1.0, 2.0, 3.0)
        evaluate_theorem(rg.zero_profile(), 2, samples=VolumeSamples(
            t=ts, vol=tuple(math.pi * t * t for t in ts), n=2))
        assert calls == [(True, False)]


def richardson(values):
    """Richardson extrapolation of probes at radii doubling from one to the
    next, for error terms in successive integer powers of 1/t: the last
    diagonal entry of the table."""
    row = list(values)
    for m in range(1, len(values)):
        factor = 2.0 ** m
        row = [(factor * b - a) / (factor - 1.0) for a, b in zip(row, row[1:])]
    return row[-1]


class TestGrowthCoefficient:
    def test_flat_n2(self):
        sol = rg.solve(rg.zero_profile(), 4096.0, 1e-10)
        ms = rg.ModelSpace(n=2, f=sol)
        tc = rg.total_curvature(sol)
        g = rg.growth_coefficient(ms, tc)
        assert g.direct.value == pytest.approx(PI, rel=1e-9)
        assert g.closed_form.value == pytest.approx(PI, rel=1e-12)
        assert g.discrepancy < 1e-9

    def test_flat_n3(self):
        sol = rg.solve(rg.zero_profile(), 4096.0, 1e-10)
        ms = rg.ModelSpace(n=3, f=sol)
        tc = rg.total_curvature(sol)
        g = rg.growth_coefficient(ms, tc)
        assert g.direct.value == pytest.approx(4 * PI / 3, rel=1e-9)
        assert g.closed_form.value == pytest.approx(4 * PI / 3, rel=1e-12)

    def test_beta_ln2_n2(self, beta_ln2_profile, beta_ln2_solution):
        tc = rg.total_curvature(beta_ln2_solution)
        ms = rg.ModelSpace(n=2, f=beta_ln2_solution)
        g = rg.growth_coefficient(ms, tc)
        assert g.closed_form.value == pytest.approx(PI / 2, abs=1e-5)
        assert g.direct.value == pytest.approx(PI / 2, rel=1e-4)
        assert abs(g.direct.value - g.closed_form.value) <= max(
            1e-5, 20.0 * (g.direct.err + g.closed_form.err + tc.err))

    def test_dimensional_consistency_n2(self, beta_ln2_profile,
                                        beta_ln2_solution):
        # for n = 2 the coefficient is pi (1 - c/(2 pi)), i.e. the direct
        # area quadrature 2 pi int f over t^2
        tc = rg.total_curvature(beta_ln2_solution)
        ms = rg.ModelSpace(n=2, f=beta_ln2_solution)
        g = rg.growth_coefficient(ms, tc)
        assert g.closed_form.value == pytest.approx(
            PI * (1.0 - tc.value / (2 * PI)), rel=1e-12)

    def test_coefficient_nonnegative_on_gallery(self, abresch_profile):
        sol = rg.solve(abresch_profile, 4096.0, 1e-8)
        tc = rg.total_curvature(sol)
        for n in (2, 3, 5):
            g = rg.growth_coefficient(rg.ModelSpace(n=n, f=sol), tc)
            assert g.direct.value >= 0.0
            assert g.closed_form.value > 0.0

    def test_divergent_curvature_routes(self):
        prof = rg.constant_profile(-1.0)
        sol = rg.solve(prof, 4096.0, 1e-8)  # guard-truncated
        tc = rg.total_curvature(sol)
        g = rg.growth_coefficient(rg.ModelSpace(n=2, f=sol), tc)
        assert g.closed_form.divergent
        assert g.direct.divergent  # lim f' diverges with c's negative part
        assert g.discrepancy is None

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("name", FINITE)
    def test_direct_error_covers_oracle(self, name, n):
        # the exact coefficient is omega/n (lim f')^(n-1), with the slope
        # limit from the gallery's closed form
        entry = entry_by_name(name)
        sol = gallery_solution(name)
        g = rg.growth_coefficient(rg.ModelSpace(n=n, f=sol),
                                  rg.total_curvature(sol))
        exact = (rg.unit_sphere_volume(n) / n
                 * entry.oracle["slope_limit"] ** (n - 1))
        assert abs(g.direct.value - exact) <= g.direct.err
        assert abs(g.closed_form.value - exact) <= g.closed_form.err

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("name", FINITE)
    def test_closed_form_is_direct(self, name, n):
        # one enclosure of lim f' carries c and both routes
        sol = gallery_solution(name)
        tc = rg.total_curvature(sol)
        g = rg.growth_coefficient(rg.ModelSpace(n=n, f=sol), tc)
        assert g.closed_form == g.direct and g.discrepancy == 0.0
        assert abs(tc.value - entry_by_name(name).oracle["c"]) <= tc.err

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", FINITE)
    def test_direct_agrees_with_volume_probes(self, name, n):
        # an oracle for log_ball_volumes that the direct route no longer
        # reads: vol B_t / t^n at t = T/2^k, k = 6..0, extrapolated
        sol = gallery_solution(name)
        ms = rg.ModelSpace(n=n, f=sol)
        radii = [sol.t_end / 2.0 ** k for k in range(6, -1, -1)]
        probes = [math.exp(v - n * math.log(t))
                  for v, t in zip(log_ball_volumes(ms, radii), radii)]
        g = rg.growth_coefficient(ms, rg.total_curvature(sol))
        assert richardson(probes) == pytest.approx(g.direct.value, rel=1e-5)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [0.1, 0.2])
    def test_p2_tail_did_not_settle(self, a, n):
        # at p = 2 the slope bracket cannot settle, so neither can the
        # direct route; the closed form is divergent (the moment diverges)
        rep = evaluate_theorem(rg.power_tail_profile(a, 2.0), n)
        g = rep.growth.direct
        assert not g.divergent and g.err == math.inf
        assert json.loads(report_to_json(rep))["growth"]["direct"]["err"] is None

    def test_slow_tail_growth_nonnegative(self):
        rep = evaluate_theorem(rg.power_tail_profile(0.5, 2.1), 3)
        assert rep.growth.direct.value >= 0.0

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_deep_well(self, n):
        # K = -1 on [0, 100), then zero: f = sinh t, so lim f' = cosh 100
        sol = rg.solve(DEEP_WELL, 4096.0, 1e-8)
        g = rg.growth_coefficient(rg.ModelSpace(n=n, f=sol),
                                  rg.total_curvature(sol))
        exact = rg.unit_sphere_volume(n) / n * math.cosh(100.0) ** (n - 1)
        assert abs(g.direct.value - exact) <= g.direct.err
        assert abs(g.closed_form.value - exact) <= g.closed_form.err


_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def exact_growth(n: int, s: Decimal) -> Decimal:
    """(omega_{n-1}/n) s^(n-1) at 50 digits, 0 for s <= 0; omega_{n-1} =
    2 pi^(n/2)/Gamma(n/2) with Gamma of an integer or a half-integer in
    closed form."""
    with localcontext() as ctx:
        ctx.prec = 50
        if s <= 0:
            return Decimal(0)
        k = (n - 1) // 2
        if n % 2:
            # Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!)
            gamma = Decimal(math.factorial(2 * k)) / (4 ** k * math.factorial(k)) * _PI_50.sqrt()
            half = _PI_50 ** k * _PI_50.sqrt()
        else:
            gamma, half = Decimal(math.factorial(n // 2 - 1)), _PI_50 ** (n // 2)
        return 2 * half / gamma / n * s ** (n - 1)


def abresch_slope_50() -> Decimal:
    """sinh(sqrt 6)/sqrt 6, abresch_tail's lim f', at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(6).sqrt()
        return (x.exp() - (-x).exp()) / 2 / x


def finite_curvature(slope: LimitEstimate) -> TotalCurvatureResult:
    """A finite total curvature 2 pi (1 - s) that carries the slope s."""
    c = 2 * PI * (1.0 - slope.value)
    return TotalCurvatureResult(CurvatureClass.FINITE, c, 2 * PI * slope.err,
                                max(c, 0.0), min(c, 0.0), slope)


class TestGrowthMapOracle:
    """The growth coefficient's enclosure against (omega/n) s^(n-1) at 50
    digits."""

    @pytest.mark.parametrize("tol", [1e-14, 1e-8])
    @pytest.mark.parametrize("s", [1e-3, 0.5, 1.0, math.sinh(math.sqrt(6.0)) / math.sqrt(6.0),
                                   1e6])
    # at n = 13 log(omega/n) = -0.094 is a sum of terms up to 7.4, whose
    # rounding 2^-50 (1 + |log(omega/n)|) would not cover
    @pytest.mark.parametrize("n", [2, 3, 10, 13, 450, 500, 700, 1000])
    def test_covers_exact_image_of_slope_bar(self, flat_sol, n, s, tol):
        slope = LimitEstimate(s, tol * (1.0 + s))
        g = rg.growth_coefficient(rg.ModelSpace(n=n, f=flat_sol), finite_curvature(slope))
        assert g.closed_form == g.direct
        g = g.direct
        lo, hi = (exact_growth(n, Decimal(end)) for end in (slope.lo, slope.hi))
        assert Decimal(g.lo) <= lo and hi <= Decimal(g.hi)
        assert g.lo <= g.value <= g.hi
        if Decimal(sys.float_info.min) <= lo and hi <= Decimal(sys.float_info.max):
            # the value is the image of s's, and the outward rounding far
            # below the width of the image of s's bar
            center = exact_growth(n, Decimal(s))
            assert abs(Decimal(g.value) - center) <= Decimal(1e-11) * center
            assert Decimal(g.hi) - Decimal(g.lo) <= hi - lo + Decimal(1e-10) * hi
        if hi < Decimal(sys.float_info.min) * Decimal(2.0 ** -52):
            # below float range: 0, with an upper end that stays positive
            assert (g.value, g.lo) == (0.0, 0.0) and g.hi > 0.0

    def test_nonpositive_slope_goes_to_zero(self, flat_sol):
        g = rg.growth_coefficient(rg.ModelSpace(n=3, f=flat_sol),
                                  finite_curvature(LimitEstimate(-1e-9, 2e-9)))
        assert (g.direct.value, g.direct.lo) == (0.0, 0.0)
        assert Decimal(g.direct.hi) >= exact_growth(3, Decimal(1e-9))

    def test_unsettled_slope_did_not_settle(self, flat_sol):
        g = rg.growth_coefficient(rg.ModelSpace(n=3, f=flat_sol),
                                  finite_curvature(LimitEstimate(1.0, math.inf)))
        assert g.closed_form.err == math.inf and not g.closed_form.divergent
        assert math.isfinite(g.closed_form.value)

    @pytest.mark.parametrize("n", [450, 500, 700])
    def test_abresch_high_dimension(self, n):
        # omega_{n-1} leaves float range from n = 460 on while s^(n-1)
        # grows, so only their product in logs stays in it
        rep = evaluate_theorem(entry_by_name("abresch_tail").profile, n)
        exact = exact_growth(n, abresch_slope_50())
        assert rep.growth.closed_form == rep.growth.direct
        g = rep.growth.direct
        assert g.value > 0.0 and g.err < 1e-4 * g.value
        assert Decimal(g.lo) <= exact <= Decimal(g.hi)


class TestBishopDirection:
    def test_nonnegative_curvature_is_subflat(self):
        # K = 1 on [0, 1], zero tail: f = sin t then linear, stays below t
        prof = rg.CurvatureProfile((Segment(0.0, 1.0, (1.0,)),), rg.ZeroTail())
        sol = rg.solve(prof, 10.0, 1e-10)
        assert sol.first_zero is None
        for n in (2, 3):
            ms = rg.ModelSpace(n=n, f=sol)
            omega = rg.unit_sphere_volume(n)
            for t in (0.5, 1.0, 3.0, 10.0):
                flat = omega * t ** n / n
                assert rg.ball_volume(ms, t) <= flat * (1 + 1e-12)
