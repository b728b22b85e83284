"""Jacobi initial value problems f'' + K(t) f = 0, f(0) = 0, f'(0) = 1.

The solver is an explicit Dormand-Prince 5(4) embedded pair with PI step
control.  The equation is linear and smooth on every profile piece, so a
moderate-order pair is plenty and keeps the package free of solver
dependencies.  Three behaviors matter downstream and are guaranteed here:

* steps never straddle a profile breakpoint (integration restarts there),
  so each step sees an analytic right-hand side;
* when K > 0 somewhere on a step, the step length is capped by
  pi/sqrt(max K on the step); zeros of f are then at least one cap apart
  (Sturm), so a step can never skip a pair of zeros.  Whether K can be
  positive on the rest of a piece is decided once, at piece entry, and
  only such pieces test the cap at every step;
* the first zero of f, if any, is located by bisection on the dense
  output to 1e-12 in t, and integration stops there.

A step makes five curvature evaluations, one per new stage point: the
first stage is the last one of the previous step, and K(t + h) serves
both the sixth and the seventh stage (first same as last, FSAL).  Each
piece's ``evaluate`` is bound once at piece entry; a segment builds it
once, as a cached closure.

Dense output stores f, f' and f'' = -K f at the step ends and evaluates a
quintic Hermite interpolant per step.  Its O(h^6) interpolation error
stays below the accepted local error at every tolerance in the supported
range, which a cubic on (f, f') alone would not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature_profile import CurvatureProfile, negative_part
from .errors import IntegrationError

__all__ = ["WarpingSolution", "solve", "solve_m", "GROWTH_GUARD"]

# Reaching this magnitude in f or f' means the model is violently
# divergent; the window is truncated there instead of overflowing.  Ball
# volumes are integrated in logs, so f**(n-1) never leaves float range;
# the closed-form growth coefficient and the ends cap go through
# model_space.power, which saturates to inf.
GROWTH_GUARD = 1e60

# attempted steps after which a solve gives up
_MAX_STEPS = 10_000_000

_MIN_TOL, _MAX_TOL = 1e-14, 1e-3

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_ALPHA = 0.14  # ~0.7/order
_PI_BETA = 0.08   # ~0.4/order


@dataclass
class WarpingSolution:
    """Dense-output solution of a Jacobi initial value problem.

    ``ts, fs, fps`` are the accepted nodes (f(0) = 0 and f'(0) = 1 hold
    exactly at the first node).  ``d2_left[i]`` and ``d2_right[i]`` are
    f'' at the two ends of step i, both evaluated with the profile piece
    that governed that step, which keeps the interpolant correct across
    discontinuous breakpoints.  ``t_end`` is the reached end: the
    requested end, the first zero, or the growth-guard truncation point.
    """

    profile: CurvatureProfile
    tol: float
    ts: np.ndarray
    fs: np.ndarray
    fps: np.ndarray
    d2_left: np.ndarray
    d2_right: np.ndarray
    first_zero: float | None = None
    truncated: bool = False
    n_steps: int = 0
    n_rejected: int = 0

    @property
    def t_end(self) -> float:
        return self.ts.item(-1)

    def _check_window(self, tmin: float, tmax: float) -> None:
        """ValueError unless [tmin, tmax] lies in the solution window (a
        nan fails too)."""
        end = self.t_end
        if not (tmin >= 0.0 and tmax <= end * (1 + 1e-15) + 1e-300):
            raise ValueError(f"evaluation time outside solution window [0, {end:.6g}]")

    def _locate(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Step indices j and local coordinates s in [0, 1] of times t;
        ValueError where a time is nan or lies outside the solution
        window."""
        ts = self.ts
        t_arr = np.asarray(t, dtype=float)
        if t_arr.size:
            self._check_window(float(t_arr.min()), float(t_arr.max()))
        j = np.clip(np.searchsorted(ts, t_arr, side="right") - 1, 0, len(ts) - 2)
        return j, np.clip((t_arr - ts[j]) / (ts[j + 1] - ts[j]), 0.0, 1.0)

    def _interp(self, t, derivative: bool):
        # np.ndim builds an array from a float: a quarter of a scalar read
        if not isinstance(t, float) and np.ndim(t) > 0:
            j, s = self._locate(t)
            return _hermite(*self._steps(j), s, derivative)
        # one time: the steps of _locate in Python floats, which round as
        # numpy's do, so the result has the bits of the array path
        t = float(t)
        self._check_window(t, t)
        ts = self.ts
        j = min(max(int(ts.searchsorted(t, side="right")) - 1, 0), len(ts) - 2)
        t0, t1 = ts.item(j), ts.item(j + 1)
        s = (t - t0) / (t1 - t0)
        s = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s
        fs, fps = self.fs, self.fps
        return _hermite(t1 - t0, fs.item(j), fps.item(j), self.d2_left.item(j),
                        fs.item(j + 1), fps.item(j + 1), self.d2_right.item(j),
                        s, derivative)

    def _steps(self, j) -> tuple[np.ndarray, ...]:
        """The arguments of ``_hermite`` before s for the steps j (step
        indices or a slice of them): length h, then f, f' and f'' at the
        left end and at the right end."""
        ts, fs, fps = self.ts, self.fs, self.fps
        return (ts[1:][j] - ts[:-1][j], fs[:-1][j], fps[:-1][j],
                self.d2_left[j], fs[1:][j], fps[1:][j], self.d2_right[j])

    def f(self, t):
        """f at time t, from the dense output: a float for a scalar t, an
        ndarray for an array, list or tuple of times.  A scalar t is
        evaluated in Python floats, with the bits of the array path."""
        return self._interp(t, derivative=False)

    def fp(self, t):
        """f' at time t, from the dense output: a float for a scalar t, an
        ndarray for an array, list or tuple of times.  A scalar t is
        evaluated in Python floats, with the bits of the array path."""
        return self._interp(t, derivative=True)


def _hermite(h, y0, d0, a0, y1, d1, a1, s, derivative: bool):
    """Quintic Hermite interpolant of one step, or its derivative, at the
    local coordinate s in [0, 1].

    The step has length h and carries value y, slope d and second
    derivative a at both ends; works on scalars and on arrays alike.
    """
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


def _locate_zero(t0, h, y0, d0, a0, y1, d1, a1):
    """Bisect the dense quintic for f = 0 on a step with a sign change."""
    lo, hi = 0.0, 1.0
    # f is positive just right of t = 0, so a zero left node still marks
    # the positive side of the bracket
    flo = y0 if y0 > 0.0 else 1e-300
    while (hi - lo) * h > 1e-12:
        mid = 0.5 * (lo + hi)
        fmid = _hermite(h, y0, d0, a0, y1, d1, a1, mid, False)
        if fmid == 0.0:
            lo = hi = mid
            break
        if (flo > 0.0) == (fmid > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return (t0 + s * h, _hermite(h, y0, d0, a0, y1, d1, a1, s, False),
            _hermite(h, y0, d0, a0, y1, d1, a1, s, True))


def solve(profile: CurvatureProfile, t_end: float, tol: float) -> WarpingSolution:
    """Integrate f'' + K f = 0 with f(0) = 0, f'(0) = 1 on [0, t_end].

    ``tol`` is the requested relative error, used for both the relative
    and absolute components of the local error test; it must lie in
    [1e-14, 1e-3].  Integration stops early at the first zero of f
    (recorded in ``first_zero``) or when |f| or |f'| passes the growth
    guard (recorded in ``truncated``); step-size underflow raises
    IntegrationError.
    """
    if not (t_end > 0.0):
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not (_MIN_TOL <= tol <= _MAX_TOL):
        raise ValueError(f"tol must lie in [{_MIN_TOL}, {_MAX_TOL}], got {tol}")

    # module constants as locals, read at every step without a global lookup
    c2, c3, c4, c5 = _C2, _C3, _C4, _C5
    a21 = _A21
    a31, a32 = _A31, _A32
    a41, a42, a43 = _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    pi_alpha, pi_beta = _PI_ALPHA, _PI_BETA
    guard, pi, sqrt = GROWTH_GUARD, math.pi, math.sqrt

    t = 0.0
    f, fp = 0.0, 1.0

    ts = [0.0]
    fs = [0.0]
    fps = [1.0]
    d2_left: list[float] = []
    d2_right: list[float] = []

    first_zero: float | None = None
    truncated = False
    n_steps = 0
    n_rejected = 0

    h = 0.0  # the first piece entry sets the initial step
    err_prev = 1.0
    piece_end = 0.0  # the first pass enters the piece at t = 0

    while t < t_end:
        if n_steps + n_rejected > _MAX_STEPS:
            raise IntegrationError("step budget exhausted", t)
        if t >= piece_end:
            # piece entry: what holds up to the next breakpoint is set once
            piece, piece_end = profile.piece_at(t)
            ev = piece.evaluate
            bound = min(piece_end, t_end)
            # where K <= 0 on the rest of the piece no step needs the cap
            check_cap = piece.max_on(t, bound) > 0.0
            k1f, k1p = fp, -ev(t) * f
            if h == 0.0:
                h = max(min(0.01 * bound, 0.1), 1e-6)
        # snap to the boundary when the proposal reaches or nearly reaches
        # it, so no unintegrable sliver is left behind
        at_bound = bound - t <= h * (1.0 + 1e-9)
        if at_bound:
            h = bound - t
        if check_cap:
            kmax = piece.max_on(t, t + h)
            if kmax > 0.0:
                cap = pi / sqrt(kmax)
                if h > cap:
                    h = cap
                    at_bound = False
        if h <= 1e-14 * (t if t > 1.0 else 1.0):
            raise IntegrationError("step size underflow", t)

        # five curvature evaluations: k1 is carried over, and K(t + h)
        # serves stage 6 and stage 7 (FSAL)
        y2f = f + h * (a21 * k1f)
        y2p = fp + h * (a21 * k1p)
        k2f, k2p = y2p, -ev(t + c2 * h) * y2f
        y3f = f + h * (a31 * k1f + a32 * k2f)
        y3p = fp + h * (a31 * k1p + a32 * k2p)
        k3f, k3p = y3p, -ev(t + c3 * h) * y3f
        y4f = f + h * (a41 * k1f + a42 * k2f + a43 * k3f)
        y4p = fp + h * (a41 * k1p + a42 * k2p + a43 * k3p)
        k4f, k4p = y4p, -ev(t + c4 * h) * y4f
        y5f = f + h * (a51 * k1f + a52 * k2f + a53 * k3f + a54 * k4f)
        y5p = fp + h * (a51 * k1p + a52 * k2p + a53 * k3p + a54 * k4p)
        k5f, k5p = y5p, -ev(t + c5 * h) * y5f
        y6f = f + h * (a61 * k1f + a62 * k2f + a63 * k3f + a64 * k4f + a65 * k5f)
        y6p = fp + h * (a61 * k1p + a62 * k2p + a63 * k3p + a64 * k4p + a65 * k5p)
        k_end = ev(t + h)
        k6f, k6p = y6p, -k_end * y6f
        fn = f + h * (b1 * k1f + b3 * k3f + b4 * k4f + b5 * k5f + b6 * k6f)
        fpn = fp + h * (b1 * k1p + b3 * k3p + b4 * k4p + b5 * k5p + b6 * k6p)
        k7f, k7p = fpn, -k_end * fn

        ef = h * (e1 * k1f + e3 * k3f + e4 * k4f + e5 * k5f + e6 * k6f + e7 * k7f)
        ep = h * (e1 * k1p + e3 * k3p + e4 * k4p + e5 * k5p + e6 * k6p + e7 * k7p)
        # max(a, b) is b if b > a else a, NaN included
        af, afn, afp, afpn = abs(f), abs(fn), abs(fp), abs(fpn)
        sc_f = tol + tol * (afn if afn > af else af)
        sc_p = tol + tol * (afpn if afpn > afp else afp)
        err = sqrt(0.5 * ((ef / sc_f) ** 2 + (ep / sc_p) ** 2))

        if err > 1.0:
            n_rejected += 1
            shrink = safety * err ** (-0.2)
            h *= shrink if shrink > min_factor else min_factor
            continue

        n_steps += 1
        t_new = bound if at_bound else t + h
        d2_left.append(k1p)
        d2_right.append(k7p)
        ts.append(t_new)
        fs.append(fn)
        fps.append(fpn)

        if fn <= 0.0:
            tz, fz, fpz = _locate_zero(t, t_new - t, f, fp, k1p, fn, fpn, k7p)
            ts[-1] = tz
            fs[-1] = fz
            fps[-1] = fpz
            d2_right[-1] = -ev(tz) * fz
            first_zero = tz
            break

        t, f, fp = t_new, fn, fpn
        if (afpn if afpn > afn else afn) >= guard:
            truncated = True
            break

        if err == 0.0:
            factor = max_factor
        else:
            factor = safety * err ** (-pi_alpha) * err_prev ** pi_beta
            factor = factor if factor > min_factor else min_factor
            factor = factor if factor < max_factor else max_factor
        h *= factor
        err_prev = 1e-10 if 1e-10 > err else err
        k1f, k1p = k7f, k7p

    return WarpingSolution(
        profile=profile,
        tol=tol,
        ts=np.asarray(ts),
        fs=np.asarray(fs),
        fps=np.asarray(fps),
        d2_left=np.asarray(d2_left),
        d2_right=np.asarray(d2_right),
        first_zero=first_zero,
        truncated=truncated,
        n_steps=n_steps,
        n_rejected=n_rejected,
    )


def solve_m(profile: CurvatureProfile, t_end: float, tol: float) -> WarpingSolution:
    """Solve m'' + min(K, 0) m = 0, m(0) = 0, m'(0) = 1.

    m is convex while positive and starts with slope 1, so it can never
    return to zero; a detected zero would mean the integrator broke and
    is reported as such.
    """
    sol = solve(negative_part(profile), t_end, tol)
    if sol.first_zero is not None:
        raise IntegrationError(
            "convex comparison function crossed zero; integrator inconsistency",
            sol.first_zero,
        )
    return sol
