"""Jacobi initial value problems f'' + K(t) f = 0, f(0) = 0, f'(0) = 1.

A piece where K is a constant kappa (a zero or constant tail, a segment
whose numerator and denominator are constants, the zero pieces of the
negative part) is solved in closed form from its entry state (t0, f0,
f0'): with omega = sqrt|kappa| and tau = t - t0,

    f = f0 C + f0' S,    f' = f0' C - kappa f0 S,

where C is cosh(omega tau), cos(omega tau) or 1 and S is tau sinh(x)/x,
tau sin(x)/x or tau with x = omega tau, so nothing cancels as kappa -> 0.
A zero piece is one step.  Elsewhere the nodes lie on a uniform grid of
spacing at most u/omega, all evaluated from the entry state in one array
pass.  u follows from tol alone (``_grid_u``): the quintic Hermite
remainder, with |f^(6)| = omega^6 |f| and |f^(7)| = omega^6 |f'| on the
piece and the growth e^u within a step counted, holds the dense output's
error below tol a at f and below tol omega a at f', where
a = |f| + |f'|/omega at the step's left node.  The first zero comes from
the phase (kappa > 0), from the sign change of the exponential pair
(kappa < 0) or from -f0/f0' (kappa = 0).

A segment whose K is a non-constant polynomial (any degree) is taken by
Taylor transfer matrices, from its entry state.  f is entire there, and
its Taylor coefficients at a node follow the recurrence
b_(k+2) = -sum_j K_j b_(k-j)/((k+2)(k+1)) with K's own Taylor
coefficients K_j; the equation is linear, so a step's 2 x 2 transfer
matrix depends on K alone, and one array pass builds the matrices of any
set of nodes (``_taylor_steps``).  The state is carried node to node in
Python floats.  Each sign piece of the segment gets its own grid: cells
of a local scale omega = max over j of (max |K_j|)^(1/(j+2)), bounded
with Bernstein coefficients on the cell (``_local_scales``), each with a
uniform grid of omega h <= x.  x follows from tol and the degree alone
(``_taylor_rule``): the quintic Hermite remainder of ``_grid_u``, with
f^(6) and f^(7) bounded by the majorant series that |K_j| <= omega^(j+2)
gives, holds the dense output's error below tol a at f and tol omega a
at f', with a = |f| + |f'|/omega at the step's left node.  So the nodes
depend on the sign piece, the entry time and tol, never on the state:
where f and m enter a nonpositive sign piece they get the same nodes and
the same matrices, and m - f is carried by the same linear maps.  Since
x < pi and omega >= sqrt(max K), every step meets the Sturm cap below
without a test.  The walk stops at the first node where f <= 0, whose
zero is located as the stepper's is, and at the first node past the
growth guard.

Since nothing of the grid or the matrices depends on the state, they
form a plan per profile, t_end and tol (``_Plan``), held in a one-entry
memo that ``solve`` and ``solve_m`` share (the Taylor methods of Corliss
and Chang, ACM TOMS 8, 1982, and of Jorba and Zou, Exp. Math. 14, 2005,
rest on the same fact).  The plan finds the grids of all the profile's
polynomial sign pieces together, in batched array passes, and builds
their matrices as the walks reach them: every nonpositive piece of a
degree in one pass, which f and m both walk, and a positive piece in
chunks that double in size, so a solve that stops at its first zero
does not pay for the rest of the piece.  The chain over them keeps the
bits of a grid built span by span, and an underflowing grid or an
exhausted step budget is raised where the walk meets it.

Every other piece, a rational segment or a power tail, is integrated by
an explicit Dormand-Prince 5(4) embedded pair with PI step control.  The
equation is linear and smooth on every profile piece, so a moderate-order
pair is plenty and keeps the package free of solver dependencies.  Four
behaviors matter downstream and are guaranteed here:

* steps never straddle a profile breakpoint (integration restarts there),
  so each step sees an analytic right-hand side; a step that ends on a
  breakpoint is taken at any length, so a piece of any width is solved;
* when K > 0 somewhere on a step, the step length is capped by
  pi/sqrt(max K on the step); zeros of f are then at least one cap apart
  (Sturm), so a step can never skip a pair of zeros.  Whether K can be
  positive on the rest of a piece is decided once, at piece entry, and
  only such pieces (a rational segment or a positive power tail) test
  the cap at every step;
* on a rational segment a step is at most _POLE_RATIO times the distance
  from its start to each pole ahead of it (a root of the denominator, all
  off the segment), so the steps that lead up to a narrow spike of K,
  whose poles lie close to the real axis, shrink with the distance to it,
  and the stage points cannot pass over it unseen.  A pole behind the
  step's start needs no cap: the first stage, at the start, sees K there.
  The test runs only while a pole lies ahead and the step exceeds a floor
  set at piece entry, and the cap never goes below 4 times the underflow
  floor, so a pole that rounding puts on the segment cannot stall a solve;
* the first zero of f, if any, is located by bisection on the dense
  output to 1e-12 in t, and integration stops there.

A step needs K at five new stage points, t + c_i h for i = 2..5 and t + h:
the first stage is the last one of the previous step, and K(t + h)
serves both the sixth and the seventh stage (first same as last, FSAL).
It reads the five in one call of the piece's stage evaluator, which is
built at piece entry and rounds as the piece's ``evaluate`` does.  The
Sturm cap reuses those values: K(t) is the previous step's K(t + h) (or
is computed at piece entry), K(t + h) is the new one, and K is evaluated
only at a rational segment's critical points inside the step.  A step
whose cap binds reads its stage values again at the capped length.

Dense output stores f, f' and f'' = -K f at the step ends and evaluates a
quintic Hermite interpolant per step.  Its O(h^6) interpolation error
stays below the accepted local error at every tolerance in the supported
range, which a cubic on (f, f') alone would not.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .curvature_profile import (
    CurvatureProfile,
    Segment,
    _shifted_to_bernstein,
    _taylor_shift,
    negative_part,
)
from .errors import IntegrationError

__all__ = ["WarpingSolution", "solve", "solve_m", "GROWTH_GUARD"]

# Reaching this magnitude in f or f' means the model is violently
# divergent; the window is truncated at the first node past it instead of
# overflowing: a step of the stepper, a node of a polynomial piece, whose
# one step from below the guard stays in float range, or a grid node of a
# constant piece, whose pass is bounded beforehand so that no node
# overflows (a zero piece ends where f reaches twice the guard).  Ball volumes are
# integrated in logs, so f**(n-1) never leaves float range; the
# closed-form growth coefficient and the ends cap go through
# model_space.power, which saturates to inf.
GROWTH_GUARD = 1e60

# attempted steps after which a solve gives up
_MAX_STEPS = 10_000_000

_MIN_TOL, _MAX_TOL = 1e-14, 1e-3

# polynomial pieces: a span allows at most _SPAN_NODES nodes at its own scale and is
# split into cells of about _CELL_NODES nodes; omega never falls below
# _OMEGA_FLOOR, so no step is longer than 1e180 and one step from below
# the growth guard stays in float range
_SPAN_NODES = 4096
_CELL_NODES = 16
_OMEGA_FLOOR = 2.0 ** -600
# a plan's round builds at most _ROUND_NODES nodes, far more than a span
# holds (about _SPAN_NODES + _SPAN_NODES/_CELL_NODES); a positive sign
# piece's first chunk of transfer matrices has _CHUNK_NODES nodes, and each
# next one twice as many
_ROUND_NODES = 16384
_CHUNK_NODES = 256

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

# a stepper step on a rational segment is at most this times its start's
# distance to each pole ahead of it (``_pole_cap``)
_POLE_RATIO = 0.5


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


def _grid_u(tol: float) -> float:
    """omega h of a constant piece's grid: u with
    e^u (u^5/13416 + u^6/322560) <= tol, to within rounding.

    On a step of length h the quintic Hermite interpolant errs at x by
    f[0,0,0,h,h,h,x] w(x), with w = x^3 (x - h)^3, and its derivative by
    f[0,0,0,h,h,h,x,x] w(x) + f[0,0,0,h,h,h,x] w'(x).  With
    max|w| = h^6/64 and max|w'| < h^5 720/13416 that is
    |e| <= max|f^(6)| h^6/46080 and
    |e'| <= max|f^(7)| h^6/322560 + max|f^(6)| h^5/13416.  On the piece
    |f^(6)| = omega^6 |f| and |f^(7)| = omega^6 |f'|, and over the step
    |f| <= a e^u and |f'| <= omega a e^u, with a = |f| + |f'|/omega at its
    left node.  So |e'| <= tol omega a and |e| < tol a u/3.  Three
    steps of the fixed point u = (tol/(e^u (1/13416 + u/322560)))^(1/5)
    from (13416 tol)^(1/5) end below the root: the map decreases, so its
    odd iterates from above stay below it.
    """
    u = (13416.0 * tol) ** 0.2
    for _ in range(3):
        u = (tol / (math.exp(u) * (1.0 / 13416.0 + u / 322560.0))) ** 0.2
    return u


def _poles_ahead(piece, t: float, bound: float) -> tuple[list, float, float]:
    """The poles of a rational segment that lie ahead of its entry at t,
    as (real part, squared imaginary part) pairs, the largest real part
    among them (-inf when there is none), and a floor below which
    ``_pole_cap`` binds at no t in [t, bound]: _POLE_RATIO times the
    least distance from such a pole to [t, bound]."""
    poles = [(re, im * im) for re, im in getattr(piece, "_poles", ()) if re > t]
    if not poles:
        return poles, -math.inf, math.inf
    gap = min(math.hypot(re - bound, math.sqrt(im2)) if re > bound else math.sqrt(im2)
              for re, im2 in poles)
    return poles, max(re for re, _ in poles), _POLE_RATIO * gap


def _pole_cap(poles: list, t: float, h: float) -> float:
    """h, shortened to _POLE_RATIO times the distance from t to each pole
    ahead of t, but not below 4 times the underflow floor 1e-14 max(t, 1).
    ``numpy.roots`` can round a close pair of poles onto the real axis
    inside the segment, where the cap alone would halve the steps toward
    it until they underflow; the floor lets them pass."""
    capped = h
    for re, im2 in poles:
        if re > t:
            d = re - t
            cap = _POLE_RATIO * math.sqrt(d * d + im2)
            capped = cap if capped > cap else capped
    floor = 4e-14 * (t if t > 1.0 else 1.0)
    if capped >= floor:
        return capped
    return h if h < floor else floor


def _two_product(a: float, b: float) -> tuple[float, float]:
    """a b as p + e with p = fl(a b) and e its rounding error, exact for
    |a|, |b| below 1e290 with no underflow (Dekker's product)."""
    p = a * b
    a_hi = a * 134217729.0  # 2^27 + 1: Veltkamp's split
    a_hi -= a_hi - a
    b_hi = b * 134217729.0
    b_hi -= b_hi - b
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _hyperbolic_zero(f: float, fp: float, kappa: float, omega: float) -> float:
    """Time from entry to the first zero of f on a piece with kappa < 0,
    or inf when f has none there; f >= 0 at entry, and f' > 0 where f = 0.

    f = A e^x + B e^-x with x = omega tau, 2A = f + f'/omega and
    2B = f - f'/omega, changes sign exactly when A < 0, that is when
    d = -f' - f omega > 0, at tau = log1p(2 f omega/d)/(2 omega).  d
    cancels where the zero lies far out, so the rounding of omega and of
    f omega is recovered and taken out of it.
    """
    if fp >= 0.0:
        return math.inf
    p, p_err = _two_product(f, omega)
    w2, w2_err = _two_product(omega, omega)
    omega_lo = ((-kappa - w2) - w2_err) / (2.0 * omega)
    d = ((-fp - p) - p_err) - f * omega_lo
    return math.log1p(2.0 * p / d) / (2.0 * omega) if d > 0.0 else math.inf


def _constant_piece(t: float, f: float, fp: float, kappa: float, bound: float,
                    tol: float) -> tuple:
    """One pass of the closed form on a piece with constant K = kappa,
    from the entry state (t, f, f') toward ``bound``: the node times, f,
    f' and f'' = -kappa f after the entry, as arrays (a zero piece's one
    step as lists), and whether the last node is the first zero.  Every
    node, the zero's included, holds the closed form at its stored time:
    at the zero's time, rounded to a float, f is within rounding of 0, and
    storing 0 there instead would move the dense f' of a short last step
    by up to 30/16 of that rounding over h.

    A zero piece is one step, in Python floats: to the bound, to the zero,
    or to where f reaches twice the growth guard.  Otherwise the pass
    stops at the first zero, at the first node where |f| or |f'| reaches
    the guard, or, for kappa < 0, where the bound a e^x on |f| and |f'|
    (see ``_grid_u``) passes e^8 times the guard or x passes 700; the
    caller enters the piece again from there.  So no node overflows.  A
    grid of more than one step whose spacing is at or below the stepper's
    underflow floor raises IntegrationError.
    """
    width = bound - t
    if kappa == 0.0:
        t_new, zero = bound, fp < 0.0 and -f / fp <= width
        if zero:
            t_new = min(t - f / fp, bound)
        elif fp * width > 2.0 * GROWTH_GUARD:
            t_new = t + 2.0 * GROWTH_GUARD / fp
        f_new = f + fp * (t_new - t)
        return [t_new], [f_new], [fp], [-kappa * f_new], zero
    omega = math.sqrt(abs(kappa))
    if kappa > 0.0:
        # f = R sin(omega tau + phi) with phi in (0, pi]: the first zero
        # is at omega tau = pi - phi
        tau_z = math.atan2(f, -fp / omega) / omega
        x_max = math.inf
    else:
        tau_z = _hyperbolic_zero(f, fp, kappa, omega)
        a = max(f + abs(fp) / omega, omega * f + abs(fp))
        x_max = min(max(math.log(GROWTH_GUARD / a), 0.0) + 8.0, 700.0)
    zero = tau_z <= width and tau_z * omega <= x_max
    end = tau_z if zero else min(width, x_max / omega)
    n = max(math.ceil(omega * end / _grid_u(tol)), 1)
    spacing = end / n
    t_last = bound if end == width else min(t + end, bound)
    if n > 1 and spacing <= 1e-14 * max(t_last, 1.0):
        raise IntegrationError("step size underflow", t)
    ts = t + spacing * np.arange(1.0, n + 1.0)
    ts[-1] = t_last
    # every node from the entry state, at the offset of its stored time
    tau = ts - t
    x = omega * tau
    if kappa > 0.0:
        c, s = np.cos(x), np.sin(x)
    else:
        c, s = np.cosh(x), np.sinh(x)
    # s/x is 1 where x underflows to 0
    s = tau * np.divide(s, x, out=np.ones_like(x), where=x > 0.0)
    fs = f * c + fp * s
    fps = fp * c - kappa * f * s
    past = np.flatnonzero(np.maximum(np.abs(fs), np.abs(fps)) >= GROWTH_GUARD)
    # a zero node past the guard ends the solve as a zero, as a step would
    if past.size and not (zero and past[0] == n - 1):
        n, zero = past[0] + 1, False
    return ts[:n], fs[:n], fps[:n], -kappa * fs[:n], zero


def _majorant(x: float, degree: int, first: float) -> list[float]:
    """Scaled Taylor coefficients B_k of a majorant of f on a step of
    x = omega h on a polynomial piece of the given degree: B_0 = 1,
    B_1 = ``first`` and B_(k+2) = sum_(j <= degree) x^(j+2) B_(k-j)/((k+2)(k+1)),
    up to the first term below 1e-25 past k = 8, far below the tail that
    ``_taylor_rule`` asks for at tol 1e-14.

    Where |K^(j)/j!| <= omega^(j+2) on the step (``_local_scales``), the
    scaled coefficients b_(k+2) = -sum_j K_j h^(j+2) b_(k-j)/((k+2)(k+1))
    of f(t + s h) are at most B_k times |f| + |f'|/omega (B_1 = x) or,
    for both basis solutions of a transfer matrix, times 1 (B_1 = 1).
    """
    powers = [x ** (j + 2) for j in range(degree + 1)]
    b = [1.0, first]
    while len(b) < 10 or b[-1] > 1e-25:
        k = len(b) - 2
        b.append(sum(p * c for p, c in zip(powers, b[k::-1])) / ((k + 2) * (k + 1)))
    return b


@functools.lru_cache(maxsize=64)
def _taylor_rule(tol: float, degree: int) -> tuple[float, int]:
    """(x, P) for a polynomial piece of the given degree at tol: steps of
    omega h <= x, and P Taylor terms per step.

    x is the root of (D7/322560 + D6/13416)/x = tol, found by bisection to
    2^-32 u from below, where D6 = sum_k k!/(k-6)! B_k and D7 = sum_k k!/(k-7)! B_k
    bound max|f^(6)| h^6 and max|f^(7)| h^7 over the step in units of
    a = |f| + |f'|/omega (``_majorant`` with B_1 = x).  By the quintic
    Hermite remainder of ``_grid_u`` the dense output then errs by at most
    tol omega a at f' and by less than tol a at f.  At degree 0 the
    majorant is the exponential pair and this is ``_grid_u``'s equation;
    lines get about 0.6 u and degree 4 and above about 0.4 u, from the
    sixth coefficient's worst case, where every K_j is at its bound at
    once.

    P is the first order whose tail sum_(k >= P) k B_k (B_1 = 1) is at most
    tol 2^-16: the error of f(t + h) and of h f'(t + h) relative to the
    step amplitude, so that thousands of steps still sum to a small part
    of tol.
    """
    def excess(x):
        b = _majorant(x, degree, x)
        d6 = sum(math.perm(k, 6) * c for k, c in enumerate(b))
        d7 = sum(math.perm(k, 7) * c for k, c in enumerate(b))
        return (d7 / 322560.0 + d6 / 13416.0) / x > tol
    lo, hi = 0.0, _grid_u(tol)
    for _ in range(32):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if excess(mid) else (mid, hi)
    b = _majorant(lo, degree, 1.0)
    tail, order = 0.0, len(b)
    while order > 2 and tail + (order - 1) * b[order - 1] <= 2.0 ** -16 * tol:
        order -= 1
        tail += order * b[order]
    return lo, order


def _local_scales(num, a, w, scalar_roots: bool = False) -> np.ndarray:
    """omega on each cell [a, a + w] of a polynomial piece: the largest of
    (max |K^(j)/j!|)^(1/(j + 2)) over j, floored at _OMEGA_FLOOR.  ``num``
    holds K's coefficients, as floats or as arrays with one entry per cell.

    Each max is bounded by the largest Bernstein coefficient on the cell,
    with the steps of ``curvature_profile._bernstein`` on arrays: the
    Taylor shift to a gives every K^(j)(a)/j! at once, and K^(j)/j! has
    the coefficients C(i + j, j) K^(i+j)(a)/(i + j)! in powers of t - a.
    Subdivision only shrinks Bernstein bounds, so a cell's omega is at
    most its span's.  With ``scalar_roots`` each root is a float's ``**``
    (libm's pow), as a float a and w give it; numpy's array power rounds
    some of them differently.
    """
    d = len(num) - 1
    taylor = _taylor_shift(num, a)
    omega = np.full(np.shape(a), _OMEGA_FLOOR)
    for j in range(d + 1):
        # C(i + j, j) is 1 at i = 0 and at j = 0
        bern = _shifted_to_bernstein([math.comb(i + j, j) * taylor[i + j] if i and j
                                      else taylor[i + j] for i in range(d - j + 1)], w)
        bound = np.abs(bern[0])
        for x in bern[1:]:
            bound = np.maximum(bound, np.abs(x))
        root = 1.0 / (j + 2)
        if scalar_roots:
            omega = np.maximum(omega, [x ** root for x in bound.tolist()])
        else:
            omega = np.maximum(omega, bound ** root)
    return omega


def _taylor_steps(num, left: np.ndarray, h: np.ndarray, order: int) -> np.ndarray:
    """The transfer matrices of steps of length h from the nodes ``left``
    on the polynomial K = num (floats, or arrays with one entry per step),
    as the rows m00, m01, m10, m11 of a (4, n) array: (f, f') at the right
    end is (m00 f + m01 f', m10 f + m11 f') of the state at the left end.

    K's Taylor coefficients at each left node, scaled to
    kappa_j = K_j h^(j+2), drive the recurrence
    b_(k+2) = -sum_j kappa_j b_(k-j)/((k+2)(k+1)) for the scaled Taylor
    coefficients of both basis solutions at once (f = 1, h f' = 0 and
    f = 0, h f' = 1, as the rows of a (2, n) array), over ``order`` terms.
    Each term is written in place into a stack of them, and one sum over
    the stack, term after term, gives the value sum_k b_k and the slope
    sum_k k b_k at the right end.
    """
    d = len(num) - 1
    kappa, power = [], h * h
    for c in _taylor_shift(num, left):
        kappa.append(c * power)
        power = power * h
    # terms[k, 0] is b_k; terms[k, 1] becomes k b_k
    terms = np.empty((order, 2, 2, len(h)))
    b = terms[:, 0]
    b[:2] = 0.0
    b[0, 0] = 1.0
    b[1, 1] = 1.0
    for k in range(order - 2):
        new = b[k + 2]
        np.multiply(kappa[0], b[k], out=new)
        for j in range(1, min(d, k) + 1):
            new += kappa[j] * b[k - j]
        new *= -1.0 / ((k + 2) * (k + 1))
    np.multiply(b, np.arange(float(order)).reshape(-1, 1, 1), out=terms[:, 1])
    value, slope = np.add.reduce(terms, axis=0)
    return np.stack((value[0], h * value[1], slope[0] / h, slope[1]))


# the nodes of a piece whose grid no round has built yet
_NO_NODES = np.empty(0)
_NO_NODES.flags.writeable = False


def _cells(nodes: float) -> int:
    """The number of cells of a span whose scale allows ``nodes`` nodes."""
    # a span too narrow to halve gets at most _SPAN_NODES/_CELL_NODES cells
    return math.ceil(min(max(nodes, 1.0), _SPAN_NODES) / _CELL_NODES)


class _Piece:
    """One sign piece [lo, hi) of a polynomial segment in a plan, hi cut
    at the plan's t_end: its grid, resolved in rounds, and its transfer
    matrices, built in chunks.

    ``todo`` holds the spans a round has yet to resolve, in order.  The
    built leaves (spans of at most _SPAN_NODES nodes at their own scale)
    are ``leaves``, as (left end, first node, end node) over the node
    times ``t`` and -K at them, ``negk``.  Past them comes the first leaf
    whose grid underflows (``underflow``, the left end of its first
    underflowing cell), or a leaf that a round resolved but did not build
    (``next_leaf``, its left end and node count), or the spans of
    ``todo``, or nothing.  ``chunks`` are read-only (4, n) arrays of
    transfer matrices from node ``chunk_starts[i]`` on, over the first
    ``built`` nodes.
    """

    def __init__(self, seg: Segment, lo: float, hi: float, positive: bool):
        self.lo, self.positive = lo, positive
        self.num, self.evaluate, self.degree = seg.num, seg.evaluate, len(seg.num) - 1
        self.todo = [(lo, hi)]
        self.t = self.negk = _NO_NODES
        self.leaves: list[tuple[float, int, int]] = []
        self.underflow: float | None = None
        self.next_leaf: tuple[float, int] | None = None
        self.chunk_starts: list[int] = []
        self.chunks: list[np.ndarray] = []
        self.built = 0


class _Plan:
    """The state-independent part of the polynomial segments of a profile
    on [0, t_end) at tol: every sign piece's grid and transfer matrices,
    filled as far as the walks over them go.

    ``resolve`` finds the grids in rounds, each over the pieces of one
    degree, by batched array passes: one ``_local_scales`` pass per
    halving step of all the pieces at once, and one for all cells.  A
    round stops at the leaf where its nodes would pass its limit, so no
    round builds more nodes than the remaining budget of the walk that
    asks for it.  ``chunk`` builds the
    transfer matrices: all the nonpositive pieces of a degree in one
    ``_taylor_steps`` pass, which f and m share, and a positive piece in
    chunks of _CHUNK_NODES nodes, doubling, as f reaches them.
    """

    def __init__(self, profile: CurvatureProfile, t_end: float, tol: float):
        self.profile, self.t_end, self.tol = profile, t_end, tol
        # the negative part of the profile, whose polynomial sign pieces
        # are the profile's nonpositive ones
        self.negative: CurvatureProfile | None = None
        self.pieces = [_Piece(seg, lo, min(hi, t_end), positive)
                       for seg in profile.segments
                       if seg.t_start < t_end and seg.is_polynomial and not seg._constant
                       for lo, hi, positive in seg.sign_pieces if lo < t_end]
        # each piece by its start, which the negative part's cut shares
        self.at = {piece.lo: piece for piece in self.pieces}

    def resolve(self, piece: _Piece, budget: int) -> None:
        """Resolve the spans left from ``piece`` on, a round per degree,
        each of at most _ROUND_NODES and ``budget`` nodes; a first leaf of
        at most ``budget`` nodes is always built."""
        later = [p for p in self.pieces[self.pieces.index(piece):] if p.todo]
        for degree in sorted({p.degree for p in later}):
            self._round([p for p in later if p.degree == degree], degree, budget)

    def _round(self, pieces: list[_Piece], degree: int, budget: int) -> None:
        """Resolve the spans left in ``pieces``, of one degree and in
        order, then build the leaves (``_build_leaves``).  Each piece is
        halved depth first, leftmost span first, as far as a walk can reach
        within the limit: a span whose scale allows more than _SPAN_NODES
        nodes is halved, else it is a leaf.  A pass takes the leftmost span
        of every piece at once, in one ``_local_scales`` call."""
        xu = _taylor_rule(self.tol, degree)[0]
        limit = min(_ROUND_NODES, budget)
        # each piece's spans as a stack, leftmost on top, its leaves in
        # order as [piece, a, b, w omega/x], and their least node count,
        # one per cell
        stacks = [p.todo[::-1] for p in pieces]
        leaves: list[list] = [[] for _ in pieces]
        least = [0] * len(pieces)
        for p in pieces:
            p.todo, p.next_leaf = [], None
        while True:
            # the pieces that a walk reaches within the limit; the first
            # leaf of the first piece is always found
            tops, low = [], 0
            for k, stack in enumerate(stacks):
                low += least[k]
                if low > limit:
                    break
                if stack:
                    tops.append(k)
            if not tops:
                break
            spans = [stacks[k].pop() for k in tops]
            a = np.array([span[0] for span in spans])
            w = np.array([span[1] for span in spans]) - a
            num = tuple(np.array([pieces[k].num[i] for k in tops]) for i in range(degree + 1))
            # as the Python floats of a single span's scale, which never warn
            with np.errstate(all="ignore"):
                nodes = (w * _local_scales(num, a, w, scalar_roots=True) / xu).tolist()
            for k, (lo, hi), n in zip(tops, spans, nodes):
                mid = 0.5 * (lo + hi)
                if n > _SPAN_NODES and lo < mid < hi:
                    stacks[k] += [(mid, hi), (lo, mid)]
                else:
                    leaves[k].append([pieces[k], lo, hi, n])
                    least[k] += _cells(n)
        closed = self._build_leaves([leaf for group in leaves for leaf in group],
                                    degree, xu, limit, budget)
        for p, stack in zip(pieces, stacks):
            if p not in closed:
                p.todo += stack[::-1]

    def _build_leaves(self, leaves: list, degree: int, xu: float, limit: int,
                      budget: int) -> set:
        """The cells, node counts and underflow test of resolved leaves, in
        one pass, and the grids of those a walk reaches within the limit,
        each as ``np.linspace`` and ``np.repeat`` would build it alone; the
        leaves past the limit go back to their pieces' spans.  Returns the
        pieces that end at a leaf whose grid underflows."""
        cells = [_cells(it[3]) for it in leaves]
        n = np.array(cells)
        first = np.cumsum(n) - n
        a, b, nodes = np.array([it[1:] for it in leaves]).T
        # cell i of a leaf spans edges i and i + 1 of linspace(a, b, cells + 1),
        # i (b - a)/cells + a, the last one b; the cells take their leaf's
        # a, step, first cell and coefficients
        base, step, start, *num = np.repeat(
            [a, (b - a) / n, first, *([it[0].num[i] for it in leaves]
                                      for i in range(degree + 1))], n, axis=1)
        index = np.arange(float(len(base))) - start
        left = index * step + base
        right = (index + 1.0) * step + base
        right[first + n - 1] = b
        width = right - left
        # a one-cell leaf takes its count from its span's scale
        counts = np.repeat(np.maximum(np.ceil(nodes), 1.0), n)
        multi = np.repeat(n > 1, n)
        if multi.any():
            counts[multi] = np.maximum(np.ceil(width[multi] * _local_scales(
                tuple(c[multi] for c in num), left[multi], width[multi]) / xu), 1.0)
        spacing = width / counts
        under = (counts > 1.0) & (spacing <= 1e-14 * np.maximum(right, 1.0))
        leaf_counts = np.add.reduceat(counts, first).tolist()
        leaf_under = np.logical_or.reduceat(under, first).tolist()
        # the leaves to build, in order, until one passes the limit: it and
        # every later leaf go back to the spans
        keep, done, cut, closed = [], 0, False, set()
        for (p, a_k, b_k, _), count, i, under_k in zip(leaves, leaf_counts, first.tolist(),
                                                       leaf_under):
            kept = False
            if p in closed:
                pass
            elif cut:
                p.todo.append((a_k, b_k))
            elif under_k:
                p.underflow = left[i:][under[i:]].item(0)
                p.todo = []
                closed.add(p)
            elif done + count <= limit or (done == 0 and count <= budget):
                done += count
                kept = True
            else:
                cut = True
                p.next_leaf = (a_k, int(count))
                p.todo.append((a_k, b_k))
            keep.append(kept)
        if not done:
            return closed
        keep_cells = np.repeat(keep, n)
        counts = counts[keep_cells].astype(np.int64)
        ends = np.cumsum(counts)
        cell_left, cell_step, cell_start = np.repeat(
            [left[keep_cells], spacing[keep_cells], ends - counts], counts, axis=1)
        grid = cell_left + cell_step * (np.arange(1.0, ends[-1] + 1.0) - cell_start)
        grid[ends - 1] = right[keep_cells]
        grid.flags.writeable = False
        start = 0
        for (p, a_k, _, _), count, kept in zip(leaves, leaf_counts, keep):
            if kept:
                count = int(count)
                nodes = grid[start:start + count]
                start += count
                i = len(p.t)
                p.leaves.append((a_k, i, i + count))
                negk = -p.evaluate(nodes)
                if i:
                    nodes, negk = np.concatenate((p.t, nodes)), np.concatenate((p.negk, negk))
                p.t, p.negk = nodes, negk
                p.t.flags.writeable = p.negk.flags.writeable = False
        return closed

    def chunk(self, piece: _Piece, i: int) -> tuple[int, np.ndarray]:
        """The first node and the (4, n) transfer matrices of the chunk
        that holds node i of ``piece``, built first if it is not yet."""
        if i >= piece.built:
            # with the nonpositive pieces of its degree not built yet
            ranges = [(p, len(p.t)) for p in self.pieces if not p.positive
                      and p.degree == piece.degree and p.built < len(p.t)]
            if piece.positive:
                size = _CHUNK_NODES << len(piece.chunks)
                ranges.append((piece, min(piece.built + size, len(piece.t))))
            self._build_matrices(ranges)
        k = bisect.bisect_right(piece.chunk_starts, i) - 1
        return piece.chunk_starts[k], piece.chunks[k]

    def _build_matrices(self, ranges: list[tuple[_Piece, int]]) -> None:
        """The transfer matrices of each piece's nodes from ``built`` up to
        the given end, in one ``_taylor_steps`` pass."""
        lefts, rights = [], []
        for p, end in ranges:
            i = p.built
            rights.append(p.t[i:end])
            lefts.append(p.t[i - 1:end - 1] if i else np.concatenate(([p.lo], p.t[:end - 1])))
        sizes = [len(r) for r in rights]
        left = np.concatenate(lefts)
        if len(ranges) == 1:
            num = ranges[0][0].num
        else:
            num = tuple(np.repeat([p.num[i] for p, _ in ranges], sizes)
                        for i in range(ranges[0][0].degree + 1))
        order = _taylor_rule(self.tol, ranges[0][0].degree)[1]
        mats = _taylor_steps(num, left, np.concatenate(rights) - left, order)
        mats.flags.writeable = False
        start = 0
        for (p, end), size in zip(ranges, sizes):
            p.chunk_starts.append(p.built)
            p.chunks.append(mats[:, start:start + size])
            p.built = end
            start += size


# the plan of the last profile solved (``_plan``)
_memo: _Plan | None = None


def _plan(profile: CurvatureProfile, t_end: float, tol: float) -> _Plan:
    """The plan of ``profile`` on [0, t_end) at tol, from a one-entry memo
    keyed on the profile object's identity, t_end and tol; a new plan
    replaces the memo's.  The plan of a profile also serves its negative
    part, once ``solve_m`` has named it (``_Plan.negative``)."""
    global _memo
    plan = _memo
    if (plan is None or plan.t_end != t_end or plan.tol != tol
            or (plan.profile is not profile and plan.negative is not profile)):
        plan = _memo = _Plan(profile, t_end, tol)
    return plan


def _polynomial_piece(seg: Segment, t: float, f: float, fp: float, bound: float,
                      steps: int, plan: _Plan) -> tuple:
    """The nodes of a non-constant polynomial segment from the entry state
    (t, f, f') toward ``bound``: the node times, f, f' and f'' = -K f after
    the entry, as arrays, and whether the last node is the first zero.  ``steps`` is
    the solve's count of steps so far, and ``plan`` holds the grid and
    matrices of the segment's sign pieces (``_Plan``).

    Each sign piece of the segment is walked on its own grid, so the nodes
    depend on the sign piece, the entry time and tol alone, never on the
    state.  A span whose scale allows more than _SPAN_NODES nodes is
    halved; a span is split into uniform cells of about _CELL_NODES nodes
    at its own scale, and each cell gets a uniform grid of spacing at most
    x/omega, with x from ``_taylor_rule`` and the cell's omega from
    ``_local_scales``.  The state is carried node to node in Python floats
    over the plan's matrices.  The walk stops at the first node where
    f <= 0, whose zero ``_locate_zero`` finds on the dense quintic, and at
    the first node where |f| or |f'| reaches the growth guard.  A step
    grows |f| and |f'| by at most e^x (1 + max(h, omega)), which the omega
    floor keeps below 1e180, so no node overflows.  Where the walk reaches
    a span whose grid has more than one step at or below the stepper's
    underflow floor, or whose nodes would take the solve past _MAX_STEPS
    steps, it raises IntegrationError; the plan records both and builds
    neither, so only a walk that reaches them raises.
    """
    ev = seg.evaluate
    guard, max_steps = GROWTH_GUARD, _MAX_STEPS
    walked = steps
    # the nodes walked, as arrays per chunk: times, f, f' and f''; ``last``
    # is the node before the next chunk, the entry at first, which
    # brackets a zero at the chunk's first node
    parts = []
    last = (t, f, fp, -ev(t) * f)
    for lo, _, _ in seg.sign_pieces:
        if lo >= bound:
            break
        piece = plan.at[lo]
        k = 0
        while True:
            if k == len(piece.leaves):
                if piece.underflow is not None:
                    raise IntegrationError("step size underflow", piece.underflow)
                if not piece.todo:
                    break
                if piece.next_leaf and walked + piece.next_leaf[1] > max_steps:
                    raise IntegrationError("step budget exhausted", piece.next_leaf[0])
                plan.resolve(piece, max_steps - walked)
                continue
            a, i, end = piece.leaves[k]
            k += 1
            if walked + (end - i) > max_steps:
                raise IntegrationError("step budget exhausted", a)
            while i < end:
                first, mats = plan.chunk(piece, i)
                j = min(end, first + mats.shape[1])
                m00, m01, m10, m11 = mats[:, i - first:j - first].tolist()
                new_fs, new_fps = [], []
                push_f, push_fp = new_fs.append, new_fps.append
                for c00, c01, c10, c11 in zip(m00, m01, m10, m11):
                    f, fp = c00 * f + c01 * fp, c10 * f + c11 * fp
                    push_f(f)
                    push_fp(fp)
                    if not (0.0 < f < guard and -guard < fp < guard):
                        break
                n = len(new_fs)
                walked += n
                node_f = np.array(new_fs)
                # Python floats past the guard may overflow K f, as the stepper's do
                with np.errstate(over="ignore"):
                    part = (piece.t[i:i + n], node_f, np.array(new_fps),
                            piece.negk[i:i + n] * node_f)
                parts.append(part)
                if f <= 0.0:
                    if n > 1:
                        last = (part[0][-2].item(), new_fs[-2], new_fps[-2], part[3][-2].item())
                    t0, f0, fp0, d0 = last
                    tz, fz, fpz = _locate_zero(t0, part[0][-1].item() - t0, f0, fp0, d0,
                                               f, fp, part[3][-1].item())
                    ts, fs, fps, d2 = (np.concatenate(x) for x in zip(*parts))
                    ts[-1], fs[-1], fps[-1], d2[-1] = tz, fz, fpz, -ev(tz) * fz
                    return ts, fs, fps, d2, True
                if not (f < guard and -guard < fp < guard):
                    return (*(np.concatenate(x) for x in zip(*parts)), False)
                last = (part[0][-1].item(), f, fp, part[3][-1].item())
                i = j
    return (*(np.concatenate(x) for x in zip(*parts)), False)


def solve(profile: CurvatureProfile, t_end: float, tol: float) -> WarpingSolution:
    """Integrate f'' + K f = 0 with f(0) = 0, f'(0) = 1 on [0, t_end].

    ``t_end`` must be finite.  ``tol`` is the requested relative error,
    used for both the relative and absolute components of the stepper's
    local error test and for the grids of constant and polynomial pieces
    (see the module docstring); it must lie in [1e-14, 1e-3].  Constant
    pieces are taken in closed form, non-constant polynomial segments by
    Taylor transfer matrices on a grid per sign piece, and only rational
    segments and power tails by the stepper, its Sturm cap and, on
    rational segments, its pole cap.
    Integration stops early at the first zero of f (recorded in
    ``first_zero``) or when |f| or |f'| passes the growth guard (recorded
    in ``truncated``); step-size underflow raises IntegrationError.

    A step that ends on its bound, the next breakpoint or t_end, is taken
    at any length, so pieces far narrower than the underflow floor of
    1e-14 max(t, 1) are each one step; only a step that stops short of
    its bound, or a constant or polynomial piece's grid finer than the
    floor, can underflow.  A polynomial piece checks the step budget
    before it walks the nodes of a span.  At each piece entry a step size
    at or below that floor (0 before the first piece) starts over from the
    initial-step rule: 1 % of the bound, clipped to [1e-6, 0.1].

    The polynomial segments are walked over the plan of ``profile`` on
    [0, t_end) at tol (``_Plan``), from a one-entry memo: the first
    polynomial piece fetches it, and a solve of another profile object,
    t_end or tol replaces it.  The plan finds grids and builds transfer
    matrices only as far as the walks over it go, and a span whose grid
    underflows or would pass the step budget raises only when a walk
    reaches it, as the walk over a fresh grid would.
    """
    if not (0.0 < t_end < math.inf):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
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

    # the stepper's nodes since the last closed-form or polynomial piece,
    # whose nodes come as arrays: both go to ``blocks`` in order
    ts = [0.0]
    fs = [0.0]
    fps = [1.0]
    d2_left: list[float] = []
    d2_right: list[float] = []
    blocks: list[tuple] = []

    first_zero: float | None = None
    truncated = False
    n_steps = 0
    n_rejected = 0

    plan = None  # the first polynomial piece fetches it
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
            k_t = ev(t)
            polynomial = isinstance(piece, Segment) and piece.is_polynomial
            if piece._constant or polynomial:
                if piece._constant:
                    new_ts, new_fs, new_fps, new_d2, zero = _constant_piece(
                        t, f, fp, k_t, bound, tol)
                else:
                    if plan is None:
                        plan = _plan(profile, t_end, tol)
                    new_ts, new_fs, new_fps, new_d2, zero = _polynomial_piece(
                        piece, t, f, fp, bound, n_steps + n_rejected, plan)
                n_steps += len(new_ts)
                d2_left.append(-k_t * f)
                if isinstance(new_ts, list):
                    # a zero piece's one step, in Python floats
                    d2_left += new_d2[:-1]
                    d2_right += new_d2
                    ts += new_ts
                    fs += new_fs
                    fps += new_fps
                else:
                    blocks += [(ts, fs, fps, d2_left, d2_right),
                               (new_ts, new_fs, new_fps, new_d2[:-1], new_d2)]
                    ts, fs, fps, d2_left, d2_right = [], [], [], [], []
                t, f, fp = float(new_ts[-1]), float(new_fs[-1]), float(new_fps[-1])
                if zero:
                    first_zero = t
                    break
                if max(abs(f), abs(fp)) >= guard:
                    truncated = True
                    break
                if t < bound:
                    # a constant pass stopped short of its bound: enter again
                    piece_end = t
                continue
            # K at a step's stage points: one call per step
            stages = piece._stages
            # where K <= 0 on the rest of the piece no step needs the cap
            check_cap = piece.max_on(t, bound) > 0.0
            # the cap takes max_on(t, t + h) from values the step has: on a
            # rational segment, K at both ends and at the critical points
            # inside; a positive power tail is decreasing, so its max is K(t)
            crit = piece._critical_points if isinstance(piece, Segment) else None
            poles, pole_end, pole_floor = _poles_ahead(piece, t, bound)
            k1f, k1p = fp, -k_t * f
            # the first piece, and a step grown from a sliver piece, start
            # over from the initial-step rule
            if h <= 1e-14 * (t if t > 1.0 else 1.0):
                h = max(min(0.01 * bound, 0.1), 1e-6)
        # snap to the boundary when the proposal reaches or nearly reaches
        # it, so no sliver is left behind for a step of its own
        at_bound = bound - t <= h * (1.0 + 1e-9)
        if at_bound:
            h = bound - t
        if t < pole_end and h > pole_floor:
            capped = _pole_cap(poles, t, h)
            if capped < h:
                h, at_bound = capped, False
        # one curvature call per step: k1 is carried over, and K(t + h)
        # serves stage 6 and stage 7 (FSAL)
        k2, k3, k4, k5, k_end = stages(t + c2 * h, t + c3 * h, t + c4 * h,
                                       t + c5 * h, t + h)
        if check_cap:
            kmax = k_t
            if crit is not None:
                # as max_on's max(): b if b > a else a, NaN included
                kmax = k_end if k_end > kmax else kmax
                b = t + h
                for r in crit:
                    if t < r < b:
                        kr = ev(r)
                        kmax = kr if kr > kmax else kmax
            if kmax > 0.0:
                cap = pi / sqrt(kmax)
                if h > cap:
                    h = cap
                    at_bound = False
                    k2, k3, k4, k5, k_end = stages(
                        t + c2 * h, t + c3 * h, t + c4 * h, t + c5 * h, t + h)
        # a step that ends on the bound is taken at any length
        if not at_bound and h <= 1e-14 * (t if t > 1.0 else 1.0):
            raise IntegrationError("step size underflow", t)

        y2f = f + h * (a21 * k1f)
        y2p = fp + h * (a21 * k1p)
        k2f, k2p = y2p, -k2 * y2f
        y3f = f + h * (a31 * k1f + a32 * k2f)
        y3p = fp + h * (a31 * k1p + a32 * k2p)
        k3f, k3p = y3p, -k3 * y3f
        y4f = f + h * (a41 * k1f + a42 * k2f + a43 * k3f)
        y4p = fp + h * (a41 * k1p + a42 * k2p + a43 * k3p)
        k4f, k4p = y4p, -k4 * y4f
        y5f = f + h * (a51 * k1f + a52 * k2f + a53 * k3f + a54 * k4f)
        y5p = fp + h * (a51 * k1p + a52 * k2p + a53 * k3p + a54 * k4p)
        k5f, k5p = y5p, -k5 * y5f
        y6f = f + h * (a61 * k1f + a62 * k2f + a63 * k3f + a64 * k4f + a65 * k5f)
        y6p = fp + h * (a61 * k1p + a62 * k2p + a63 * k3p + a64 * k4p + a65 * k5p)
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
        # ** 2, not x * x: libm's pow rounds some squares differently, and
        # every accepted step, so every node, depends on these bits
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
        k1f, k1p, k_t = k7f, k7p, k_end

    blocks.append((ts, fs, fps, d2_left, d2_right))
    ts, fs, fps, d2_left, d2_right = (np.concatenate(field) if len(field) > 1
                                      else np.asarray(field[0]) for field in zip(*blocks))
    return WarpingSolution(
        profile=profile,
        tol=tol,
        ts=ts,
        fs=fs,
        fps=fps,
        d2_left=d2_left,
        d2_right=d2_right,
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

    ``solve`` walks ``negative_part(profile)``, which the solution
    carries, over the plan of ``profile`` itself: its nonpositive
    polynomial sign pieces are the negative part's, with the same nodes
    and matrices.  After ``solve(profile, t_end, tol)`` the memo holds that
    plan, so m builds no matrix that f built; either way the nodes are the
    same bits.  Errors are raised where m's walk meets them.
    """
    negative = negative_part(profile)
    _plan(profile, t_end, tol).negative = negative
    sol = solve(negative, t_end, tol)
    if sol.first_zero is not None:
        raise IntegrationError(
            "convex comparison function crossed zero; integrator inconsistency",
            sol.first_zero,
        )
    return sol
