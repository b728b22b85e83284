"""Asymptotic quantities of a model surface: the limit slope of a Jacobi
solution and the total curvature.

Past the tail start, f'' = -K f with K = a / (1+t)**p, so the limit slope
s = lim f' is f'(T) minus the integral of K f over [T, oo), where T is the
last node of the solve.  While f > 0 past T its slope is monotone there,
so f lies between its tangent at T and the line of slope s through
(T, f(T)); integrating K against both lines brackets s in closed form
(see :func:`slope_limit`).  Every limit is a :class:`LimitEstimate`,
which holds its enclosure [lo, hi]; consumers map the ends through
monotone functions.  The m' limit of the ends bound is the same
rule applied to the solve of the negative part, ``slope_limit(solve_m(...))``;
where K <= 0, min(K, 0) = K, so that solve is f's own and
``evaluate_theorem`` takes the slope limit of f itself.

Total curvature splits as c = c_plus + c_minus with

    c_plus  = 2 pi * integral of max(K, 0) * f,
    c_minus = 2 pi * integral of min(K, 0) * f,

each taken over [0, oo).  Both are telescoping sums over the sign pieces
of K, taken in one pass: f'' = -K f, so on a stretch [a, b] where K keeps
one sign the integral of K f is f'(a) - f'(b), read from the dense ODE
output at the stretch ends (breakpoints and exact sign changes), and it
goes to the side of that sign.  The tail regime [t_tail, oo) adds
f'(t_tail) - s to the side of the tail's own sign, unless its first
moment diverges (a nonzero constant tail, or a power tail with exponent
<= 2), which makes that side and the classification divergent.

The sides are kept for the report and the classification, but a finite c
is taken from the one enclosure of s: the integral of K f over [0, oo)
is f'(0) - s = 1 - s (Gauss-Bonnet on the model surface), so
c = 2 pi (1 - s) with err 2 pi s.err, which equals c_plus + c_minus up
to rounding.  The result carries s in every class
(``TotalCurvatureResult.slope``), so the growth coefficient and the
report read it without solving for it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .curvature_profile import tail_moment_finite
from .errors import ConfigurationError
from .jacobi import WarpingSolution

__all__ = [
    "LimitEstimate",
    "CurvatureClass",
    "TotalCurvatureResult",
    "total_curvature",
    "slope_limit",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LimitEstimate:
    """A numerical limit with an enclosure [lo, hi], or a divergence marker.

    ``LimitEstimate(value, err)`` is symmetric: lo and hi are value -+ err.
    ``LimitEstimate.of_bounds(value, lo, hi)`` is asymmetric: err is the
    larger distance from value to an end (the keyword fields lo and hi are
    filled in at construction and given only by ``of_bounds``).  Consumers
    map the ends through monotone functions (interval arithmetic) and
    build no bound from value and err by hand; reports serialize value
    and err.

    A divergent estimate keeps its last value (the slope at the window
    end, or the growth coefficient it maps to) and has err = inf.  A limit that did not settle, or whose
    value, err or an end is not finite, has err = inf and the enclosure
    [-inf, inf], but is not marked divergent.
    """

    value: float
    err: float
    divergent: bool = False
    lo: float | None = field(default=None, kw_only=True)
    hi: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.err < 0:
            raise ValueError("error estimate must be nonnegative")
        lo = self.value - self.err if self.lo is None else self.lo
        hi = self.value + self.err if self.hi is None else self.hi
        if lo > self.value or hi < self.value:
            raise ValueError(f"enclosure [{lo}, {hi}] misses the value {self.value}")
        if not all(map(math.isfinite, (self.value, self.err, lo, hi))):
            object.__setattr__(self, "err", math.inf)
            lo, hi = -math.inf, math.inf
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def is_finite(self) -> bool:
        return not self.divergent

    @staticmethod
    def of_bounds(value: float, lo: float, hi: float) -> "LimitEstimate":
        """value in the enclosure [lo, hi]; ValueError unless lo <= value
        <= hi."""
        return LimitEstimate(value=value, err=max(value - lo, hi - value),
                             lo=lo, hi=hi)

    @staticmethod
    def of_divergent(last_probe: float) -> "LimitEstimate":
        return LimitEstimate(value=last_probe, err=math.inf, divergent=True)


class CurvatureClass(Enum):
    FINITE = "finite"
    NEGATIVE_DIVERGENT = "negative_divergent"
    POSITIVE_DIVERGENT = "positive_divergent"


@dataclass(frozen=True)
class TotalCurvatureResult:
    """Total curvature of the model surface, or its divergence class.

    ``c_plus``/``c_minus`` are the split contributions (divergent sides
    are +-inf).  ``slope`` is the enclosure of s = lim f' from
    ``slope_limit``, in every class; when finite, ``value`` is
    2 pi (1 - s), which equals c_plus + c_minus up to rounding, ``err``
    is 2 pi s.err, and Cohn-Vossen bounds the value by 2 pi.
    """

    classification: CurvatureClass
    value: float | None
    err: float | None
    c_plus: float
    c_minus: float
    slope: LimitEstimate

    @property
    def is_finite(self) -> bool:
        return self.classification is CurvatureClass.FINITE


def _solve_err(f: WarpingSolution, slope: float) -> float:
    """The error assumed of a solve at a node with slope f':
    f.tol * (1 + |f'|)."""
    return f.tol * (1.0 + abs(slope))


def slope_limit(f: WarpingSolution) -> LimitEstimate:
    """Limit of f'(t) as t -> oo, from the last node T = f.t_end of the
    solve and the tail model of ``f.profile``.

    The rule is sound while f > 0 past T, where f'' = -K f keeps the
    slope monotone:

    * zero tail: f is linear past the tail start, so the limit is f'(T);
    * negative tail whose first moment diverges: divergent, since
      f' >= c * integral of t |K| grows without bound;
    * power tail a / (1+t)**p with p > 2: with J0 = (1+T)**(1-p)/(p-1)
      and J1 = (1+T)**(2-p)/((p-1)(p-2)), the integrals of (1+t)**-p and
      (t-T)(1+t)**-p over [T, oo), the limit lies between
      A = f'(T) - a (f(T) J0 + f'(T) J1), from K against the tangent at
      T, and B = (f'(T) - a f(T) J0) / (1 + a J1), from K against the
      line of the limit slope through (T, f(T)).  The estimate is the
      midpoint of [A, B] with err half its width plus the solve's error
      scale f.tol * (1 + |f'(T)|), so its enclosure [lo, hi] is [A, B]
      widened by that scale.

    Anything else did not settle and is reported as f'(T) with err = inf:
    a solve that ended before the tail regime, a positive tail whose
    moment diverges, or a bracket that cannot rule out a zero of f past T
    (f'(T) <= 0, A <= 0 or 1 + a J1 <= 0).
    """
    T = f.t_end
    x, y = f.fp(T), f.f(T)
    tail = f.profile.tail
    unsettled = LimitEstimate(value=x, err=math.inf)
    if T < f.profile.t_tail:
        return unsettled
    if not tail_moment_finite(tail):
        return LimitEstimate.of_divergent(x) if tail.sign < 0 else unsettled
    solve_err = _solve_err(f, x)
    if tail.sign == 0:
        return LimitEstimate(value=x, err=solve_err)
    # a nonzero tail with a finite moment is a power tail with p > 2
    a, p = tail.a, tail.p
    j0 = (1.0 + T) ** (1.0 - p) / (p - 1.0)
    j1 = (1.0 + T) ** (2.0 - p) / ((p - 1.0) * (p - 2.0))
    lower = x - a * (y * j0 + x * j1)
    if x <= 0.0 or lower <= 0.0 or 1.0 + a * j1 <= 0.0:
        return unsettled
    upper = (x - a * y * j0) / (1.0 + a * j1)
    return LimitEstimate(value=0.5 * (lower + upper),
                         err=0.5 * abs(upper - lower) + solve_err)


def total_curvature(f: WarpingSolution) -> TotalCurvatureResult:
    """Total curvature of the surface whose warping function ``f`` solves
    the Jacobi equation of ``f.profile``.

    ``f`` must be first-zero free and reach the tail regime (f.t_end >=
    the tail start).  Each sign piece [lo, hi] of K adds f'(lo) - f'(hi)
    to its side, and the tail adds f'(t_tail) - s to its side, with
    s = ``slope_limit(f)``.  A finite c is 2 pi (1 - s) with err
    2 pi s.err: the sides telescope to it up to rounding, f'(0) = 1 is
    exact, and the solve's error at every inner end cancels, so only s's
    error remains.
    """
    if f.first_zero is not None:
        raise ValueError(
            "warping function has a zero; total curvature needs a "
            "noncompact model"
        )
    profile = f.profile
    T = f.t_end
    if T < profile.t_tail:
        raise ConfigurationError(
            f"solution window ends at t = {T:.6g}, before the tail regime "
            f"starting at t = {profile.t_tail:.6g}"
        )
    s = slope_limit(f)
    # sums per side, indexed by "positive": [c_minus, c_plus]
    q = [0.0, 0.0]
    for seg, lo, hi, positive in profile.sign_pieces():
        if not seg.is_zero:
            q[positive] += f.fp(lo) - f.fp(hi)
    tail = profile.tail
    finite = tail_moment_finite(tail)
    if finite and tail.sign:
        q[tail.sign > 0] += f.fp(profile.t_tail) - s.value
    c_minus, c_plus = _TWO_PI * q[0], _TWO_PI * q[1]
    if finite:
        return TotalCurvatureResult(CurvatureClass.FINITE, _TWO_PI * (1.0 - s.value),
                                    _TWO_PI * s.err, c_plus, c_minus, s)
    if tail.sign < 0:
        return TotalCurvatureResult(CurvatureClass.NEGATIVE_DIVERGENT,
                                    None, None, c_plus, -math.inf, s)
    return TotalCurvatureResult(CurvatureClass.POSITIVE_DIVERGENT,
                                None, None, math.inf, c_minus, s)
