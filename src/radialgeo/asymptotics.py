"""Asymptotic quantities of a model surface: total curvature, the slope
limit of the warping function, and the limit slope of the convex
comparison function m.

Total curvature splits as c = c_plus + c_minus with

    c_plus  = 2 pi * integral of max(K, 0) * f,
    c_minus = 2 pi * integral of min(K, 0) * f,

each taken over [0, oo).  On the finite range [0, T] each part is a
telescoping sum: f'' = -K f, so on every stretch where the part equals K
its integral is f'(a) - f'(b), read from the dense ODE output at the
stretch ends (breakpoints and exact sign changes).  The improper
remainder is settled analytically from the tail model, using the linear
asymptote of f.  A tail whose first moment diverges (a constant tail, or
a power tail with exponent <= 2) makes its side diverge, and the
classification then short-circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._extrapolation import richardson_limit
from .curvature_profile import (
    CurvatureProfile,
    MomentClass,
    PowerDecayTail,
    ZeroTail,
    negative_part,
    positive_part,
    tail_moment_class,
    tail_moment_finite,
)
from .errors import ConfigurationError, ConvergenceError
from .jacobi import WarpingSolution, solve

__all__ = [
    "LimitEstimate",
    "CurvatureClass",
    "TotalCurvatureResult",
    "total_curvature",
    "slope_limit",
    "probe_limit",
    "m_prime_limit",
    "DIVERGENCE_THRESHOLD",
    "HORIZON_START",
    "HORIZON_MAX",
]

# A probe sequence that is still rising past this value is reported as
# divergent rather than extrapolated.
DIVERGENCE_THRESHOLD = 1e6

# Adaptive horizon for the m' limit: doubling from HORIZON_START until the
# slope settles, giving up beyond HORIZON_MAX.
HORIZON_START = 64.0
HORIZON_MAX = float(2 ** 20)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LimitEstimate:
    """A numerical limit with an error estimate, or a divergence marker.

    A divergent estimate keeps the last finite probe in ``value`` and has
    err = inf.
    """

    value: float
    err: float
    divergent: bool = False

    def __post_init__(self):
        if self.err < 0:
            raise ValueError("error estimate must be nonnegative")

    @property
    def is_finite(self) -> bool:
        return not self.divergent

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
    are +-inf); when finite, ``value = c_plus + c_minus`` and
    Cohn-Vossen bounds it by 2 pi.
    """

    classification: CurvatureClass
    value: float | None
    err: float | None
    c_plus: float
    c_minus: float

    @property
    def is_finite(self) -> bool:
        return self.classification is CurvatureClass.FINITE


def _tail_integral(tail, f: WarpingSolution, slope: LimitEstimate,
                   T: float) -> tuple[float, float]:
    """Closed-form estimate of the integral of K_tail * f over [T, oo).

    Uses the continuation f(t) ~ f(T) + s (t - T); the uncertainty folds
    in the slope estimate error and the remaining drift of f' at T.
    """
    if isinstance(tail, ZeroTail):
        return 0.0, 0.0
    assert isinstance(tail, PowerDecayTail) and tail.p > 2.0
    s = slope.value if slope.is_finite else f.fp(T)
    s_err = slope.err if slope.is_finite else abs(f.fp(T) - f.fp(0.5 * T))
    U = 1.0 + T
    p = tail.p
    i0 = U ** (1.0 - p) / (p - 1.0)
    i1 = U ** (2.0 - p) / (p - 2.0) - i0
    intercept = f.f(T) - s * T
    value = tail.a * (intercept * i0 + s * i1)
    err = abs(tail.a) * (s_err + abs(f.fp(T) - s)) * i1
    return value, err


def _signed_contribution(part: CurvatureProfile, f: WarpingSolution,
                         slope: LimitEstimate, T: float) -> tuple[float, float]:
    """2 pi * integral of part(t) f(t) dt over [0, oo), with error.

    Where the part equals K, the integral of K f over [a, b] is
    f'(a) - f'(b); elsewhere the part vanishes.  Each f' read carries the
    solve's own error scale f.tol * (1 + |f'|).
    """
    if part.is_zero:
        return 0.0, 0.0
    stretches = [(s.t_start, s.t_end) for s in part.segments if not s.is_zero]
    if not isinstance(part.tail, ZeroTail) and part.t_tail < T:
        stretches.append((part.t_tail, T))
    q, q_err = 0.0, 0.0
    for a, b in stretches:
        fpa, fpb = f.fp(a), f.fp(b)
        q += fpa - fpb
        q_err += f.tol * (2.0 + abs(fpa) + abs(fpb))
    tail_val, tail_err = _tail_integral(part.tail, f, slope, T)
    return _TWO_PI * (q + tail_val), _TWO_PI * (q_err + tail_err)


def total_curvature(profile: CurvatureProfile,
                    f: WarpingSolution) -> TotalCurvatureResult:
    """Total curvature of the surface with curvature ``profile`` and
    warping function ``f``.

    ``f`` must solve the Jacobi equation of ``profile``, be first-zero
    free and reach the tail regime (f.t_end >= profile tail start).  The
    error of the finite part is the solve's error scale at each stretch
    end; the analytic tail remainder adds its own propagated error.
    """
    if f.first_zero is not None:
        raise ValueError(
            "warping function has a zero; total curvature needs a "
            "noncompact model"
        )
    if f.profile != profile:
        raise ValueError(
            "warping function solves a different curvature profile"
        )
    T = f.t_end
    if T < profile.t_tail:
        raise ConfigurationError(
            f"solution window ends at t = {T:.6g}, before the tail regime "
            f"starting at t = {profile.t_tail:.6g}"
        )
    pos = positive_part(profile)
    neg = negative_part(profile)
    pos_div = not tail_moment_finite(pos.tail)
    neg_div = not tail_moment_finite(neg.tail)

    slope = slope_limit(f) if not (pos_div and neg_div) else None

    if pos_div:
        c_plus, e_plus = math.inf, math.inf
    else:
        c_plus, e_plus = _signed_contribution(pos, f, slope, T)
    if neg_div:
        c_minus, e_minus = -math.inf, math.inf
    else:
        c_minus, e_minus = _signed_contribution(neg, f, slope, T)

    if neg_div:
        return TotalCurvatureResult(CurvatureClass.NEGATIVE_DIVERGENT,
                                    None, None, c_plus, c_minus)
    if pos_div:
        return TotalCurvatureResult(CurvatureClass.POSITIVE_DIVERGENT,
                                    None, None, c_plus, c_minus)
    return TotalCurvatureResult(CurvatureClass.FINITE,
                                c_plus + c_minus, e_plus + e_minus,
                                c_plus, c_minus)


def probe_limit(probes: list[float],
                divergence_threshold: float = DIVERGENCE_THRESHOLD) -> LimitEstimate:
    """Limit of a probe sequence taken on a geometric grid, coarse to fine.

    A non-finite probe, or a sequence still rising past the divergence
    threshold, is reported divergent, keeping the last finite probe;
    otherwise the sequence is Richardson-extrapolated.
    """
    finite = [p for p in probes if math.isfinite(p)]
    if len(finite) < len(probes):
        return LimitEstimate.of_divergent(finite[-1] if finite else math.nan)
    rising = all(b > a for a, b in zip(probes, probes[1:]))
    if rising and probes[-1] > divergence_threshold:
        return LimitEstimate.of_divergent(probes[-1])
    value, err = richardson_limit(probes, ratio=2.0)
    return LimitEstimate(value=value, err=err)


def slope_limit(f: WarpingSolution,
                divergence_threshold: float = DIVERGENCE_THRESHOLD) -> LimitEstimate:
    """Limit of f(t)/t, computed as the limit of f'(t).

    The two agree by l'Hopital, and f' converges monotonically whenever
    the negative curvature moment is finite, which makes geometric-grid
    probing with Richardson acceleration stable.  Probes are taken at
    t = T/2^k for k = 6..0; a probe sequence still rising past the
    divergence threshold is reported divergent, keeping the last probe.
    """
    T = f.t_end
    probes = [float(f.fp(T / 2.0 ** k)) for k in range(6, -1, -1)]
    return probe_limit(probes, divergence_threshold)


def m_prime_limit(profile: CurvatureProfile, tol: float,
                  *, horizon_start: float = HORIZON_START,
                  horizon_max: float = HORIZON_MAX) -> LimitEstimate:
    """Limit slope of the convex comparison function m.

    m solves m'' + min(K, 0) m = 0, m(0) = 0, m'(0) = 1; its slope is
    nondecreasing and tends to a finite limit exactly when the first
    moment of min(K, 0) converges.  A divergent moment class is reported
    immediately (with a short finite probe for context).  Otherwise the
    horizon doubles from ``horizon_start`` until |m'(2T) - m'(T)| < tol
    and the slope at the final horizon is returned.  Its error is that
    last change, but never below the solve's own error scale.
    """
    neg = negative_part(profile)
    ode_tol = min(max(tol * 1e-2, 1e-13), 1e-3)
    if tail_moment_class(profile) is MomentClass.DIVERGENT:
        probe = solve(neg, horizon_start, ode_tol)
        return LimitEstimate.of_divergent(float(probe.fp(probe.t_end)))

    # m' can only settle for good once the horizon is in the tail regime:
    # before it, a stretch of zero curvature freezes m' for a while
    start = max(horizon_start, neg.t_tail)
    if 2.0 * start > horizon_max:
        raise ConfigurationError(
            f"tail regime starts at t = {neg.t_tail:.6g}, beyond the "
            f"horizon budget {horizon_max:.4g}"
        )
    T = 2.0 * start
    while True:
        sol = solve(neg, T, ode_tol)
        if sol.t_end < T:
            raise ConvergenceError(
                f"comparison solve stopped early at t = {sol.t_end:.6g}",
                last_value=float(sol.fp(sol.t_end)),
            )
        mp_half = float(sol.fp(0.5 * T))
        mp_full = float(sol.fp(T))
        diff = abs(mp_full - mp_half)
        if diff < tol:
            break
        if T >= horizon_max:
            raise ConvergenceError(
                f"m' did not settle below {tol:.3g} within horizon "
                f"{horizon_max:.4g} (last change {diff:.3g})",
                last_value=mp_full,
            )
        T *= 2.0
    return LimitEstimate(value=mp_full,
                         err=max(diff, ode_tol * (1.0 + abs(mp_full))))
