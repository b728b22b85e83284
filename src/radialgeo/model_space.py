"""n-dimensional rotationally symmetric comparison spaces.

A model space pairs a dimension n >= 2 with a positive warping function;
its metric balls have volume

    vol B_t = omega_{n-1} * integral_0^t f(r)**(n-1) dr

with omega_{n-1} the unit (n-1)-sphere volume.  The dense output of f is
a quintic on each solver step, so the integrand is a polynomial of degree
5(n-1) there and a Gauss-Legendre rule integrates it exactly, up to
rounding.  Ball volumes are computed as logarithms, which stay in float
range in every dimension: each step is integrated as
F**(n-1) * integral (f/F)**(n-1), with F the step's largest node value,
and the steps are summed with ``numpy.logaddexp``: the whole steps
are summed into prefix sums, and a radius adds the part of its own step,
all in one pass per set of radii.  The radii are located by the
solver's one rule (``WarpingSolution._locate``), and the pass reads the
dense output through the stacked kernel of the solver's array reads
(``jacobi._quintic``): every Gauss node across a block of steps in one
call, each block at most _BLOCK_VALUES values (or one step), so memory
does not grow with the dimension, which sets the number of nodes, or
with the number of radii.  A radius below the least normal float, but
not 0, is refused.  Whatever leaves log space (a volume, a volume ratio)
goes through :func:`saturating_exp`.

The asymptotic growth coefficient lim vol B_t / t^n is, by l'Hopital's
rule on vol B_t = omega_{n-1} * integral_0^t f**(n-1), the number
(omega_{n-1}/n) s**(n-1) with s = lim f'.  By Gauss-Bonnet the total
curvature of the underlying surface is c = 2 pi (1 - s), so both are
images of the one enclosure of s that ``total_curvature`` carries
(``TotalCurvatureResult.slope``), and the growth coefficient maps it
once.  The map is nondecreasing in s >= 0 (s <= 0 goes to 0), so the
ends of the enclosure map to the ends of its image.  It is taken in
logs, exp((n-1) log s + log(omega/n)), through :func:`saturating_exp`,
so it neither overflows nor underflows on the way: a value past float
range reads inf, and a limit built from it did not settle (err = inf,
see ``LimitEstimate``); a value below float range reads 0.  Each end is
rounded outward by more than the rounding of the exponent.  The ends
cap 2 (lim m')**(n-1) of :mod:`radialgeo.ends` goes through the same
map, ``_power_map``, rounded up before its floor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .asymptotics import LimitEstimate, TotalCurvatureResult
from .jacobi import WarpingSolution, _quintic

__all__ = ["ModelSpace", "GrowthCoefficient", "check_dimension", "saturating_exp",
           "unit_sphere_volume", "log_ball_volumes", "ball_volume", "ball_volumes",
           "growth_coefficient"]

_TINY = np.finfo(float).tiny
# two units of the least positive float, a subnormal: more than exp
# rounds by below float range
_EXP_SLACK = 2.0 * math.ulp(0.0)
# values (Gauss nodes x steps) that _log_integrals evaluates at once, or
# one step's worth when there are more nodes: its memory stays flat in the
# dimension n, which sets the node count ceil((5n - 4)/2), and in the
# number of radii.  At 2^13 values the kernel's temporaries (about 1 MB)
# stay in a core's L2 cache: on a 2-vCPU Xeon with 2 MB of L2 per core,
# 2^14 made 1000 radii at n = 5 on 395 or 856 steps about 1.7 times as slow
_BLOCK_VALUES = 1 << 13


def check_dimension(n) -> int:
    """n as an int; ValueError unless n is an integer >= 2."""
    if not (n >= 2 and n % 1 == 0):
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    return int(n)


def saturating_exp(x: float) -> float:
    """exp(x), or inf past float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_omega(n: int) -> float:
    """log of the unit (n-1)-sphere volume, log 2 pi^(n/2) / Gamma(n/2)."""
    return math.log(2.0) + n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0)


def unit_sphere_volume(n: int) -> float:
    """Volume of the unit (n-1)-sphere, 2 pi^(n/2) / Gamma(n/2), n >= 2."""
    return math.exp(_log_omega(check_dimension(n)))


@dataclass(frozen=True)
class ModelSpace:
    """Dimension n paired with a first-zero-free warping solution."""

    n: int
    f: WarpingSolution

    def __post_init__(self):
        object.__setattr__(self, "n", check_dimension(self.n))
        if self.f.first_zero is not None:
            raise ValueError(
                "warping function has a zero: the model space is compact"
            )

    @cached_property
    def omega(self) -> float:
        return unit_sphere_volume(self.n)


@lru_cache(maxsize=16)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [0, 1] with
    ceil((5n - 4)/2) nodes, exact for polynomials of degree 5(n-1).

    Built once per dimension: at n = 1000 the rule takes about a second.
    """
    x, w = np.polynomial.legendre.leggauss(-(-(5 * n - 4) // 2))
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _log_integrals(f: WarpingSolution, n: int, j: np.ndarray, u: np.ndarray) -> np.ndarray:
    """log of the integral of f**(n-1) over the first fraction u[i] of each
    solver step j[i].

    A step's integral is F**(n-1) * integral (f/F)**(n-1), with F its
    largest Gauss-node value, so neither factor leaves float range.  The
    steps go in blocks of _BLOCK_VALUES // (node count) steps, or one, so
    memory stays flat in the dimension and in the number of steps: a
    block's steps are gathered once (``WarpingSolution._gather``) and the
    dense quintic is read at every Gauss node in one ``jacobi._quintic``
    call.  Each step's value depends on its own column alone: the max is
    exact, and the sum adds its terms in node order, as Python's ``sum``
    adds them, so the result does not depend on the blocking, and a
    fraction of 1.0 scales exactly.
    """
    x, w = _gauss_rule(n)
    x, w = x[:, None], w[:, None]
    size = max(1, _BLOCK_VALUES // len(x))
    logs = np.empty(len(j))
    for k in range(0, len(j), size):
        steps, uk = f._gather(j[k:k + size]), u[k:k + size]
        values = _quintic(steps, uk * x, False)
        # the floor keeps F positive on a part of width zero at t = 0
        top = np.maximum(values.max(axis=0), _TINY)
        total = sum(w * (values / top) ** (n - 1))
        with np.errstate(divide="ignore"):  # a part of width zero has log -inf
            logs[k:k + size] = np.log(uk * steps[1] * total) + (n - 1) * np.log(top)
    return logs


def log_ball_volumes(ms: ModelSpace, ts) -> list[float]:
    """log vol B_t at a nondecreasing sequence of radii in the solution
    window (one pass); -inf at t = 0.

    The radii are read into one float array, which must be
    one-dimensional, and whose order is checked with one array
    comparison; a list, a tuple or an array gives the same values.  A
    radius in (0, ``sys.float_info.min``) raises ValueError, as such a
    ``t_end`` does in ``solve``: its fraction of a step would be
    subnormal, whose absolute quantum no bound counts.  A radius in step
    j at fraction u (``WarpingSolution._locate``) takes the prefix sum
    over the whole steps before j plus the part of step j, from one
    ``_log_integrals`` pass over the whole steps and then the radii.
    """
    radii = np.asarray(ts, dtype=float)
    if radii.ndim != 1:
        raise ValueError(f"radii must be a one-dimensional sequence, got shape {radii.shape}")
    if (radii[1:] < radii[:-1]).any():
        raise ValueError("radii must be nondecreasing")
    tiny = radii[(radii > 0.0) & (radii < sys.float_info.min)]
    if tiny.size:
        raise ValueError(f"radius {tiny.item(0)!r} lies below the least normal float")
    j, u = ms.f._locate(radii)
    steps = len(ms.f.ts) - 1
    logs = _log_integrals(ms.f, ms.n, np.concatenate((np.arange(steps), j)),
                          np.concatenate((np.ones(steps), u)))
    prefix = np.logaddexp.accumulate(np.concatenate(([-np.inf], logs[:steps])))
    return (_log_omega(ms.n) + np.logaddexp(prefix[j], logs[steps:])).tolist()


def ball_volumes(ms: ModelSpace, ts) -> list[float]:
    """Ball volumes at a nondecreasing sequence of radii (one pass), inf
    past float range."""
    return [saturating_exp(v) for v in log_ball_volumes(ms, ts)]


def ball_volume(ms: ModelSpace, t: float) -> float:
    """Volume of the metric ball of radius t around the base point."""
    return ball_volumes(ms, [t])[0]


@dataclass(frozen=True)
class GrowthCoefficient:
    """lim vol B_t / t^n as the image of the enclosure of s = lim f'.

    ``direct`` maps s; ``closed_form`` is that same enclosure when the
    total curvature c = 2 pi (1 - s) is finite, and the divergence
    marker otherwise.  ``discrepancy`` is their difference, 0.0 when c is
    finite (the two are one enclosure, even past float range), else None.
    """

    direct: LimitEstimate
    closed_form: LimitEstimate
    discrepancy: float | None


def _power_map(x: float, k: int, log_c: float, side: int = 0,
               size: float = 0.0) -> float:
    """c x**k, taken in logs as exp(k log x + log c) through
    :func:`saturating_exp`, so it neither overflows nor underflows on the
    way; x <= 0 goes to 0.

    ``side`` -1 or 1 rounds the value outward, down or up, by
    2^-50 (1 + size + k |log x|) relative, with ``size`` the sum of the
    magnitudes of the terms of log c, which bounds the rounding of the
    exponent, and by two subnormal units, which bound that of exp below
    float range; so an upper end stays positive and a lower end is at
    least 0.
    """
    if x <= 0.0:
        return 0.0
    log_x = math.log(x)
    value = saturating_exp(k * log_x + log_c)
    if not side:
        return value
    r = 2.0 ** -50 * (1.0 + size + k * abs(log_x))
    return max(value * (1.0 + side * r) + side * _EXP_SLACK, 0.0)


def _growth(ms: ModelSpace, x: float, side: int = 0) -> float:
    """(omega/n) x**(n-1), the growth coefficient of a slope limit x, by
    ``_power_map``, which takes x <= 0 to 0 (Cohn-Vossen keeps lim f' >= 0
    on a genuine model, so this clamps numerical overshoot) and rounds
    toward ``side``; the terms of log(omega/n) are log 2n,
    (n/2) log pi and lgamma(n/2).
    """
    n = ms.n
    size = math.log(2.0 * n) + n / 2.0 * math.log(math.pi) + abs(math.lgamma(n / 2.0))
    return _power_map(x, n - 1, _log_omega(n) - math.log(n), side, size)


def growth_coefficient(ms: ModelSpace,
                       c: TotalCurvatureResult) -> GrowthCoefficient:
    """Asymptotic volume growth coefficient of the model space; c must be
    ``total_curvature(ms.f)``.

    Both routes map the one enclosure s = ``c.slope``, once: ``direct``
    settles when s settles, and it is divergent, keeping the image of f'
    at the window end, when s is; ``closed_form`` is ``direct`` when c
    is finite.
    """
    s = c.slope
    if s.divergent:
        direct = LimitEstimate.of_divergent(_growth(ms, s.value))
    else:
        direct = LimitEstimate.of_bounds(_growth(ms, s.value),
                                         _growth(ms, s.lo, -1), _growth(ms, s.hi, 1))
    closed = (direct if c.is_finite
              else LimitEstimate(value=math.inf, err=math.inf, divergent=True))
    return GrowthCoefficient(direct, closed, 0.0 if c.is_finite else None)
