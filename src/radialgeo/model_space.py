"""n-dimensional rotationally symmetric comparison spaces.

A model space pairs a dimension n >= 2 with a positive warping function;
its metric balls have volume

    vol B_t = omega_{n-1} * integral_0^t f(r)**(n-1) dr

with omega_{n-1} the unit (n-1)-sphere volume.  The dense output of f is
a quintic on each solver step, so the integrand is a polynomial of degree
5(n-1) there and a Gauss-Legendre rule integrates it exactly, up to
rounding.  The asymptotic growth coefficient lim vol B_t / t^n is
computed two independent ways: the closed form
(omega_{n-1}/n) (1 - c/(2 pi))**(n-1) from the total curvature c of the
underlying surface, whose error bar comes from the closed-form bracket
of the tail (see ``asymptotics``) and which is the route that certifies;
and direct Richardson extrapolation of ball-volume probes, an
independent check whose disagreement is reported.  Every power of the
dimension goes through :func:`power`, which saturates to inf past float
range (high dimension, fast growth); a limit built from such a value did
not settle (err = inf, see ``LimitEstimate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._extrapolation import richardson_limit
from .asymptotics import CurvatureClass, LimitEstimate, TotalCurvatureResult
from .jacobi import WarpingSolution

__all__ = ["ModelSpace", "GrowthCoefficient", "check_dimension", "power",
           "growth_probe", "unit_sphere_volume", "ball_volume",
           "ball_volumes", "growth_coefficient"]

_TWO_PI = 2.0 * math.pi


def check_dimension(n) -> int:
    """n as an int; ValueError unless n is an integer >= 2."""
    if not (n >= 2 and n % 1 == 0):
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    return int(n)


def power(x: float, k: int) -> float:
    """x**k, or inf past float range."""
    try:
        return x ** k
    except OverflowError:
        return math.inf


def growth_probe(volume: float, t: float, n: int) -> float:
    """volume / t**n; nan (not the 0 of volume / inf) past float range."""
    scale = power(t, n)
    return volume / scale if 0.0 < scale < math.inf else math.nan


def unit_sphere_volume(n: int) -> float:
    """Volume of the unit (n-1)-sphere, 2 pi^(n/2) / Gamma(n/2), n >= 2."""
    n = check_dimension(n)
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:
        # Gamma(n/2) passes float range from n = 344 on
        return 2.0 * math.exp(n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0))


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


def _volumes_at(ms: ModelSpace, ts: list[float]) -> list[float]:
    """Cumulative ball volumes at an increasing list of radii.

    Every solver step, and the partial step up to each radius, is
    integrated with the Gauss rule of ``_gauss_rule``, which is exact for
    the degree-5(n-1) integrand; the full steps are summed once.
    """
    x, w = _gauss_rule(ms.n)
    nodes = ms.f.ts
    radii = np.asarray(ts, dtype=float)

    def integrals(starts, widths):
        # one node across all steps at a time keeps temporaries at one
        # value per step
        total = np.zeros_like(widths)
        for xk, wk in zip(x, w):
            total += wk * ms.f.f(starts + widths * xk) ** (ms.n - 1)
        return widths * total

    with np.errstate(over="ignore", invalid="ignore"):
        steps = integrals(nodes[:-1], np.diff(nodes))
        cumulative = np.concatenate(([0.0], np.cumsum(steps)))
        j = np.clip(np.searchsorted(nodes, radii, side="right") - 1,
                    0, len(nodes) - 2)
        totals = cumulative[j] + integrals(nodes[j], radii - nodes[j])
    return [ms.omega * float(v) for v in totals]


def ball_volumes(ms: ModelSpace, ts) -> list[float]:
    """Ball volumes at a nondecreasing sequence of radii (one pass)."""
    radii = [float(t) for t in ts]
    if any(b < a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be nondecreasing")
    if radii and not (0.0 <= radii[0] and radii[-1] <= ms.f.t_end * (1 + 1e-15)):
        raise ValueError(
            f"radii must lie in the solution window [0, {ms.f.t_end:.6g}]"
        )
    return _volumes_at(ms, [min(t, ms.f.t_end) for t in radii])


def ball_volume(ms: ModelSpace, t: float) -> float:
    """Volume of the metric ball of radius t around the base point."""
    return ball_volumes(ms, [t])[0]


@dataclass(frozen=True)
class GrowthCoefficient:
    """lim vol B_t / t^n by two routes.

    ``closed_form`` converts the total curvature; ``direct`` extrapolates
    ball-volume probes.  ``discrepancy`` is their absolute difference
    when the direct route was extrapolated and the closed form is finite
    (not finite when either is past float range), else None.
    """

    direct: LimitEstimate
    closed_form: LimitEstimate
    discrepancy: float | None


def _closed_form(ms: ModelSpace, c: TotalCurvatureResult) -> LimitEstimate:
    """(omega/n) (1 - c/(2 pi))**(n-1), with the error of c carried to
    first order."""
    if not c.is_finite:
        return LimitEstimate(value=math.inf, err=math.inf, divergent=True)
    # Cohn-Vossen keeps c <= 2 pi for genuine model surfaces; clamp
    # numerical overshoot so the base never goes negative
    base = max(1.0 - c.value / _TWO_PI, 0.0)
    return LimitEstimate(
        value=ms.omega / ms.n * power(base, ms.n - 1),
        err=(ms.omega / ms.n * (ms.n - 1)
             * power(base, ms.n - 2) * c.err / _TWO_PI))


def growth_coefficient(ms: ModelSpace,
                       c: TotalCurvatureResult) -> GrowthCoefficient:
    """Asymptotic volume growth coefficient of the model space.

    The direct route Richardson-extrapolates vol B_t / t^n at t = T/2^k,
    k = 6..0.  The spread of that extrapolation is no error bound for
    these probes, so when the closed form is finite the direct error is
    max(spread, discrepancy + closed-form error).  The direct route is
    divergent, keeping the last probe, when the negative part of c
    diverges; a probe past float range leaves it unsettled.
    """
    T = ms.f.t_end
    radii = [T / 2.0 ** k for k in range(6, -1, -1)]
    probes = [growth_probe(v, t, ms.n)
              for v, t in zip(_volumes_at(ms, radii), radii)]
    closed = _closed_form(ms, c)
    if c.classification is CurvatureClass.NEGATIVE_DIVERGENT:
        return GrowthCoefficient(LimitEstimate.of_divergent(probes[-1]),
                                 closed, None)
    value, err = richardson_limit(probes)
    if not closed.is_finite:
        return GrowthCoefficient(LimitEstimate(value, err), closed, None)
    # nan first: max keeps it, so a closed form past float range unsettles
    disc = abs(value - closed.value)
    return GrowthCoefficient(LimitEstimate(value, max(disc + closed.err, err)),
                             closed, disc)
