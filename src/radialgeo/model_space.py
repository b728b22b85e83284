"""n-dimensional rotationally symmetric comparison spaces.

A model space pairs a dimension n >= 2 with a positive warping function;
its metric balls have volume

    vol B_t = omega_{n-1} * integral_0^t f(r)**(n-1) dr

with omega_{n-1} the unit (n-1)-sphere volume.  The dense output of f is
a quintic on each solver step, so the integrand is a polynomial of degree
5(n-1) there and a Gauss-Legendre rule integrates it exactly, up to
rounding.  The asymptotic growth
coefficient lim vol B_t / t^n is computed two independent ways: the
closed form (omega_{n-1}/n) (1 - c/(2 pi))**(n-1) from the total
curvature c of the underlying surface, whose error bar comes from the
closed-form bracket of the tail (see ``asymptotics``) and which is the
route that certifies; and direct Richardson extrapolation of ball-volume
probes, an independent check whose disagreement is reported.  A value
past float range (high dimension, fast growth) did not settle: it has
err = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._extrapolation import richardson_limit
from .asymptotics import CurvatureClass, LimitEstimate, TotalCurvatureResult
from .jacobi import WarpingSolution

__all__ = ["ModelSpace", "GrowthCoefficient", "check_dimension",
           "unit_sphere_volume", "ball_volume", "ball_volumes",
           "growth_coefficient"]

_TWO_PI = 2.0 * math.pi


def check_dimension(n) -> None:
    """Raise ValueError unless n is an integer >= 2."""
    if int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n}")


def unit_sphere_volume(n: int) -> float:
    """Volume of the unit (n-1)-sphere, 2 pi^(n/2) / Gamma(n/2), n >= 2."""
    check_dimension(n)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class ModelSpace:
    """Dimension n paired with a first-zero-free warping solution."""

    n: int
    f: WarpingSolution

    def __post_init__(self):
        check_dimension(self.n)
        if self.f.first_zero is not None:
            raise ValueError(
                "warping function has a zero: the model space is compact"
            )

    @property
    def omega(self) -> float:
        return unit_sphere_volume(self.n)


def _volumes_at(ms: ModelSpace, ts: list[float]) -> list[float]:
    """Cumulative ball volumes at an increasing list of radii.

    Every solver step, and the partial step up to each radius, is
    integrated with ceil((5n - 4)/2) Gauss-Legendre nodes, which is exact
    for the degree-5(n-1) integrand; the full steps are summed once.
    """
    power = ms.n - 1
    x, w = np.polynomial.legendre.leggauss(-(-(5 * ms.n - 4) // 2))
    x, w = 0.5 * (x + 1.0), 0.5 * w
    nodes = ms.f.ts
    radii = np.asarray(ts, dtype=float)

    def integrals(starts, widths):
        # one node across all steps at a time keeps temporaries at one
        # value per step
        total = np.zeros_like(widths)
        for xk, wk in zip(x, w):
            total += wk * ms.f.f(starts + widths * xk) ** power
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
    if not (0.0 <= t <= ms.f.t_end * (1 + 1e-15)):
        raise ValueError(
            f"radius {t:.6g} outside the solution window [0, {ms.f.t_end:.6g}]"
        )
    return _volumes_at(ms, [min(t, ms.f.t_end)])[0]


@dataclass(frozen=True)
class GrowthCoefficient:
    """lim vol B_t / t^n by two routes.

    ``closed_form`` converts the total curvature; ``direct`` extrapolates
    ball-volume probes.  ``discrepancy`` is their absolute difference
    when the direct route was extrapolated and the closed form is finite,
    else None.
    """

    direct: LimitEstimate
    closed_form: LimitEstimate
    discrepancy: float | None


def _closed_form(ms: ModelSpace, c: TotalCurvatureResult) -> LimitEstimate:
    """(omega/n) (1 - c/(2 pi))**(n-1), with the error of c carried to
    first order; a value past float range did not settle."""
    if not c.is_finite:
        return LimitEstimate(value=math.inf, err=math.inf, divergent=True)
    # Cohn-Vossen keeps c <= 2 pi for genuine model surfaces; clamp
    # numerical overshoot so the base never goes negative
    base = max(1.0 - c.value / _TWO_PI, 0.0)
    try:
        value = ms.omega / ms.n * base ** (ms.n - 1)
        derr = (ms.omega / ms.n * (ms.n - 1)
                * base ** (ms.n - 2) * c.err / _TWO_PI)
    except OverflowError:
        return LimitEstimate(value=math.inf, err=math.inf)
    # an unsettled c (err = inf) leaves the value unsettled, also at base 0
    return LimitEstimate(value=value,
                         err=derr if math.isfinite(c.err) else math.inf)


def growth_coefficient(ms: ModelSpace,
                       c: TotalCurvatureResult) -> GrowthCoefficient:
    """Asymptotic volume growth coefficient of the model space.

    The direct route Richardson-extrapolates vol B_t / t^n at t = T/2^k,
    k = 6..0.  The spread of that extrapolation is no error bound for
    these probes, so when the closed form is finite the direct error is
    max(spread, discrepancy + closed-form error).  The direct route is
    divergent when the negative part of c diverges; when a probe is past
    float range it did not settle (err = inf).  Either keeps the last
    finite probe.
    """
    T = ms.f.t_end
    radii = [T / 2.0 ** k for k in range(6, -1, -1)]
    volumes = _volumes_at(ms, radii)
    probes = [v / t ** ms.n for v, t in zip(volumes, radii)]
    closed = _closed_form(ms, c)

    finite = [p for p in probes if math.isfinite(p)]
    last = finite[-1] if finite else math.inf
    disc = None
    if c.classification is CurvatureClass.NEGATIVE_DIVERGENT:
        direct = LimitEstimate.of_divergent(last)
    elif len(finite) < len(probes):
        direct = LimitEstimate(value=last, err=math.inf)
    else:
        value, err = richardson_limit(probes)
        if closed.is_finite:
            disc = abs(value - closed.value)
            err = max(err, disc + closed.err)
        direct = LimitEstimate(value=value, err=err)
    return GrowthCoefficient(direct=direct, closed_form=closed,
                             discrepancy=disc)
