"""n-dimensional rotationally symmetric comparison spaces.

A model space pairs a dimension n >= 2 with a positive warping function;
its metric balls have volume

    vol B_t = omega_{n-1} * integral_0^t f(r)**(n-1) dr

with omega_{n-1} the unit (n-1)-sphere volume.  The dense output of f is
a quintic on each solver step, so the integrand is a polynomial of degree
5(n-1) there and a Gauss-Legendre rule integrates it exactly, up to
rounding.  The asymptotic growth
coefficient lim vol B_t / t^n is computed two independent ways: direct
extrapolation of ball-volume probes, and the closed form
(omega_{n-1}/n) (1 - c/(2 pi))**(n-1) from the total curvature c of the
underlying surface.  Their agreement is a strong end-to-end check and the
disagreement is reported.
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

    ``direct`` extrapolates ball-volume probes; ``closed_form`` converts
    the total curvature.  ``discrepancy`` is their absolute difference
    when both are finite, else None.
    """

    direct: LimitEstimate
    closed_form: LimitEstimate | None
    discrepancy: float | None


def growth_coefficient(ms: ModelSpace,
                       c: TotalCurvatureResult) -> GrowthCoefficient:
    """Asymptotic volume growth coefficient of the model space.

    The direct route Richardson-extrapolates vol B_t / t^n at t = T/2^k,
    k = 6..0.  It is divergent when the negative part of c diverges, or
    when a probe is not finite; it then keeps the last finite probe.
    """
    T = ms.f.t_end
    radii = [T / 2.0 ** k for k in range(6, -1, -1)]
    volumes = _volumes_at(ms, radii)
    probes = [v / t ** ms.n for v, t in zip(volumes, radii)]

    finite = [p for p in probes if math.isfinite(p)]
    if (c.classification is CurvatureClass.NEGATIVE_DIVERGENT
            or len(finite) < len(probes)):
        direct = LimitEstimate.of_divergent(finite[-1] if finite else math.nan)
    else:
        direct = LimitEstimate(*richardson_limit(probes, ratio=2.0))

    if c.classification is CurvatureClass.FINITE:
        # Cohn-Vossen keeps c <= 2 pi for genuine model surfaces; clamp
        # numerical overshoot so the base never goes negative
        base = max(1.0 - c.value / _TWO_PI, 0.0)
        value = ms.omega / ms.n * base ** (ms.n - 1)
        derr = 0.0
        if c.err:
            derr = (ms.omega / ms.n * (ms.n - 1)
                    * base ** (ms.n - 2) * c.err / _TWO_PI)
        closed = LimitEstimate(value=value, err=derr)
        disc = (abs(direct.value - closed.value)
                if direct.is_finite else None)
    else:
        closed = LimitEstimate(value=math.inf, err=math.inf, divergent=True)
        disc = None
    return GrowthCoefficient(direct=direct, closed_form=closed,
                             discrepancy=disc)
