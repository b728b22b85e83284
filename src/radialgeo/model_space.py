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
and the steps are summed with ``numpy.logaddexp``.  The whole steps
are summed once per model space, into a table of prefix sums that every
set of radii shares; a radius adds the part of its own step.  The first
set of radii on a model space builds the table in the same pass as its
own partial steps, so every call makes one pass.  Each integral
evaluates the dense output at a block of Gauss nodes across all steps at
once; blocks are bounded in size, so memory does not grow with
the dimension, which sets the number of nodes.  Whatever leaves log
space (a volume, a probe vol B_t / t^n, a volume ratio) goes through
:func:`saturating_exp`.

The asymptotic growth coefficient lim vol B_t / t^n is computed two
independent ways: the closed form (omega_{n-1}/n) (1 - c/(2 pi))**(n-1)
from the total curvature c of the underlying surface, which is the route
that certifies: the map is nonincreasing in c, so the ends of c's
enclosure (whose tail part comes from the closed-form bracket of the
tail, see ``asymptotics``) map to the ends of its enclosure; and direct
Richardson extrapolation of ball-volume probes, an independent check
whose disagreement is reported.  The closed form goes through :func:`power`.  Both saturate to
inf past float range (high dimension, fast growth), and a limit built
from such a value did not settle (err = inf, see ``LimitEstimate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._extrapolation import richardson_limit
from .asymptotics import CurvatureClass, LimitEstimate, TotalCurvatureResult
from .jacobi import WarpingSolution, _hermite

__all__ = ["ModelSpace", "GrowthCoefficient", "check_dimension", "power",
           "saturating_exp", "unit_sphere_volume", "log_ball_volumes",
           "ball_volume", "ball_volumes", "growth_coefficient"]

_TWO_PI = 2.0 * math.pi
_TINY = np.finfo(float).tiny
# values (Gauss nodes x steps) that _log_integrals evaluates at once, or
# one node's worth when there are more steps: its memory stays flat in
# the dimension n, which sets the node count ceil((5n - 4)/2)
_BLOCK_VALUES = 1 << 16


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

    def _log_volumes(self, j, u) -> np.ndarray:
        """log of the integral of f**(n-1) over [0, t] at the times t in
        step j at fraction u (as ``WarpingSolution._locate`` gives them):
        a prefix-table entry plus the part of t's own step, in one
        ``_log_integrals`` pass.

        The table holds the integral over [0, t_i] at every solver node t_i
        (-inf at t = 0).  The first call builds it from the whole steps,
        in the same pass as its own partial steps, and keeps it for every
        later call on this model space.
        """
        prefix = getattr(self, "_log_prefix", None)
        if prefix is not None:
            return np.logaddexp(prefix[j], _log_integrals(self.f, self.n, [(j, u)]))
        steps = len(self.f.ts) - 1
        logs = _log_integrals(self.f, self.n, [(slice(None), 1.0), (j, u)])
        prefix = np.logaddexp.accumulate(np.concatenate(([-np.inf], logs[:steps])))
        object.__setattr__(self, "_log_prefix", prefix)
        return np.logaddexp(prefix[j], logs[steps:])


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


def _log_integrals(f: WarpingSolution, n: int, parts) -> np.ndarray:
    """log of the integral of f**(n-1) over the first fraction u of each
    solver step j, for each (j, u) of ``parts`` (step indices or a slice
    of them, and a fraction or an array of them), concatenated in order.

    A step's integral is F**(n-1) * integral (f/F)**(n-1), with F its
    largest Gauss-node value, so neither factor leaves float range.  The
    steps' data are gathered once; the dense quintic is evaluated at a
    block of nodes across all steps at a time, in two passes (F, then the
    weighted sum).  A scalar u keeps the local coordinates of its part in
    one column.  Each step's value depends on its own column alone: the
    max is exact, and the sum adds its terms in node order, as Python's
    ``sum`` adds them, so the result does not depend on the blocking or
    on the other parts, and a fraction of 1.0 scales exactly.
    """
    x, w = _gauss_rule(n)
    steps = [(f._steps(j), u) for j, u in parts]
    uh = _joined([u * st[0] for st, u in steps])  # the parts' widths
    rows = max(1, _BLOCK_VALUES // max(1, uh.size))
    blocks = [slice(k, k + rows) for k in range(0, len(x), rows)]

    def on_nodes(b):
        return _joined([_hermite(*st, u * x[b, None], False) for st, u in steps])

    # the max is exact in any order: taking the blocks last first leaves
    # the first block's values for the sum, which must run first to last
    top = _TINY  # the floor keeps F positive on a part of width zero at t = 0
    for b in reversed(blocks):
        values = on_nodes(b)
        top = np.maximum(top, values.max(axis=0))
    total = 0
    for b in blocks:
        if b is not blocks[0]:
            values = on_nodes(b)
        total = sum(w[b, None] * (values / top) ** (n - 1), total)
    with np.errstate(divide="ignore"):  # a part of width zero has log -inf
        return np.log(uh * total) + (n - 1) * np.log(top)


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays side by side along their last axis; one array as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=-1)


def log_ball_volumes(ms: ModelSpace, ts) -> list[float]:
    """log vol B_t at a nondecreasing sequence of radii in the solution
    window (one pass); -inf at t = 0.

    The radii are read into one float array, whose order is checked with
    one array comparison; a list, a tuple or an array gives the same
    values.
    """
    radii = np.asarray(ts, dtype=float)
    if (radii[1:] < radii[:-1]).any():
        raise ValueError("radii must be nondecreasing")
    return (_log_omega(ms.n) + ms._log_volumes(*ms.f._locate(radii))).tolist()


def ball_volumes(ms: ModelSpace, ts) -> list[float]:
    """Ball volumes at a nondecreasing sequence of radii (one pass), inf
    past float range."""
    return [saturating_exp(v) for v in log_ball_volumes(ms, ts)]


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
    """(omega/n) (1 - c/(2 pi))**(n-1), at c.value and, for the enclosure,
    at both ends of c's error bar: the map is nonincreasing in c."""
    if not c.is_finite:
        return LimitEstimate(value=math.inf, err=math.inf, divergent=True)

    def at(ci: float) -> float:
        # Cohn-Vossen keeps c <= 2 pi for genuine model surfaces; clamp
        # numerical overshoot so the base never goes negative
        return ms.omega / ms.n * power(max(1.0 - ci / _TWO_PI, 0.0), ms.n - 1)

    return LimitEstimate.of_bounds(at(c.value), at(c.hi), at(c.lo))


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
    probes = [saturating_exp(v - ms.n * math.log(t))
              for v, t in zip(log_ball_volumes(ms, radii), radii)]
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
