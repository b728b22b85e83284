"""Upper bound on the number of ends of the manifold under comparison.

The chain is: the limit slope of the convex comparison function m gives a
minimum angle 2 lambda = pi / lim m' between directions of rays escaping
to distinct ends; a packing count of disjoint lambda-balls in the unit
(n-1)-sphere of directions then caps the number of ends by
2 (pi / 2 lambda)**(n-1) = 2 (lim m')**(n-1).

The cap is taken at the upper end of the enclosure of lim m',
2 max(hi, 1)**(n-1) (the limit is never below 1), so an error in lim m'
can never count too few ends.  A divergent m' limit, one
that did not settle (err = inf), or a cap past float range (``power``
saturates to inf in a high dimension) certifies nothing: the bound is
reported as inconclusive, never as "infinitely many ends".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .asymptotics import LimitEstimate
from .model_space import check_dimension, power

__all__ = ["EndsBound", "angle_bound", "packing_bound", "ends_bound"]


@dataclass(frozen=True)
class EndsBound:
    """Cap on the number of ends, or an inconclusive marker.

    ``raw_bound`` is the real-valued bound 2 (lim m')**(n-1) at the
    central estimate; ``integer_bound`` floors the same bound at the
    upper end max(hi, 1) of lim m', which is sound since end counts are
    integers.
    When that upper end is not finite, ``conclusive`` is False and no
    integer bound is given; a divergent limit also reports the angle as 0.
    """

    m_prime_inf: LimitEstimate
    two_lambda: float
    raw_bound: float
    integer_bound: int | None
    conclusive: bool


def angle_bound(m_prime_inf: LimitEstimate) -> float | None:
    """Minimum separation angle 2 lambda = pi / lim m', in radians.

    Returns None (inconclusive) for a divergent limit.  The limit slope
    is never below 1, so the angle lies in (0, pi]; small negative noise
    is clamped, anything clearly below 1 is rejected.
    """
    if m_prime_inf.divergent:
        return None
    value = m_prime_inf.value
    if value < 1.0 - 1e-9:
        raise ValueError(
            f"limit slope must be >= 1, got {value:.12g}"
        )
    return math.pi / max(value, 1.0)


def packing_bound(two_lambda: float, n: int) -> float:
    """Max number of disjoint lambda-balls in the unit (n-1)-sphere of
    directions: 2 (pi / 2 lambda)**(n-1), inf past float range."""
    if not (two_lambda > 0.0):
        raise ValueError(f"separation angle must be positive, got {two_lambda}")
    return 2.0 * power(math.pi / two_lambda, check_dimension(n) - 1)


def ends_bound(m_prime_inf: LimitEstimate, n: int) -> EndsBound:
    """Bound the number of ends from the limit slope of m.

    Composes the angle bound and the packing count; ``m_prime_inf`` is
    ``slope_limit(solve_m(profile, t_end, tol))``, which is the slope
    limit of f where K <= 0, since m = f there.
    """
    n = check_dimension(n)
    ml = m_prime_inf
    if ml.divergent:
        return EndsBound(m_prime_inf=ml, two_lambda=0.0,
                         raw_bound=math.inf, integer_bound=None,
                         conclusive=False)
    angle = angle_bound(ml)
    upper = 2.0 * power(max(ml.hi, 1.0), n - 1)
    conclusive = math.isfinite(upper)
    return EndsBound(m_prime_inf=ml, two_lambda=angle,
                     raw_bound=packing_bound(angle, n),
                     integer_bound=math.floor(upper) if conclusive else None,
                     conclusive=conclusive)
