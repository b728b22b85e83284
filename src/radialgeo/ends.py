"""Upper bound on the number of ends of the manifold under comparison.

The chain is: the limit slope of the convex comparison function m gives a
minimum angle 2 lambda = pi / lim m' between directions of rays escaping
to distinct ends; a packing count of disjoint lambda-balls in the unit
(n-1)-sphere of directions then caps the number of ends by
2 (pi / 2 lambda)**(n-1) = 2 (lim m')**(n-1).

A divergent m' limit certifies nothing: the bound is reported as
inconclusive, never as "infinitely many ends".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .asymptotics import LimitEstimate, m_prime_limit
from .curvature_profile import CurvatureProfile
from .model_space import check_dimension

__all__ = ["EndsBound", "angle_bound", "packing_bound", "ends_bound"]


@dataclass(frozen=True)
class EndsBound:
    """Cap on the number of ends, or an inconclusive marker.

    ``raw_bound`` is the real-valued bound 2 (lim m')**(n-1);
    ``integer_bound`` floors it, which is sound since end counts are
    integers.  When the slope limit diverges, ``conclusive`` is False,
    the angle is reported as 0 and no integer bound is given.
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
    directions: 2 (pi / 2 lambda)**(n-1)."""
    if not (two_lambda > 0.0):
        raise ValueError(f"separation angle must be positive, got {two_lambda}")
    check_dimension(n)
    return 2.0 * (math.pi / two_lambda) ** (n - 1)


def ends_bound(profile: CurvatureProfile, n: int, tol: float,
               *, m_prime_inf: LimitEstimate | None = None) -> EndsBound:
    """Bound the number of ends from the curvature profile.

    Composes the limit slope, the angle bound and the packing count.  A
    precomputed slope limit can be passed to avoid re-solving.
    """
    check_dimension(n)
    ml = m_prime_inf if m_prime_inf is not None else m_prime_limit(profile, tol)
    if ml.divergent:
        return EndsBound(m_prime_inf=ml, two_lambda=0.0,
                         raw_bound=math.inf, integer_bound=None,
                         conclusive=False)
    angle = angle_bound(ml)
    raw = packing_bound(angle, n)
    return EndsBound(m_prime_inf=ml, two_lambda=angle, raw_bound=raw,
                     integer_bound=math.floor(raw), conclusive=True)
