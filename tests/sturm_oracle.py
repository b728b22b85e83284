"""The exact maximum of K over an interval of one profile piece: the
largest value at the interval's ends and at K's stationary points inside
it.  The tests check the Sturm property of the solver's grid against it,
h sqrt(max K) <= pi on every step where K > 0.

    max_on(piece, a, b)

takes a segment or a tail.  A tail's K is monotone, so its ends suffice.
"""

from __future__ import annotations

import functools

from numpy.polynomial import polynomial as npoly

from radialgeo.curvature_profile import Segment, _bisect, _polynomial, _root_intervals


@functools.lru_cache(maxsize=None)
def critical_points(seg: Segment) -> tuple[float, ...]:
    """The stationary points of num/den on the segment: roots of
    num' den - num den', one bisected from each of its root intervals
    (``_root_intervals``), whatever the spread of the coefficients.  An
    interval holds several of them only where that numerator is at
    rounding level, so K is flat there up to rounding and one point stands
    for them.  A constant has the same value everywhere, so it needs none.
    """
    if len(seg.num) == len(seg.den) == 1:
        return ()
    p = npoly.polyder(seg.num)
    if not seg.is_polynomial:
        p = npoly.polysub(npoly.polymul(p, seg.den),
                          npoly.polymul(seg.num, npoly.polyder(seg.den)))
    coeffs = tuple(p.tolist())
    return tuple(_bisect(_polynomial(coeffs), lo, hi)
                 for lo, hi in _root_intervals(coeffs, seg.t_start, seg.t_end))


def max_on(piece, a: float, b: float) -> float:
    """The maximum of the piece's K over [a, b], a subinterval of it."""
    points = critical_points(piece) if isinstance(piece, Segment) else ()
    return max(piece.evaluate(t) for t in (a, b, *(r for r in points if a < r < b)))
