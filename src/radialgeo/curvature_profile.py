"""Radial curvature profiles.

A profile is a piecewise description of a curvature function K(t) on
[0, oo): finitely many polynomial or rational segments covering
[0, t_tail), followed by one of three analytic tail models.  The tail
grammar is deliberately small so that improper-integral convergence
questions (does the first moment of the negative part converge?) are
decidable instead of heuristic.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ProfileError

__all__ = [
    "Segment",
    "ZeroTail",
    "ConstantTail",
    "PowerDecayTail",
    "TailModel",
    "CurvatureProfile",
    "negative_part",
    "positive_part",
    "tail_moment_finite",
    "constant_profile",
    "zero_profile",
    "power_tail_profile",
    "profile_from_dict",
    "profile_to_dict",
]

_ZERO_NUM = (0.0,)
_ONE_DEN = (1.0,)
# relative (and absolute) gap at which a junction counts as a jump
_CONTINUITY_TOL = 1e-12


def _taylor_shift(coeffs, a) -> list:
    """The coefficients of the polynomial ``coeffs`` in powers of t - a,
    for a float a or an array of them: Horner's Taylor shift, d passes of
    c_j += a c_(j+1)."""
    d = len(coeffs) - 1
    c = list(coeffs)
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] = c[j] + a * c[j + 1]
    return c


def _shifted_to_bernstein(c: list, w) -> list:
    """Bernstein coefficients on [a, a + w] of the polynomial with
    coefficients c in powers of t - a, for a float w or an array of them:
    a scale by w^j/C(d, j), then b_i = sum_j C(i, j) v_j as d passes of
    v_j += v_(j-1)."""
    d = len(c) - 1
    # the scale of v_0 is 1, and w^j is w^(j-1) w
    c, power = list(c), w
    for j in range(1, d + 1):
        c[j] = c[j] * (power / math.comb(d, j))
        if j < d:
            power = power * w
    for i in range(d):
        for j in range(d, i, -1):
            c[j] = c[j] + c[j - 1]
    return c


def _bernstein(coeffs: tuple[float, ...], a: float,
               b: float) -> tuple[list[float], list[float]]:
    """Bernstein coefficients of the polynomial ``coeffs`` on [a, b], with
    0 <= a < b, and a bound on the rounding error of each.

    Horner's Taylor shift to a, a scale by w^j/C(d, j) with w = b - a,
    then b_i = sum_j C(i, j) v_j as d passes of v_j += v_(j-1), all in a
    fixed order, so the result does not depend on the Python version.  A
    path through these steps rounds at most 5d + 3 times, w's own rounding
    included, so the same steps on |c| bound the error of b_i by 8(d + 1)
    units of 2^-53 times their result.  Underflow is covered too: each
    |c_k| is raised by (d + 1) 2^-1022 for the shift, and every bound by
    one term for the scale, whose factors w^j/C(d, j) underflow on a tiny
    interval, where only their absolute error is bounded.  That term is
    the same for every b_i, so where the polynomial is at underflow level
    all of its coefficients are.  ProfileError, naming the coefficients,
    when they leave float range on [a, b].
    """
    d = len(coeffs) - 1
    c, m = list(coeffs), [abs(x) + (d + 1) * 2.0 ** -1022 for x in coeffs]
    if a:  # at a = 0 the shift is the identity
        c, m = _taylor_shift(c, a), _taylor_shift(m, a)
    # sum_j C(i, j) (d + 1) 2^-1075 (|c_j| + 1), with room for rounding
    tiny = (d + 2) * 2.0 ** (d - 1073) * (1.0 + max(m))
    c, m = _shifted_to_bernstein(c, b - a), _shifted_to_bernstein(m, b - a)
    if not all(map(math.isfinite, m)):
        raise ProfileError(f"polynomial coefficients {coeffs} leave float "
                           f"range on [{a}, {b}]")
    return c, [(d + 1) * 2.0 ** -50 * x + tiny for x in m]


@lru_cache(maxsize=256)
def _root_intervals(coeffs: tuple[float, ...], a: float,
                    b: float) -> tuple[tuple[float, float], ...]:
    """Disjoint ordered intervals [lo, hi] that hold every root of the
    polynomial ``coeffs`` on [a, b], with 0 <= a < b.  Off them the sign of
    the polynomial is certified, and its Horner value, whose rounding the
    same bound covers, has that sign or underflows to zero.

    Descartes' rule in Bernstein form (Collins and Akritas, 1976): on an
    interval where every coefficient of ``_bernstein`` lies beyond its
    error bound, no sign change means no root and exactly one means one
    simple root, which is kept as a leaf.  Other intervals are halved,
    except that one is a leaf too when its coefficients all lie within
    twice their bounds (the polynomial is at rounding level there) or its
    width is down to 2^-52 of its upper end or to float resolution.  So two
    roots share a leaf only where the polynomial between them is at
    rounding level, wherever they lie on [a, b].  Touching leaves of
    that kind are merged; a simple leaf stays apart, so its crossing is not
    lost next to a cluster.  An exact root at t = 0 is split off first
    (with c_0 = 0 the polynomial is t times c_1 + c_2 t + ...), since
    halving would otherwise chase it to the width floor; a simple leaf must
    then start past 0, so that its root lies between points where the
    polynomial is nonzero.  The zero polynomial gives [a, b].

    Memoized by (coeffs, a, b): a profile built again from the same data
    (a config read twice, a copy) checks its denominators and splits its
    signs without a second search.
    """
    # c_0 = ... = c_(k-1) = 0 at a = 0: the root at 0 is one leaf, and the
    # rest of the search runs on c_k + c_(k+1) t + ...
    k = next((i for i, c in enumerate(coeffs) if c), 0) if a == 0.0 else 0
    coeffs, leaves = coeffs[k:], ([(0.0, 0.0, False)] if k else [])  # (lo, hi, simple)
    todo = [(a, b)]
    while todo:
        lo, hi = todo.pop()
        bern, err = _bernstein(coeffs, lo, hi)
        decided = all(abs(x) > e for x, e in zip(bern, err))
        changes = sum((x < 0) != (y < 0) for x, y in zip(bern, bern[1:]))
        simple = decided and changes == 1 and not (k and lo == 0.0)
        if decided and changes == 0:
            continue
        mid = 0.5 * (lo + hi)
        if not (simple or hi - lo <= 2.0 ** -52 * hi or not lo < mid < hi
                or all(abs(x) <= 2.0 * e for x, e in zip(bern, err))):
            todo += [(mid, hi), (lo, mid)]
        elif leaves and not (simple or leaves[-1][2]) and lo <= leaves[-1][1]:
            leaves[-1] = (leaves[-1][0], hi, False)
        else:
            leaves.append((lo, hi, simple))
    return tuple((lo, hi) for lo, hi, _ in leaves)


def _polynomial(coeffs: tuple[float, ...]) -> Callable[[float], float]:
    """The polynomial with ascending ``coeffs`` as a closure: Horner's
    rule from acc = 0.0, acc = acc * t + c over the coefficients from the
    highest.  It also takes an array of times.

    Lines, the segments of piecewise-linear sweeps, skip the loop: for
    finite t, 0.0 * t + c is c unless c is a zero, so a nonzero slope
    starts the chain itself.
    """
    if len(coeffs) == 2 and coeffs[1] != 0.0:
        c0, c1 = coeffs
        return lambda t: c1 * t + c0
    rc = coeffs[::-1]

    def horner(t):
        acc = 0.0
        for c in rc:
            acc = acc * t + c
        return acc
    return horner


def _stage_evaluator(num: tuple[float, ...], den: tuple[float, ...]):
    """num/den at five times in one call, as a closure of (x2, x3, x4, x5,
    x6) that returns the five values, each with the bits of
    ``_polynomial(num)(x) / _polynomial(den)(x)``.

    Two sets of five Horner chains, each from 0.0, in one loop over the
    coefficients of num and of den.  For finite x the chains give a line's
    bits too: its first step, 0.0 * x + c1, is c1 when c1 is nonzero.  A
    polynomial's unit denominator gives 1.0, and the division by it is
    exact, though the solver steps no polynomial segment.
    """
    rn, rd = num[::-1], den[::-1]

    def rational(x2, x3, x4, x5, x6):
        a2 = a3 = a4 = a5 = a6 = 0.0
        for c in rn:
            a2 = a2 * x2 + c
            a3 = a3 * x3 + c
            a4 = a4 * x4 + c
            a5 = a5 * x5 + c
            a6 = a6 * x6 + c
        b2 = b3 = b4 = b5 = b6 = 0.0
        for c in rd:
            b2 = b2 * x2 + c
            b3 = b3 * x3 + c
            b4 = b4 * x4 + c
            b5 = b5 * x5 + c
            b6 = b6 * x6 + c
        return a2 / b2, a3 / b3, a4 / b4, a5 / b5, a6 / b6
    return rational


@dataclass(frozen=True)
class Segment:
    """One piece of a profile: num(t)/den(t) on [t_start, t_end).

    Coefficients are ascending powers of the global variable t.  A plain
    polynomial uses the default denominator (1,).
    """

    t_start: float
    t_end: float
    num: tuple[float, ...]
    den: tuple[float, ...] = _ONE_DEN

    def __post_init__(self):
        object.__setattr__(self, "num", tuple(float(c) for c in self.num))
        object.__setattr__(self, "den", tuple(float(c) for c in self.den))
        if not self.num or not self.den:
            raise ProfileError("segment needs at least one coefficient")
        # named apart from the vanishing test below, which would report a
        # point of the segment
        if not any(self.den):
            raise ProfileError(f"segment denominator {self.den} is identically zero")
        if not (0.0 <= self.t_start < self.t_end):
            raise ProfileError(
                f"segment interval [{self.t_start}, {self.t_end}) is invalid"
            )
        # refused when either polynomial leaves float range on the segment,
        # nonfinite coefficients among them
        _bernstein(self.num, self.t_start, self.t_end)
        if not self.is_polynomial:
            roots = _root_intervals(self.den, self.t_start, self.t_end)
            if roots:
                root = _bisect(_polynomial(self.den), *roots[0])
                raise ProfileError(f"segment denominator vanishes at t = {root:.6g}")

    @property
    def is_polynomial(self) -> bool:
        return self.den == _ONE_DEN

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.num)

    @cached_property
    def evaluate(self) -> Callable[[float], float]:
        """t -> num(t)/den(t) as one closure, for a time or an array of
        times.

        Built once per segment.  The solver calls it at piece entry and at
        the nodes of a polynomial segment, and the stepper reads a
        rational segment's stage values from ``_stages``, which rounds as
        it does.
        """
        num = _polynomial(self.num)
        if self.is_polynomial:
            return num
        den = _polynomial(self.den)
        return lambda t: num(t) / den(t)

    @property
    def _constant(self) -> bool:
        """Whether num and den are constants, every coefficient past the
        first zero: ``evaluate`` then gives one value at every finite
        t >= 0 (0.0 * t is 0.0), and the solver takes the segment in
        closed form."""
        return not (any(self.num[1:]) or any(self.den[1:]))

    @property
    def _stages(self):
        """K at the five new stage points of a stepper step, with the bits
        of ``evaluate``: the closure of ``_stage_evaluator``, which takes
        the five times.  The stepper takes rational segments only; a
        polynomial one gives the same bits through its unit denominator.

        Built at each solver entry to the segment and not cached: a
        closure kept on every segment of every profile solved costs more
        memory than the build costs time.
        """
        return _stage_evaluator(self.num, self.den)

    @cached_property
    def sign_pieces(self) -> tuple[tuple[float, float, bool], ...]:
        """The segment split at its strict sign changes, as (lo, hi,
        positive) pieces (see ``_sign_pieces``).

        Found once per segment: the total curvature, the negative part
        and ``CurvatureProfile.is_nonpositive`` all read the same split.
        """
        return tuple(_sign_pieces(self))

    def __getstate__(self):
        # the cached evaluate is a closure, which pickle cannot store; it
        # is rebuilt on first use
        state = dict(self.__dict__)
        state.pop("evaluate", None)
        return state

    @cached_property
    def _critical_points(self) -> tuple[float, ...]:
        # stationary points of num/den on the segment: roots of
        # num'*den - num*den', one bisected from each of its root intervals;
        # a constant has the same value everywhere, so it needs none
        if len(self.num) == len(self.den) == 1:
            return ()
        p = npoly.polyder(self.num)
        if not self.is_polynomial:
            p = npoly.polysub(npoly.polymul(p, self.den),
                              npoly.polymul(self.num, npoly.polyder(self.den)))
        coeffs = tuple(p.tolist())
        return tuple(_bisect(_polynomial(coeffs), lo, hi)
                     for lo, hi in _root_intervals(coeffs, self.t_start, self.t_end))

    @cached_property
    def _poles(self) -> tuple[tuple[float, float], ...]:
        """The roots of the denominator, off the segment, as (real part,
        |imaginary part|) pairs from ``numpy.roots``; none on a polynomial
        segment.  The stepper keeps its steps short beside them."""
        if self.is_polynomial:
            return ()
        return tuple((z.real, abs(z.imag)) for z in np.roots(self.den[::-1]).tolist())

    def max_on(self, a: float, b: float) -> float:
        """Exact maximum of the segment expression over [a, b], a
        subinterval of the segment: the largest value at its ends and at
        the critical points inside it.

        The critical points come from the root intervals of the
        derivative's numerator on the whole segment (``_root_intervals``),
        one bisected from each, whatever the spread of the coefficients.
        An interval holds several of them only where that numerator is at
        rounding level, so K is flat there up to rounding and one point
        stands for them.
        """
        ev = self.evaluate
        best = max(ev(a), ev(b))
        for r in self._critical_points:
            if a < r < b:
                best = max(best, ev(r))
        return best


@dataclass(frozen=True)
class ZeroTail:
    """K(t) = 0 for t >= t_tail."""

    sign = 0
    # the solver takes the tail in closed form
    _constant = True

    def evaluate(self, t: float) -> float:
        return 0.0

    def max_on(self, a: float, b: float) -> float:
        return 0.0


@dataclass(frozen=True)
class ConstantTail:
    """K(t) = kappa for t >= t_tail."""

    kappa: float

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise ProfileError("constant tail value must be finite")

    @property
    def sign(self) -> int:
        """Sign of K on the tail: -1, 0 or 1."""
        return (self.kappa > 0.0) - (self.kappa < 0.0)

    # the solver takes the tail in closed form
    _constant = True

    def evaluate(self, t: float) -> float:
        return self.kappa

    def max_on(self, a: float, b: float) -> float:
        return self.kappa


@dataclass(frozen=True)
class PowerDecayTail:
    """K(t) = a / (1 + t)**p for t >= t_tail, with p > 0."""

    a: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.p)):
            raise ProfileError("power tail parameters must be finite")
        if self.p <= 0:
            raise ProfileError(f"power tail exponent must be positive, got {self.p}")

    @property
    def sign(self) -> int:
        """Sign of K on the tail: -1, 0 or 1."""
        return (self.a > 0.0) - (self.a < 0.0)

    @property
    def _constant(self) -> bool:
        """Whether K is 0 on the tail, which the solver then takes in
        closed form."""
        return self.a == 0.0

    def evaluate(self, t: float) -> float:
        return self.a / (1.0 + t) ** self.p

    def _stages(self, x2: float, x3: float, x4: float, x5: float,
                x6: float) -> tuple[float, ...]:
        """``evaluate`` at a solver step's five new stage points."""
        a, p = self.a, self.p
        return (a / (1.0 + x2) ** p, a / (1.0 + x3) ** p, a / (1.0 + x4) ** p,
                a / (1.0 + x5) ** p, a / (1.0 + x6) ** p)

    def max_on(self, a: float, b: float) -> float:
        # |a/(1+t)^p| is decreasing, so the max of a positive tail sits at
        # the left end; a nonpositive tail never exceeds 0.
        return self.evaluate(a) if self.a > 0 else self.evaluate(b)


TailModel = Union[ZeroTail, ConstantTail, PowerDecayTail]


def tail_moment_finite(tail: TailModel) -> bool:
    """Whether the integral of t * |K(t)| over the tail regime converges.

    A vanishing tail converges, a nonzero constant tail diverges, and a
    nonzero power tail converges exactly when its exponent exceeds 2.
    Since f grows at most linearly, this also decides whether the tail
    part of a total curvature integral converges.
    """
    return tail.sign == 0 or (isinstance(tail, PowerDecayTail) and tail.p > 2.0)


@dataclass(frozen=True)
class CurvatureProfile:
    """Piecewise radial curvature function on [0, oo).

    Segments cover [0, t_tail) contiguously; the tail model covers the
    rest.  Profiles are immutable and all operations on them are pure.
    Continuity at the junctions is expected of genuine curvature data and
    can be checked with :meth:`continuity_defects`, but it is not forced:
    the downstream solver restarts at every breakpoint anyway, which keeps
    discontinuous experiment profiles usable.
    """

    segments: tuple[Segment, ...] = ()
    tail: TailModel = ZeroTail()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        segs = self.segments
        if segs:
            if segs[0].t_start != 0.0:
                raise ProfileError("first segment must start at t = 0")
            for left, right in zip(segs, segs[1:]):
                if left.t_end != right.t_start:
                    raise ProfileError(
                        f"segments are not contiguous at t = {left.t_end!r}"
                    )
        if not isinstance(self.tail, (ZeroTail, ConstantTail, PowerDecayTail)):
            raise ProfileError(f"unknown tail model: {self.tail!r}")

    @property
    def t_tail(self) -> float:
        """Start of the tail regime."""
        return self.segments[-1].t_end if self.segments else 0.0

    @cached_property
    def breakpoints(self) -> tuple[float, ...]:
        """All junction times: 0, interior breakpoints, and t_tail."""
        pts = [0.0] + [s.t_end for s in self.segments]
        return tuple(pts)

    @cached_property
    def _seg_ends(self) -> list[float]:
        return [s.t_end for s in self.segments]

    @property
    def is_zero(self) -> bool:
        return all(s.is_zero for s in self.segments) and self.tail == ZeroTail()

    def piece_at(self, t: float):
        """Return (piece, piece_end) for the piece active at time t.

        ``piece_end`` is math.inf for the tail.  The returned piece is
        valid on the closed right end of its interval, which is what the
        solver needs when a step lands exactly on a breakpoint.
        """
        i = bisect.bisect_right(self._seg_ends, t)
        if i < len(self.segments):
            seg = self.segments[i]
            return seg, seg.t_end
        return self.tail, math.inf

    def evaluate(self, t: float) -> float:
        """Value K(t); raises ValueError for negative t."""
        if t < 0:
            raise ValueError(f"curvature profile is defined on [0, oo), got t = {t}")
        piece, _ = self.piece_at(t)
        return piece.evaluate(t)

    __call__ = evaluate

    def evaluate_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if ts.size and float(ts.min()) < 0:
            raise ValueError("curvature profile is defined on [0, oo)")
        out = np.empty_like(ts)
        idx = np.searchsorted(self._seg_ends, ts, side="right")
        for i, piece in enumerate((*self.segments, self.tail)):
            mask = idx == i
            # a tail's scalar value broadcasts over the mask
            out[mask] = piece.evaluate(ts[mask])
        return out

    @property
    def is_nonpositive(self) -> bool:
        """Whether min(K, 0) is K piece for piece: each segment is one
        nonpositive sign piece and the tail is negative or a ZeroTail.

        ``negative_part`` then returns the profile itself.  Reads the
        cached sign split and builds no profile.
        """
        return ((self.tail.sign < 0 or self.tail == ZeroTail())
                and all(len(s.sign_pieces) == 1 and not s.sign_pieces[0][2]
                        for s in self.segments))

    def sign_pieces(self) -> Iterator[tuple[Segment, float, float, bool]]:
        """The segments split at the strict sign changes of K, in order.

        Yields (segment, lo, hi, positive): K is positive on [lo, hi) when
        ``positive`` holds, else nonpositive there.  A zero segment is one
        piece that is not positive.
        """
        for seg in self.segments:
            for lo, hi, positive in seg.sign_pieces:
                yield seg, lo, hi, positive

    def continuity_defects(self) -> list[tuple[float, float, float]]:
        """Junctions where left and right values disagree.

        Returns (t, left_value, right_value) triples; empty means the
        profile evaluates continuously on [0, oo).
        """
        junctions = ((s.t_end, s.evaluate(s.t_end), self.evaluate(s.t_end))
                     for s in self.segments)
        return [(t, left, right) for t, left, right in junctions
                if not math.isclose(left, right, rel_tol=_CONTINUITY_TOL,
                                    abs_tol=_CONTINUITY_TOL)]

    def is_continuous(self) -> bool:
        return not self.continuity_defects()


def zero_profile() -> CurvatureProfile:
    return CurvatureProfile((), ZeroTail())


def constant_profile(kappa: float) -> CurvatureProfile:
    if kappa == 0.0:
        return zero_profile()
    return CurvatureProfile((), ConstantTail(kappa))


def power_tail_profile(a: float, p: float) -> CurvatureProfile:
    """Pure tail profile K(t) = a/(1+t)**p on all of [0, oo)."""
    if a == 0.0:
        return zero_profile()
    return CurvatureProfile((), PowerDecayTail(a, p))


# ---------------------------------------------------------------------------
# sign splitting


def _bisect(p: Callable[[float], float], lo: float, hi: float) -> float:
    """A point of [lo, hi] where p changes sign, or a zero of p met on the
    way, found by plain bisection to floating point resolution.  Without a
    sign change it ends next to hi.
    """
    plo = p(lo)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        pmid = p(mid)
        if pmid == 0.0:
            return mid
        if (plo < 0) == (pmid < 0):
            lo, plo = mid, pmid
        else:
            hi = mid
    return mid


def _sign_pieces(seg: Segment) -> list[tuple[float, float, bool]]:
    """Split a segment at its strict sign changes, located to float
    resolution, into (lo, hi, positive) pieces.

    The denominator has no roots on a segment, so every sign change lies
    in a root interval of the numerator (``_root_intervals``), and between
    those intervals the sign is certified.  The midpoints of the gaps
    between intervals are probed; each pair of neighbouring probes of
    opposite sign brackets one crossing, which bisection then locates.
    Probes that evaluate to exactly zero are skipped, so a tangential
    touch (no sign change) gets no cut and a zero segment is one
    nonpositive piece.

    Cuts are exact, with no minimum width: a cut stands wherever bisection
    puts it strictly inside (previous cut, t_end), however close to its
    neighbours, and the solver takes every piece.  The sign is tracked
    across the crossings, and each piece carries the sign it had before
    its end.  A crossing that lands on t_start or on the previous cut
    makes no cut but sets the sign of the piece that starts there; a
    crossing that lands on t_end changes no sign, so a probe at t_end
    that reads rounding noise decides nothing.
    """
    roots = _root_intervals(seg.num, seg.t_start, seg.t_end)
    knots = [seg.t_start, *(t for iv in roots for t in iv), seg.t_end]
    mids = (0.5 * (a + b) for a, b in zip(knots[::2], knots[1::2]))
    probes = [(t, v > 0.0) for t, v in ((t, seg.evaluate(t)) for t in mids) if v != 0.0]
    pieces: list[tuple[float, float, bool]] = []
    lo, sign = seg.t_start, bool(probes) and probes[0][1]
    for (t0, positive), (t1, next_positive) in zip(probes, probes[1:]):
        if positive != next_positive and (c := _bisect(seg.evaluate, t0, t1)) < seg.t_end:
            if lo < c:
                pieces.append((lo, c, sign))
                lo = c
            sign = next_positive
    pieces.append((lo, seg.t_end, sign))
    return pieces


def _cut(seg: Segment, lo: float, hi: float, positive: bool) -> Segment:
    """seg's expression on its sign piece [lo, hi) (positive or not): seg
    itself when that is all of it, else a piece that holds its one sign
    piece and shares seg's ``evaluate`` and, on a rational segment (which
    the stepper takes), its critical points and poles; a critical point
    outside [lo, hi) is never inside a step.  So a fresh signed part builds
    no evaluator and isolates no root."""
    if lo == seg.t_start and hi == seg.t_end:
        return seg
    shared = {"evaluate": seg.evaluate}
    if not seg.is_polynomial:
        shared["_critical_points"] = seg._critical_points
        shared["_poles"] = seg._poles
    return _subsegment(lo, hi, seg.num, seg.den, positive, shared)


def _subsegment(lo: float, hi: float, num: tuple[float, ...], den: tuple[float, ...],
                positive: bool, shared: dict) -> Segment:
    """A segment on [lo, hi), within a segment of the same num and den (or
    num = (0.0,)), built without ``Segment.__post_init__``: the enclosing
    segment passed the range and denominator checks, which hold on any
    subinterval.  It holds [lo, hi) as its one sign piece, and the cached
    values in ``shared``."""
    piece = object.__new__(Segment)
    piece.__dict__.update(t_start=lo, t_end=hi, num=num, den=den,
                          sign_pieces=((lo, hi, positive),), **shared)
    return piece


def _signed_part(profile: CurvatureProfile, keep_negative: bool) -> CurvatureProfile:
    if keep_negative and profile.is_nonpositive:
        return profile
    pieces = [_cut(seg, lo, hi, positive) if positive != keep_negative
              else _subsegment(lo, hi, _ZERO_NUM, _ONE_DEN, False, {})
              for seg, lo, hi, positive in profile.sign_pieces()]
    tail = profile.tail
    keep_tail = tail.sign == (-1 if keep_negative else 1)
    return CurvatureProfile(tuple(pieces), tail if keep_tail else ZeroTail())


def negative_part(profile: CurvatureProfile) -> CurvatureProfile:
    """Pointwise min(K, 0) as a profile, split at sign changes; the
    profile itself where it is nonpositive."""
    return _signed_part(profile, keep_negative=True)


def positive_part(profile: CurvatureProfile) -> CurvatureProfile:
    """Pointwise max(K, 0) as a new profile, split at sign changes."""
    return _signed_part(profile, keep_negative=False)


# ---------------------------------------------------------------------------
# JSON schema


def profile_to_dict(profile: CurvatureProfile) -> dict:
    """Profile as a JSON-ready dict (see profile_from_dict for the schema)."""
    segments = []
    for s in profile.segments:
        if s.is_polynomial:
            segments.append([s.t_start, s.t_end, *s.num])
        else:
            segments.append({"t_start": s.t_start, "t_end": s.t_end,
                             "num": list(s.num), "den": list(s.den)})
    tail = profile.tail
    if isinstance(tail, ZeroTail):
        tail_obj: dict = {"kind": "zero"}
    elif isinstance(tail, ConstantTail):
        tail_obj = {"kind": "constant", "kappa": tail.kappa}
    else:
        tail_obj = {"kind": "power", "a": tail.a, "p": tail.p}
    return {"segments": segments, "tail": tail_obj}


def profile_from_dict(data: dict) -> CurvatureProfile:
    """Build a profile from its JSON form.

    Schema::

        {"segments": [[t_start, t_end, c0, c1, ...],          # polynomial
                      {"t_start": ..., "t_end": ...,          # rational
                       "num": [...], "den": [...]},
                      ...],
         "tail": {"kind": "zero"}
               | {"kind": "constant", "kappa": k}
               | {"kind": "power", "a": a, "p": p}}
    """
    if not isinstance(data, dict):
        raise ProfileError("profile must be a JSON object")
    if not isinstance(data.get("segments", []), (list, tuple)):
        raise ProfileError(f"'segments' must be a list, got {data['segments']!r}")
    segments = []
    for i, raw in enumerate(data.get("segments", [])):
        try:
            if isinstance(raw, dict):
                seg = Segment(float(raw["t_start"]), float(raw["t_end"]),
                              tuple(raw["num"]), tuple(raw.get("den", (1.0,))))
            else:
                if len(raw) < 3:
                    raise ProfileError(
                        f"segment {i}: need [t_start, t_end, coefficients...]"
                    )
                seg = Segment(float(raw[0]), float(raw[1]), tuple(raw[2:]))
        except (TypeError, KeyError, ValueError) as exc:
            raise ProfileError(f"segment {i} is malformed: {exc}") from exc
        segments.append(seg)
    tail_obj = data.get("tail", {"kind": "zero"})
    kind = tail_obj.get("kind") if isinstance(tail_obj, dict) else None
    try:
        if kind == "zero":
            tail: TailModel = ZeroTail()
        elif kind == "constant":
            tail = ConstantTail(float(tail_obj["kappa"]))
        elif kind == "power":
            tail = PowerDecayTail(float(tail_obj["a"]), float(tail_obj["p"]))
        else:
            raise ProfileError(f"unknown tail kind: {kind!r}")
    except (TypeError, KeyError, ValueError) as exc:
        raise ProfileError(f"tail is malformed: {exc}") from exc
    return CurvatureProfile(tuple(segments), tail)
