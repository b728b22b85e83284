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
from functools import cached_property
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


def _trimmed(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """Polynomial coefficients without trailing zeros, as ``polyroots``
    takes them (the zero polynomial keeps one coefficient: no roots).

    ProfileError, naming the coefficients, when the companion matrix of
    the polynomial (the coefficients over the leading one) would leave
    float range.
    """
    out = coeffs[:max((i + 1 for i, c in enumerate(coeffs) if c), default=1)]
    if not all(math.isfinite(c / out[-1]) for c in out[:-1]):
        raise ProfileError(f"polynomial coefficients {coeffs} put its roots "
                           f"past float range")
    return out


def _horner(coeffs: tuple[float, ...], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _scalar_horner(coeffs: tuple[float, ...]) -> Callable[[float], float]:
    """t -> _horner(coeffs, t), bit for bit at every finite t.

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
        if not all(math.isfinite(c) for c in self.num + self.den):
            raise ProfileError("segment coefficients must be finite")
        if not (0.0 <= self.t_start < self.t_end):
            raise ProfileError(
                f"segment interval [{self.t_start}, {self.t_end}) is invalid"
            )
        for root in self._real_roots(self.den):
            if self.t_start - 1e-12 <= root <= self.t_end + 1e-12:
                raise ProfileError(
                    f"segment denominator vanishes at t = {root:.6g}"
                )
        # refuses a numerator whose roots leave float range now, not when
        # its sign pieces are first needed
        _trimmed(self.num)

    @property
    def is_polynomial(self) -> bool:
        return self.den == _ONE_DEN

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.num)

    def evaluate(self, t: float) -> float:
        v = _horner(self.num, t)
        if not self.is_polynomial:
            v /= _horner(self.den, t)
        return v

    @cached_property
    def evaluator(self) -> Callable[[float], float]:
        """``evaluate`` as one closure, bit for bit at every finite t.

        Built once per segment for the solver's inner loop, which calls
        it at every stage point.
        """
        num = _scalar_horner(self.num)
        if self.is_polynomial:
            return num
        den = _scalar_horner(self.den)
        return lambda t: num(t) / den(t)

    def __getstate__(self):
        # the cached evaluator is a closure, which pickle cannot store; it
        # is rebuilt on first use
        state = dict(self.__dict__)
        state.pop("evaluator", None)
        return state

    def evaluate_array(self, ts: np.ndarray) -> np.ndarray:
        v = npoly.polyval(ts, self.num)
        if not self.is_polynomial:
            v = v / npoly.polyval(ts, self.den)
        return v

    @staticmethod
    def _real_roots(coeffs: tuple[float, ...]) -> list[float]:
        return [float(r.real) for r in npoly.polyroots(_trimmed(coeffs))
                if abs(r.imag) <= 1e-9 * (1 + abs(r))]

    @cached_property
    def _critical_points(self) -> tuple[float, ...]:
        # stationary points of num/den: roots of num'*den - num*den'
        dnum = npoly.polyder(self.num)
        if self.is_polynomial:
            p = dnum
        else:
            dden = npoly.polyder(self.den)
            p = npoly.polysub(npoly.polymul(dnum, self.den),
                              npoly.polymul(self.num, dden))
        return tuple(self._real_roots(tuple(p.tolist())))

    def max_on(self, a: float, b: float) -> float:
        """Exact maximum of the segment expression over [a, b]."""
        ev = self.evaluator
        best = max(ev(a), ev(b))
        for r in self._critical_points:
            if a < r < b:
                best = max(best, ev(r))
        return best


@dataclass(frozen=True)
class ZeroTail:
    """K(t) = 0 for t >= t_tail."""

    sign = 0

    def evaluate(self, t: float) -> float:
        return 0.0

    def evaluate_array(self, ts: np.ndarray) -> np.ndarray:
        return np.zeros_like(ts)

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

    def evaluate(self, t: float) -> float:
        return self.kappa

    def evaluate_array(self, ts: np.ndarray) -> np.ndarray:
        return np.full_like(ts, self.kappa)

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

    def evaluate(self, t: float) -> float:
        return self.a / (1.0 + t) ** self.p

    def evaluate_array(self, ts: np.ndarray) -> np.ndarray:
        return self.a / (1.0 + ts) ** self.p

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
        for i in range(len(self.segments) + 1):
            mask = idx == i
            if not mask.any():
                continue
            piece = self.segments[i] if i < len(self.segments) else self.tail
            out[mask] = piece.evaluate_array(ts[mask])
        return out

    def sign_pieces(self) -> Iterator[tuple[Segment, float, float, bool]]:
        """The segments split at the strict sign changes of K, in order.

        Yields (segment, lo, hi, positive): K is positive on [lo, hi) when
        ``positive`` holds, else nonpositive there.  A zero segment is one
        piece that is not positive.
        """
        for seg in self.segments:
            for lo, hi, positive in _sign_pieces(seg):
                yield seg, lo, hi, positive

    def continuity_defects(self) -> list[tuple[float, float, float]]:
        """Junctions where left and right values disagree.

        Returns (t, left_value, right_value) triples; empty means the
        profile evaluates continuously on [0, oo).
        """
        defects = []
        for i, seg in enumerate(self.segments):
            t = seg.t_end
            left = seg.evaluate(t)
            right = (self.segments[i + 1] if i + 1 < len(self.segments)
                     else self.tail).evaluate(t)
            if not math.isclose(left, right, rel_tol=_CONTINUITY_TOL,
                                abs_tol=_CONTINUITY_TOL):
                defects.append((t, left, right))
        return defects

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


def _bisect_sign_change(seg: Segment, lo: float, hi: float) -> float:
    """Locate a sign change of the segment inside a bracketing interval.

    Plain bisection, driven to floating point resolution (well below the
    1e-12 continuity tolerance even for steep segments); 64 iterations
    more than suffice from any bracket inside a segment.
    """
    flo = seg.evaluate(lo)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = seg.evaluate(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sign_pieces(seg: Segment) -> list[tuple[float, float, bool]]:
    """Split a segment at its strict sign changes, located to float
    resolution, into (lo, hi, positive) pieces.

    The denominator has no roots on a segment, so every sign change is a
    real root of the numerator.  The segment ends and the points midway
    between consecutive roots are probed; each pair of neighbouring
    probes of opposite sign brackets one crossing, which bisection then
    polishes, and a piece takes the sign of the probes inside it.  Probes
    that evaluate to exactly zero are skipped, so a tangential touch (no
    sign change) gets no cut.  The real parts of all roots are used: a
    double root can come back as a complex pair, and without it a probe
    could land on that touch and hide the crossings on both sides.
    """
    if seg.is_zero:
        return [(seg.t_start, seg.t_end, False)]
    roots = sorted(float(r) for r in npoly.polyroots(_trimmed(seg.num)).real
                   if seg.t_start < r < seg.t_end)
    knots = [seg.t_start, *roots, seg.t_end]
    probes = [seg.t_start, *(0.5 * (a + b) for a, b in zip(knots, knots[1:])),
              seg.t_end]
    pieces: list[tuple[float, float, bool]] = []
    lo = seg.t_start
    sign = 0
    prev_t = seg.t_start
    for t in probes:
        v = seg.evaluate(t)
        probe_sign = (v > 0.0) - (v < 0.0)
        if probe_sign == 0:
            continue
        if sign and probe_sign != sign:
            c = _bisect_sign_change(seg, prev_t, t)
            if (seg.t_start < c < seg.t_end
                    and not (pieces and c - lo <= 1e-13 * max(1.0, abs(c)))):
                pieces.append((lo, c, sign > 0))
                lo = c
        sign, prev_t = probe_sign, t
    pieces.append((lo, seg.t_end, sign > 0))
    return pieces


def _signed_part(profile: CurvatureProfile, keep_negative: bool) -> CurvatureProfile:
    pieces = [Segment(lo, hi, seg.num, seg.den) if positive != keep_negative
              else Segment(lo, hi, _ZERO_NUM)
              for seg, lo, hi, positive in profile.sign_pieces()]
    tail = profile.tail
    keep_tail = tail.sign == (-1 if keep_negative else 1)
    return CurvatureProfile(tuple(pieces), tail if keep_tail else ZeroTail())


def negative_part(profile: CurvatureProfile) -> CurvatureProfile:
    """Pointwise min(K, 0) as a new profile, split at sign changes."""
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
        except (TypeError, KeyError) as exc:
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
    except (TypeError, KeyError) as exc:
        raise ProfileError(f"tail is malformed: {exc}") from exc
    return CurvatureProfile(tuple(segments), tail)
