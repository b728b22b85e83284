"""The Jacobi solver as it stood at commit 1a8798a, kept as the reference
of the bit-identity tests in ``test_jacobi.py``.  Its one change since is
the pole cap on rational segments, written out here in full from the
roots of each segment's denominator and applied before the Sturm cap.

Each step calls ``evaluate`` once per new stage point, and a piece where K
can be positive calls ``max_on`` for the Sturm cap at every step.  The
negative part builds every piece as a fresh ``Segment``.  The solver that
reads a step's curvature in one call must give the same bits: every node
and every f'' value up to the first piece of constant K that it enters,
which it takes in closed form, and every count of a solve that enters
none.
"""

from __future__ import annotations

import math

import numpy as np

from radialgeo.curvature_profile import (
    _ZERO_NUM,
    CurvatureProfile,
    Segment,
    ZeroTail,
)
from radialgeo.errors import IntegrationError
from radialgeo.jacobi import (  # noqa: F401  (the names the copy reads)
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62,
    _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6, _C2, _C3, _C4, _C5, _E1, _E3,
    _E4, _E5, _E6, _E7, _MAX_FACTOR, _MAX_STEPS, _MAX_TOL, _MIN_FACTOR,
    _MIN_TOL, _PI_ALPHA, _PI_BETA, _SAFETY, GROWTH_GUARD, WarpingSolution,
    _locate_zero,
)

# a step on a rational segment is at most this times its start's distance
# to each pole ahead of it
_POLE_RATIO = 0.5


def _poles_ahead(piece, t: float, bound: float) -> tuple[list, float, float]:
    """The roots of a rational segment's denominator whose real part lies
    past t, as (real part, squared imaginary part) pairs, the largest such
    real part (-inf when there is none), and _POLE_RATIO times their least
    distance to [t, bound], below which the cap binds nowhere there."""
    den = getattr(piece, "den", (1.0,))
    poles = [(z.real, z.imag * z.imag) for z in np.roots(den[::-1]).tolist()
             if z.real > t]
    if not poles:
        return poles, -math.inf, math.inf
    gap = min(math.hypot(re - bound, math.sqrt(im2)) if re > bound else math.sqrt(im2)
              for re, im2 in poles)
    return poles, max(re for re, _ in poles), _POLE_RATIO * gap


def _pole_cap(poles: list, t: float, h: float) -> float:
    """h, shortened to _POLE_RATIO times the distance from t to each pole
    ahead of t, but not below 4e-14 max(t, 1) unless h already is."""
    capped = h
    for re, im2 in poles:
        if re > t:
            d = re - t
            capped = min(capped, _POLE_RATIO * math.sqrt(d * d + im2))
    return max(capped, min(h, 4e-14 * max(t, 1.0)))


def solve(profile: CurvatureProfile, t_end: float, tol: float) -> WarpingSolution:
    """Integrate f'' + K f = 0 with f(0) = 0, f'(0) = 1 on [0, t_end].

    ``tol`` is the requested relative error, used for both the relative
    and absolute components of the local error test; it must lie in
    [1e-14, 1e-3].  Integration stops early at the first zero of f
    (recorded in ``first_zero``) or when |f| or |f'| passes the growth
    guard (recorded in ``truncated``); step-size underflow raises
    IntegrationError.

    A step that ends on its bound, the next breakpoint or t_end, is taken
    at any length, so pieces far narrower than the underflow floor of
    1e-14 max(t, 1) are each one step; only a step that stops short of
    its bound can underflow.  At each piece entry a step size at or below
    that floor (0 before the first piece) starts over from the
    initial-step rule: 1 % of the bound, clipped to [1e-6, 0.1].
    """
    if not (t_end > 0.0):
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not (_MIN_TOL <= tol <= _MAX_TOL):
        raise ValueError(f"tol must lie in [{_MIN_TOL}, {_MAX_TOL}], got {tol}")

    # module constants as locals, read at every step without a global lookup
    c2, c3, c4, c5 = _C2, _C3, _C4, _C5
    a21 = _A21
    a31, a32 = _A31, _A32
    a41, a42, a43 = _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    pi_alpha, pi_beta = _PI_ALPHA, _PI_BETA
    guard, pi, sqrt = GROWTH_GUARD, math.pi, math.sqrt

    t = 0.0
    f, fp = 0.0, 1.0

    ts = [0.0]
    fs = [0.0]
    fps = [1.0]
    d2_left: list[float] = []
    d2_right: list[float] = []

    first_zero: float | None = None
    truncated = False
    n_steps = 0
    n_rejected = 0

    h = 0.0  # the first piece entry sets the initial step
    err_prev = 1.0
    piece_end = 0.0  # the first pass enters the piece at t = 0

    while t < t_end:
        if n_steps + n_rejected > _MAX_STEPS:
            raise IntegrationError("step budget exhausted", t)
        if t >= piece_end:
            # piece entry: what holds up to the next breakpoint is set once
            piece, piece_end = profile.piece_at(t)
            ev = piece.evaluate
            bound = min(piece_end, t_end)
            # where K <= 0 on the rest of the piece no step needs the cap
            check_cap = piece.max_on(t, bound) > 0.0
            poles, pole_end, pole_floor = _poles_ahead(piece, t, bound)
            k1f, k1p = fp, -ev(t) * f
            # the first piece, and a step grown from a sliver piece, start
            # over from the initial-step rule
            if h <= 1e-14 * (t if t > 1.0 else 1.0):
                h = max(min(0.01 * bound, 0.1), 1e-6)
        # snap to the boundary when the proposal reaches or nearly reaches
        # it, so no sliver is left behind for a step of its own
        at_bound = bound - t <= h * (1.0 + 1e-9)
        if at_bound:
            h = bound - t
        if t < pole_end and h > pole_floor:
            capped = _pole_cap(poles, t, h)
            if capped < h:
                h, at_bound = capped, False
        if check_cap:
            kmax = piece.max_on(t, t + h)
            if kmax > 0.0:
                cap = pi / sqrt(kmax)
                if h > cap:
                    h = cap
                    at_bound = False
        # a step that ends on the bound is taken at any length
        if not at_bound and h <= 1e-14 * (t if t > 1.0 else 1.0):
            raise IntegrationError("step size underflow", t)

        # five curvature evaluations: k1 is carried over, and K(t + h)
        # serves stage 6 and stage 7 (FSAL)
        y2f = f + h * (a21 * k1f)
        y2p = fp + h * (a21 * k1p)
        k2f, k2p = y2p, -ev(t + c2 * h) * y2f
        y3f = f + h * (a31 * k1f + a32 * k2f)
        y3p = fp + h * (a31 * k1p + a32 * k2p)
        k3f, k3p = y3p, -ev(t + c3 * h) * y3f
        y4f = f + h * (a41 * k1f + a42 * k2f + a43 * k3f)
        y4p = fp + h * (a41 * k1p + a42 * k2p + a43 * k3p)
        k4f, k4p = y4p, -ev(t + c4 * h) * y4f
        y5f = f + h * (a51 * k1f + a52 * k2f + a53 * k3f + a54 * k4f)
        y5p = fp + h * (a51 * k1p + a52 * k2p + a53 * k3p + a54 * k4p)
        k5f, k5p = y5p, -ev(t + c5 * h) * y5f
        y6f = f + h * (a61 * k1f + a62 * k2f + a63 * k3f + a64 * k4f + a65 * k5f)
        y6p = fp + h * (a61 * k1p + a62 * k2p + a63 * k3p + a64 * k4p + a65 * k5p)
        k_end = ev(t + h)
        k6f, k6p = y6p, -k_end * y6f
        fn = f + h * (b1 * k1f + b3 * k3f + b4 * k4f + b5 * k5f + b6 * k6f)
        fpn = fp + h * (b1 * k1p + b3 * k3p + b4 * k4p + b5 * k5p + b6 * k6p)
        k7f, k7p = fpn, -k_end * fn

        ef = h * (e1 * k1f + e3 * k3f + e4 * k4f + e5 * k5f + e6 * k6f + e7 * k7f)
        ep = h * (e1 * k1p + e3 * k3p + e4 * k4p + e5 * k5p + e6 * k6p + e7 * k7p)
        # max(a, b) is b if b > a else a, NaN included
        af, afn, afp, afpn = abs(f), abs(fn), abs(fp), abs(fpn)
        sc_f = tol + tol * (afn if afn > af else af)
        sc_p = tol + tol * (afpn if afpn > afp else afp)
        err = sqrt(0.5 * ((ef / sc_f) ** 2 + (ep / sc_p) ** 2))

        if err > 1.0:
            n_rejected += 1
            shrink = safety * err ** (-0.2)
            h *= shrink if shrink > min_factor else min_factor
            continue

        n_steps += 1
        t_new = bound if at_bound else t + h
        d2_left.append(k1p)
        d2_right.append(k7p)
        ts.append(t_new)
        fs.append(fn)
        fps.append(fpn)

        if fn <= 0.0:
            tz, fz, fpz = _locate_zero(t, t_new - t, f, fp, k1p, fn, fpn, k7p)
            ts[-1] = tz
            fs[-1] = fz
            fps[-1] = fpz
            d2_right[-1] = -ev(tz) * fz
            first_zero = tz
            break

        t, f, fp = t_new, fn, fpn
        if (afpn if afpn > afn else afn) >= guard:
            truncated = True
            break

        if err == 0.0:
            factor = max_factor
        else:
            factor = safety * err ** (-pi_alpha) * err_prev ** pi_beta
            factor = factor if factor > min_factor else min_factor
            factor = factor if factor < max_factor else max_factor
        h *= factor
        err_prev = 1e-10 if 1e-10 > err else err
        k1f, k1p = k7f, k7p

    return WarpingSolution(
        profile=profile,
        tol=tol,
        ts=np.asarray(ts),
        fs=np.asarray(fs),
        fps=np.asarray(fps),
        d2_left=np.asarray(d2_left),
        d2_right=np.asarray(d2_right),
        first_zero=first_zero,
        truncated=truncated,
        n_steps=n_steps,
        n_rejected=n_rejected,
    )


def solve_m(profile: CurvatureProfile, t_end: float, tol: float) -> WarpingSolution:
    """Solve m'' + min(K, 0) m = 0, m(0) = 0, m'(0) = 1.

    m is convex while positive and starts with slope 1, so it can never
    return to zero; a detected zero would mean the integrator broke and
    is reported as such.
    """
    sol = solve(negative_part(profile), t_end, tol)
    if sol.first_zero is not None:
        raise IntegrationError(
            "convex comparison function crossed zero; integrator inconsistency",
            sol.first_zero,
        )
    return sol


def _signed_part(profile: CurvatureProfile, keep_negative: bool) -> CurvatureProfile:
    if keep_negative and profile.is_nonpositive:
        return profile
    pieces = [Segment(lo, hi, seg.num, seg.den) if positive != keep_negative
              else Segment(lo, hi, _ZERO_NUM)
              for seg, lo, hi, positive in profile.sign_pieces()]
    tail = profile.tail
    keep_tail = tail.sign == (-1 if keep_negative else 1)
    return CurvatureProfile(tuple(pieces), tail if keep_tail else ZeroTail())


def negative_part(profile: CurvatureProfile) -> CurvatureProfile:
    """Pointwise min(K, 0) as a profile, split at sign changes; the
    profile itself where it is nonpositive."""
    return _signed_part(profile, keep_negative=True)
