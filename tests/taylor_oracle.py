"""An independent integrator of f'' + K f = 0 in 50-digit decimal
arithmetic: the oracle of the solver's tests on rational segments, power
tails and every other piece of a profile.

K on each piece is the exact function of its float data, each float
converted to a Decimal without rounding: num/den on a segment,
a/(1 + t)^p on a power tail, a constant on a zero or constant tail.  A
step from t0 expands f in its Taylor series at t0 until eight terms in a
row (more for a segment of high degree) fall below 10^-46 of the state:
on a segment by the recurrence of den f'' + num f = 0 with num and den
shifted to t0 (Horner's shift), on a tail by
b_(k+2) = -sum_j K_j b_(k-j)/((k+2)(k+1)) with K_0 = a x^-p and
K_(j+1) = -K_j (p + j)/((j + 1) x), x = 1 + t0.  K's own series (the
quotient num/den on a segment) sets the step.  A step is at most 1/(4 omega), omega the
largest |K_j|^(1/(j+2)) over the first _SCALE_TERMS coefficients, which
keeps it well inside the series' radius of convergence (16/omega on a
constant piece, whose series is entire), and it is halved while the terms
do not fall off within _MAX_TERMS.  Nothing is imported from
``radialgeo.jacobi``.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

from radialgeo.curvature_profile import ConstantTail, CurvatureProfile, PowerDecayTail

DIGITS = 50
_SCALE_TERMS = 24
_MAX_TERMS = 160
_INF = Decimal("Infinity")


def exact_pieces(profile: CurvatureProfile) -> list[tuple]:
    """The pieces of ``profile`` as (start, end, kind, data), in order:
    ("rational", (num, den)) on a segment, ("power", (a, p)) or
    ("rational", ((kappa,), (1,))) on the tail, whose end is infinite; all
    in Decimals, exact."""
    out = [(Decimal(s.t_start), Decimal(s.t_end), "rational",
            (tuple(map(Decimal, s.num)), tuple(map(Decimal, s.den))))
           for s in profile.segments]
    tail, start = profile.tail, Decimal(profile.t_tail)
    if isinstance(tail, PowerDecayTail) and tail.a != 0.0:
        out.append((start, _INF, "power", (Decimal(tail.a), Decimal(tail.p))))
    else:
        kappa = Decimal(tail.kappa) if isinstance(tail, ConstantTail) else Decimal(0)
        out.append((start, _INF, "rational", ((kappa,), (Decimal(1),))))
    return out


class _Series:
    """K's Taylor coefficients at t0 on one piece, found as far as asked."""

    def __init__(self, kind: str, data: tuple, t0: Decimal):
        self.kind, self.coeffs = kind, []
        if kind == "power":
            a, p = data
            self.x, self.p = 1 + t0, p
            self.coeffs.append(a * (-p * self.x.ln()).exp())
            return
        num, den = ([c for c in _shift(poly, t0)] for poly in data)
        self.num, self.den = num, den
        # a polynomial's series ends with its degree
        self.last = len(num) - 1 if len(den) == 1 else None

    def __getitem__(self, j: int) -> Decimal:
        coeffs = self.coeffs
        while len(coeffs) <= j:
            i = len(coeffs)
            if self.kind == "power":
                coeffs.append(-coeffs[-1] * (self.p + i - 1) / (i * self.x))
                continue
            num, den = self.num, self.den
            s = num[i] if i < len(num) else Decimal(0)
            for m in range(1, min(i, len(den) - 1) + 1):
                s -= den[m] * coeffs[i - m]
            coeffs.append(s / den[0])
        return coeffs[j]

    def scale(self) -> Decimal:
        """The largest |K_j|^(1/(j+2)) over j < _SCALE_TERMS, to a few
        digits."""
        top = _SCALE_TERMS if self.kind == "power" or self.last is None else self.last + 1
        best = -math.inf
        for j in range(top):
            c = abs(self[j])
            if c:
                x = float(c)
                best = max(best, (math.log(x) if 0.0 < x < math.inf else float(c.ln())) / (j + 2))
        return Decimal(math.exp(best)) if best > -math.inf else Decimal(0)


def _shift(coeffs: tuple, a: Decimal) -> list:
    """The coefficients of the polynomial ``coeffs`` in powers of t - a."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _step(series: _Series, f: Decimal, fp: Decimal, h: Decimal):
    """(f, f') at t0 + h from (f, f') at t0, or None where the terms do not
    fall below 10^-46 of the state within _MAX_TERMS."""
    scaled = [f, fp * h]  # b_k h^k
    floor = (abs(f) + abs(fp * h)) * Decimal(10) ** -46
    value, slope, small = f + scaled[1], scaled[1], 0
    if series.kind == "power":
        powers = [h * h]  # h^(j+2)
    else:
        # num_i h^(i+2) and den_i h^i: den f'' + num f = 0 in s = (t - t0)/h
        num = [c * h ** (i + 2) for i, c in enumerate(series.num)]
        den = [c * h ** i for i, c in enumerate(series.den)]
    # the recurrence reads up to len(num) + len(den) terms back, and K's
    # leading coefficients may vanish, so terms that vanish in a row prove
    # nothing until there are this many of them
    need = 8 if series.kind == "power" else max(8, len(num) + len(den))
    for k in range(_MAX_TERMS - 2):
        if series.kind == "power":
            powers.append(powers[-1] * h)
            term = -sum(series[j] * powers[j] * scaled[k - j] for j in range(k + 1))
            term /= (k + 2) * (k + 1)
        else:
            term = -(sum(den[i] * (k + 2 - i) * (k + 1 - i) * scaled[k + 2 - i]
                         for i in range(1, min(k + 2, len(den))))
                     + sum(num[i] * scaled[k - i] for i in range(min(k + 1, len(num)))))
            term /= den[0] * (k + 2) * (k + 1)
        scaled.append(term)
        value += term
        slope += (k + 2) * term
        small = small + 1 if abs(term) <= floor else 0
        if small >= need:
            return value, slope / h
    return None


def integrate(pieces: list[tuple], t0: Decimal, f: Decimal, fp: Decimal,
              t1: Decimal) -> tuple[Decimal, Decimal]:
    """(f, f') at t1 from (f, f') at t0 on pieces as ``exact_pieces``
    gives them, in the caller's decimal context."""
    t = t0
    for start, stop, kind, data in pieces:
        end = min(stop, t1)
        while t < end:
            series = _Series(kind, data, t)
            omega = series.scale()
            h = end - t
            if omega:
                constant = kind == "rational" and series.last == 0
                h = min(h, (16 if constant else Decimal("0.25")) / omega)
            while (new := _step(series, f, fp, h)) is None:
                h /= 2
            f, fp = new
            # a step below the precision of t ends the piece
            t = t + h if t < t + h < end else end
    return f, fp


def state(profile: CurvatureProfile, t1: float, t0: float = 0.0,
          start: tuple = (0.0, 1.0)) -> tuple[float, float]:
    """(f, f') at t1 from (f, f') = ``start`` at t0 on ``profile``,
    rounded to floats."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        f, fp = integrate(exact_pieces(profile), Decimal(t0), Decimal(start[0]),
                          Decimal(start[1]), Decimal(t1))
        return float(f), float(fp)
