"""Built-in curvature families with closed-form reference values.

These serve as CLI presets and as test fixtures.  Where a family has a
closed form it is recorded in the entry's oracle dict; every such value
is reproduced by the toolkit within the documented tolerances (see the
acceptance suite).

Families:

* ``flat``: K = 0, f = t.
* ``hyperbolic``: K = -1, f = sinh t; total curvature diverges to -inf.
* ``spherical``: K = +1, f = sin t; the first zero at pi makes the model
  compact, which downstream analysis reports as a hypothesis failure.
* ``abresch_tail``: K = -6/(1+t)^4, asymptotically vanishing negative
  curvature.  Closed form f = (1+t) sinh(w t/(1+t)) / w with w = sqrt(6),
  so lim f' = sinh(w)/w and c = 2 pi (1 - sinh(w)/w).
* ``sign_changing_beta_ln2`` / ``sign_changing_beta_neg_ln2``: the family
  f = t exp(-b t^2/(1+t^2)) whose curvature -f''/f is the exact rational

      K(t) = (6 b + (4 b - 4 b^2) t^2 - 2 b t^4) / (1 + t^2)^4,

  positive near 0 and negative at infinity for b = ln 2 (and mirrored
  for b = -ln 2).  lim f' = exp(-b) and c = 2 pi (1 - exp(-b)).  The
  rational expression is shipped as a single segment on [0, 4096); past
  that a power tail with exponent 4 continues it, with its amplitude
  matched at the junction (the exact far tail is -2b/t^4 + O(t^-6), so
  the substitution perturbs the total curvature only at O(4096^-3)).
* ``moment_boundary``: K = -1/(1+t)^2, the edge case whose negative
  first moment just diverges; f = m = ((1+t)^phi - (1+t)^(1-phi))/sqrt5
  with phi the golden ratio, so f' and m' grow without bound (like
  t^0.618).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .curvature_profile import (
    CurvatureProfile,
    PowerDecayTail,
    Segment,
    constant_profile,
    power_tail_profile,
    zero_profile,
)
from .errors import GalleryLookupError

__all__ = ["GalleryEntry", "list_gallery", "entry_by_name",
           "BETA_SEGMENT_END"]

# Where the exact rational expression of the beta family hands over to its
# matched power tail.  Equal to the default analysis window, so the whole
# solved range uses the exact expression.
BETA_SEGMENT_END = 4096.0

_TWO_PI = 2.0 * math.pi
_SQRT6 = math.sqrt(6.0)


@dataclass(frozen=True)
class GalleryEntry:
    """A named curvature profile with optional closed-form reference values.

    ``oracle`` maps quantity names ("c", "slope_limit", "m_prime_inf") to
    floats, or to the string "divergent".  ``notes`` records where each
    closed form comes from.
    """

    name: str
    profile: CurvatureProfile
    oracle: dict = field(default_factory=dict)
    notes: str = ""

    def oracle_summary(self) -> str:
        if not self.oracle:
            return "no closed form"
        parts = []
        for key, val in self.oracle.items():
            parts.append(f"{key}={val:.6g}" if isinstance(val, float)
                         else f"{key}={val}")
        return ", ".join(parts)


def beta_profile(beta: float, segment_end: float = BETA_SEGMENT_END) -> CurvatureProfile:
    """Exact rational curvature of f = t exp(-beta t^2/(1+t^2))."""
    num = (6.0 * beta, 0.0, 4.0 * beta - 4.0 * beta * beta, 0.0, -2.0 * beta)
    den = (1.0, 0.0, 4.0, 0.0, 6.0, 0.0, 4.0, 0.0, 1.0)  # (1+t^2)^4
    seg = Segment(0.0, segment_end, num, den)
    # match the power tail to the segment value at the junction so the
    # profile stays continuous to rounding
    a = seg.evaluate(segment_end) * (1.0 + segment_end) ** 4
    return CurvatureProfile((seg,), PowerDecayTail(a, 4.0))


def abresch_f(t: float) -> float:
    """Closed-form warping function of the abresch_tail family."""
    return (1.0 + t) * math.sinh(_SQRT6 * t / (1.0 + t)) / _SQRT6


def abresch_fp(t: float) -> float:
    """Closed-form derivative of the abresch_tail warping function."""
    u = _SQRT6 * t / (1.0 + t)
    return math.sinh(u) / _SQRT6 + math.cosh(u) / (1.0 + t)


def _entries() -> list[GalleryEntry]:
    beta = math.log(2.0)
    abresch_slope = math.sinh(_SQRT6) / _SQRT6
    return [
        GalleryEntry(
            name="flat",
            profile=zero_profile(),
            oracle={"c": 0.0, "slope_limit": 1.0, "m_prime_inf": 1.0},
            notes="f = t exactly; every quantity is elementary",
        ),
        GalleryEntry(
            name="hyperbolic",
            profile=constant_profile(-1.0),
            oracle={"c": "divergent", "slope_limit": "divergent",
                    "m_prime_inf": "divergent"},
            notes="f = sinh t; the negative curvature integral diverges",
        ),
        GalleryEntry(
            name="spherical",
            profile=constant_profile(1.0),
            oracle={"first_zero": math.pi},
            notes="f = sin t vanishes at pi: compact model, used to check "
                  "that downstream analysis refuses it",
        ),
        GalleryEntry(
            name="abresch_tail",
            profile=power_tail_profile(-6.0, 4.0),
            oracle={"c": _TWO_PI * (1.0 - abresch_slope),
                    "slope_limit": abresch_slope,
                    "m_prime_inf": abresch_slope},
            notes="closed form f = (1+t) sinh(sqrt6 t/(1+t))/sqrt6; slope "
                  "limit sinh(sqrt6)/sqrt6; K <= 0 so m = f",
        ),
        GalleryEntry(
            name="sign_changing_beta_ln2",
            profile=beta_profile(beta),
            oracle={"c": math.pi, "slope_limit": 0.5,
                    "m_prime_inf": 1.1214340586},
            notes="c = 2 pi (1 - e^-b) with b = ln 2; curvature starts at "
                  "6 ln 2 > 0 and is negative at infinity; m' limit from a "
                  "high-accuracy reference integration",
        ),
        GalleryEntry(
            name="sign_changing_beta_neg_ln2",
            profile=beta_profile(-beta),
            oracle={"c": -_TWO_PI, "slope_limit": 2.0,
                    "m_prime_inf": 2.1273491144},
            notes="c = 2 pi (1 - e^b) = -2 pi with b = ln 2; curvature "
                  "starts negative and is positive at infinity, so the "
                  "negative part has compact support and m' freezes early",
        ),
        GalleryEntry(
            name="moment_boundary",
            profile=power_tail_profile(-1.0, 2.0),
            oracle={"c": "divergent", "slope_limit": "divergent",
                    "m_prime_inf": "divergent"},
            notes="f = ((1+t)^phi - (1+t)^(1-phi))/sqrt5 with phi the golden "
                  "ratio; the negative first moment diverges logarithmically",
        ),
    ]


def list_gallery() -> list[GalleryEntry]:
    """All built-in families, in a stable order."""
    return _entries()


def entry_by_name(name: str) -> GalleryEntry:
    """Look up one gallery family by name."""
    for entry in _entries():
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in _entries())
    raise GalleryLookupError(f"unknown gallery entry {name!r}; known: {known}")
