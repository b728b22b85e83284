"""Curvature profiles: building, evaluating, splitting, classifying.

A profile is piecewise-analytic data for a radial curvature function
K(t): polynomial or rational segments on [0, t_tail), then one of three
analytic tails (zero, constant, power decay).  This demo builds a few,
splits them into positive and negative parts, and decides the
convergence of the negative first moment, which is the quantity that
decides whether the comparison machinery downstream can say anything.
"""

import numpy as np

import radialgeo as rg

print("=" * 72)
print("1. simple profiles")
print("=" * 72)

flat = rg.zero_profile()
hyperbolic = rg.constant_profile(-1.0)
decaying = rg.power_tail_profile(-6.0, 4.0)   # K = -6/(1+t)^4

for name, prof in [("flat", flat), ("hyperbolic", hyperbolic),
                   ("decaying", decaying)]:
    values = ", ".join(f"K({t:g}) = {prof.evaluate(t):+.4f}" for t in (0, 1, 10))
    print(f"{name:12s} {values}")

print()
print("=" * 72)
print("2. a piecewise profile and its signed parts")
print("=" * 72)

# K(t) = 1 - t on [0, 2), then zero: positive before t = 1, negative after
piecewise = rg.CurvatureProfile(
    (rg.Segment(0.0, 2.0, (1.0, -1.0)),), rg.ZeroTail())
neg = rg.negative_part(piecewise)
pos = rg.positive_part(piecewise)
print("breakpoints of the negative part:", neg.breakpoints)
ts = np.linspace(0.0, 3.0, 7)
print("  t      K      min(K,0)  max(K,0)")
for t in ts:
    print(f"  {t:4.2f} {piecewise.evaluate(float(t)):+7.3f} "
          f"{neg.evaluate(float(t)):+8.3f} {pos.evaluate(float(t)):+8.3f}")

print()
print("=" * 72)
print("3. the tail decides whether the negative first moment converges")
print("=" * 72)

# Segments are bounded on a bounded interval, so only the tail of min(K, 0)
# can make the integral of t * min(K, 0) diverge; tail_moment_finite
# decides it from the tail model alone, never by probing the integral.
for name, prof in [
    ("K = -1 (constant)        ", rg.constant_profile(-1.0)),
    ("K = -1/(1+t)^3           ", rg.power_tail_profile(-1.0, 3.0)),
    ("K = -1/(1+t)^2 (boundary)", rg.power_tail_profile(-1.0, 2.0)),
    ("K = +5/(1+t)             ", rg.power_tail_profile(5.0, 1.0)),
]:
    finite = rg.tail_moment_finite(rg.negative_part(prof).tail)
    print(f"{name} -> first moment of min(K,0): "
          f"{'finite' if finite else 'divergent'}")

print()
print("=" * 72)
print("4. the sign-changing rational family")
print("=" * 72)

entry = rg.entry_by_name("sign_changing_beta_ln2")
prof = entry.profile
print("notes:", entry.notes)
print(f"K(0)  = {prof.evaluate(0.0):+.6f}   (positive near the pole)")
print(f"K(10) = {prof.evaluate(10.0):+.6e} (negative at infinity)")
print("continuous at every junction:", prof.is_continuous())

print()
print("JSON form (what the CLI config expects under 'profile'):")
import json
print(json.dumps(rg.profile_to_dict(piecewise)))
