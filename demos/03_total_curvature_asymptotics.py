"""Total curvature and asymptotic limits.

The total curvature c of the model surface splits into the positive and
negative contributions 2 pi * integral of K_{+/-} f.  It controls the
asymptotic cone angle: lim f(t)/t = 1 - c/(2 pi).  This demo computes c
with its divergence classification, the slope limit, and the limit slope
of the comparison function m, and checks them against closed forms.
"""

import math

import radialgeo as rg

TWO_PI = 2.0 * math.pi

print("=" * 72)
print("1. total curvature across the gallery")
print("=" * 72)

for entry in rg.list_gallery():
    if entry.name == "spherical":
        continue  # compact model, excluded by the noncompactness hypothesis
    sol = rg.solve(entry.profile, 4096.0, 1e-8)
    tc = rg.total_curvature(sol)
    if tc.is_finite:
        oracle = entry.oracle.get("c")
        extra = f" (oracle {oracle:+.6f})" if isinstance(oracle, float) else ""
        print(f"{entry.name:28s} c = {tc.value:+.6f} +- {tc.err:.1e}{extra}")
    else:
        print(f"{entry.name:28s} c: {tc.classification.value}")

print()
print("=" * 72)
print("2. the slope limit and the identity c = 2 pi (1 - lim f')")
print("=" * 72)

for name in ("flat", "abresch_tail", "sign_changing_beta_ln2",
             "sign_changing_beta_neg_ln2"):
    prof = rg.entry_by_name(name).profile
    sol = rg.solve(prof, 4096.0, 1e-8)
    tc = rg.total_curvature(sol)
    sl = rg.slope_limit(sol)
    print(f"{name:28s} lim f' = {sl.value:.9f}  "
          f"c - 2pi(1 - lim f') = {tc.value - TWO_PI * (1 - sl.value):+.2e}")

print()
print("=" * 72)
print("3. the m' limit: one solve of m, divergence decided analytically")
print("=" * 72)

# m solves the Jacobi equation of min(K, 0), so lim m' is the slope limit
# of that one solve: its tail past the last node is bracketed in closed form
for name in ("flat", "abresch_tail", "sign_changing_beta_ln2",
             "hyperbolic", "moment_boundary"):
    prof = rg.entry_by_name(name).profile
    ml = rg.slope_limit(rg.solve_m(prof, 4096.0, 1e-8))
    if ml.is_finite:
        print(f"{name:28s} lim m' = {ml.value:.9f} +- {ml.err:.1e}")
    else:
        print(f"{name:28s} lim m' diverges (m' at the window end {ml.value:.3e})")

print()
print("=" * 72)
print("4. lim m' against its closed form, and the (min(K,0), m) surface")
print("=" * 72)

# Total curvature telescopes the Jacobi equation: on the (min(K,0), m)
# surface, c* = 2 pi (1 - lim m') holds by construction, so it restates
# the m' limit rather than checking it.  The closed form is the check.
prof = rg.entry_by_name("abresch_tail").profile
ml = rg.slope_limit(rg.solve_m(prof, 4096.0, 1e-8))
msol = rg.solve_m(prof, 65536.0, 1e-12)
c_star = rg.total_curvature(msol)
print(f"lim m'            = {ml.value:.12f} +- {ml.err:.1e}")
print(f"closed form       = {math.sinh(math.sqrt(6)) / math.sqrt(6):.12f}")
print(f"1 - c*/(2 pi)     = {1.0 - c_star.value / TWO_PI:.12f}")
