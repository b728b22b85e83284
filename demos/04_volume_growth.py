"""Volume growth of n-dimensional model spaces.

The model space pairs the warping function with a dimension n: metric
balls have volume omega_{n-1} * integral f^{n-1}.  The asymptotic
coefficient lim vol B_t / t^n comes out two independent ways, direct
probing and a closed form from total curvature, and the two must agree.
"""

import math

import radialgeo as rg

PI = math.pi

print("=" * 72)
print("1. unit sphere volumes (the omega_{n-1} factor)")
print("=" * 72)

closed = {2: "2 pi", 3: "4 pi", 4: "2 pi^2", 5: "8 pi^2/3"}
for n in range(2, 8):
    note = f"  = {closed[n]}" if n in closed else ""
    print(f"omega_{n-1} = {rg.unit_sphere_volume(n):.9f}{note}")

print()
print("=" * 72)
print("2. ball volumes against closed forms")
print("=" * 72)

flat = rg.solve(rg.zero_profile(), 64.0, 1e-10)
ms2 = rg.ModelSpace(n=2, f=flat)
ms3 = rg.ModelSpace(n=3, f=flat)
print(f"flat disk  r=3: {rg.ball_volume(ms2, 3.0):.9f}  (9 pi = {9 * PI:.9f})")
print(f"flat ball  r=2: {rg.ball_volume(ms3, 2.0):.9f}  (32 pi/3 = {32 * PI / 3:.9f})")

hyp = rg.solve(rg.constant_profile(-1.0), 4.0, 1e-10)
ms3h = rg.ModelSpace(n=3, f=hyp)
print(f"hyperbolic ball r=1: {rg.ball_volume(ms3h, 1.0):.9f}  "
      f"(pi (sinh 2 - 2) = {PI * (math.sinh(2.0) - 2.0):.9f})")

print()
print("=" * 72)
print("3. growth coefficient, two routes")
print("=" * 72)

print(f"{'family':28s} {'n':>2s} {'direct':>12s} {'closed form':>12s} {'diff':>9s}")
for name, n in (("flat", 2), ("flat", 3), ("abresch_tail", 2),
                ("sign_changing_beta_ln2", 2), ("sign_changing_beta_ln2", 3)):
    prof = rg.entry_by_name(name).profile
    sol = rg.solve(prof, 4096.0, 1e-8)
    tc = rg.total_curvature(sol)
    g = rg.growth_coefficient(rg.ModelSpace(n=n, f=sol), tc)
    print(f"{name:28s} {n:2d} {g.direct.value:12.8f} "
          f"{g.closed_form.value:12.8f} {g.discrepancy:9.2e}")
print(f"(flat n=2 should be pi = {PI:.8f}, n=3 should be 4 pi/3 = {4 * PI / 3:.8f};")
print(" the beta family with c = pi gives pi/2 at n = 2)")

print()
print("=" * 72)
print("4. nonnegative curvature stays below the flat count (Bishop direction)")
print("=" * 72)

prof = rg.CurvatureProfile((rg.Segment(0.0, 1.0, (1.0,)),), rg.ZeroTail())
sol = rg.solve(prof, 10.0, 1e-10)
ms = rg.ModelSpace(n=3, f=sol)
print("  t    vol B_t      flat omega t^3/3   ratio")
for t in (0.5, 1.0, 3.0, 10.0):
    v = rg.ball_volume(ms, t)
    flat_v = rg.unit_sphere_volume(3) * t ** 3 / 3
    print(f"  {t:4.1f} {v:12.6f} {flat_v:15.6f} {v / flat_v:9.6f}")
