"""The full certification pipeline.

Feed a curvature profile, a dimension, and (optionally) measured ball
volumes of a manifold whose radial curvature is bounded below by the
profile.  The pipeline computes every model quantity, checks the data
against Bishop-Gromov monotonicity, and emits exactly the conclusions
the numbers support: existence of the volume growth limit, and (when the
limit is certifiably nonzero) finite topological type plus a cap on the
number of ends.
"""

import json
import math

import radialgeo as rg
from radialgeo.pipeline import VolumeSamples, evaluate_theorem, report_to_json

PI = math.pi

print("=" * 72)
print("1. a manifold that looks 80% as large as its comparison model")
print("=" * 72)

entry = rg.entry_by_name("sign_changing_beta_ln2")
opts = rg.AnalysisOptions()

# synthesize samples: 0.8 x the model volumes at a few radii
f = rg.solve(entry.profile, opts.t_end, opts.tol)
ms = rg.ModelSpace(n=3, f=f)
radii = tuple(256.0 * k for k in range(1, 9))
model_vols = rg.ball_volumes(ms, radii)
samples = VolumeSamples(t=radii, vol=tuple(0.8 * v for v in model_vols), n=3)

report = evaluate_theorem(entry.profile, 3, opts, samples)
print(f"total curvature          c = {report.total_curvature.value:+.6f}")
print(f"slope limit                = {report.slope_limit.value:.6f}")
print(f"m' limit                   = {report.m_prime_limit.value:.6f}")
print(f"model growth (closed form) = {report.growth.closed_form.value:.6f}")
print(f"volume ratio limit         = {report.ratio_limit.value:.6f}")
print(f"manifold growth limit      = {report.manifold_growth_limit.value:.6f}")
print(f"ends bound                 = {report.ends.integer_bound} "
      f"(raw {report.ends.raw_bound:.4f})")
print("conclusions:")
for c in report.conclusions:
    print(f"  - {c.statement}")
print("warnings:", report.warnings or "none")

print()
print("=" * 72)
print("2. data violating Bishop-Gromov monotonicity withdraw the claims")
print("=" * 72)

bad = VolumeSamples(t=(1.0, 2.0), vol=(0.5 * PI, 0.6 * 4.0 * PI), n=2)
report = evaluate_theorem(rg.zero_profile(), 2, samples=bad)
print("conclusions:", [c.statement for c in report.conclusions])
print("warnings:")
for w in report.warnings:
    print(f"  - {w}")

print()
print("=" * 72)
print("3. a hypothesis failure is reported, not papered over")
print("=" * 72)

report = evaluate_theorem(rg.constant_profile(-1.0), 2)
print("hypothesis_ok:", report.hypothesis_ok)
print("classification:", report.total_curvature.classification.value)
print("conclusions:", report.conclusions)

print()
print("=" * 72)
print("4. the deterministic JSON report (what `radialgeo analyze` writes)")
print("=" * 72)

report = evaluate_theorem(rg.zero_profile(), 2, samples=VolumeSamples(
    t=(1.0, 2.0, 3.0), vol=(PI, 4 * PI, 9 * PI), n=2))
text = report_to_json(report)
data = json.loads(text)
print(json.dumps(data, indent=2)[:1200])
print("...")
print(f"(full report: {len(text)} bytes, byte-identical across reruns)")
