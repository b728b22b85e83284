"""Print the sha256 of every gallery report, of three reports with volume
samples, of a sweep's sign split, of solver nodes, of dense reads and of
ball volumes, to tell whether report bytes, sign pieces, solver bits or
volume bits moved between two checkouts.

    python3 tools/report_digest.py

prints one line per gallery entry and n in {2, 3, 5}: the sha256 of
``report_to_json(evaluate_theorem(entry.profile, n))``, or of
``refused: <message>`` when the entry is refused with
ModelCompactnessError, then the entry and n.  Then one line for each of
flat, abresch_tail and sign_changing_beta_ln2 at n = 3 with samples: 1000
ball volumes per entry from ``bench/inputs.certify_samples`` at a fixed
seed, written as a CSV to a temporary directory and read back with
``ingest_samples``.  Last, one line for the sign split: the sha256 of
``repr(seg.sign_pieces)``, one line per segment, over every segment of
``bench/inputs.sweep_profiles`` at a fixed seed.  Last, one line for the
solver: the sha256 of the nodes, f'' values and counts of ``solve`` and
``solve_m`` at tol 1e-8 on [0, 50], every float as ``float.hex``, over the
first 200 of those sweep profiles.  Last, one line for the closed form of
constant pieces: the sha256 of the same text of ``solve`` on
``constant_profile(kappa)`` on [0, DEFAULT_T_END] for kappa in {-4, -1,
-1e-6, 0, 1e-6, 1, 4}, at tol 1e-8 and 1e-12.  Last, one line for
polynomial pieces: the same text of ``solve`` and ``solve_m`` on
[0, 20] on three fixed profiles with sign-changing polynomial segments of
degree 1, 2 and 5, at tol 1e-6, 1e-8 and 1e-12.  Last, one line for
rational segments and power tails: the same text of ``solve`` and
``solve_m`` on the gallery's abresch_tail, moment_boundary and both beta
entries on [0, DEFAULT_T_END], and on the first 20 profiles of the family
K = (k0 - c t)/(1 + d t^2) on [0, t1), then -k2/(1 + d t^2) up to t2, then
a zero tail (``default_rng(3)``) on [0, 50], at tol 1e-6, 1e-8 and 1e-12.
Last, one line for the dense output: the sha256 of f, f', m and m', every
float as ``float.hex``, at 33 evenly spaced points of [0, min(f's end,
m's end)] on each of the first 200 sweep profiles of the solver line, each
read once by the array path and once point by point.  Last, one line for
ball volumes: the sha256 of ``log_ball_volumes``, every float as
``float.hex``, on the solution of every gallery entry without a first
zero (``solve`` on [0, DEFAULT_T_END] at DEFAULT_TOL), at n in {2, 3,
40}, taken at 0, at every node, at every step midpoint and at t_end.  It
imports radialgeo from
the ``src`` directory of its own checkout, and the inputs from its ``bench``
directory, so running a copy of it in another checkout digests that
checkout's reports, sign pieces and solver bits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "bench")]

import inputs  # noqa: E402  (numpy only)
from radialgeo import (  # noqa: E402
    ConstantTail,
    CurvatureProfile,
    ModelCompactnessError,
    ModelSpace,
    Segment,
    ZeroTail,
    constant_profile,
    entry_by_name,
    evaluate_theorem,
    ingest_samples,
    list_gallery,
    report_to_json,
    solve,
    solve_m,
)
from radialgeo.model_space import log_ball_volumes  # noqa: E402
from radialgeo.pipeline import DEFAULT_T_END, DEFAULT_TOL  # noqa: E402

DIMENSIONS = (2, 3, 5)
SAMPLE_ENTRIES = ("flat", "abresch_tail", "sign_changing_beta_ln2")
SAMPLE_N = 3
SAMPLE_COUNT = 1000
SAMPLE_SEED = 1
SWEEP_SEED = 1
SWEEP_COUNT = 2000
SWEEP_BLOCK = 100
SOLVE_COUNT = 200
SOLVE_T_END = 50.0
SOLVE_TOL = 1e-8
DENSE_POINTS = 33
CONSTANT_KAPPAS = (-4.0, -1.0, -1e-6, 0.0, 1e-6, 1.0, 4.0)
CONSTANT_TOLS = (1e-8, 1e-12)
# (degree, segments, tail): each K changes sign on its polynomial segment
POLYNOMIAL_PROFILES = (
    (1, ((0.0, 10.0, (0.5, -0.2)),), ZeroTail()),
    (2, ((0.0, 6.0, (-1.0, 1.5, -0.3)),), ConstantTail(-0.1)),
    (5, ((0.0, 1.0, (0.2,)), (1.0, 5.0, (0.3, -1.0, 0.8, -0.2, 0.02, -0.001))), ZeroTail()),
)
POLYNOMIAL_T_END = 20.0
POLYNOMIAL_TOLS = (1e-6, 1e-8, 1e-12)
RATIONAL_ENTRIES = ("abresch_tail", "moment_boundary", "sign_changing_beta_ln2",
                    "sign_changing_beta_neg_ln2")
RATIONAL_SEED = 3
RATIONAL_COUNT = 20
RATIONAL_T_END = 50.0
RATIONAL_TOLS = (1e-6, 1e-8, 1e-12)
VOLUME_DIMENSIONS = (2, 3, 40)


def rational_family(rng: np.random.Generator, count: int) -> list:
    """``count`` profiles K = (k0 - c t)/(1 + d t^2) on [0, t1), then
    -k2/(1 + d t^2) up to t2, then a zero tail, with k0 = 10^U[-5, -3],
    c ~ U[0.3, 1], d = 10^U[-3, -1], t1 ~ U[5, 20], k2 ~ U[0.05, 1] and
    t2 - t1 ~ U[1, 30], drawn in that order."""
    profiles = []
    for _ in range(count):
        k0, c, d = 10.0 ** rng.uniform(-5, -3), rng.uniform(0.3, 1.0), 10.0 ** rng.uniform(-3, -1)
        t1, k2 = rng.uniform(5, 20), rng.uniform(0.05, 1.0)
        t2 = t1 + rng.uniform(1, 30)
        den = (1.0, 0.0, d)
        profiles.append(CurvatureProfile((Segment(0.0, t1, (k0, -c), den),
                                          Segment(t1, t2, (-k2,), den)), ZeroTail()))
    return profiles


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _solution_text(sol) -> str:
    arrays = (sol.ts, sol.fs, sol.fps, sol.d2_left, sol.d2_right)
    zero = "none" if sol.first_zero is None else sol.first_zero.hex()
    return "".join(" ".join(map(float.hex, a.tolist())) + "\n" for a in arrays) + (
        f"{sol.n_steps} {sol.n_rejected} {zero} {sol.truncated}\n")


def digest_lines() -> list[str]:
    lines = []
    for entry in list_gallery():
        for n in DIMENSIONS:
            try:
                text = report_to_json(evaluate_theorem(entry.profile, n))
            except ModelCompactnessError as exc:
                text = f"refused: {exc}"
            lines.append(f"{_sha(text)}  {entry.name} n={n}")
    rng = np.random.default_rng(SAMPLE_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        for name in SAMPLE_ENTRIES:
            radii, vols = inputs.certify_samples(rng, name, SAMPLE_N, SAMPLE_COUNT,
                                                 DEFAULT_T_END)
            path = Path(tmp) / f"{name}.csv"
            path.write_text("t,vol\n" + "".join(
                f"{t!r},{v!r}\n" for t, v in zip(radii.tolist(), vols.tolist())),
                encoding="utf-8")
            # the report names its samples file: a fixed name keeps the
            # temporary directory out of the bytes
            samples = dataclasses.replace(ingest_samples(str(path), SAMPLE_N),
                                          source=path.name)
            text = report_to_json(evaluate_theorem(entry_by_name(name).profile,
                                                   SAMPLE_N, samples=samples))
            lines.append(f"{_sha(text)}  {name} n={SAMPLE_N} samples")
    profiles = inputs.sweep_profiles(np.random.default_rng(SWEEP_SEED),
                                     SWEEP_COUNT, SWEEP_BLOCK)
    text = "".join(f"{Segment(lo, hi, (c0, c1)).sign_pieces!r}\n"
                   for segments in profiles for lo, hi, c0, c1 in segments)
    lines.append(f"{_sha(text)}  sweep sign pieces seed={SWEEP_SEED}")
    text = dense = ""
    for segments in profiles[:SOLVE_COUNT]:
        profile = CurvatureProfile(tuple(Segment(lo, hi, (c0, c1))
                                         for lo, hi, c0, c1 in segments), ZeroTail())
        f, m = (solver(profile, SOLVE_T_END, SOLVE_TOL) for solver in (solve, solve_m))
        text += _solution_text(f) + _solution_text(m)
        grid = np.linspace(0.0, min(f.t_end, m.t_end), DENSE_POINTS)
        for read in (f.f, f.fp, m.f, m.fp):
            dense += (" ".join(map(float.hex, read(grid).tolist())) + "\n"
                      + " ".join(float.hex(read(t)) for t in grid.tolist()) + "\n")
    lines.append(f"{_sha(text)}  sweep solves seed={SWEEP_SEED} "
                 f"count={SOLVE_COUNT} tol={SOLVE_TOL:g}")
    text = "".join(_solution_text(solve(constant_profile(kappa), DEFAULT_T_END, tol))
                   for kappa in CONSTANT_KAPPAS for tol in CONSTANT_TOLS)
    lines.append(f"{_sha(text)}  constant pieces kappa={','.join(map(format, CONSTANT_KAPPAS))} "
                 f"tol={','.join(map(format, CONSTANT_TOLS))}")
    text = ""
    for _, segments, tail in POLYNOMIAL_PROFILES:
        profile = CurvatureProfile(tuple(Segment(lo, hi, num) for lo, hi, num in segments), tail)
        text += "".join(_solution_text(solver(profile, POLYNOMIAL_T_END, tol))
                        for tol in POLYNOMIAL_TOLS for solver in (solve, solve_m))
    degrees = ",".join(str(degree) for degree, *_ in POLYNOMIAL_PROFILES)
    lines.append(f"{_sha(text)}  polynomial pieces degree={degrees} "
                 f"tol={','.join(map(format, POLYNOMIAL_TOLS))}")
    cases = [(entry_by_name(name).profile, DEFAULT_T_END) for name in RATIONAL_ENTRIES]
    cases += [(profile, RATIONAL_T_END) for profile in
              rational_family(np.random.default_rng(RATIONAL_SEED), RATIONAL_COUNT)]
    text = "".join(_solution_text(solver(profile, t_end, tol)) for profile, t_end in cases
                   for tol in RATIONAL_TOLS for solver in (solve, solve_m))
    lines.append(f"{_sha(text)}  rational and tail pieces seed={RATIONAL_SEED} "
                 f"count={RATIONAL_COUNT} tol={','.join(map(format, RATIONAL_TOLS))}")
    lines.append(f"{_sha(dense)}  dense reads seed={SWEEP_SEED} count={SOLVE_COUNT} "
                 f"points={DENSE_POINTS}")
    text = ""
    for entry in list_gallery():
        f = solve(entry.profile, DEFAULT_T_END, DEFAULT_TOL)
        if f.first_zero is not None:
            continue
        radii = np.sort(np.concatenate(([0.0], f.ts, 0.5 * (f.ts[:-1] + f.ts[1:]), [f.t_end])))
        text += "".join(" ".join(map(float.hex, log_ball_volumes(ModelSpace(n, f), radii))) + "\n"
                        for n in VOLUME_DIMENSIONS)
    lines.append(f"{_sha(text)}  ball volumes n={','.join(map(str, VOLUME_DIMENSIONS))}")
    return lines


if __name__ == "__main__":
    print("\n".join(digest_lines()))
