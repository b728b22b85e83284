"""radialgeo benchmark: end-to-end and per-layer timings of three workloads.

Run from the root of a radialgeo checkout:

    python3 bench/run.py --workload gallery --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``gallery``: every gallery entry x n in {2, 3} through evaluate_theorem
  and report_to_json, without samples;
* ``sweep``: seeded random profiles of acceptance criterion 7 through
  solve and solve_m, with the criterion's invariants checked on a grid;
* ``certify``: finite entries at n = 3 certified against ~1e3 seeded
  ball volumes read by ingest_samples.

The library is imported from ./src and driven in this process: one
process, one thread, one closed-loop client running the workload's ops
round-robin for ``--seconds``.  Every op is checked; a wrong output or an
unexpected exception counts as a failed op.

``--trace 0`` reports the end-to-end metrics. The host's speed drifts,
so op times are reported in ku, units of the calibration kernel timed
around every op (see calibrate.py), and CLI times in x_start, units of a
bare interpreter start timed around every CLI run; ``setup_s`` stays in
seconds. Set-ups and CLI runs are spread over the run. ``--trace 1``
alternates untraced and traced passes over the workload's first block of
ops and reports per-layer metrics per traced pass, timed from outside by
wrapping the public functions of each module (see spans.py), plus
``trace.overhead_s``, the traced pass time minus the untraced one.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# relative to ROOT, so report bytes carry no absolute path
WORK_DIR = Path(".bench_work")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# one thread per pool, here and in every child, set before numpy loads
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import calibrate  # noqa: E402
import numpy  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 9
CLI_RUNS = 9
CHILD_TIMEOUT_S = 120
KERNEL_REACH = 2

IMPORT_PROBE = ("import time; t = time.perf_counter(); import radialgeo; "
                "print(time.perf_counter() - t)")
# the console-script target, as `radialgeo ...` would run it
CLI_PROBE = "import sys; from radialgeo.pipeline import main; sys.argv[0] = 'radialgeo'; main()"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_ku": "op/ku",
    "latency_ku.p50": "ku",
    "latency_ku.p90": "ku",
    "peak_rss_mb": "MB",
    "cli_x_start": "x_start",
}

PER_LAYER_UNITS = {
    "jacobi.solve.calls": "count",
    "jacobi.solve.busy_s": "s",
    "jacobi.solve.steps": "count",
    "jacobi.solve.rejected": "count",
    "jacobi.solve.accept_ratio": "ratio",
    "jacobi.solve.us_per_step": "us",
    "jacobi.solve.rhs_evals": "count",
    "jacobi.solve_m.calls": "count",
    "jacobi.solve_m.busy_s": "s",
    "jacobi.solve_m.steps": "count",
    "jacobi.solve_m.rejected": "count",
    "curvature_profile.negative_part.calls": "count",
    "curvature_profile.negative_part.busy_s": "s",
    "jacobi.dense.points": "count",
    "jacobi.dense.busy_s": "s",
    "jacobi.dense.ns_per_point": "ns",
    "asymptotics.m_prime_limit.calls": "count",
    "asymptotics.m_prime_limit.busy_s": "s",
    "asymptotics.m_prime_limit.divergent": "count",
    "asymptotics.m_prime_limit.not_settled": "count",
    "asymptotics.total_curvature.busy_s": "s",
    "asymptotics.slope_limit.busy_s": "s",
    "model_space.growth_coefficient.busy_s": "s",
    "model_space.ball_volumes.radii": "count",
    "model_space.ball_volumes.busy_s": "s",
    "model_space.ball_volumes.us_per_radius": "us",
    "pipeline.bg_ratio_check.busy_s": "s",
    "pipeline.ingest_samples.rows": "count",
    "pipeline.ingest_samples.busy_s": "s",
    "ends.ends_bound.busy_s": "s",
    "pipeline.evaluate_theorem.busy_s": "s",
    "pipeline.report_to_json.busy_s": "s",
    "pipeline.report_to_json.bytes": "B",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gallery", "sweep", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)


def run_op(op, tracer, tally: Tally, check_failed) -> float:
    """Run one op; returns its wall time.  Failures are tallied."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        op(tracer)
    except check_failed as exc:
        tally.fail(f"check failed: {exc}")
    except Exception:
        tally.fail("unexpected exception:\n" + traceback.format_exc())
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_seconds(env) -> float:
    """Time to import radialgeo (and numpy) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip())


def set_up(workloads, name, seed, env, tally, index):
    """Build the workload in its own directory and run its warm-up op;
    returns it and the set-up time (import + inputs + warm-up)."""
    import_s = import_seconds(env)
    work_dir = WORK_DIR / str(index)
    work_dir.mkdir(parents=True)
    start = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed, work_dir)
    run_op(workload.warmup(), None, tally, workloads.CheckFailed)
    return workload, import_s + time.perf_counter() - start


def timed_loop(workload, seconds, tally, check_failed, interludes):
    """Run blocks round-robin for ``seconds`` of op time, finishing the
    block in progress so every run keeps the op mix of whole blocks.

    The calibration kernel runs before every op and once after the last.
    The ``interludes`` run one at a time between ops, spread evenly over
    the run once the first block is done, so that what they measure
    samples the whole run rather than one phase of the host's speed.
    Their time is not op time.
    """
    blocks = workload.blocks()
    latencies, kernels = [], []
    start = time.perf_counter()
    paused = 0.0
    b = done = 0
    while True:
        for op in blocks[b % len(blocks)]:
            kernels.append(calibrate.kernel_seconds())
            latencies.append(run_op(op, None, tally, check_failed))
            now = time.perf_counter()
            due = (done + 1) * seconds / (len(interludes) + 1)
            if b and done < len(interludes) and now - start - paused >= due:
                interludes[done]()
                done += 1
                paused += time.perf_counter() - now
        b += 1
        if time.perf_counter() - start - paused >= seconds:
            break
    kernels.append(calibrate.kernel_seconds())
    for interlude in interludes[done:]:
        interlude()
    return latencies, kernels, time.perf_counter() - start - paused


def in_ku(times, kernels):
    """Each time over the median of the kernel runs around it.

    ``kernels[i]`` ran just before ``times[i]`` and ``kernels[i + 1]``
    just after; the median also takes KERNEL_REACH more runs on each side,
    which damps the noise of single kernel runs while still following
    drift that lasts seconds.
    """
    return [t / statistics.median(kernels[max(0, i - KERNEL_REACH):
                                          i + 2 + KERNEL_REACH])
            for i, t in enumerate(times)]


def start_seconds(env) -> float:
    """Wall time of a bare interpreter start that imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=ROOT,
                   capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - start


def cli_run(args, check, env, tally, check_failed) -> tuple[float, float]:
    """One CLI run between two bare interpreter starts; returns its wall
    time over theirs.

    The CLI's wall time is mostly interpreter start-up, which the host's
    load slows differently from in-process work, so it is measured in
    bare starts rather than kernel units.
    """
    before = start_seconds(env)
    tally.attempted += 1
    start = time.perf_counter()
    stderr = ""
    try:
        proc = subprocess.run([sys.executable, "-c", CLI_PROBE, *args], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        stderr = proc.stderr.strip()
        check(proc.returncode)
    except check_failed as exc:
        tally.fail(f"CLI {' '.join(args)}: {exc}\nstderr: {stderr}")
    except Exception:
        tally.fail(f"CLI {' '.join(args)}: unexpected exception:\n"
                   f"{traceback.format_exc()}stderr: {stderr}")
    elapsed = time.perf_counter() - start
    after = start_seconds(env)
    return elapsed, elapsed / (0.5 * (before + after))


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workloads, workload, first_setup_s, args, env, tally):
    check_failed = workloads.CheckFailed
    setup_times = [first_setup_s]
    runs = workload.cli_runs()
    cli_times = []
    cli_rel = [[] for _ in runs]  # by command

    def set_up_again():
        setup_times.append(set_up(workloads, args.workload, args.seed, env, tally,
                                  len(setup_times))[1])

    def cli_again():
        k = len(cli_times) % len(runs)
        elapsed, rel = cli_run(*runs[k], env, tally, check_failed)
        cli_times.append(elapsed)
        cli_rel[k].append(rel)

    interludes = [cli_again] * CLI_RUNS
    for i in range(SETUP_REPEATS - 1):
        interludes.insert(2 * i, set_up_again)
    latencies, kernels, elapsed = timed_loop(workload, args.seconds, tally,
                                             check_failed, interludes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rel = in_ku(latencies, kernels)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_ku": len(rel) / sum(rel),
        "latency_ku.p50": statistics.median(rel),
        "latency_ku.p90": p90(rel),
        "peak_rss_mb": peak_rss_mb,
        # commands differ in cost, so the median of a mix of them would
        # follow the few runs of whichever command sits in the middle
        "cli_x_start": statistics.fmean(statistics.median(r) for r in cli_rel),
    }
    n = len(latencies)
    beyond = sum(1 for x in rel if x > values["latency_ku.p90"])
    samples = {
        "setup_s": f"median of {len(setup_times)} set-ups spread over the run: "
                   + " ".join(f"{t:.4f}" for t in setup_times),
        "ops_per_ku": f"{n} ops",
        "latency_ku.p50": f"n={n}",
        "latency_ku.p90": f"n={n}, {beyond} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
        "cli_x_start": f"mean over {len(runs)} commands of the median of "
                       f"{len(cli_times)} CLI runs spread over the run",
    }
    # the same figures in wall-clock units, for reading; they drift with the host
    raw = {
        "ops_per_s": (n / elapsed, "1/s", f"{n} ops in {elapsed:.3f} s"),
        "latency_ms.p50": (1e3 * statistics.median(latencies), "ms", f"n={n}"),
        "latency_ms.p90": (1e3 * p90(latencies), "ms", f"n={n}"),
        "cli_s": (statistics.median(cli_times), "s", f"median of {len(cli_times)} CLI runs"),
        "kernel_ms": (1e3 * statistics.median(kernels), "ms",
                      f"median of {len(kernels)} calibration runs = 1 ku"),
    }
    return values, samples, raw


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics of one traced pass from its layer totals."""
    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    steps, rejected = get("jacobi.solve", "steps"), get("jacobi.solve", "rejected")
    out = {
        "jacobi.solve.accept_ratio": ratio(steps, steps + rejected),
        "jacobi.solve.us_per_step": ratio(get("jacobi.solve", "busy_s"), steps, 1e6),
        # computed: six right-hand-side evaluations per attempted step
        "jacobi.solve.rhs_evals": 6 * (steps + rejected),
        "jacobi.dense.ns_per_point": ratio(get("jacobi.dense", "busy_s"),
                                           get("jacobi.dense", "points"), 1e9),
        "model_space.ball_volumes.us_per_radius": ratio(
            get("model_space.ball_volumes", "busy_s"),
            get("model_space.ball_volumes", "radii"), 1e6),
    }
    for name in PER_LAYER_UNITS:
        if name not in out and name != "trace.overhead_s":
            layer, key = name.rsplit(".", 1)
            out[name] = get(layer, key)
    return out


def per_layer(workload, seconds, tally, check_failed):
    """Alternate untraced and traced passes over the first block, taking
    turns at going first so that neither side gains from the order."""
    block = workload.blocks()[0]
    untraced, traced, passes = [], [], []
    missing: list[str] = []
    op_id = 0

    def untraced_pass():
        start = time.perf_counter()
        for op in block:
            run_op(op, None, tally, check_failed)
        untraced.append(time.perf_counter() - start)

    def traced_pass():
        nonlocal op_id, missing
        tracer = spans.Tracer()
        missing = tracer.install()
        try:
            start = time.perf_counter()
            for op in block:
                tracer.op = op_id
                op_id += 1
                run_op(op, tracer, tally, check_failed)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        passes.append(spans.layer_totals(tracer.spans))

    deadline = time.perf_counter() + seconds
    while True:
        first, second = ((untraced_pass, traced_pass) if len(passes) % 2 == 0
                         else (traced_pass, untraced_pass))
        first()
        second()
        if time.perf_counter() >= deadline:
            break
    per_pass = [layer_metrics(t) for t in passes]
    values = {name: statistics.median_low(m[name] for m in per_pass)
              for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    values["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced, untraced))
    return values, passes, len(block), missing


def print_layers(passes) -> None:
    names = sorted({name for t in passes for name in t})
    print(f"layers (median over {len(passes)} traced passes; busy_s includes "
          f"nested spans):")
    for name in names:
        rows = [t[name] for t in passes if name in t]
        busy = statistics.median(r["busy_s"] for r in rows)
        extra = {k: v for k, v in rows[0].items() if k not in ("calls", "busy_s")}
        extras = "".join(f" {k}={v}" for k, v in extra.items())
        print(f"  {name:40s} calls={rows[0]['calls']:<6d} busy_s={busy:.6f}{extras}")


def main(argv=None) -> int:
    args = parse_args(argv)
    tol_was_set = os.environ.pop("RADIALGEO_TOL", None) is not None
    if not (SRC / "radialgeo" / "__init__.py").is_file():
        print(f"error: no radialgeo package under {SRC}; run this from the "
              f"root of a radialgeo checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    import workloads

    env = child_env()
    tally = Tally()
    print(f"# radialgeo benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env git_sha={git_sha()} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"radialgeo_tol_was_set={str(tol_was_set).lower()} "
          f"threads={','.join(THREAD_VARS)}=1")
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    try:
        workload, first_setup_s = set_up(workloads, args.workload, args.seed, env,
                                         tally, 0)
        if args.trace:
            values, passes, block_ops, missing = per_layer(
                workload, args.seconds, tally, workloads.CheckFailed)
            print_layers(passes)
            if missing:
                print(f"note: targets not found in radialgeo: {', '.join(missing)}")
            units = PER_LAYER_UNITS
            samples = {name: f"median over {len(passes)} passes of {block_ops} ops"
                       for name in units}
        else:
            values, samples, raw = end_to_end(workloads, workload, first_setup_s,
                                              args, env, tally)
            for name, (value, unit, note) in raw.items():
                print(f"wall {name} = {value:.6g} {unit} ({note})")
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit} ({samples[name]})")
    print(f"metric fail_frac = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted} ops)")
    print(f"digest {args.workload} sha256={workload.digest()} "
          f"({len(workload.pinned)} pinned outputs)")
    for line in workload.notes():
        print(f"note {line}")
    for message in tally.messages:
        print(f"failure: {message}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
