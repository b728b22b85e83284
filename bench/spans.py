"""Spans around calls into radialgeo's public functions.

The traced run rebinds, in every loaded radialgeo module, each name that
refers to a target function to a timing wrapper.  The library's own calls
between modules (``evaluate_theorem`` calling ``solve``, ``m_prime_limit``
re-solving at each horizon) then pass through the wrappers, so every
layer is timed from outside without changing the program.  Spans are kept
in memory and folded into per-layer totals by ``layer_totals``.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Public functions timed in the traced run, as (module, function).
TARGETS = (
    ("curvature_profile", "negative_part"),
    ("jacobi", "solve"),
    ("jacobi", "solve_m"),
    ("asymptotics", "total_curvature"),
    ("asymptotics", "slope_limit"),
    ("asymptotics", "m_prime_limit"),
    ("model_space", "growth_coefficient"),
    ("model_space", "ball_volumes"),
    ("ends", "ends_bound"),
    ("pipeline", "ingest_samples"),
    ("pipeline", "bg_ratio_check"),
    ("pipeline", "evaluate_theorem"),
    ("pipeline", "report_to_json"),
)


def _solver_counts(sol):
    return {"steps": sol.n_steps, "rejected": sol.n_rejected}


# Counts read from a call's result, by layer.
_COUNTERS = {
    "jacobi.solve": _solver_counts,
    "jacobi.solve_m": _solver_counts,
    "asymptotics.m_prime_limit": lambda limit: {"divergent": int(limit.divergent)},
    "model_space.ball_volumes": lambda volumes: {"radii": len(volumes)},
    "pipeline.ingest_samples": lambda samples: {"rows": len(samples)},
    "pipeline.report_to_json": lambda text: {"bytes": len(text.encode("utf-8"))},
}


class Span:
    __slots__ = ("op", "name", "start", "end", "counts")

    def __init__(self, op: int, name: str, start: float):
        self.op = op
        self.name = name
        self.start = start
        self.end = start
        self.counts: dict = {}


class Tracer:
    """Records spans that share an op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sp = Span(self.op, name, time.perf_counter())
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    # a limit that did not settle is an answer, not a failure
                    if type(exc).__name__ == "ConvergenceError":
                        sp.counts["not_settled"] = 1
                    raise
                if counter is not None:
                    sp.counts.update(counter(result))
                return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets the package lacks."""
        missing = []
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "radialgeo"
                                         or key.startswith("radialgeo."))]
        for mod_name, fn_name in TARGETS:
            home = sys.modules.get(f"radialgeo.{mod_name}")
            original = getattr(home, fn_name, None) if home else None
            if original is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))
        return missing

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per layer: calls, busy_s (inclusive of nested spans) and summed counts."""
    totals: dict[str, dict] = {}
    for sp in spans:
        t = totals.setdefault(sp.name, {"calls": 0, "busy_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += sp.end - sp.start
        for key, value in sp.counts.items():
            t[key] = t.get(key, 0) + value
    return totals
