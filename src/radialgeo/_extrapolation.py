"""Richardson extrapolation for algebraically converging probe sequences."""

from __future__ import annotations

from typing import Sequence

__all__ = ["richardson_limit"]


def richardson_limit(values: Sequence[float]) -> tuple[float, float]:
    """Accelerate a sequence of probes toward its limit.

    ``values`` are ordered coarse to fine: probe k+1 was taken at an
    effective step half that of probe k (for a limit in 1/t, at twice
    the time).  The table eliminates error terms proportional to
    successive integer powers of the step.

    Returns (estimate, err) where err is the spread (max minus min) of
    the last three diagonal entries of the table; a sequence that is
    already exact yields err = 0.
    """
    if not values:
        raise ValueError("need at least one probe value")
    row = [float(v) for v in values]
    diagonal = [row[-1]]
    for m in range(1, len(values)):
        factor = 2.0 ** m
        row = [(factor * row[i + 1] - row[i]) / (factor - 1.0)
               for i in range(len(row) - 1)]
        diagonal.append(row[-1])
    last = diagonal[-3:]
    err = max(last) - min(last) if len(last) > 1 else 0.0
    return diagonal[-1], abs(err)
