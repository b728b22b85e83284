"""Print the sha256 of every gallery report, and of three reports with
volume samples, to tell whether report bytes moved between two checkouts.

    python3 tools/report_digest.py

prints one line per gallery entry and n in {2, 3, 5}: the sha256 of
``report_to_json(evaluate_theorem(entry.profile, n))``, or of
``refused: <message>`` when the entry is refused with
ModelCompactnessError, then the entry and n.  Then one line for each of
flat, abresch_tail and sign_changing_beta_ln2 at n = 3 with samples: 1000
ball volumes per entry from ``bench/inputs.certify_samples`` at a fixed
seed, written as a CSV to a temporary directory and read back with
``ingest_samples``.  It imports radialgeo from the ``src`` directory of
its own checkout, and the sample inputs from its ``bench`` directory, so
running a copy of it in another checkout digests that checkout's reports.
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
    ModelCompactnessError,
    entry_by_name,
    evaluate_theorem,
    ingest_samples,
    list_gallery,
    report_to_json,
)
from radialgeo.pipeline import DEFAULT_T_END  # noqa: E402

DIMENSIONS = (2, 3, 5)
SAMPLE_ENTRIES = ("flat", "abresch_tail", "sign_changing_beta_ln2")
SAMPLE_N = 3
SAMPLE_COUNT = 1000
SAMPLE_SEED = 1


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    return lines


if __name__ == "__main__":
    print("\n".join(digest_lines()))
