"""Print the sha256 of every gallery report, to tell whether report bytes
moved between two checkouts.

    python3 tools/report_digest.py

prints one line per gallery entry and n in {2, 3, 5}: the sha256 of
``report_to_json(evaluate_theorem(entry.profile, n))``, or of
``refused: <message>`` when the entry is refused with
ModelCompactnessError, then the entry and n.  It imports radialgeo from
the ``src`` directory of its own checkout, so running a copy of it in
another checkout digests that checkout's reports.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from radialgeo import (  # noqa: E402
    ModelCompactnessError,
    evaluate_theorem,
    list_gallery,
    report_to_json,
)

DIMENSIONS = (2, 3, 5)


def digest_lines() -> list[str]:
    lines = []
    for entry in list_gallery():
        for n in DIMENSIONS:
            try:
                text = report_to_json(evaluate_theorem(entry.profile, n))
            except ModelCompactnessError as exc:
                text = f"refused: {exc}"
            sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
            lines.append(f"{sha}  {entry.name} n={n}")
    return lines


if __name__ == "__main__":
    print("\n".join(digest_lines()))
