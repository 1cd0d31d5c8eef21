"""Correctness gates: each benchmark op is checked against a known answer.

* paper-suite -- a driver's CSV must equal the committed
  ``results/<id>.csv`` once host-timed cells are masked; drivers with no
  committed CSV are checked against a digest in ``expected.json``.
* stream -- a checked step's engine values must equal a from-scratch
  ``run_vectorized`` on the snapshot at the step's time (exact for
  BFS/CC, within 1e-12 for PR).

A mismatch makes the op fail; it never passes silently.

``python3 perfbench/gates.py`` prints the expected digests of the
current code as JSON, for review before they replace ``expected.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Columns whose cells are host wall-clock measurements.
TIMED_COLUMNS = {
    "fig20": ("HyVE (M edges/s)", "GraphR (M edges/s)", "Measured ratio"),
    "outofcore": ("Edges/s",),
}

#: Host-timed numbers embedded in text cells (throughputs, speedups,
#: seconds); the number is masked and its label kept.
_TIMED_NUMBER = re.compile(r"\d[\d,]*(?:\.\d+)?(?=\s?(?:ev/s|up/s|x vs|s\b))")

MASK = "#"


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


def masked_csv(experiment: str, text: str) -> str:
    """``text`` with every host-timed cell replaced by :data:`MASK`."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return text
    timed = {i for i, h in enumerate(rows[0])
             if h in TIMED_COLUMNS.get(experiment, ())}
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(rows[0])
    for row in rows[1:]:
        writer.writerow([MASK if i in timed else _TIMED_NUMBER.sub(MASK, c)
                         for i, c in enumerate(row)])
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_experiment(experiment: str, csv_text: str, results_dir: Path,
                     expected: dict) -> str | None:
    """None when the driver's output is right, else why it is not."""
    got = masked_csv(experiment, csv_text)
    committed = results_dir / f"{experiment}.csv"
    if committed.is_file():
        if got != masked_csv(experiment, committed.read_text()):
            return f"{experiment}: CSV differs from {committed.name}"
        return None
    want = expected.get("paper-suite", {}).get(experiment)
    if want is None:
        return f"{experiment}: no committed CSV and no expected digest"
    if digest(got) != want:
        return f"{experiment}: digest {digest(got)[:12]} != {want[:12]}"
    return None


def check_stream_values(name: str, got: np.ndarray,
                        rebuilt: np.ndarray) -> str | None:
    """Engine values against a from-scratch rebuild of the snapshot."""
    if got.shape != rebuilt.shape:
        return f"{name}: shape {got.shape} != {rebuilt.shape}"
    if name == "pr":
        same = np.allclose(got, rebuilt, rtol=1e-12, atol=1e-12)
    else:
        same = np.array_equal(got, rebuilt)
    return None if same else f"{name}: engine values differ from rebuild"


def record() -> dict:
    """Expected digests computed from the current code."""
    import tempfile

    from repro.experiments import ALL_EXPERIMENTS, RESULTS_DIR
    from repro.perf.cache import RunCache, set_run_cache

    out: dict = {"paper-suite": {}}
    with tempfile.TemporaryDirectory() as scratch:
        set_run_cache(RunCache(scratch))
        for name, driver in ALL_EXPERIMENTS.items():
            if not (RESULTS_DIR / f"{name}.csv").is_file():
                text = masked_csv(name, driver().to_csv())
                out["paper-suite"][name] = digest(text)
    return out


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(HERE.parent / "src"))
    print(json.dumps(record(), indent=2, sort_keys=True))
