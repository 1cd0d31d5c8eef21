"""One benchmark worker process: import, set up, measure, report.

Usage: ``python3 perfbench/worker.py JOB.json OUT.json`` -- ``run.py``
starts it with a controlled environment and reads ``OUT.json``.  The
set-up time runs from the first line of this file, so it includes the
import of ``repro``.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
import repro.experiments  # noqa: E402

import gates  # noqa: E402
from ledger import EXPERIMENT_IDS, Ledger  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def _import_everything() -> None:
    """Import every ``repro`` module, so no module binds a wrapped name
    for the first time while the ledger is installed."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            __import__(info.name)


def main(job_path: str, out_path: str) -> None:
    if tuple(repro.experiments.ALL_EXPERIMENTS) != EXPERIMENT_IDS:
        raise SystemExit("perfbench: ALL_EXPERIMENTS no longer matches "
                         "ledger.EXPERIMENT_IDS; update the benchmark")
    job = json.loads(Path(job_path).read_text())
    traced = job["mode"] == "traced"
    ledger = Ledger() if traced else None
    if traced:
        _import_everything()
        ledger.install()
    workload = WORKLOADS[job["workload"]](job["seed"], job["worker"], ROOT,
                                          gates.load_expected())
    workload.setup()
    setup_s = time.perf_counter() - _START
    if traced:
        ledger.restore()
    outcome = Outcome()
    samples = workload.measure(job["budget_s"], job["mode"], ledger, outcome)
    samples.update(
        setup_s=setup_s,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=outcome.attempted,
        failed=outcome.failed,
        errors=outcome.errors,
    )
    if traced:
        samples["layers"] = ledger.layer_metrics()
    Path(out_path).write_text(json.dumps(samples))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
