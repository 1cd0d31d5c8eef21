"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0

Workloads: ``paper-suite`` and ``stream`` (see ``perfbench/README.md``).
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics.  Each metric is printed on
its own line with its unit and sample count, and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The measuring happens in worker processes started one after another
(``worker.py``), each with ``PYTHONHASHSEED`` fixed, one BLAS/OpenMP
thread and a fresh, empty ``REPRO_CACHE_DIR`` inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ledger import EXPERIMENT_IDS, METRICS as LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: End-to-end metric name -> unit, as ``BENCHMARK.json`` lists them.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

#: Workers per ``stream`` run; each pays its own set-up, which gives
#: ``setup_s`` its samples.
WORKERS = 5
#: Fewest workers per ``paper-suite`` run: three cold passes, so that a
#: driver's median cold time is not one host-slowed call.
PAPER_WORKERS = 3
#: The slowest a whole run may take before it is abandoned.
RUN_LIMIT_S = 170.0

#: Layers each workload must exercise in the traced run (metric-name
#: prefixes); a zero there means a wrapper missed its target.
REQUIRED_LAYERS = {
    "paper-suite": ("graph.", "algorithms.", "arch.", "perf.", "tune.",
                    "dynamic.", "experiments.", "trace."),
    "stream": ("graph.generate.", "algorithms.converge.", "arch.counts.",
               "arch.imbalance.", "arch.price.", "dynamic.ingest.",
               "dynamic.flush.", "dynamic.query.", "dynamic.rebuild_ratio",
               "dynamic.log_extend.", "dynamic.snapshot.", "trace."),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


# --- environment ---------------------------------------------------------------


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: how fast the host is
    right now.  A diagnostic only; no metric is scaled by it."""
    def once() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(5))


def env_stamp() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git": _git_sha(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "host_ref_loop_s": round(_reference_loop_s(), 5),
    }


def child_env(cache_dir: Path, tmp_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_CACHE_DIR=str(cache_dir),
        TMPDIR=str(tmp_dir),
    )
    return env


# --- workers -------------------------------------------------------------------


class Runner:
    """Starts workers one at a time inside one scratch directory."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.count = 0

    def worker(self, mode: str, budget_s: float) -> dict:
        self.count += 1
        home = self.scratch / f"worker-{self.count}"
        (home / "tmp").mkdir(parents=True)
        job = home / "job.json"
        out = home / "out.json"
        job.write_text(json.dumps({
            "workload": self.workload, "seed": self.seed,
            "worker": self.count - 1, "mode": mode, "budget_s": budget_s,
        }))
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job), str(out)],
                env=child_env(home / "cache", home / "tmp"),
                stdout=sys.stderr, stderr=sys.stderr, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded {RUN_LIMIT_S:.0f} s") from exc
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(f"worker exited with code {proc.returncode}")
        samples = json.loads(out.read_text())
        shutil.rmtree(home, ignore_errors=True)
        return samples


def collect(workload: str, seed: int, seconds: float, trace: bool,
            scratch: Path) -> list[dict]:
    """Run the workers of one benchmark run; returns their samples."""
    runner = Runner(workload, seed, scratch)
    if workload == "paper-suite":
        # One cold + warm pass per worker, since a cold pass needs a
        # fresh process.
        if trace:
            return [runner.worker("untraced", 0), runner.worker("traced", 0)]
        workers: list[dict] = []
        while len(workers) < PAPER_WORKERS or sum(
                p["wall_s"] for w in workers for p in w["passes"]) < seconds:
            workers.append(runner.worker("untraced", 0))
        return workers
    if trace:
        return [runner.worker("traced", 0)]
    return [runner.worker("untraced", seconds / WORKERS)
            for _ in range(WORKERS)]


# --- aggregation ---------------------------------------------------------------


def _driver_medians(passes: list[dict]) -> float:
    """A pass time from many passes: the sum over drivers of each
    driver's median time, so one driver slowed by the host in one pass
    does not move the figure."""
    return sum(statistics.median(p["drivers"][name] for p in passes)
               for name in passes[0]["drivers"])


def end_to_end(workload: str, workers: list[dict]) -> dict[str, tuple]:
    """Metric name -> (value, sample count).

    Every figure is a median over the run's samples: passes, requests
    or workers, whichever the metric is made of.
    """
    requests = [r for w in workers for r in w["requests_ms"]]
    if len(requests) < 100:
        raise BenchError(f"only {len(requests)} requests; p90 needs 100 "
                         "so that 10 lie beyond it")
    passes = [p for w in workers for p in w["passes"] if not p["traced"]]
    if workload == "paper-suite":
        cold = [p for p in passes if p["kind"] == "cold"]
        warm = [p for p in passes if p["kind"] == "warm"]
        cold_s, warm_s = _driver_medians(cold), _driver_medians(warm)
        # Driver calls per second over one cold and one warm pass.
        ops_per_s = 2 * len(EXPERIMENT_IDS) / (cold_s + warm_s)
    else:
        cold = [w["passes"][0] for w in workers]
        warm = [p for w in workers for p in w["passes"][1:]]
        cold_s = statistics.median(p["wall_s"] for p in cold)
        warm_s = statistics.median(p["wall_s"] for p in warm)
        ops_per_s = statistics.median(p["ops"] / p["wall_s"] for p in passes)
    n = len(workers)
    metrics = {
        "setup_s": (statistics.median(w["setup_s"] for w in workers), n),
        "cold_pass_s": (cold_s, len(cold)),
        "warm_pass_s": (warm_s, len(warm)),
        "ops_per_s": (ops_per_s, len(passes)),
        "request_p50_ms": (statistics.median(requests), len(requests)),
        "request_p90_ms": (statistics.quantiles(requests, n=10)[8],
                           len(requests)),
        "peak_rss_mib": (statistics.median(w["peak_rss_mib"]
                                           for w in workers), n),
    }
    mismatch = set(END_TO_END) ^ set(metrics)
    if mismatch:
        raise BenchError(f"end-to-end metrics out of step: {sorted(mismatch)}")
    return metrics


def per_layer(workload: str, workers: list[dict]) -> dict[str, tuple]:
    traced = workers[-1]
    values = dict(traced["layers"])
    for name in EXPERIMENT_IDS:
        for p in ("cold", "warm"):
            values[f"experiments.{name}.{p}_s"] = (
                next(q for q in traced["passes"] if q["kind"] == p)
                ["drivers"][name] if workload == "paper-suite" else 0.0)
    if workload == "paper-suite":
        plain = [p["wall_s"] for p in workers[0]["passes"]]
    else:
        plain = [p["wall_s"] for p in traced["passes"] if not p["traced"]]
    timed = [p["wall_s"] for p in traced["passes"] if p["traced"]]
    values["trace.overhead_ratio"] = (
        statistics.median(timed) / statistics.median(plain) - 1)
    values["trace.coverage"] = traced["covered_s"] / traced["traced_s"]
    mismatch = set(LAYER_METRICS) ^ set(values)
    if mismatch:
        raise BenchError(f"per-layer metrics out of step: {sorted(mismatch)}")
    dead = [name for name in LAYER_METRICS
            if name.startswith(REQUIRED_LAYERS[workload]) and not values[name]]
    if dead:
        raise BenchError(
            f"wrappers recorded no work where {workload} must do some: "
            + ", ".join(dead))
    return {name: (values[name], 1) for name in LAYER_METRICS}


# --- main ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {ROOT / 'src'}")
    stamp = env_stamp()
    print(f"perfbench {workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print("env " + json.dumps(stamp, sort_keys=True))
    scratch_root = ROOT / ".perfbench_tmp"
    scratch = scratch_root / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        workers = collect(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    for w in workers:
        for error in w["errors"]:
            print("FAILED op: " + error, file=sys.stderr)
    if trace:
        metrics, units = per_layer(workload, workers), LAYER_METRICS
    else:
        metrics, units = end_to_end(workload, workers), END_TO_END
    for name, (value, count) in metrics.items():
        print(f"{name:44s} {value:16.6f} {units[name]:6s} (n={count})")
    print(f"{'fail_ratio':44s} {failed / max(attempted, 1):16.6f} "
          f"{'ratio':6s} ({failed}/{attempted} ops)")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # SIGTERM unwinds like an exception, so the running worker is
    # killed and waited for, and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
