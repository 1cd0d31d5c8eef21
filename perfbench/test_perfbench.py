"""Tests of the benchmark's own machinery (gates and ledger).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gates  # noqa: E402
import ledger as ledger_mod  # noqa: E402


def _perturb(text: str) -> str:
    """Change the last digit of ``text`` (a different expected output)."""
    i = max(i for i, c in enumerate(text) if c.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


# --- correctness gates ---------------------------------------------------------


def test_host_timed_cells_are_masked():
    fig20 = ("Dataset,HyVE (M edges/s),GraphR (M edges/s),Measured ratio,"
             "Modeled ratio\nYT,0.31,0.16,1.93,8.5\n")
    assert gates.masked_csv("fig20", fig20).splitlines()[1] == "YT,#,#,#,8.5"
    temporal = ('Stage,Check\nstream ingest,"True (317 rebuilds, '
                '17,605 ev/s)"\nbench,"219,221 up/s, 1.05x vs serial"\n')
    rows = gates.masked_csv("temporal", temporal).splitlines()
    assert rows[1] == 'stream ingest,"True (317 rebuilds, # ev/s)"'
    assert rows[2] == 'bench,"# up/s, #x vs serial"'


def test_driver_output_passes_and_a_perturbed_committed_csv_fails(tmp_path):
    from repro.experiments import ALL_EXPERIMENTS, RESULTS_DIR

    csv_text = ALL_EXPERIMENTS["table2"]().to_csv()
    assert gates.check_experiment("table2", csv_text, RESULTS_DIR, {}) is None
    (tmp_path / "table2.csv").write_text(
        _perturb((RESULTS_DIR / "table2.csv").read_text()))
    assert gates.check_experiment("table2", csv_text, tmp_path, {})


def test_perturbed_expected_digest_fails(tmp_path):
    text = "Stage,Edges/s,Iters\nBFS sharded,65019938.5,5\n"
    want = gates.digest(gates.masked_csv("outofcore", text))
    expected = {"paper-suite": {"outofcore": want}}
    assert gates.check_experiment("outofcore", text, tmp_path, expected) is None
    # a different host-timed cell is masked and still passes
    faster = text.replace("65019938.5", "99999999.9")
    assert gates.check_experiment("outofcore", faster, tmp_path,
                                  expected) is None
    expected["paper-suite"]["outofcore"] = _perturb(want)
    assert gates.check_experiment("outofcore", text, tmp_path, expected)
    assert gates.check_experiment("outofcore", text, tmp_path, {})


def test_committed_expected_digests_cover_every_uncommitted_csv():
    from repro.experiments import ALL_EXPERIMENTS, RESULTS_DIR

    uncommitted = {name for name in ALL_EXPERIMENTS
                   if not (RESULTS_DIR / f"{name}.csv").is_file()}
    assert set(gates.load_expected()["paper-suite"]) == uncommitted


def test_stream_gate_tolerances():
    pr = np.linspace(0.1, 0.2, 50)
    assert gates.check_stream_values("pr", pr, pr + 1e-13) is None
    assert gates.check_stream_values("pr", pr, pr + 1e-9)
    bfs = np.arange(50)
    assert gates.check_stream_values("bfs", bfs, bfs.copy()) is None
    bumped = bfs.copy()
    bumped[7] += 1
    assert gates.check_stream_values("bfs", bfs, bumped)
    assert gates.check_stream_values("cc", bfs, bfs[:-1])


def test_five_stream_workers_check_every_step():
    from run import WORKERS
    from workloads import STREAM_STEPS, _checked_steps

    assert set().union(*map(_checked_steps, range(WORKERS))) == \
        set(range(STREAM_STEPS))


def test_a_failed_gate_counts_as_a_failed_op():
    from workloads import Outcome

    outcome = Outcome()
    outcome.record(None)
    outcome.record(gates.check_stream_values("bfs", np.arange(3),
                                             np.arange(1, 4)))
    assert (outcome.attempted, outcome.failed) == (2, 1)


# --- ledger --------------------------------------------------------------------


def test_ledger_wraps_every_binding_and_restores_it():
    import repro.graph as graph_pkg
    from repro.graph import generators

    ledger = ledger_mod.Ledger()
    original = generators.rmat
    ledger.install()
    try:
        assert graph_pkg.rmat is generators.rmat is not original
        graph_pkg.rmat(64, 256, seed=1)  # bound by ``from .generators import``
        generators.rmat(64, 256, seed=2)
    finally:
        ledger.restore()
    assert graph_pkg.rmat is generators.rmat is original
    assert ledger.layer_metrics()["graph.generate.calls"] == 2
    generators.rmat(64, 256, seed=3)  # restored: not counted
    assert ledger.layer_metrics()["graph.generate.calls"] == 2


def test_self_time_excludes_nested_wrappers():
    from repro.algorithms import make_algorithm
    from repro.arch.machine import make_machine
    from repro.graph.generators import rmat
    from repro.perf.cache import RunCache, set_run_cache

    set_run_cache(RunCache(""))
    graph = rmat(256, 2048, seed=4)
    ledger = ledger_mod.Ledger()
    ledger.install()
    try:
        make_machine("acc+HyVE").run(make_algorithm("pr"), graph)
    finally:
        ledger.restore()
    layers = ledger.layer_metrics()
    assert layers["arch.price.calls"] == 1
    assert layers["algorithms.converge.calls"] == 1
    assert layers["algorithms.run_cache.hit_ratio"] == 0.0
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total == pytest.approx(ledger.covered_s)


def test_pass_time_from_driver_medians_ignores_one_slowed_call():
    from run import _driver_medians

    passes = [{"drivers": {"a": 1.0, "b": 2.0}},
              {"drivers": {"a": 1.0, "b": 9.0}},
              {"drivers": {"a": 5.0, "b": 2.0}}]
    assert _driver_medians(passes) == 3.0
