"""Tests for the generic design-space sweep helper."""

import json
import time

import pytest

from repro.algorithms import PageRank
from repro.arch.config import Workload
from repro.arch.sweep import (
    SweepPolicy,
    best_point,
    pareto_front,
    successful_points,
    sweep,
)
from repro.errors import ConfigError, SweepPointError
from repro.graph import rmat
from repro.units import MB


@pytest.fixture(scope="module")
def workload():
    graph = rmat(2048, 16000, seed=97, name="sweep")
    return Workload(graph, reported_vertices=2_048_000,
                    reported_edges=16_000_000)


class TestSweep:
    def test_sram_axis(self, workload):
        points = sweep("sram_bits", [2 * MB, 4 * MB, 8 * MB],
                       PageRank, workload)
        assert len(points) == 3
        assert {p.value for p in points} == {2 * MB, 4 * MB, 8 * MB}
        assert all(p.report.total_energy > 0 for p in points)

    def test_boolean_axis(self, workload):
        points = sweep("data_sharing", [True, False], PageRank, workload)
        on, off = points
        assert on.report.mteps_per_watt > off.report.mteps_per_watt

    def test_labels_carry_value(self, workload):
        points = sweep("num_pus", [4, 8], PageRank, workload)
        assert points[0].config.label == "num_pus=4"

    def test_accepts_bare_graph(self):
        graph = rmat(256, 1000, seed=1)
        points = sweep("num_pus", [2], PageRank, graph)
        assert len(points) == 1

    def test_rejects_unknown_field(self, workload):
        with pytest.raises(ConfigError):
            sweep("sram_banks", [1], PageRank, workload)

    def test_rejects_empty_values(self, workload):
        with pytest.raises(ConfigError):
            sweep("num_pus", [], PageRank, workload)


class TestRobustSweep:
    """Timeout / retry / error isolation / checkpointing."""

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            SweepPolicy(timeout=0)
        with pytest.raises(ConfigError):
            SweepPolicy(retries=-1)
        with pytest.raises(ConfigError):
            SweepPolicy(backoff=-0.5)

    def test_failing_point_kills_strict_sweep(self, workload):
        with pytest.raises(SweepPointError):
            sweep("num_pus", [4, -1], PageRank, workload)

    def test_failing_point_isolated(self, workload):
        policy = SweepPolicy(isolate_errors=True)
        points = sweep("num_pus", [4, -1, 8], PageRank, workload,
                       policy=policy)
        assert len(points) == 3
        ok = successful_points(points)
        assert [p.value for p in ok] == [4, 8]
        failed = points[1]
        assert not failed.ok
        assert failed.report is None
        assert "ConfigError" in failed.error
        with pytest.raises(SweepPointError):
            _ = failed.mteps_per_watt
        # Selection helpers skip the failure.
        assert best_point(points).ok
        assert all(p.ok for p in pareto_front(points))

    def test_timeout_counts_as_failure(self, workload):
        def slow_factory():
            # Sleeping releases the GIL, so the sweep's wait expires while
            # the attempt still runs; a compute-bound attempt can hold the
            # GIL until it finishes and beat even a tiny timeout.
            time.sleep(0.2)
            return PageRank()

        policy = SweepPolicy(timeout=1e-2, isolate_errors=True)
        points = sweep("num_pus", [4], slow_factory, workload, policy=policy)
        assert not points[0].ok
        assert "timeout" in points[0].error

    def test_retries_consumed(self, workload):
        calls = []

        def exploding_factory():
            calls.append(1)
            raise RuntimeError("flaky")

        policy = SweepPolicy(retries=2, backoff=0.0, isolate_errors=True)
        points = sweep("num_pus", [4], exploding_factory, workload,
                       policy=policy)
        assert points[0].attempts == 3
        assert len(calls) == 3
        assert "RuntimeError" in points[0].error

    def test_retry_then_success(self, workload):
        attempts = []

        def flaky_factory():
            attempts.append(1)
            if len(attempts) < 2:
                raise RuntimeError("transient")
            return PageRank()

        policy = SweepPolicy(retries=2, backoff=0.0)
        points = sweep("num_pus", [4], flaky_factory, workload,
                       policy=policy)
        assert points[0].ok
        assert points[0].attempts == 2

    def test_checkpoint_resume(self, workload, tmp_path):
        ckpt = tmp_path / "sweep.jsonl"
        policy = SweepPolicy(isolate_errors=True, checkpoint_path=ckpt)
        first = sweep("num_pus", [4, -1, 8], PageRank, workload,
                      policy=policy)
        lines = [json.loads(l) for l in ckpt.read_text().splitlines()]
        assert len(lines) == 3
        assert sum(1 for l in lines if l["report"] is not None) == 2
        # Resume: successful points come from the checkpoint verbatim,
        # the failed point is re-attempted (and recorded again).
        second = sweep("num_pus", [4, -1, 8], PageRank, workload,
                       policy=policy)
        assert second[0].report.to_dict() == first[0].report.to_dict()
        assert second[2].report.to_dict() == first[2].report.to_dict()
        assert not second[1].ok
        assert len(ckpt.read_text().splitlines()) == 4

    def test_corrupt_checkpoint_rejected(self, workload, tmp_path):
        ckpt = tmp_path / "sweep.jsonl"
        ckpt.write_text("not json\n")
        policy = SweepPolicy(checkpoint_path=ckpt)
        with pytest.raises(ConfigError):
            sweep("num_pus", [4], PageRank, workload, policy=policy)

    def test_empty_selection_after_failures(self, workload):
        policy = SweepPolicy(isolate_errors=True)
        points = sweep("num_pus", [-1, -2], PageRank, workload,
                       policy=policy)
        assert not successful_points(points)
        with pytest.raises(ConfigError):
            best_point(points)


class TestSelection:
    def test_best_point(self, workload):
        points = sweep("sram_bits", [2 * MB, 16 * MB], PageRank, workload)
        best = best_point(points)
        assert best.mteps_per_watt == max(
            p.mteps_per_watt for p in points
        )

    def test_best_rejects_empty(self):
        with pytest.raises(ConfigError):
            best_point([])

    def test_pareto_front_nonempty_subset(self, workload):
        points = sweep("sram_bits", [2 * MB, 4 * MB, 8 * MB, 16 * MB],
                       PageRank, workload)
        front = pareto_front(points)
        assert 1 <= len(front) <= len(points)
        # Best-efficiency point is never dominated on energy.
        best = min(points, key=lambda p: p.report.total_energy)
        assert best in front
