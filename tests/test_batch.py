"""Tests for simulate-once / price-many batched evaluation.

The contract under test is *bit-identity*: the memoized counts plus the
vectorized fold must reproduce the serial pipeline exactly — same
report fields, same energy-dict insertion order, same ``repr`` of every
float — across machines, algorithms, workloads, fault profiles, and
the sweep's batched serial path.  Faulted grids are pinned against the
scalar reference fold in :mod:`repro.verify.reference`.
"""

import importlib
import json

import pytest

from repro.algorithms import BFS, ConnectedComponents, PageRank
from repro.arch.config import (
    NAMED_CONFIGS,
    HyVEConfig,
    MemoryTechnology,
    Workload,
)
from repro.arch.machine import AcceleratorMachine, fold_many
from repro.arch.sweep import SweepPolicy, points_to_csv, sweep
from repro.errors import ConfigError
from repro.faults import make_profile
from repro.perf.batch import (
    counts_cache_key,
    group_by_counts_key,
    run_grid,
    scheduled_counts,
)
from repro.perf.cache import RunCache, get_run_cache, set_run_cache
from repro.units import MB
from repro.verify.reference import reference_run


def _assert_reports_identical(batched, serial) -> None:
    """Field-for-field (and float-repr) equality of two reports."""
    assert list(batched.energy.items()) == list(serial.energy.items())
    assert batched.__dict__ == serial.__dict__
    assert repr(batched.total_energy) == repr(serial.total_energy)
    assert repr(batched.time) == repr(serial.time)
    assert repr(batched.mteps_per_watt) == repr(serial.mteps_per_watt)


@pytest.fixture
def workloads(small_rmat, weighted_graph):
    return {
        "small": Workload(small_rmat),
        "weighted": Workload(weighted_graph, reported_vertices=256_000,
                             reported_edges=1_024_000),
    }


class TestFoldManyIdentity:
    """fold_many == a loop of AcceleratorMachine.run, bit for bit."""

    @pytest.mark.parametrize("factory", [PageRank, ConnectedComponents],
                             ids=["pr", "cc"])
    @pytest.mark.parametrize("workload_name", ["small", "weighted"])
    def test_named_machines_grid(self, workloads, workload_name, factory):
        workload = workloads[workload_name]
        configs = [make() for make in NAMED_CONFIGS.values()]
        batched = run_grid(factory(), workload, configs)
        assert len(batched) == len(configs)
        for config, result in zip(configs, batched):
            serial = AcceleratorMachine(config).run(factory(), workload)
            _assert_reports_identical(result.report, serial.report)

    def test_direct_fold_matches_run(self, workloads):
        from repro.algorithms.runner import run_cached

        workload = workloads["small"]
        config = HyVEConfig(label="direct")
        run = run_cached(PageRank(), workload.graph)
        counts = scheduled_counts(run, workload, config)
        [report] = fold_many(run, counts, workload, [config])
        serial = AcceleratorMachine(config).run(PageRank(), workload)
        _assert_reports_identical(report, serial.report)

    def test_empty_grid(self, workloads):
        assert run_grid(PageRank(), workloads["small"], []) == []

    def test_rejects_mixed_counts_group(self, workloads):
        from repro.algorithms.runner import run_cached

        workload = workloads["small"]
        a, b = HyVEConfig(num_pus=8), HyVEConfig(num_pus=16)
        run = run_cached(PageRank(), workload.graph)
        counts = scheduled_counts(run, workload, a)
        with pytest.raises(ConfigError):
            fold_many(run, counts, workload, [a, b])

    def test_grouping_separates_counts_keys(self, workloads):
        from repro.algorithms.runner import run_cached

        workload = workloads["small"]
        configs = [HyVEConfig(num_pus=8), HyVEConfig(num_pus=16),
                   HyVEConfig(num_pus=8, sram_bits=4 * MB)]
        run = run_cached(PageRank(), workload.graph)
        groups = group_by_counts_key(run, workload, configs)
        # SRAM size is a pricing knob at fixed P: indices 0 and 2 share.
        assert sorted(map(sorted, groups.values())) == [[0, 2], [1]]


class TestFaultedGrid:
    def test_faulted_grid_matches_reference(self, workloads):
        workload = workloads["small"]
        configs = [make() for make in NAMED_CONFIGS.values()]
        for name in ("mild", "harsh", "worn"):
            faults = make_profile(name, seed=7)
            batched = run_grid(PageRank(), workload, configs, faults=faults)
            for config, result in zip(configs, batched):
                expected = reference_run(config, PageRank(), workload,
                                         faults)
                serial = AcceleratorMachine(config, faults=faults).run(
                    PageRank(), workload
                )
                for got in (result, serial):
                    _assert_reports_identical(got.report, expected.report)
                    assert got.faults.to_dict() == expected.faults.to_dict()

    def test_every_fault_effect_matches_reference(self):
        """A dataset-scale grid where spare chips, failed banks under
        BPG and write-verify on ReRAM vertex memory all occur."""
        workload = Workload.from_dataset("TW")
        configs = [make() for make in NAMED_CONFIGS.values()]
        configs.append(HyVEConfig(label="opt-reram-vertex",
                                  offchip_vertex=MemoryTechnology.RERAM))
        for name in ("harsh", "worn"):
            faults = make_profile(name, seed=11)
            grid = run_grid(BFS(), workload, configs, faults=faults)
            for config, result in zip(configs, grid):
                expected = reference_run(config, BFS(), workload, faults)
                _assert_reports_identical(result.report, expected.report)
                assert result.faults.to_dict() == expected.faults.to_dict()
            assert any(r.faults.spare_chips for r in grid)
            assert grid[-1].faults.failed_banks
            assert grid[-1].faults.expected_write_rounds > 1.0


class TestCountsCache:
    def test_counts_key_excludes_pricing_knobs(self, workloads):
        from repro.algorithms.runner import run_cached
        from repro.memory.powergate import PowerGatingPolicy

        workload = workloads["small"]
        run = run_cached(PageRank(), workload.graph)
        base = HyVEConfig()
        priced = HyVEConfig(
            power_gating=PowerGatingPolicy(idle_timeout=5e-6)
        )
        assert (counts_cache_key(run, workload, base)
                == counts_cache_key(run, workload, priced))
        structural = HyVEConfig(data_sharing=False)
        assert (counts_cache_key(run, workload, base)
                != counts_cache_key(run, workload, structural))

    def test_counts_round_trip_through_disk(self, workloads, tmp_path):
        from repro.algorithms.runner import run_cached
        from repro.arch.scheduler import ScheduleCounts

        workload = workloads["small"]
        config = HyVEConfig()
        run = run_cached(PageRank(), workload.graph)
        fresh = ScheduleCounts.compute(run, workload, config)
        previous = get_run_cache()
        try:
            set_run_cache(RunCache(directory=tmp_path))
            first = scheduled_counts(run, workload, config)
            assert first == fresh
            # A cold process (fresh memory level) reads the disk entry.
            set_run_cache(RunCache(directory=tmp_path))
            again = scheduled_counts(run, workload, config)
            assert again == fresh
            stats = get_run_cache().stats
            assert stats.counts_disk_hits == 1
            assert stats.counts_misses == 0
        finally:
            set_run_cache(previous)

    def test_counts_stats_progress(self, workloads):
        workload = workloads["small"]
        cache = get_run_cache()
        misses = cache.stats.counts_misses
        lookups = cache.stats.counts_lookups
        configs = [HyVEConfig(num_pus=4, label="a"),
                   HyVEConfig(num_pus=4, label="b")]
        run_grid(PageRank(), workload, configs)
        assert cache.stats.counts_lookups > lookups
        # Both points share one key: at most one fresh expansion.
        assert cache.stats.counts_misses - misses <= 1
        assert "counts cache:" in cache.stats.counts_summary()


class TestBatchedSweep:
    def _policies(self, **kwargs):
        return (SweepPolicy(batch=True, **kwargs),
                SweepPolicy(batch=False, **kwargs))

    def test_csv_byte_identity(self, small_rmat):
        workload = Workload(small_rmat)
        batched_policy, serial_policy = self._policies()
        a = sweep("sram_bits", [2 * MB, 4 * MB, 8 * MB], PageRank,
                  workload, policy=batched_policy)
        b = sweep("sram_bits", [2 * MB, 4 * MB, 8 * MB], PageRank,
                  workload, policy=serial_policy)
        assert points_to_csv(a) == points_to_csv(b)

    def test_checkpoint_byte_identity(self, small_rmat, tmp_path):
        workload = Workload(small_rmat)
        ckpt_a = tmp_path / "batched.jsonl"
        ckpt_b = tmp_path / "serial.jsonl"
        values = [4, -1, 8]
        sweep("num_pus", values, PageRank, workload,
              policy=SweepPolicy(batch=True, isolate_errors=True,
                                 checkpoint_path=ckpt_a))
        sweep("num_pus", values, PageRank, workload,
              policy=SweepPolicy(batch=False, isolate_errors=True,
                                 checkpoint_path=ckpt_b))
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
        for line in ckpt_a.read_text().splitlines():
            json.loads(line)  # every record stays valid JSON

    def test_faulted_sweep_batched_matches_reference(self, small_rmat,
                                                     monkeypatch):
        # The package re-exports a ``sweep`` function that shadows the
        # submodule attribute, so look the module up by name.
        sweep_mod = importlib.import_module("repro.arch.sweep")
        workload = Workload(small_rmat)
        faults = make_profile("mild", seed=3)
        batched_policy, serial_policy = self._policies()
        batches = []

        def counting_fold_many(*args, **kwargs):
            batches.append(len(args[3]))
            return fold_many(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "fold_many", counting_fold_many)
        a = sweep("region_hit_rate", [0.5, 1.0], PageRank, workload,
                  policy=batched_policy, faults=faults)
        assert batches == [2]  # one batched pass prices both points
        b = sweep("region_hit_rate", [0.5, 1.0], PageRank, workload,
                  policy=serial_policy, faults=faults)
        assert points_to_csv(a) == points_to_csv(b)
        for point in a:
            expected = reference_run(point.config, PageRank(), workload,
                                     faults)
            _assert_reports_identical(point.report, expected.report)
