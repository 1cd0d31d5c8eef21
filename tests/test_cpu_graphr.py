"""Tests for the CPU and GraphR baseline machines."""

import pytest

from repro.algorithms import BFS, PageRank, SpMV
from repro.arch.cpu import CPU_DRAM, CPU_DRAM_OPT, CPUMachine, CPUModel
from repro.arch.crossbar import (
    CROSSBAR_WRITE_ENERGY,
    CrossbarModel,
    MV_ALGORITHMS,
)
from repro.arch.config import Workload
from repro.arch.graphr import GraphRConfig, GraphRMachine, run_many
from repro.arch.machine import make_machine
from repro.errors import ConfigError
from repro.memory.reram import ReRAMConfig
from repro.units import GBIT, NJ
from repro.verify.reference import reference_run


class TestCPUMachine:
    def test_energy_is_power_times_time(self, yt_workload):
        result = CPUMachine(CPU_DRAM).run(PageRank(), yt_workload)
        r = result.report
        expected_time = r.edges_traversed / (CPU_DRAM.throughput_meps * 1e6)
        assert r.time == pytest.approx(expected_time)
        assert r.total_energy == pytest.approx(
            expected_time * (CPU_DRAM.package_power + CPU_DRAM.dram_power)
        )

    def test_opt_is_faster(self, yt_workload):
        base = CPUMachine(CPU_DRAM).run(PageRank(), yt_workload).report
        opt = CPUMachine(CPU_DRAM_OPT).run(PageRank(), yt_workload).report
        assert opt.time < base.time
        assert opt.mteps_per_watt > base.mteps_per_watt

    def test_memory_share_over_60_percent(self, yt_workload):
        report = CPUMachine(CPU_DRAM).run(PageRank(), yt_workload).report
        # Power breakdown results [22]: >60% of energy in memory for PR.
        assert report.memory_energy / report.total_energy >= 0.6

    def test_accelerator_gap_is_two_orders(self, yt_workload):
        cpu = CPUMachine(CPU_DRAM).run(PageRank(), yt_workload).report
        opt = make_machine("acc+HyVE-opt").run(PageRank(), yt_workload).report
        assert 50 < opt.mteps_per_watt / cpu.mteps_per_watt < 500

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            CPUModel("x", 0.0, 50.0, 5.0)
        with pytest.raises(ConfigError):
            CPUModel("x", 100.0, -1.0, 5.0)
        with pytest.raises(ConfigError):
            CPUModel("x", 100.0, 50.0, 5.0, dram_energy_fraction=2.0)

    def test_correct_algorithm_output(self, small_rmat):
        result = CPUMachine().run(PageRank(), small_rmat)
        assert result.values.sum() == pytest.approx(1.0, abs=1e-9)


class TestCrossbarModel:
    def test_mv_energy_equation(self):
        model = CrossbarModel(navg=1.5)
        expected = model.block_energy("PR") / 1.5
        assert model.energy_per_edge("PR") == pytest.approx(expected)

    def test_nmv_more_expensive_than_mv(self):
        model = CrossbarModel(navg=1.5)
        assert model.energy_per_edge("BFS") > model.energy_per_edge("PR")

    def test_higher_navg_amortises_better(self):
        sparse = CrossbarModel(navg=1.2)
        dense = CrossbarModel(navg=2.4)
        assert dense.energy_per_edge("PR") < sparse.energy_per_edge("PR")

    def test_write_dominates_block_energy(self):
        model = CrossbarModel(navg=1.5)
        assert model.block_energy("PR") > 0.1 * CROSSBAR_WRITE_ENERGY

    def test_more_groups_faster(self):
        slow = CrossbarModel(navg=1.5, num_groups=4)
        fast = CrossbarModel(navg=1.5, num_groups=16)
        assert fast.latency_per_edge("PR") < slow.latency_per_edge("PR")

    def test_parallelism_is_navg(self):
        assert CrossbarModel(navg=1.73).parallelism == 1.73

    def test_mv_algorithms(self):
        assert MV_ALGORITHMS == {"PR", "SpMV"}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            CrossbarModel(navg=0.0)
        with pytest.raises(ConfigError):
            CrossbarModel(navg=1.5, num_groups=0)


class TestGraphRMachine:
    def test_produces_report(self, yt_workload):
        report = GraphRMachine().run(PageRank(), yt_workload).report
        assert report.machine == "GraphR"
        assert report.total_energy > 0

    def test_crossbar_processing_dominates(self, yt_workload):
        report = GraphRMachine().run(PageRank(), yt_workload).report
        from repro.arch.report import PROCESSING

        assert report.energy[PROCESSING] > 0.2 * report.total_energy

    def test_hyve_beats_graphr_on_every_algorithm(self, yt_workload):
        hyve = make_machine("acc+HyVE-opt")
        graphr = GraphRMachine()
        for factory in (PageRank, BFS, SpMV):
            g = graphr.run(factory(), yt_workload).report
            h = hyve.run(factory(), yt_workload).report
            assert g.total_energy > h.total_energy
            assert g.time > h.time
            assert g.edp > h.edp

    def test_same_algorithm_results(self, small_rmat):
        result = GraphRMachine().run(PageRank(), small_rmat)
        assert result.values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_config_label(self):
        assert GraphRMachine(GraphRConfig(label="gr2")).label == "gr2"

    def test_run_and_batch_match_reference(self, yt_workload, small_rmat):
        """run() (a one-cell kernel call) and run_many() both reprice
        every cell exactly like the scalar reference fold."""
        jobs = [(factory, workload)
                for factory in (PageRank, BFS, SpMV)
                for workload in (yt_workload, Workload(small_rmat))]
        for config in (GraphRConfig(),
                       GraphRConfig(label="gr4", num_crossbar_groups=4,
                                    reram=ReRAMConfig(density_bits=8 * GBIT))):
            machine = GraphRMachine(config)
            batched = run_many(machine, [(f(), w) for f, w in jobs])
            for (factory, workload), result in zip(jobs, batched):
                expected = reference_run(config, factory(), workload)
                serial = machine.run(factory(), workload)
                for got in (serial, result):
                    assert got.report.to_dict() == expected.report.to_dict()
                    assert list(got.report.energy) == list(
                        expected.report.energy
                    )
