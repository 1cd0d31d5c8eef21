"""Scalar reference folds: the pricing the kernels are checked against.

:func:`repro.arch.machine.fold_many` and
:func:`repro.arch.graphr.graphr_fold_many` are the only production
pricing paths; every machine run goes through them.  This module keeps
the straightforward scalar form of the same equations — one config,
one device call per term, no arrays — so the ``engine-identity`` and
``zero-fault`` oracles, the tests and the sweep benchmark's serial leg
have an independent path to compare the kernels with, bit for bit.

The folds are stripped of tracing and metrics.  Device sizing and
fault provisioning come from :func:`repro.arch.machine.provision`, the
helper the kernel calls too, so both draw the same fault samples.
"""

from __future__ import annotations

import math

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import AlgorithmRun, run_cached
from ..arch import params, report as rpt
from ..arch.config import HyVEConfig, MemoryTechnology, Workload
from ..arch.crossbar import CrossbarModel
from ..arch.graphr import GraphRConfig, GraphRCounts, GraphRMachine
from ..arch.machine import FOOTPRINT_SLACK, SimulationResult, provision
from ..arch.processing_unit import ProcessingUnitModel
from ..arch.report import EnergyReport
from ..arch.router import RouterModel
from ..arch.scheduler import ScheduleCounts
from ..faults.profile import FaultProfile
from ..faults.resilience import FaultReport
from ..graph.graph import Graph
from ..memory.base import AccessCost, AccessKind, AccessPattern, MemoryDevice
from ..memory.ecc import secded_logic_energy
from ..memory.powergate import BankPowerGating, GatingReport
from ..memory.regfile import RegisterFile
from ..memory.reram import ReRAMChip
from ..memory.sram import OnChipSRAM


def _narrow_random_cost(
    device: MemoryDevice,
    kind: AccessKind,
    hit_rate: float,
    burst_bits: int = 64,
) -> AccessCost:
    """Cost of one narrow random access at a given row-hit rate.

    A hit pays only the data-movement share of a sequential access,
    scaled to the narrow burst; a miss additionally pays the full
    activation premium (random cost minus the unused wide burst).
    """
    seq = device.access_cost(kind, AccessPattern.SEQUENTIAL)
    rnd = device.access_cost(kind, AccessPattern.RANDOM)
    narrow = burst_bits / device.access_bits
    hit_energy = seq.energy * narrow
    activation_premium = max(0.0, rnd.energy - seq.energy)
    miss_energy = hit_energy + activation_premium
    return AccessCost(
        latency=hit_rate * seq.latency + (1.0 - hit_rate) * rnd.latency,
        energy=hit_rate * hit_energy + (1.0 - hit_rate) * miss_energy,
    )


def reference_fold(
    cfg: HyVEConfig,
    run: AlgorithmRun,
    counts: ScheduleCounts,
    workload: Workload,
    faults: FaultProfile | None = None,
) -> tuple[EnergyReport, FaultReport | None]:
    """Price one HyVE config, term by term (Equations (1)-(8))."""
    prov = provision(cfg, run, counts, workload, faults)
    edge_dev, raw_edge_dev = prov.edge, prov.raw_edge
    vertex_dev, raw_vertex_dev = prov.vertex, prov.raw_vertex
    edge_chips, vertex_chips = prov.edge_chips, prov.vertex_chips
    sram_ecc, write_rounds = prov.sram_ecc, prov.write_rounds
    fault_report = prov.faults

    sram = OnChipSRAM(cfg.sram_bits) if cfg.has_onchip else None
    pu = ProcessingUnitModel(
        sram_cycle=(
            sram.point.read_latency
            if sram is not None
            else edge_dev.access_cost(
                AccessKind.READ, AccessPattern.RANDOM
            ).latency / cfg.random_access_mlp
        )
    )
    router = RouterModel(cfg.num_pus)

    report = EnergyReport(
        machine=cfg.label,
        algorithm=run.algorithm,
        graph=workload.name,
        edges_traversed=counts.edges_total,
        iterations=counts.iterations,
        time=0.0,
    )

    # --- dynamic energy and busy times --------------------------------
    edge_stream = edge_dev.transfer_cost(
        AccessKind.READ, counts.edge_stream_bits, AccessPattern.SEQUENTIAL
    )
    seek_unit = edge_dev.access_cost(AccessKind.READ, AccessPattern.RANDOM)
    seq_unit = edge_dev.access_cost(AccessKind.READ, AccessPattern.SEQUENTIAL)
    seek_extra_latency = counts.block_seeks * max(
        0.0, seek_unit.latency - seq_unit.latency
    )
    report.add(rpt.EDGE_MEMORY, edge_stream.energy)

    load = vertex_dev.transfer_cost(
        AccessKind.READ, counts.offchip_load_bits, AccessPattern.SEQUENTIAL
    )
    store = vertex_dev.transfer_cost(
        AccessKind.WRITE, counts.offchip_store_bits, AccessPattern.SEQUENTIAL
    )
    # Machines without a scratchpad follow the same interval schedule,
    # so their "random" vertex accesses land inside the active interval
    # region: they hit open rows at region_hit_rate and move only a
    # narrow burst (one 64-bit beat-pair), not the full 512-bit
    # streaming access.
    hit = cfg.region_hit_rate
    rnd_read = _narrow_random_cost(vertex_dev, AccessKind.READ, hit)
    rnd_write = _narrow_random_cost(vertex_dev, AccessKind.WRITE, hit)
    # Write-verify retries multiply every ReRAM vertex write's energy
    # and latency by the expected program-round count.
    verify_writes = (
        write_rounds != 1.0 and cfg.offchip_vertex == MemoryTechnology.RERAM
    )
    if verify_writes:
        store = store.scaled(write_rounds)
        rnd_write = rnd_write.scaled(write_rounds)
    report.add(
        rpt.OFFCHIP_VERTEX,
        load.energy
        + store.energy
        + counts.random_read_ops * rnd_read.energy
        + counts.random_write_ops * rnd_write.energy,
    )

    resil_energy = 0.0
    if fault_report is not None:
        if edge_dev is not raw_edge_dev:
            resil_energy += edge_stream.energy - raw_edge_dev.transfer_cost(
                AccessKind.READ, counts.edge_stream_bits,
                AccessPattern.SEQUENTIAL,
            ).energy
        if vertex_dev is not raw_vertex_dev or verify_writes:
            base_load = raw_vertex_dev.transfer_cost(
                AccessKind.READ, counts.offchip_load_bits,
                AccessPattern.SEQUENTIAL,
            )
            base_store = raw_vertex_dev.transfer_cost(
                AccessKind.WRITE, counts.offchip_store_bits,
                AccessPattern.SEQUENTIAL,
            )
            base_rnd_read = _narrow_random_cost(
                raw_vertex_dev, AccessKind.READ, hit
            )
            base_rnd_write = _narrow_random_cost(
                raw_vertex_dev, AccessKind.WRITE, hit
            )
            resil_energy += (
                (load.energy - base_load.energy)
                + (store.energy - base_store.energy)
                + counts.random_read_ops
                * (rnd_read.energy - base_rnd_read.energy)
                + counts.random_write_ops
                * (rnd_write.energy - base_rnd_write.energy)
            )

    if sram is not None:
        read_unit = sram.access_cost(AccessKind.READ, AccessPattern.RANDOM)
        write_unit = sram.access_cost(AccessKind.WRITE, AccessPattern.RANDOM)
        onchip_energy = (
            (counts.onchip_read_bits / sram.access_bits) * read_unit.energy
            + (counts.onchip_write_bits / sram.access_bits)
            * write_unit.energy
        )
        if sram_ecc != 1.0:
            onchip_extra = onchip_energy * (
                sram_ecc - 1.0
            ) + secded_logic_energy(
                counts.onchip_read_bits + counts.onchip_write_bits
            )
            onchip_energy += onchip_extra
            resil_energy += onchip_extra
        report.add(rpt.ONCHIP_VERTEX, onchip_energy)

    report.add(
        rpt.PROCESSING,
        counts.pu_ops
        * (pu.op_energy(run.algorithm) + params.PIPELINE_ENERGY_PER_EDGE),
    )
    report.add(
        rpt.ROUTER,
        router.transfer_energy(counts.router_words)
        + router.reroute_energy(counts.reroute_events),
    )
    requests = (
        counts.edge_stream_bits / edge_dev.access_bits
        + counts.offchip_bits / vertex_dev.access_bits
        + counts.random_read_ops
        + counts.random_write_ops
    )
    report.add(rpt.CONTROLLER, requests * params.CONTROLLER_REQUEST_ENERGY)

    # --- time ------------------------------------------------------------
    t_stream = edge_stream.latency + seek_extra_latency
    t_proc = (
        counts.pu_ops * pu.initiation_interval * counts.imbalance
        / cfg.num_pus
    )
    t_random_vertex = 0.0
    if counts.random_read_ops or counts.random_write_ops:
        t_random_vertex = (
            counts.random_read_ops * rnd_read.latency
            + counts.random_write_ops * rnd_write.latency
        ) / min(cfg.random_access_mlp, cfg.num_pus)
    t_step_overheads = counts.steps_total * (
        params.SYNC_LATENCY + pu.pipeline_fill()
    )
    if cfg.data_sharing:
        t_step_overheads += router.fill_latency(counts.steps_total)
    duration = (
        max(t_stream, t_proc, t_random_vertex) + t_step_overheads
        + (load.latency + store.latency)
    )

    # --- power gating (edge memory only, Section 4.1) -------------------
    gating = GatingReport(0.0, 0, 0.0, 0.0)
    if cfg.edge_memory == MemoryTechnology.RERAM and cfg.power_gating.enabled:
        gating = BankPowerGating(cfg.power_gating).plan(
            num_banks=edge_chips * cfg.reram.num_banks,
            active_banks=(
                1 if cfg.reram.subbank_interleaving else cfg.reram.num_banks
            ),
            streamed_bits=counts.edge_stream_bits,
            bank_capacity_bits=cfg.reram.bank_capacity_bits,
            duration=duration,
            failed_banks=prov.failed_banks,
            transition_factor=prov.transition_factor,
        )
        duration += gating.overhead_time
        report.add(rpt.EDGE_MEMORY, gating.overhead_energy)
    report.time = duration

    # --- background energy ------------------------------------------------
    report.add(
        rpt.EDGE_MEMORY_BG,
        edge_chips * edge_dev.background_energy(duration,
                                                gating.gated_fraction),
    )
    report.add(
        rpt.OFFCHIP_VERTEX_BG,
        vertex_chips * vertex_dev.background_energy(duration),
    )
    if sram is not None:
        sram_bg = cfg.num_pus * sram.background_energy(duration)
        if sram_ecc != 1.0:
            resil_energy += sram_bg * (sram_ecc - 1.0)
            sram_bg *= sram_ecc
        report.add(rpt.ONCHIP_VERTEX_BG, sram_bg)
    logic_power = (
        cfg.num_pus * pu.leakage_power
        + router.leakage_power
        + params.CONTROLLER_POWER
    )
    report.add(rpt.LOGIC_BG, logic_power * duration)

    # --- injected-fault accounting -------------------------------------
    if fault_report is not None:
        if edge_dev is not raw_edge_dev:
            resil_energy += edge_chips * (
                edge_dev.background_energy(duration, gating.gated_fraction)
                - raw_edge_dev.background_energy(
                    duration, gating.gated_fraction
                )
            )
        if vertex_dev is not raw_vertex_dev:
            resil_energy += vertex_chips * (
                vertex_dev.background_energy(duration)
                - raw_vertex_dev.background_energy(duration)
            )
        if prov.spare_chips:
            resil_energy += prov.spare_chips * raw_edge_dev.background_energy(
                duration, gating.gated_fraction
            )
        fault_report.add_energy(resil_energy)
    return report, fault_report


def graphr_reference_fold(
    config: GraphRConfig,
    run: AlgorithmRun,
    counts: GraphRCounts,
    workload: Workload,
) -> EnergyReport:
    """Price one GraphR cell, term by term (Section 6)."""
    edges_per_iter = counts.edges_per_iter
    vertices = counts.vertices
    iters = counts.iterations
    edges_total = counts.edges_total

    crossbar = CrossbarModel(navg=counts.navg,
                             num_groups=config.num_crossbar_groups)
    global_mem = ReRAMChip(config.reram)
    regfile = RegisterFile(config.regfile_bits * config.num_crossbar_groups)

    report = EnergyReport(
        machine=config.label,
        algorithm=run.algorithm,
        graph=workload.name,
        edges_traversed=edges_total,
        iterations=iters,
        time=0.0,
    )

    # --- edge storage: stream the edge list once per iteration ------
    edge_stream_bits = edges_total * counts.edge_bits
    stream = global_mem.transfer_cost(
        AccessKind.READ, edge_stream_bits, AccessPattern.SEQUENTIAL
    )
    report.add(rpt.EDGE_MEMORY, stream.energy)

    # --- global vertex traffic (Equations (7) and (9)) ----------------
    loads_per_iter = 16.0 * counts.nonempty_blocks   # N^R_{v,s}
    stores_per_iter = vertices                        # N^W_{v,s}
    load_bits = loads_per_iter * counts.vertex_bits * iters
    store_bits = stores_per_iter * counts.vertex_bits * iters
    load = global_mem.transfer_cost(
        AccessKind.READ, load_bits, AccessPattern.SEQUENTIAL
    )
    store = global_mem.transfer_cost(
        AccessKind.WRITE, store_bits, AccessPattern.SEQUENTIAL
    )
    report.add(rpt.OFFCHIP_VERTEX, load.energy + store.energy)

    # --- local vertex traffic: register files --------------------------
    rf_read = regfile.access_cost(AccessKind.READ, AccessPattern.RANDOM)
    rf_write = regfile.access_cost(AccessKind.WRITE, AccessPattern.RANDOM)
    words_per_vertex = counts.vertex_bits / 32.0
    rf_energy = (
        2.0 * edges_total * words_per_vertex * rf_read.energy
        + edges_total * words_per_vertex * rf_write.energy
        + (load_bits + store_bits) / 32.0 * rf_write.energy
    )
    report.add(rpt.ONCHIP_VERTEX, rf_energy)

    # --- crossbar processing (Equations (11), (12), (15)) --------------
    report.add(rpt.PROCESSING,
               edges_total * crossbar.energy_per_edge(run.algorithm))
    requests = (
        edge_stream_bits / global_mem.access_bits
        + (load_bits + store_bits) / global_mem.access_bits
    )
    report.add(rpt.CONTROLLER, requests * params.CONTROLLER_REQUEST_ENERGY)

    # --- time (Equation (16) dominates) ---------------------------------
    duration = max(
        edges_total * crossbar.latency_per_edge(run.algorithm),
        stream.latency,
        load.latency + store.latency,
    )
    report.time = duration

    # --- background (GraphR has no BPG) ------------------------------------
    footprint = (
        edges_per_iter * counts.edge_bits + vertices * counts.vertex_bits
    ) * FOOTPRINT_SLACK
    chips = max(1, math.ceil(footprint / config.reram.density_bits))
    report.add(rpt.EDGE_MEMORY_BG,
               chips * global_mem.background_energy(duration))
    report.add(rpt.ONCHIP_VERTEX_BG, regfile.standby_power * duration)
    logic_power = params.CONTROLLER_POWER + params.ROUTER_LEAKAGE
    report.add(rpt.LOGIC_BG, logic_power * duration)
    return report


def reference_run(
    config: HyVEConfig | GraphRConfig,
    algorithm: EdgeCentricAlgorithm,
    workload: Workload | Graph,
    faults: FaultProfile | None = None,
) -> SimulationResult:
    """A machine's ``run()`` on the reference: the HyVE fold on fresh
    schedule counts for a :class:`HyVEConfig`, the GraphR fold for a
    :class:`GraphRConfig` (which takes no fault profile)."""
    if isinstance(workload, Graph):
        workload = Workload(workload)
    run = run_cached(algorithm, workload.graph)
    if isinstance(config, GraphRConfig):
        counts = GraphRMachine(config).scheduled_counts(algorithm, run,
                                                         workload)
        return SimulationResult(
            graphr_reference_fold(config, run, counts, workload), run
        )
    counts = ScheduleCounts.compute(run, workload, config)
    report, fault_report = reference_fold(config, run, counts, workload,
                                          faults)
    return SimulationResult(report, run, fault_report)
