"""The accelerator machine model: folds schedule counts into time/energy.

This is the reproduction of the paper's cycle-level simulator at
trace granularity (see DESIGN.md): the algorithm really runs (producing
iteration counts and results), the schedule expands into exact access
counts (Equations (3)-(8)), and this module prices those counts with the
device models and integrates background power over the modelled
execution time — the decomposition of Fig. 8 / Equations (1)-(2).

One machine class covers every accelerator configuration of Fig. 16
(acc+DRAM, acc+ReRAM, acc+SRAM+DRAM, acc+HyVE, acc+HyVE-opt): the
configuration selects the technology at each level and the two
optimisations.  :func:`fold_many` is the one pricing kernel: a single
run is a one-config grid, and fault profiles enter as per-config
unit-cost columns and chip counts (:func:`provision`).  The scalar
reference it is checked against lives in :mod:`repro.verify.reference`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..algorithms.base import EdgeCentricAlgorithm
from ..algorithms.runner import AlgorithmRun, run_cached
from ..errors import ConfigError
from ..faults.injector import FaultInjector
from ..faults.profile import FaultProfile
from ..faults.resilience import (
    BankSparingPlan,
    FaultReport,
    WRITE_RETRY_BOUND,
    expected_write_rounds,
    write_give_up_probability,
)
from ..graph.graph import Graph
from ..memory.base import AccessKind, AccessPattern, MemoryDevice
from ..memory.dram import DDR4Chip, DRAMConfig
from ..memory.ecc import SECDEDDevice, secded_factor, secded_logic_energy
from ..memory.powergate import BankPowerGating, GatingReport
from ..memory.reram import ReRAMChip, ReRAMConfig
from ..memory.sram import OnChipSRAM
from ..obs import metrics as obs_metrics
from ..obs.trace import get_tracer
from . import params, report as rpt
from .config import HyVEConfig, MemoryTechnology, Workload
from .processing_unit import ProcessingUnitModel
from .report import EnergyReport
from .router import RouterModel
from .scheduler import ScheduleCounts

#: Slack factor sizing the memory footprint (30% reserve, Section 5).
FOOTPRINT_SLACK = 1.3

#: The edge memory needs the full 512-bit streaming channel, which on a
#: commodity organisation spans a rank of x64 chips; its background
#: power therefore scales with the full rank even for small datasets.
#: The vertex memory has far lower bandwidth demands ("much smaller
#: capacity... static power is not the main optimization target",
#: Section 3.2) and is provisioned per capacity only.
MIN_EDGE_CHIPS_PER_RANK = 8
MIN_VERTEX_CHIPS = 1


@dataclass(frozen=True)
class SimulationResult:
    """Report plus the algorithm's actual output values.

    ``faults`` carries the injected-fault tally when the machine was
    built with a non-zero :class:`FaultProfile`; it is ``None`` on the
    (bit-identical) ideal-device path.
    """

    report: EnergyReport
    run: AlgorithmRun
    faults: FaultReport | None = None

    @property
    def values(self):
        return self.run.values


class AcceleratorMachine:
    """A graph-processing accelerator with a configurable hierarchy.

    ``faults`` selects a fault profile (see :mod:`repro.faults`); with
    ``None`` or an all-zero profile the machine is exactly the paper's
    ideal-device model — every report is bit-identical to a machine
    built without the argument.
    """

    def __init__(
        self,
        config: HyVEConfig | None = None,
        faults: FaultProfile | None = None,
    ) -> None:
        self.config = config or HyVEConfig()
        self.faults = faults

    @property
    def label(self) -> str:
        return self.config.label

    # --- main entry ---------------------------------------------------------

    def run(
        self,
        algorithm: EdgeCentricAlgorithm,
        workload: Workload | Graph,
    ) -> SimulationResult:
        """Execute ``algorithm`` and model the machine's time and energy.

        The configuration is priced by :func:`fold_many` as a
        one-config grid, so a single run and a batched sweep share one
        pricing kernel.
        """
        if isinstance(workload, Graph):
            workload = Workload(workload)
        tracer = get_tracer()
        with tracer.span(
            "machine.run",
            machine=self.config.label,
            algorithm=algorithm.name,
            graph=workload.name,
        ):
            with tracer.span("algorithm.converge", algorithm=algorithm.name):
                run = run_cached(algorithm, workload.graph)
            with tracer.span("schedule.counts"):
                # Memoized in the two-level run cache (simulate once /
                # price many); bit-identical to ScheduleCounts.compute.
                from ..perf.batch import scheduled_counts

                counts = scheduled_counts(run, workload, self.config)
            with tracer.span("fold"):
                fault_reports: list[FaultReport | None] = []
                [report] = fold_many(
                    run, counts, workload, [self.config],
                    faults=self.faults, fault_reports=fault_reports,
                )
        return SimulationResult(report=report, run=run,
                                faults=fault_reports[0])

    def run_counts(
        self,
        algorithm: EdgeCentricAlgorithm,
        workload: Workload | Graph,
    ) -> ScheduleCounts:
        """Expose the schedule counts (for tests and the analytic model)."""
        if isinstance(workload, Graph):
            workload = Workload(workload)
        run = run_cached(algorithm, workload.graph)
        return ScheduleCounts.compute(run, workload, self.config)


# --- devices and fault provisioning ----------------------------------------


class DeviceCosts(NamedTuple):
    """Every unit cost the pricing kernel asks of one device."""

    sr_lat: float
    sr_en: float
    sw_lat: float
    sw_en: float
    rr_lat: float
    rr_en: float
    rw_lat: float
    rw_en: float
    access_bits: float


#: Shared, memoized device instances, each paired with its
#: :class:`DeviceCosts` (precomputed once per technology point and ECC
#: wrap).  Device models are pure cost functions of their frozen configs
#: (stats helpers are never called on this path), so instances can be
#: shared; ReRAM construction in particular runs an NVSim-lite solve
#: worth caching.
_DEVICE_MEMO: OrderedDict = OrderedDict()
_DEVICE_MEMO_CAP = 128


def clear_device_memo() -> None:
    """Drop every memoized device model.

    The memo assumes a device's costs follow from its frozen config
    alone; code that rescales a device module's calibration constant
    (the sensitivity study) clears it on both sides of the change.
    """
    _DEVICE_MEMO.clear()


def _device_costs(device: MemoryDevice) -> DeviceCosts:
    sr = device.access_cost(AccessKind.READ, AccessPattern.SEQUENTIAL)
    sw = device.access_cost(AccessKind.WRITE, AccessPattern.SEQUENTIAL)
    rr = device.access_cost(AccessKind.READ, AccessPattern.RANDOM)
    rw = device.access_cost(AccessKind.WRITE, AccessPattern.RANDOM)
    return DeviceCosts(sr.latency, sr.energy, sw.latency, sw.energy,
                       rr.latency, rr.energy, rw.latency, rw.energy,
                       float(device.access_bits))


def _shared_device(
    spec: ReRAMConfig | DRAMConfig | int, ecc: bool = False
) -> tuple[MemoryDevice, DeviceCosts]:
    """The memoized device for ``spec`` — a ReRAM or DRAM chip config, or
    an on-chip SRAM capacity in bits — SECDED-wrapped if ``ecc``, with
    its unit costs (LRU, :data:`_DEVICE_MEMO_CAP` entries)."""
    key = (spec, ecc)
    entry = _DEVICE_MEMO.get(key)
    if entry is None:
        if ecc:
            device: MemoryDevice = SECDEDDevice(_shared_device(spec)[0])
        elif isinstance(spec, ReRAMConfig):
            device = ReRAMChip(spec)
        elif isinstance(spec, DRAMConfig):
            device = DDR4Chip(spec)
        else:
            device = OnChipSRAM(spec)
        entry = (device, _device_costs(device))
        _DEVICE_MEMO[key] = entry
        if len(_DEVICE_MEMO) > _DEVICE_MEMO_CAP:
            _DEVICE_MEMO.popitem(last=False)
    else:
        _DEVICE_MEMO.move_to_end(key)
    return entry


def _level_config(cfg: HyVEConfig, tech: str) -> ReRAMConfig | DRAMConfig:
    return cfg.reram if tech == MemoryTechnology.RERAM else cfg.dram


def sized_memory(
    cfg: HyVEConfig, tech: str, footprint_bits: float, min_chips: int
) -> tuple[MemoryDevice, DeviceCosts, int]:
    """The shared chip of one memory level built in ``tech``, its unit
    costs, and the chip count holding ``footprint_bits`` (at least
    ``min_chips``)."""
    device_config = _level_config(cfg, tech)
    device, costs = _shared_device(device_config)
    chips = max(min_chips,
                math.ceil(footprint_bits / device_config.density_bits))
    return device, costs, chips


@dataclass
class Provision:
    """One configuration's devices and chip counts under a fault profile.

    ``edge``/``vertex`` are the priced devices (SECDED-wrapped where
    ECC protects that path); ``raw_edge``/``raw_vertex`` the unprotected
    chips the resilience energy is measured against.  ``write_rounds``
    multiplies ReRAM vertex writes; ``sram_ecc`` the scratchpad's
    traffic and background.  ``faults`` is ``None`` on the ideal-device
    path, where every field holds its identity value.
    """

    edge: MemoryDevice
    edge_costs: DeviceCosts
    raw_edge: MemoryDevice
    raw_edge_costs: DeviceCosts
    vertex: MemoryDevice
    vertex_costs: DeviceCosts
    raw_vertex: MemoryDevice
    raw_vertex_costs: DeviceCosts
    edge_chips: int
    vertex_chips: int
    sram_ecc: float = 1.0
    write_rounds: float = 1.0
    spare_chips: int = 0
    failed_banks: int = 0
    transition_factor: float = 1.0
    faults: FaultReport | None = None


def provision(
    cfg: HyVEConfig,
    run: AlgorithmRun,
    counts: ScheduleCounts,
    workload: Workload,
    faults: FaultProfile | None,
) -> Provision:
    """Size the memories and apply a fault profile's provisioning.

    Draws every fault sample of one (machine, algorithm, graph) run —
    failed banks, stuck cells, transient flips — from an injector
    seeded on ``f"{label}|{algorithm}|{graph}"``, so a config prices
    the same faults alone or inside any grid.  The returned
    :attr:`Provision.faults` lacks only the resilience energy, which
    depends on the priced run.
    """
    edge_footprint = (
        counts.edges_total / counts.iterations
    ) * counts.edge_bits * FOOTPRINT_SLACK
    vertex_footprint = counts.vertices * counts.vertex_bits * FOOTPRINT_SLACK
    raw_edge, raw_edge_costs, edge_chips = sized_memory(
        cfg, cfg.edge_memory, edge_footprint, MIN_EDGE_CHIPS_PER_RANK
    )
    raw_vertex, raw_vertex_costs, vertex_chips = sized_memory(
        cfg, cfg.offchip_vertex, vertex_footprint, MIN_VERTEX_CHIPS
    )
    if faults is None or faults.is_zero:
        return Provision(raw_edge, raw_edge_costs, raw_edge, raw_edge_costs,
                         raw_vertex, raw_vertex_costs, raw_vertex,
                         raw_vertex_costs, edge_chips, vertex_chips)

    injector = FaultInjector(
        faults, tag=f"{cfg.label}|{run.algorithm}|{workload.name}"
    )
    report = FaultReport(faults)
    word_stats = injector.stuck_word_stats()
    report.corrected_word_fraction = word_stats.correctable_fraction
    report.remapped_word_fraction = word_stats.uncorrectable_fraction
    sparing = BankSparingPlan(total_banks=0)
    if cfg.edge_memory == MemoryTechnology.RERAM:
        failed = injector.sample_failed_banks(
            edge_chips * cfg.reram.num_banks
        )
        sparing, edge_chips = BankSparingPlan.build(
            footprint_bits=edge_footprint,
            chips=edge_chips,
            banks_per_chip=cfg.reram.num_banks,
            bank_capacity_bits=cfg.reram.bank_capacity_bits,
            density_bits=cfg.reram.density_bits,
            failed_banks=failed,
            bad_word_fraction=word_stats.uncorrectable_fraction,
        )
        report.failed_banks = failed
        report.spare_chips = sparing.spare_chips
        report.capacity_loss_fraction = sparing.capacity_loss_fraction
        report.stuck_cells = injector.sample_stuck_cells(
            edge_chips * cfg.reram.density_bits
        )
    reram_faulty = (
        faults.effective_stuck_rate > 0 or faults.bank_failure_rate > 0
    )

    def protected(tech: str) -> bool:
        if tech == MemoryTechnology.RERAM:
            return reram_faulty
        return faults.dram_upset_rate > 0

    write_rounds = 1.0
    if faults.reram_write_fail_rate > 0:
        write_rounds = expected_write_rounds(
            faults.reram_write_fail_rate, WRITE_RETRY_BOUND
        )
        report.expected_write_rounds = write_rounds
        report.write_give_up_probability = write_give_up_probability(
            faults.reram_write_fail_rate, WRITE_RETRY_BOUND
        )

    dram_bits = 0.0
    if cfg.offchip_vertex == MemoryTechnology.DRAM:
        dram_bits += counts.offchip_bits
    if cfg.edge_memory == MemoryTechnology.DRAM:
        dram_bits += counts.edge_stream_bits
    flips = injector.sample_transient_flips(dram_bits, faults.dram_upset_rate)
    uncorrectable = injector.uncorrectable_flip_count(
        dram_bits, faults.dram_upset_rate
    )
    if cfg.has_onchip:
        sram_bits = counts.onchip_read_bits + counts.onchip_write_bits
        flips += injector.sample_transient_flips(
            sram_bits, faults.sram_upset_rate
        )
        uncorrectable += injector.uncorrectable_flip_count(
            sram_bits, faults.sram_upset_rate
        )
    report.transient_flips_corrected = flips
    report.transient_flips_uncorrectable = uncorrectable

    edge, edge_costs = _shared_device(
        _level_config(cfg, cfg.edge_memory), ecc=protected(cfg.edge_memory)
    )
    vertex, vertex_costs = _shared_device(
        _level_config(cfg, cfg.offchip_vertex),
        ecc=protected(cfg.offchip_vertex),
    )
    return Provision(
        edge, edge_costs, raw_edge, raw_edge_costs,
        vertex, vertex_costs, raw_vertex, raw_vertex_costs,
        edge_chips, vertex_chips,
        sram_ecc=(
            secded_factor()
            if cfg.has_onchip and faults.sram_upset_rate > 0 else 1.0
        ),
        write_rounds=write_rounds,
        spare_chips=sparing.spare_chips,
        failed_banks=sparing.failed_banks,
        transition_factor=sparing.transition_factor,
        faults=report,
    )


# --- the pricing kernel (simulate once, price many) ------------------------


def _check_grid_config(
    config: HyVEConfig, head: HyVEConfig, counts: ScheduleCounts
) -> None:
    """Reject a config whose schedule would differ from ``counts``.

    Every mismatched knob is collected before raising, so a tuner
    debugging a wide grid sees the whole shape of the problem in one
    :class:`ConfigError` instead of peeling mismatches off one by one.
    """
    from .config import choose_num_intervals

    problems: list[str] = []
    if config.num_pus != counts.num_pus:
        problems.append(
            f"num_pus={config.num_pus}, counts expect {counts.num_pus}"
        )
    p = choose_num_intervals(config, counts.vertices, counts.vertex_bits)
    if p != counts.num_intervals:
        problems.append(
            f"partitions into {p} intervals, counts expect "
            f"{counts.num_intervals}"
        )
    for flag in ("has_onchip", "data_sharing", "hash_placement"):
        if getattr(config, flag) != getattr(head, flag):
            problems.append(
                f"{flag}={getattr(config, flag)} differs from the "
                f"grid's {getattr(head, flag)}"
            )
    if problems:
        raise ConfigError(
            f"fold_many: config {config.label!r} does not share the "
            f"grid's schedule — " + "; ".join(problems)
            + "; group configs by counts key first"
        )


def fold_many(
    run: AlgorithmRun,
    counts: ScheduleCounts,
    workload: Workload,
    configs: list[HyVEConfig],
    *,
    faults: FaultProfile | None = None,
    fault_reports: list | None = None,
) -> list[EnergyReport]:
    """Price one :class:`ScheduleCounts` against a grid of configs.

    The one pricing kernel of the HyVE machines — Equations (1)-(8)
    and the Fig. 8 decomposition.  Per-config unit costs are gathered
    from memoized device models, the dynamic-energy and busy-time terms
    are evaluated as NumPy float64 array passes, and the per-config
    tail (BPG planning, background integration, report assembly) runs
    element by element.  :meth:`AcceleratorMachine.run` is this kernel
    on a one-config grid; :func:`repro.verify.reference.reference_fold`
    is the scalar reference every element stays bit-identical to.

    ``faults`` prices every config under that profile (see
    :func:`provision`): each fault effect is a per-config unit-cost
    column or chip count, identity-valued on a fault-free config.  When
    ``fault_reports`` is a list it is extended with one
    :class:`FaultReport` per config (``None`` where the profile is
    absent or all zero).

    Every config must share the schedule described by ``counts``
    (grouping by :func:`repro.perf.batch.counts_cache_key` guarantees
    this); mismatches raise :class:`ConfigError`.
    """
    if not configs:
        return []
    head = configs[0]
    for config in configs:
        _check_grid_config(config, head, counts)
    if faults is not None and faults.is_zero:
        faults = None
    tracer = get_tracer()
    metrics = obs_metrics.get_metrics()
    metrics.counter(obs_metrics.FOLD_MANY_CONFIGS).add(len(configs))
    with tracer.span(
        "fold_many",
        algorithm=run.algorithm,
        graph=workload.name,
        configs=len(configs),
    ):
        reports, provisions = _fold_many_impl(
            run, counts, workload, configs, faults
        )
    if fault_reports is not None:
        fault_reports.extend(p.faults for p in provisions)
    return reports


def _columns(rows: list[tuple[float, ...]]):
    """Per-config value columns: Python floats for a one-config grid,
    float64 arrays otherwise.  Both run the same IEEE-754 operations;
    the floats skip NumPy's fixed cost per operation on one-element
    arrays, which would dominate a single ``run()``."""
    return rows[0] if len(rows) == 1 else np.array(rows, dtype=np.float64).T


def _per_config(column) -> list[float]:
    """A value computed from :func:`_columns`, one float per config."""
    if isinstance(column, np.ndarray):
        return column.tolist()
    return [float(column)]


def _narrow_random(c: DeviceCosts, hit, write: bool = False):
    """(latency, energy) of one 64-bit random vertex access at row-hit
    rate ``hit`` (see ``repro.verify.reference._narrow_random_cost``)."""
    seq_lat, seq_en, rnd_lat, rnd_en = (
        (c.sw_lat, c.sw_en, c.rw_lat, c.rw_en) if write
        else (c.sr_lat, c.sr_en, c.rr_lat, c.rr_en)
    )
    hit_en = seq_en * (64.0 / c.access_bits)
    miss_en = hit_en + np.maximum(0.0, rnd_en - seq_en)
    return (hit * seq_lat + (1.0 - hit) * rnd_lat,
            hit * hit_en + (1.0 - hit) * miss_en)


def _fold_many_impl(
    run: AlgorithmRun,
    counts: ScheduleCounts,
    workload: Workload,
    configs: list[HyVEConfig],
    faults: FaultProfile | None,
) -> tuple[list[EnergyReport], list[Provision]]:
    onchip = configs[0].has_onchip
    # --- gather: per-config provisioning and unit-cost rows ------------
    provisions: list[Provision] = []
    srams: list[OnChipSRAM] = []
    rows: list[tuple[float, ...]] = []
    onchip_bits = counts.onchip_read_bits + counts.onchip_write_bits
    op_energy = pipeline_fill = 0.0
    for cfg in configs:
        p = provision(cfg, run, counts, workload, faults)
        provisions.append(p)
        if onchip:
            sram, s = _shared_device(cfg.sram_bits)
            srams.append(sram)
            # SRAM costs are pattern-independent: its cycle is the read.
            sram_cycle, s_r_en, s_w_en = s.rr_lat, s.rr_en, s.rw_en
            s_abits = s.access_bits
        else:
            sram_cycle = p.edge_costs.rr_lat / cfg.random_access_mlp
            s_r_en = s_w_en = 0.0
            s_abits = 1.0
        pu = ProcessingUnitModel(sram_cycle=sram_cycle)
        op_energy = pu.op_energy(run.algorithm)
        pipeline_fill = pu.pipeline_fill()
        rows.append(
            p.edge_costs + p.raw_edge_costs + p.vertex_costs
            + p.raw_vertex_costs + (
                cfg.region_hit_rate,
                float(min(cfg.random_access_mlp, cfg.num_pus)),
                pu.initiation_interval,
                s_r_en, s_w_en, s_abits,
                p.sram_ecc,
                # ECC encode/decode logic, only where the SRAM is protected.
                secded_logic_energy(onchip_bits) if p.sram_ecc != 1.0
                else 0.0,
                # Write-verify rounds apply to ReRAM vertex writes only.
                p.write_rounds
                if cfg.offchip_vertex == MemoryTechnology.RERAM else 1.0,
            )
        )
    cols = _columns(rows)
    n = len(DeviceCosts._fields)
    e, e_raw, v, v_raw = (DeviceCosts(*cols[k * n:(k + 1) * n])
                          for k in range(4))
    (hit, mlp, ii, s_r_en, s_w_en, s_abits, sram_ecc, sram_logic,
     write_rounds) = cols[4 * n:]

    # --- vector passes: dynamic energy and busy time -------------------
    # Operand order matches the scalar reference expression for
    # expression; fault columns are 1.0 / 0.0 on fault-free configs,
    # where ``x * 1.0`` and ``x + 0.0`` are exact.
    e_accesses = counts.edge_stream_bits / e.access_bits
    edge_stream_en = e.sr_en * e_accesses
    edge_stream_lat = e.sr_lat * e_accesses
    seek_extra = counts.block_seeks * np.maximum(0.0, e.rr_lat - e.sr_lat)

    load_acc = counts.offchip_load_bits / v.access_bits
    load_en = v.sr_en * load_acc
    load_lat = v.sr_lat * load_acc
    store_acc = counts.offchip_store_bits / v.access_bits
    store_en = v.sw_en * store_acc * write_rounds
    store_lat = v.sw_lat * store_acc * write_rounds
    rnd_r_lat, rnd_r_en = _narrow_random(v, hit)
    rnd_w_lat, rnd_w_en = _narrow_random(v, hit, write=True)
    rnd_w_lat = rnd_w_lat * write_rounds
    rnd_w_en = rnd_w_en * write_rounds
    offchip_en = (
        load_en
        + store_en
        + counts.random_read_ops * rnd_r_en
        + counts.random_write_ops * rnd_w_en
    )
    onchip_en = (
        (counts.onchip_read_bits / s_abits) * s_r_en
        + (counts.onchip_write_bits / s_abits) * s_w_en
    )
    onchip_ecc_en = onchip_en * (sram_ecc - 1.0) + sram_logic
    onchip_en = onchip_en + onchip_ecc_en

    processing_en = counts.pu_ops * (
        op_energy + params.PIPELINE_ENERGY_PER_EDGE
    )
    router = RouterModel(counts.num_pus)
    router_en = router.transfer_energy(
        counts.router_words
    ) + router.reroute_energy(counts.reroute_events)
    requests = (
        e_accesses
        + counts.offchip_bits / v.access_bits
        + counts.random_read_ops
        + counts.random_write_ops
    )
    controller_en = requests * params.CONTROLLER_REQUEST_ENERGY

    t_stream = edge_stream_lat + seek_extra
    t_proc = counts.pu_ops * ii * counts.imbalance / counts.num_pus
    if counts.random_read_ops or counts.random_write_ops:
        t_random = (
            counts.random_read_ops * rnd_r_lat
            + counts.random_write_ops * rnd_w_lat
        ) / mlp
    else:
        t_random = 0.0 * hit
    t_step = counts.steps_total * (params.SYNC_LATENCY + pipeline_fill)
    if configs[0].data_sharing:
        t_step += router.fill_latency(counts.steps_total)
    t_processing_phase = (
        np.maximum(np.maximum(t_stream, t_proc), t_random) + t_step
    )
    t_schedule = load_lat + store_lat
    duration0 = t_processing_phase + t_schedule

    logic_power = (
        counts.num_pus * params.PU_LEAKAGE
        + router.leakage_power
        + params.CONTROLLER_POWER
    )

    # Resilience energy: what the protected devices and write-verify
    # rounds cost beyond the raw chips, summed in the reference's order.
    resilience_en = None
    if faults is not None:
        raw_rnd_r_en = _narrow_random(v_raw, hit)[1]
        raw_rnd_w_en = _narrow_random(v_raw, hit, write=True)[1]
        resilience_en = (
            edge_stream_en - e_raw.sr_en * e_accesses
        ) + (
            (load_en - v_raw.sr_en * load_acc)
            + (store_en - v_raw.sw_en * store_acc)
            + counts.random_read_ops * (rnd_r_en - raw_rnd_r_en)
            + counts.random_write_ops * (rnd_w_en - raw_rnd_w_en)
        ) + onchip_ecc_en

    # --- tail: per-config gating, background, report assembly ----------
    # Inherently per element (dict insertion order, BPG branch); every
    # value is a Python float so reports round-trip through repr()/JSON
    # exactly like the reference's.
    (edge_stream_en, offchip_en, onchip_en, controller_en, duration0,
     t_stream, t_proc, t_random, t_schedule) = map(_per_config, (
        edge_stream_en, offchip_en, onchip_en, controller_en, duration0,
        t_stream, t_proc, t_random, t_schedule))
    if resilience_en is not None:
        resilience_en = _per_config(resilience_en)
    reports: list[EnergyReport] = []
    metrics = obs_metrics.get_metrics()
    edges_streamed = metrics.counter(obs_metrics.EDGES_STREAMED)
    bank_wakes = metrics.counter(obs_metrics.BPG_BANK_WAKES)
    rotations = metrics.counter(obs_metrics.ROUTER_ROTATIONS)
    tracer = get_tracer()
    for i, (cfg, p) in enumerate(zip(configs, provisions)):
        report = EnergyReport(
            machine=cfg.label,
            algorithm=run.algorithm,
            graph=workload.name,
            edges_traversed=counts.edges_total,
            iterations=counts.iterations,
            time=0.0,
        )
        report.add(rpt.EDGE_MEMORY, edge_stream_en[i])
        report.add(rpt.OFFCHIP_VERTEX, offchip_en[i])
        if onchip:
            report.add(rpt.ONCHIP_VERTEX, onchip_en[i])
        report.add(rpt.PROCESSING, processing_en)
        report.add(rpt.ROUTER, router_en)
        report.add(rpt.CONTROLLER, controller_en[i])

        duration = duration0[i]
        gating = GatingReport(0.0, 0, 0.0, 0.0)
        if (
            cfg.edge_memory == MemoryTechnology.RERAM
            and cfg.power_gating.enabled
        ):
            gater = BankPowerGating(cfg.power_gating)
            gating = gater.plan(
                num_banks=p.edge_chips * cfg.reram.num_banks,
                active_banks=(
                    1 if cfg.reram.subbank_interleaving
                    else cfg.reram.num_banks
                ),
                streamed_bits=counts.edge_stream_bits,
                bank_capacity_bits=cfg.reram.bank_capacity_bits,
                duration=duration,
                failed_banks=p.failed_banks,
                transition_factor=p.transition_factor,
            )
            duration += gating.overhead_time
            report.add(rpt.EDGE_MEMORY, gating.overhead_energy)
        report.time = duration

        edge_bg = p.edge.background_energy(duration, gating.gated_fraction)
        vertex_bg = p.vertex.background_energy(duration)
        report.add(rpt.EDGE_MEMORY_BG, p.edge_chips * edge_bg)
        report.add(rpt.OFFCHIP_VERTEX_BG, p.vertex_chips * vertex_bg)
        if onchip:
            sram_bg = cfg.num_pus * srams[i].background_energy(duration)
            report.add(rpt.ONCHIP_VERTEX_BG, sram_bg * p.sram_ecc)
        report.add(rpt.LOGIC_BG, logic_power * duration)

        if p.faults is not None:
            resilience = resilience_en[i]
            if onchip:
                resilience += sram_bg * (p.sram_ecc - 1.0)
            raw_edge_bg = p.raw_edge.background_energy(
                duration, gating.gated_fraction
            )
            resilience += p.edge_chips * (edge_bg - raw_edge_bg)
            resilience += p.vertex_chips * (
                vertex_bg - p.raw_vertex.background_energy(duration)
            )
            resilience += p.spare_chips * raw_edge_bg
            p.faults.add_energy(resilience)

        edges_streamed.add(counts.edges_total)
        bank_wakes.add(gating.transitions)
        rotations.add(counts.reroute_events)
        if tracer.enabled:
            from ..obs.attribution import emit_report

            ts, tp, trv = t_stream[i], t_proc[i], t_random[i]
            # The processing phase is the max of three overlapped
            # services; attribute it to whichever dominated, so phase
            # times sum exactly to the report's modelled time.
            phase_times = {phase: 0.0 for phase in
                           ("stream", "process", "schedule", "gating")}
            if ts >= tp and ts >= trv:
                phase_times["stream"] += ts
            elif tp >= trv:
                phase_times["process"] += tp
            else:
                phase_times["schedule"] += trv
            phase_times["process"] += float(t_step)
            phase_times["schedule"] += t_schedule[i]
            phase_times["gating"] += gating.overhead_time
            emit_report(
                tracer, report, phase_times,
                detail={
                    "t_stream": ts,
                    "t_compute": tp,
                    "t_random_vertex": trv,
                    "t_step_overheads": float(t_step),
                    "bank_wake_transitions": gating.transitions,
                },
            )
        reports.append(report)
    return reports, provisions


def make_machine(
    name: str, faults: FaultProfile | None = None
) -> AcceleratorMachine:
    """Instantiate an accelerator machine by its Fig. 16 label."""
    from .config import NAMED_CONFIGS

    if name not in NAMED_CONFIGS:
        known = ", ".join(NAMED_CONFIGS)
        raise ConfigError(f"unknown machine {name!r}; known: {known}")
    return AcceleratorMachine(NAMED_CONFIGS[name](), faults=faults)


def fold_time_slices(slices) -> EnergyReport:
    """Time-sliced energy attribution over an evolving graph.

    ``slices`` is a sequence of ``(start, end, report)`` spans — e.g.
    :class:`repro.dynamic.temporal.TimeSlice` — where ``report`` priced
    the snapshot alive over the half-open logical interval
    ``[start, end)``.  Each span contributes its per-run quantities
    weighted by its width in logical ticks (a snapshot that stayed
    live three times as long is attributed three times the energy and
    busy time), and the weighted spans add into one aggregate
    :class:`EnergyReport` labelled with the covered window.

    Spans must be non-empty, share one machine and algorithm, and be
    sorted and non-overlapping; violations raise
    :class:`ConfigError`.
    """
    spans = [
        (s.start, s.end, s.report) if hasattr(s, "report") else tuple(s)
        for s in slices
    ]
    if not spans:
        raise ConfigError("fold_time_slices needs at least one slice")
    prev_end = None
    for start, end, _ in spans:
        if end <= start:
            raise ConfigError(f"empty time slice [{start}, {end})")
        if prev_end is not None and start < prev_end:
            raise ConfigError(
                f"time slices overlap at t={start} (previous span ends "
                f"at {prev_end})"
            )
        prev_end = end
    head = spans[0][2]
    total = EnergyReport(
        machine=head.machine,
        algorithm=head.algorithm,
        graph=f"{head.graph}[t{spans[0][0]}:t{spans[-1][1]}]",
        edges_traversed=0.0,
        iterations=0,
        time=0.0,
    )
    for start, end, report in spans:
        if (report.machine, report.algorithm) != (head.machine,
                                                  head.algorithm):
            raise ConfigError(
                f"cannot fold {report.machine}/{report.algorithm} into "
                f"{head.machine}/{head.algorithm} time slices"
            )
        width = end - start
        total.edges_traversed += width * report.edges_traversed
        total.iterations += width * report.iterations
        total.time += width * report.time
        for component, joules in report.energy.items():
            total.add(component, width * joules)
    return total
