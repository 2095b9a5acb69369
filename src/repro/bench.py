"""``repro bench``: the benchmark suites and their one report path.

Every suite is one entry of :data:`SUITES`; its body's docstring says
what it measures and which gates it checks. :func:`run_suite` runs a
suite and writes its report; :func:`cmd_bench` is the CLI.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import platform
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from . import __version__
from .config import Settings
from .runner import (
    ResultCache,
    collecting_stats,
    code_fingerprint,
    resolve_jobs,
)

__all__ = [
    "BENCH_FIGURES",
    "OBS_OVERHEAD_GATE",
    "OBS_REQUIRED_SPANS",
    "Suite",
    "SUITES",
    "run_suite",
    "add_bench_arguments",
    "cmd_bench",
]

#: What a suite body returns: its report keys and ``{gate: passed}``.
SuiteResult = Tuple[Dict[str, Any], Dict[str, bool]]


@dataclass(frozen=True)
class Suite:
    """One ``repro bench`` suite.

    ``run(**options)`` returns the suite's report keys and its gates;
    ``options`` names the CLI flags (argparse dests) the suite reads;
    ``summary(report)`` renders a written report for the console.
    """

    name: str
    options: FrozenSet[str]
    run: Callable[..., SuiteResult]
    summary: Callable[[Dict[str, Any]], str]


#: The sweep-backed figures the ``sweeps`` suite can time.
BENCH_FIGURES = ("fig13", "fig14", "fig15", "fig16", "fig17", "fig18")


def _add_speedup(entry: Dict[str, Any]) -> None:
    """Set ``speedup_vs_serial``: serial estimate over wall-clock."""
    wall = entry["wall_seconds"]
    entry["speedup_vs_serial"] = (
        entry["serial_seconds_estimate"] / wall if wall > 0 else float("inf")
    )


def _run_sweeps(
    figures: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    mixes: Optional[int] = None,
    epochs: Optional[int] = None,
    cold: bool = False,
) -> SuiteResult:
    """Time the sweep-backed figures through the parallel runner.

    Records, per figure: wall-clock seconds, cells computed vs. served
    from the result cache, the estimated serial cost (sum of the
    per-cell compute durations the cache records, so warm runs still
    report an honest speedup without re-running the sweep serially), and
    the speedup vs. that estimate. With ``cold=True`` the result cache is
    cleared first, so every cell is recomputed. No gates.
    """
    figures = list(figures) if figures else list(BENCH_FIGURES)
    unknown = [f for f in figures if f not in BENCH_FIGURES]
    if unknown:
        raise ValueError(
            f"unknown figures {unknown}; choose from "
            f"{sorted(BENCH_FIGURES)}"
        )
    jobs_resolved = resolve_jobs(jobs)
    cache = ResultCache()
    if cold:
        cache.clear()
    per_figure: Dict[str, Dict[str, Any]] = {}
    for name in figures:
        figure = importlib.import_module(
            f".experiments.{name}", __package__
        )
        with collecting_stats() as stats:
            start = time.perf_counter()
            figure.run(mixes=mixes, epochs=epochs, jobs=jobs)
            wall = time.perf_counter() - start
        entry = stats.as_dict()
        # Figure wall-clock includes aggregation outside the runner.
        entry["wall_seconds"] = wall
        _add_speedup(entry)
        per_figure[name] = entry
    totals = {
        key: sum(f[key] for f in per_figure.values())
        for key in (
            "cells",
            "computed",
            "cache_hits",
            "wall_seconds",
            "serial_seconds_estimate",
        )
    }
    totals["cache_hit_rate"] = (
        totals["cache_hits"] / totals["cells"] if totals["cells"] else 0.0
    )
    _add_speedup(totals)
    body = {
        "jobs": jobs_resolved,
        "mixes": mixes,
        "epochs": epochs,
        "cold": cold,
        "cache_dir": str(cache.directory),
        "figures": per_figure,
        "total": totals,
    }
    return body, {}


def _summarize_sweeps(report: Dict[str, Any]) -> str:
    lines = [
        f"bench: {len(report['figures'])} figure(s), "
        f"jobs={report['jobs']}, cache={report['cache_dir']}"
    ]
    for name, entry in report["figures"].items():
        lines.append(
            f"  {name}: {entry['wall_seconds']:.2f}s wall, "
            f"{entry['computed']} computed + "
            f"{entry['cache_hits']} cached cells, "
            f"{entry['speedup_vs_serial']:.1f}x vs serial"
        )
    total = report["total"]
    lines.append(
        f"  total: {total['wall_seconds']:.2f}s wall, "
        f"cache hit rate {total['cache_hit_rate']:.0%}, "
        f"{total['speedup_vs_serial']:.1f}x vs serial"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# tracesim suite
# --------------------------------------------------------------------------


def _tracesim_streams(accesses: int, config) -> List[List[int]]:
    """Materialised per-core access streams for the benchmark workload.

    One third each of Zipf reuse, uniform working-set reuse, and
    streaming scans — miss-heavy enough that the LLC banks do real
    eviction/partition work. Generated once so the fast path and the
    scalar reference replay byte-identical streams and the measurement
    excludes trace-generation cost.
    """
    from .workloads.traces import (
        StreamingTrace,
        WorkingSetTrace,
        ZipfTrace,
    )

    streams = []
    for core in range(config.num_cores):
        if core % 3 == 0:
            trace = ZipfTrace(
                40_000, alpha=0.9, seed=core,
                base_line=core << 32,
            )
        elif core % 3 == 1:
            trace = WorkingSetTrace(
                30_000, seed=core, base_line=core << 32
            )
        else:
            trace = StreamingTrace(50_000, base_line=core << 32)
        streams.append(trace.lines(accesses))
    return streams


def _replay_sim(sim_cls, streams: List[List[int]], config):
    """A simulator instance with every core replaying its stream."""
    from .vtb.vtb import descriptor_from_allocation
    from .workloads.traces import ReplayTrace

    sim = sim_cls(config)
    for core, stream in enumerate(streams):
        group = (core % 4) * 5
        alloc = {bank: 1.0 for bank in range(group, group + 5)}
        sim.add_core(
            core,
            ReplayTrace(stream),
            vc_id=core,
            descriptor=descriptor_from_allocation(alloc),
        )
    return sim


def _timed_run(sim, accesses: int) -> Tuple[float, Dict]:
    start = time.perf_counter()
    sim.run(accesses)
    return time.perf_counter() - start, sim.stats()


def _profile_epoch(
    path: pathlib.Path, accesses_per_core: int
) -> Dict[str, Any]:
    """cProfile one closed-loop epoch; dump pstats to ``path``."""
    import cProfile
    import pstats

    from .core.designs import make_design
    from .sim.epochsim import ClosedLoopSimulation, TraceApp
    from .workloads.traces import WorkingSetTrace, ZipfTrace

    apps = []
    corners = [(0, 1), (4, 3), (15, 16), (19, 18)]
    for vm, (lc_core, batch_core) in enumerate(corners):
        apps.append(
            TraceApp(
                f"lc{vm}", lc_core, vm,
                ZipfTrace(3000, alpha=1.0, seed=vm), is_lc=True,
            )
        )
        apps.append(
            TraceApp(
                f"b{vm}", batch_core, vm,
                WorkingSetTrace(
                    5000, seed=100 + vm, base_line=10**7 * (vm + 1)
                ),
            )
        )
    sim = ClosedLoopSimulation(
        make_design("Jumanji"), apps,
        lat_sizes={f"lc{v}": 0.2 for v in range(4)},
    )
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run_epoch(accesses_per_core=accesses_per_core)
    profiler.disable()
    profiler.dump_stats(str(path))
    stats = pstats.Stats(profiler)
    return {
        "path": str(path),
        "total_calls": int(stats.total_calls),
        "total_seconds": float(stats.total_tt),
    }


def _run_tracesim(
    accesses: int = 20_000,
    seeds: int = 4,
    jobs: Optional[int] = None,
    cold: bool = False,
    profile: Optional[pathlib.Path] = None,
) -> SuiteResult:
    """Time the trace-simulator fast path against the scalar reference.

    Runs the array-backed fast path (``repro.sim.tracesim``) and the
    frozen scalar reference (``repro.sim.reference``) on byte-identical
    replayed streams of ``accesses`` rounds per core, then shards
    ``seeds`` independent ``tracesim_run`` cells over the runner pool
    and result cache. With ``cold=True`` the result cache is cleared
    first; with a ``profile`` path, cProfile stats of one closed-loop
    simulated epoch are dumped there.

    Gate: ``stats_identical`` — the two implementations' aggregate
    :class:`~repro.sim.tracesim.TraceStats` are bit-identical.
    """
    from .config import SystemConfig
    from .sim.reference import ReferenceTraceSimulator
    from .sim.shard import shard_tracesim_runs
    from .sim.tracesim import TraceSimulator

    if accesses < 1:
        raise ValueError("need at least one access per core")
    if seeds < 1:
        raise ValueError("need at least one sharded seed run")
    jobs_resolved = resolve_jobs(jobs)
    # The sharded phase runs only a handful of small cells; spreading
    # them over a huge default pool pays more in worker spin-up than the
    # parallelism returns (and on busy many-core boxes the measured
    # "speedup" drops below 1x). Unless the caller pinned a job count
    # (arg or REPRO_JOBS), cap the shard pool at 4 workers and record
    # the pool size actually used in the report.
    if jobs is None and Settings.from_env().jobs is None:
        shard_jobs = min(4, os.cpu_count() or 1)
    else:
        shard_jobs = jobs_resolved
    cache = ResultCache()
    if cold:
        cache.clear()
    config = SystemConfig()
    streams = _tracesim_streams(accesses, config)
    total = accesses * config.num_cores

    fast_wall, fast_stats = _timed_run(
        _replay_sim(TraceSimulator, streams, config), accesses
    )
    ref_wall, ref_stats = _timed_run(
        _replay_sim(ReferenceTraceSimulator, streams, config), accesses
    )

    # Sharded per-seed runs through the pool + content-addressed cache.
    run_specs = [
        {
            "cores": [
                {
                    "core_id": core,
                    "trace": {
                        "kind": "zipf",
                        "num_lines": 20_000,
                        "alpha": 0.9,
                        "seed": seed * 1000 + core,
                        "base_line": core << 32,
                    },
                    "banks": [
                        (core % 4) * 5 + off for off in range(5)
                    ],
                    "partition": f"app{core}",
                }
                for core in range(config.num_cores)
            ],
            "rounds": accesses,
            "bank_sets": 64,
        }
        for seed in range(seeds)
    ]
    shard_start = time.perf_counter()
    _, runner = shard_tracesim_runs(run_specs, jobs=shard_jobs)
    shard_wall = time.perf_counter() - shard_start

    stats_identical = fast_stats == ref_stats
    body = {
        "jobs": jobs_resolved,
        "cold": cold,
        "cache_dir": str(cache.directory),
        "workload": {
            "cores": config.num_cores,
            "accesses_per_core": accesses,
            "total_accesses": total,
        },
        "scalar_reference": {
            "wall_seconds": ref_wall,
            "accesses_per_sec": total / ref_wall,
        },
        "fast_path": {
            "wall_seconds": fast_wall,
            "accesses_per_sec": total / fast_wall,
        },
        "speedup_vs_scalar": ref_wall / fast_wall,
        "stats_identical": stats_identical,
        "sharded_runs": dict(
            runner.stats.as_dict(),
            seeds=seeds,
            pool_jobs=shard_jobs,
            wall_seconds=shard_wall,
        ),
        "profile": (
            _profile_epoch(profile, min(accesses, 5000))
            if profile
            else None
        ),
    }
    return body, {"stats_identical": stats_identical}


def _summarize_tracesim(report: Dict[str, Any]) -> str:
    ref = report["scalar_reference"]
    fast = report["fast_path"]
    shards = report["sharded_runs"]
    lines = [
        f"tracesim: {report['workload']['total_accesses']:,} accesses "
        f"x {report['workload']['cores']} cores, jobs={report['jobs']}",
        f"  scalar reference: {ref['accesses_per_sec']:,.0f} acc/s "
        f"({ref['wall_seconds']:.2f}s)",
        f"  fast path:        {fast['accesses_per_sec']:,.0f} acc/s "
        f"({fast['wall_seconds']:.2f}s)",
        f"  speedup {report['speedup_vs_scalar']:.2f}x, stats "
        f"identical: {report['stats_identical']}",
        f"  sharded runs: {shards['computed']} computed + "
        f"{shards['cache_hits']} cached cells in "
        f"{shards['wall_seconds']:.2f}s "
        f"(pool of {shards['pool_jobs']})",
    ]
    if report["profile"]:
        lines.append(f"  profile: {report['profile']['path']}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# model suite (vectorised epoch engine vs scalar reference)
# --------------------------------------------------------------------------


#: Per-design speedup floors (batched engine vs scalar reference),
#: enforced when the bench runs at or above :data:`MODEL_FLOOR_MIXES`
#: mixes — an Adaptive-speedup regression fails the bench. Below that
#: scale (CI smoke at 1-2 mixes, where fixed per-run overheads dominate
#: and timings are noisy) only :data:`MODEL_SMOKE_FLOOR` applies.
MODEL_SPEEDUP_FLOORS: Dict[str, float] = {
    "Static": 4.0,
    "Adaptive": 3.0,
    "VM-Part": 8.0,
    "Jigsaw": 10.0,
    "Jumanji": 8.0,
}

#: Overall (sum-of-reference / sum-of-batch) floor at full scale.
MODEL_OVERALL_FLOOR = 10.0

#: Mix count at which the full per-design floors kick in.
MODEL_FLOOR_MIXES = 8

#: Floor applied below :data:`MODEL_FLOOR_MIXES` mixes: catches only a
#: catastrophic regression (batch slower than reference) without making
#: tiny smoke runs flaky.
MODEL_SMOKE_FLOOR = 0.5


def _warm_deadlines(lc_workload: str, load: str) -> None:
    """Fill the shared, bounded deadline ``lru_cache`` outside timing."""
    from .model.system import compute_deadline_cycles
    from .model.workload import make_default_workload
    from .workloads.mixes import base_app

    probe = make_default_workload([lc_workload], mix_seed=0, load=load)
    for app in probe.lc_apps:
        compute_deadline_cycles(
            base_app(app), router_delay=probe.config.router_delay
        )


def _run_model(
    mixes: int = 2,
    epochs: Optional[int] = None,
    designs: Optional[List[str]] = None,
    lc_workload: str = "xapian",
    load: str = "high",
) -> SuiteResult:
    """Time the batched multi-mix epoch engine on the Fig. 13 loop.

    Each design runs once as a single
    :class:`~repro.model.batch.BatchSystemModel` over all ``mixes``
    mixes (one fused queueing kernel per epoch), then once per mix
    under the frozen scalar reference engine with the same seeds and a
    fresh workload each. Deadlines are prewarmed (they are a shared
    ``lru_cache`` both engines hit) so the timing covers the epoch loop
    itself. ``epochs`` defaults to ``REPRO_EPOCHS`` or 20.

    Gates: ``stats_identical`` — every per-mix ``RunResult`` pair is
    bit-identical; ``floors_ok`` — per-design speedups meet
    :data:`MODEL_SPEEDUP_FLOORS` (and the overall speedup
    :data:`MODEL_OVERALL_FLOOR`) when ``mixes`` is at least
    :data:`MODEL_FLOOR_MIXES`, else :data:`MODEL_SMOKE_FLOOR`;
    ``deadline_cache_bounded`` — the deadline memo has a maxsize.
    """
    from .core.designs import make_design
    from .experiments.common import (
        DEFAULT_DESIGNS,
        num_epochs,
        run_seed,
    )
    from .model.batch import BatchSystemModel
    from .model.system import SystemModel, deadline_cache_info
    from .model.workload import make_default_workload

    if mixes < 1:
        raise ValueError("need at least one batch mix")
    epochs = epochs if epochs is not None else num_epochs()
    designs = list(designs) if designs else list(DEFAULT_DESIGNS)
    at_scale = mixes >= MODEL_FLOOR_MIXES
    _warm_deadlines(lc_workload, load)

    seeds = [run_seed(0, m) for m in range(mixes)]
    cells: List[Dict[str, Any]] = []
    per_design: Dict[str, Dict[str, Any]] = {}
    for design_name in designs:
        # One batched run across every mix in lockstep.
        batch_model = BatchSystemModel(
            design_name,
            [
                make_default_workload(
                    [lc_workload], mix_seed=m, load=load
                )
                for m in range(mixes)
            ],
            seeds=seeds,
        )
        start = time.perf_counter()
        batch_results = batch_model.run(epochs)
        batch_wall = time.perf_counter() - start

        # Per-mix scalar reference runs, same seeds, fresh workloads.
        ref_wall = 0.0
        for mix_seed, batch_result in enumerate(batch_results):
            workload = make_default_workload(
                [lc_workload], mix_seed=mix_seed, load=load
            )
            ref_model = SystemModel(
                make_design(design_name), workload,
                seed=seeds[mix_seed], engine="reference",
            )
            start = time.perf_counter()
            ref_result = ref_model.run(epochs)
            cell_wall = time.perf_counter() - start
            ref_wall += cell_wall
            cells.append(
                {
                    "design": design_name,
                    "mix_seed": mix_seed,
                    "reference_seconds": cell_wall,
                    "identical": batch_result.canonical()
                    == ref_result.canonical(),
                }
            )

        floor = (
            MODEL_SPEEDUP_FLOORS.get(design_name, MODEL_SMOKE_FLOOR)
            if at_scale
            else MODEL_SMOKE_FLOOR
        )
        speedup = ref_wall / batch_wall
        placement_hits = batch_model.memo_hits
        subepoch_hits = batch_model.subepoch_hits
        per_design[design_name] = {
            "batch_seconds": batch_wall,
            "reference_seconds": ref_wall,
            "speedup": speedup,
            "speedup_floor": floor,
            "floor_ok": speedup >= floor,
            # Placement-level + sub-epoch (per-app descriptor) hits;
            # both matter — Adaptive memoizes at sub-epoch granularity.
            "memo_hits": placement_hits + subepoch_hits,
            "placement_memo_hits": placement_hits,
            "subepoch_memo_hits": subepoch_hits,
            "memo_misses": sum(
                m.runtime.memo_misses for m in batch_model.models
            ),
            "stages": batch_model.stage_times.as_dict(),
        }

    batch_total = sum(
        e["batch_seconds"] for e in per_design.values()
    )
    ref_total = sum(
        e["reference_seconds"] for e in per_design.values()
    )
    stats_identical = all(c["identical"] for c in cells)
    overall_speedup = ref_total / batch_total
    overall_floor = (
        MODEL_OVERALL_FLOOR if at_scale else MODEL_SMOKE_FLOOR
    )
    floors_ok = (
        all(e["floor_ok"] for e in per_design.values())
        and overall_speedup >= overall_floor
    )
    stages_total: Counter = Counter()
    for entry in per_design.values():
        stages_total.update(entry["stages"])
    info = deadline_cache_info()
    bounded = info.maxsize is not None
    body = {
        "workload": {
            "designs": designs,
            "lc_workload": lc_workload,
            "load": load,
            "mixes": mixes,
            "epochs": epochs,
        },
        "cells": cells,
        "per_design": per_design,
        "batch_seconds": batch_total,
        "reference_seconds": ref_total,
        "speedup": overall_speedup,
        "speedup_floor": overall_floor,
        "floors_enforced": at_scale,
        "floors_ok": floors_ok,
        "stages": stages_total,
        "stats_identical": stats_identical,
        "memo": {
            "hits": sum(
                e["memo_hits"] for e in per_design.values()
            ),
            "misses": sum(
                e["memo_misses"] for e in per_design.values()
            ),
        },
        "deadline_cache": {
            "maxsize": info.maxsize,
            "currsize": info.currsize,
            "bounded": bounded,
        },
    }
    gates = {
        "stats_identical": stats_identical,
        "floors_ok": floors_ok,
        "deadline_cache_bounded": bounded,
    }
    return body, gates


def _summarize_model(report: Dict[str, Any]) -> str:
    wl = report["workload"]
    lines = [
        f"model: {len(wl['designs'])} designs x {wl['mixes']} mixes "
        f"x {wl['epochs']} epochs ({wl['lc_workload']}/{wl['load']})"
    ]
    for name, entry in report["per_design"].items():
        flag = "" if entry["floor_ok"] else "  << BELOW FLOOR"
        st = entry["stages"]
        lines += [
            f"  {name:<10s} batch {entry['batch_seconds']:.2f}s vs "
            f"reference {entry['reference_seconds']:.2f}s "
            f"({entry['speedup']:.2f}x, floor "
            f"{entry['speedup_floor']:.1f}x, "
            f"{entry['memo_hits']} memo hits){flag}",
            f"  {'':<10s} stages: placer {st['placer']:.2f}s, "
            f"memo {st['memo']:.2f}s, queueing {st['queueing']:.2f}s, "
            f"metrics {st['metrics']:.2f}s",
        ]
    lines.append(
        f"  overall: {report['speedup']:.2f}x "
        f"(floor {report['speedup_floor']:.1f}x"
        f"{', enforced' if report['floors_enforced'] else ', smoke'}), "
        f"stats identical: {report['stats_identical']}, "
        f"deadline cache bounded: "
        f"{report['deadline_cache']['bounded']}"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# faults suite (chaos smoke)
# --------------------------------------------------------------------------


def _run_faults(
    fault_seed: int = 0,
    jobs: Optional[int] = None,
    mixes: int = 2,
    epochs: int = 3,
    drill_epochs: int = 12,
) -> SuiteResult:
    """The chaos smoke: differential sweep + degraded-runtime drill.

    Runs one mini-sweep twice on throwaway cache directories (the
    user's result cache is never touched) — once clean, once under a
    seeded :class:`~repro.faults.FaultPlan` injecting worker crashes,
    handler errors, and corrupt cache entries — then re-runs over the
    now-dirty cache (quarantine + recompute path), and finishes with a
    degraded-runtime drill through NaN/negative/dropped telemetry and
    injected placer failures.

    Gates: ``cold_identical`` and ``warm_identical`` — both faulty
    sweeps are bit-identical to the clean one (fault tolerance must
    never change results, only cost); ``isolation_ok`` — the drill
    never violated the no-shared-banks security invariant.
    """
    import shutil

    from .chaos import degraded_runtime_cell, differential_sweep
    from .faults import FaultPlan
    from .runner import RetryPolicy, SweepRunner, compute_cell

    jobs_resolved = resolve_jobs(jobs)
    sweep_kwargs = dict(
        designs=("Static", "Jumanji"),
        lc_workloads=("xapian",),
        loads=("high",),
        mixes=mixes,
        epochs=epochs,
    )
    sweep_plan = FaultPlan(
        seed=fault_seed,
        worker_crash=0.3,
        cell_error=0.2,
        cache_corrupt=0.4,
    )
    policy = RetryPolicy(retries=6, backoff_seconds=0.01)
    clean_dir = tempfile.mkdtemp(prefix="repro-faults-clean-")
    faulty_dir = tempfile.mkdtemp(prefix="repro-faults-chaos-")
    try:
        clean_runner = SweepRunner(
            jobs=jobs_resolved, cache=ResultCache(clean_dir)
        )
        faulty_runner = SweepRunner(
            jobs=jobs_resolved,
            cache=ResultCache(faulty_dir),
            policy=policy,
            fault_plan=sweep_plan,
        )
        start = time.perf_counter()
        cold_identical, clean_outcomes, _ = differential_sweep(
            clean_runner, faulty_runner, **sweep_kwargs
        )
        cold_wall = time.perf_counter() - start
        # Second pass over the possibly-corrupted cache: quarantine and
        # recompute instead of failing, still bit-identical.
        warm_runner = SweepRunner(
            jobs=jobs_resolved,
            cache=ResultCache(faulty_dir),
            policy=policy,
            fault_plan=sweep_plan,
        )
        start = time.perf_counter()
        warm_identical, _, _ = differential_sweep(
            clean_runner, warm_runner, **sweep_kwargs
        )
        warm_wall = time.perf_counter() - start
    finally:
        shutil.rmtree(clean_dir, ignore_errors=True)
        shutil.rmtree(faulty_dir, ignore_errors=True)

    drill_plan = FaultPlan(
        seed=fault_seed,
        telemetry_nan=0.25,
        telemetry_negative=0.2,
        telemetry_drop=0.2,
        cell_error=0.3,
    )
    drill = compute_cell(
        degraded_runtime_cell(
            epochs=drill_epochs, plan=drill_plan.as_params()
        )
    )

    body = {
        "jobs": jobs_resolved,
        "fault_seed": fault_seed,
        "sweep_plan": sweep_plan.as_params(),
        "drill_plan": drill_plan.as_params(),
        "differential": {
            "cells": len(clean_outcomes),
            "cold_identical": cold_identical,
            "cold_wall_seconds": cold_wall,
            "cold_stats": faulty_runner.stats.as_dict(),
            "warm_identical": warm_identical,
            "warm_wall_seconds": warm_wall,
            "warm_stats": warm_runner.stats.as_dict(),
        },
        "drill": {
            "epochs": drill["epochs"],
            "isolation_ok": drill["isolation_ok"],
            "shared_bank_epochs": drill["shared_bank_epochs"],
            "degraded_epochs": drill["degraded_epochs"],
            "telemetry_events": drill["telemetry_events"],
            "placement_events": drill["placement_events"],
        },
    }
    gates = {
        "cold_identical": bool(cold_identical),
        "warm_identical": bool(warm_identical),
        "isolation_ok": bool(drill["isolation_ok"]),
    }
    return body, gates


def _summarize_faults(report: Dict[str, Any]) -> str:
    diff = report["differential"]
    drill = report["drill"]
    return "\n".join(
        [
            f"faults: seed={report['fault_seed']}, "
            f"jobs={report['jobs']}, {diff['cells']} sweep cells",
            f"  cold chaos sweep: identical={diff['cold_identical']} "
            f"({diff['cold_wall_seconds']:.2f}s, "
            f"{diff['cold_stats']['retries']} retries, "
            f"{diff['cold_stats']['pool_respawns']} pool respawns)",
            f"  warm chaos sweep: identical={diff['warm_identical']} "
            f"({diff['warm_wall_seconds']:.2f}s, "
            f"{diff['warm_stats']['quarantined']} quarantined)",
            f"  degraded-runtime drill: "
            f"isolation_ok={drill['isolation_ok']} "
            f"over {drill['epochs']} epochs "
            f"({len(drill['degraded_epochs'])} degraded, "
            f"{drill['telemetry_events']} telemetry drops)",
        ]
    )


# --------------------------------------------------------------------------
# obs suite (observability overhead gate)
# --------------------------------------------------------------------------


#: Span names a traced model run must produce for the observability
#: subsystem to count as covering the 100 ms loop end to end.
OBS_REQUIRED_SPANS = frozenset(
    {
        "model.epoch",
        "runtime.reconfigure",
        "controller.update",
        "placer.allocate",
        "placer.latcrit",
        "placer.lookahead",
        "placer.jumanji",
    }
)

#: Disabled-mode overhead gate: instrumented-but-disabled must cost at
#: most this fraction more than the same code with the instrumentation
#: stubbed out entirely.
OBS_OVERHEAD_GATE = 0.02


def _run_obs(
    epochs: Optional[int] = None,
    repeats: int = 5,
    lc_workload: str = "xapian",
    load: str = "high",
) -> SuiteResult:
    """Gate the observability subsystem: zero-cost off, complete on.

    Three gates on the Fig. 13 epoch loop (Jumanji, one mix; ``epochs``
    defaults to ``REPRO_EPOCHS`` or 20):

    * ``overhead_ok`` — interleaved min-of-``repeats`` timings of the
      disabled-but-instrumented run against the same run with every
      ``repro.obs`` hook swapped for a bare stub
      (:func:`repro.obs.uninstrumented`); the ratio must stay within
      :data:`OBS_OVERHEAD_GATE`.
    * ``coverage_ok`` — an enabled run must produce every span in
      :data:`OBS_REQUIRED_SPANS` and write a loadable trace + metrics
      snapshot.
    * ``identical_snapshots`` — two enabled same-seed runs must produce
      identical metric snapshots (no wall-clock leaks into values).
    """
    from . import obs
    from .core.designs import make_design
    from .core.runtime import clear_shared_memos
    from .experiments.common import num_epochs, run_seed
    from .model.system import SystemModel
    from .model.workload import make_default_workload

    if repeats < 1:
        raise ValueError("need at least one timing repeat")
    epochs = epochs if epochs is not None else num_epochs()
    seed = run_seed(0, 0)

    def one_run():
        # Each run places as a first run in a fresh process does, so
        # the timed and traced runs all run (and span) the placer.
        clear_shared_memos()
        workload = make_default_workload(
            [lc_workload], mix_seed=0, load=load
        )
        model = SystemModel(
            make_design("Jumanji"), workload, seed=seed
        )
        return model.run(epochs)

    # Warm shared caches (deadline lru_cache, imports, numpy) outside
    # the timed region.
    _warm_deadlines(lc_workload, load)
    one_run()

    obs.reset()  # ensure disabled for the timing passes
    disabled_times: List[float] = []
    stub_times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        one_run()
        disabled_times.append(time.perf_counter() - start)
        with obs.uninstrumented():
            start = time.perf_counter()
            one_run()
            stub_times.append(time.perf_counter() - start)
    min_disabled = min(disabled_times)
    min_stub = min(stub_times)
    overhead = min_disabled / min_stub - 1.0
    overhead_ok = overhead <= OBS_OVERHEAD_GATE

    # Coverage + determinism: two enabled same-seed runs.
    snapshots: List[Dict[str, Any]] = []
    span_names: set = set()
    trace_loadable = False
    with tempfile.TemporaryDirectory() as tmp:
        for attempt in range(2):
            obs.reset()
            trace = os.path.join(tmp, f"trace{attempt}.jsonl")
            metrics = os.path.join(tmp, f"metrics{attempt}.txt")
            obs.configure(trace=trace, metrics=metrics)
            try:
                one_run()
            finally:
                obs.flush()
            snapshots.append(obs.metrics().snapshot())
            records = obs.load_trace(trace)
            span_names |= {
                r["name"] for r in records if r.get("type") == "span"
            }
            trace_loadable = bool(records)
            obs.reset()
    missing = sorted(OBS_REQUIRED_SPANS - span_names)
    coverage_ok = not missing and trace_loadable
    deterministic = snapshots[0] == snapshots[1]

    body = {
        "workload": {
            "design": "Jumanji",
            "lc_workload": lc_workload,
            "load": load,
            "epochs": epochs,
            "repeats": repeats,
        },
        "overhead": {
            "disabled_seconds": disabled_times,
            "stub_seconds": stub_times,
            "min_disabled_seconds": min_disabled,
            "min_stub_seconds": min_stub,
            "overhead": overhead,
            "gate": OBS_OVERHEAD_GATE,
            "ok": overhead_ok,
        },
        "coverage": {
            "spans": sorted(span_names),
            "required": sorted(OBS_REQUIRED_SPANS),
            "missing": missing,
            "trace_loadable": trace_loadable,
            "ok": coverage_ok,
        },
        "determinism": {"identical_snapshots": deterministic},
    }
    gates = {
        "overhead_ok": overhead_ok,
        "coverage_ok": coverage_ok,
        "identical_snapshots": deterministic,
    }
    return body, gates


def _summarize_obs(report: Dict[str, Any]) -> str:
    wl = report["workload"]
    oh = report["overhead"]
    cov = report["coverage"]
    return "\n".join(
        [
            f"obs: {wl['design']}/{wl['lc_workload']}/{wl['load']}, "
            f"{wl['epochs']} epochs x {wl['repeats']} repeats",
            f"  disabled overhead: {oh['overhead']:+.2%} "
            f"(gate {oh['gate']:.0%}, "
            f"min {oh['min_disabled_seconds']:.3f}s "
            f"vs stub {oh['min_stub_seconds']:.3f}s)",
            f"  span coverage: {len(cov['spans'])} names, "
            f"missing: {cov['missing'] or 'none'}",
            f"  deterministic metrics: "
            f"{report['determinism']['identical_snapshots']}",
        ]
    )


def _run_fleet(
    chips: Optional[int] = None,
    epochs: Optional[int] = None,
    fault_seed: int = 0,
) -> SuiteResult:
    """Gate the rack-scale fleet layer: determinism + invariants.

    Runs one seeded scenario of ``chips`` chips (default
    ``REPRO_FLEET_CHIPS`` or 32) over ``epochs`` epochs (default
    ``REPRO_FLEET_EPOCHS`` or 10) — diurnal load, Poisson churn, a
    possible flash crowd, and rack-correlated chip failures — twice end
    to end, and records chip-epochs/s of the slower run so regressions
    in the hierarchical epoch loop show up in the report. It also
    reports the process-wide placement memo: its hits and misses over
    the two runs, its size and its bound. Gates:

    * ``identical_results`` — the two canonical results serialise
      byte-identically (``FleetResult.to_json``); any wall-clock or
      iteration-order leak fails the gate.
    * ``invariants_ok`` — neither run records a conservation, capacity,
      or isolation violation (``FleetResult.ok``).
    * ``resilience_ok`` — a failure-heavy storm scenario (correlated
      rack failures, repairable chips, stragglers, bounded admission
      queue) finishes with zero invariant violations, at least one
      completed repair, and repaired chips back in service.
    * ``resume_identical`` — a run killed mid-flight and resumed from
      its ``--checkpoint`` journal serialises byte-identically to an
      uninterrupted run of the same scenario.
    """
    from .core.runtime import placement_memo_stats
    from .faults import FaultPlan
    from .fleet import Fleet, FleetJournal, Scenario, run_fleet

    settings = Settings.from_env()
    if chips is None:
        chips = settings.fleet_chips or 32
    if epochs is None:
        epochs = settings.fleet_epochs or 10
    scenario = Scenario(
        chips=chips,
        epochs=epochs,
        seed=fault_seed,
        flash_prob=0.1,
        fault_plan=FaultPlan(seed=fault_seed, chip_failure=0.02),
    )

    runs: List[Dict[str, Any]] = []
    payloads: List[str] = []
    memo_before = placement_memo_stats()
    for _ in range(2):
        start = time.perf_counter()
        result = run_fleet(scenario)
        wall = time.perf_counter() - start
        payloads.append(result.to_json())
        runs.append(
            {
                "wall_seconds": wall,
                "chip_epochs_per_s": chips * epochs / wall,
                "ok": result.ok,
                "counters": dict(result.counters),
                "invariant_violations": list(
                    result.invariant_violations
                ),
            }
        )

    deterministic = payloads[0] == payloads[1]
    invariants_ok = all(r["ok"] for r in runs)
    memo = placement_memo_stats()
    memo_report = {
        "hits": memo["hits"] - memo_before["hits"],
        "misses": memo["misses"] - memo_before["misses"],
        "size": memo["size"],
        "maxsize": memo["maxsize"],
    }

    # Resilience storm: failures every epoch, most chips repairable,
    # stragglers, and enough churn that repaired sockets are needed
    # again. The gate requires the self-healing loop to demonstrably
    # close: repairs completed, repaired chips back in service, and
    # not a single invariant violated under the storm.
    storm = Scenario(
        chips=chips,
        epochs=epochs,
        seed=fault_seed,
        rack_size=2,
        arrival_rate=2.0,
        flash_prob=0.2,
        admission_patience=3,
        pending_limit=16,
        fault_plan=FaultPlan(
            seed=fault_seed,
            chip_failure=0.08,
            chip_repair=0.9,
            chip_slow=0.1,
            repair_mttr_epochs=2.0,
        ),
    )
    storm_fleet = Fleet(storm)
    storm_result = storm_fleet.run()
    repaired = sorted(storm_fleet.repaired_chips)
    serving = [
        chip_id
        for chip_id in repaired
        if storm_fleet.chips[chip_id].alive
        and storm_fleet.chips[chip_id].tenants
    ]
    storm_ok = bool(
        storm_result.ok
        and storm_result.counters.get("repairs", 0) > 0
        and serving
    )

    # Checkpoint/resume: journal a small storm run, abandon it halfway
    # (the in-process stand-in for kill -9; the chaos test suite does
    # the real subprocess kill), then resume from the journal and
    # demand byte-identity with an uninterrupted run.
    ck_scenario = Scenario(
        chips=min(chips, 8),
        epochs=max(4, min(epochs, 8)),
        seed=fault_seed,
        rack_size=2,
        flash_prob=0.1,
        admission_patience=3,
        pending_limit=8,
        fault_plan=FaultPlan(
            seed=fault_seed,
            chip_failure=0.05,
            chip_repair=0.8,
            chip_slow=0.08,
            repair_mttr_epochs=2.0,
        ),
    )
    uninterrupted = run_fleet(ck_scenario).to_json()
    interrupt_at = ck_scenario.epochs // 2
    with tempfile.TemporaryDirectory() as tmp:
        ck_path = pathlib.Path(tmp) / "fleet.journal"
        killed = Fleet(ck_scenario)
        journal = FleetJournal(ck_path)
        journal.write_header(ck_scenario.as_params(), "Jumanji")
        killed.attach_journal(journal)
        killed.setup()
        for epoch in range(interrupt_at):
            killed.step(epoch)
        del killed  # the "crash": only the journal survives
        resumed = run_fleet(
            ck_scenario, checkpoint=ck_path
        ).to_json()
    resume_identical = resumed == uninterrupted

    body = {
        "scenario": scenario.as_params(),
        "runs": runs,
        "chip_epochs_per_s": min(
            r["chip_epochs_per_s"] for r in runs
        ),
        "determinism": {"identical_results": deterministic},
        "invariants": {"ok": invariants_ok},
        "placement_memo": memo_report,
        "resilience": {
            "scenario": storm.as_params(),
            "counters": dict(storm_result.counters),
            "invariant_violations": list(
                storm_result.invariant_violations
            ),
            "repaired_chips": repaired,
            "repaired_serving": serving,
            "ok": storm_ok,
        },
        "checkpoint": {
            "scenario": ck_scenario.as_params(),
            "interrupted_at_epoch": interrupt_at,
            "resume_identical": resume_identical,
            "ok": resume_identical,
        },
    }
    gates = {
        "identical_results": deterministic,
        "invariants_ok": invariants_ok,
        "resilience_ok": storm_ok,
        "resume_identical": resume_identical,
    }
    return body, gates


def _summarize_fleet(report: Dict[str, Any]) -> str:
    sc = report["scenario"]
    lines = [
        f"fleet: {sc['chips']} chips x {sc['epochs']} epochs, "
        f"seed {sc['seed']}"
    ]
    for i, run in enumerate(report["runs"]):
        counters = run["counters"]
        lines.append(
            f"  run {i}: {run['wall_seconds']:.2f}s "
            f"({run['chip_epochs_per_s']:.0f} chip-epochs/s), "
            f"{counters['admissions']} admissions, "
            f"{counters['migrations']} migrations, "
            f"{counters['chips_lost']} chips lost, "
            f"{len(run['invariant_violations'])} violations"
        )
    res = report["resilience"]
    ck = report["checkpoint"]
    memo = report["placement_memo"]
    lines += [
        f"  deterministic results: "
        f"{report['determinism']['identical_results']}",
        f"  shared placement memo: {memo['hits']} hits, "
        f"{memo['misses']} misses, {memo['size']}/{memo['maxsize']} "
        f"entries",
        f"  resilience storm: {res['counters']['repairs']} repairs, "
        f"{len(res['repaired_serving'])} repaired chip(s) serving, "
        f"{len(res['invariant_violations'])} violations "
        f"-> {'ok' if res['ok'] else 'FAILED'}",
        f"  checkpoint/resume: killed at epoch "
        f"{ck['interrupted_at_epoch']}, byte-identical resume: "
        f"{ck['resume_identical']}",
    ]
    return "\n".join(lines)


def _run_serve(
    tenants: int = 40,
    requests: int = 25,
    fault_seed: int = 0,
) -> SuiteResult:
    """Gate the placement service: throughput + determinism.

    Boots an in-process :class:`~repro.serve.ServeDaemon` on a free
    port and drives it twice with the same seeded synthetic-tenant
    script (``repro.serve.loadgen``: ``tenants`` tenants x
    ``requests`` telemetry posts each), recording decisions/s and
    client-observed p50/p95 decision latency of the slower run. Gates:

    * ``invariants_ok`` — both runs finish with zero client errors and
      zero invariant violations (epoch echo, positive ``lat_sizes``,
      LC apps present in every non-degraded allocation).
    * ``complete`` — every run records ``tenants * requests`` decisions.
    * ``identical_decisions`` — the per-tenant decision fingerprints
      (canonical JSON of each decision minus the session id) are
      byte-identical between the runs: same telemetry script in, same
      placement sequence out.
    """
    from .serve import ServeDaemon
    from .serve.loadgen import run_loadgen

    runs: List[Dict[str, Any]] = []
    fingerprints: List[Dict[int, List[str]]] = []
    with ServeDaemon(port=0) as daemon:
        for _ in range(2):
            report_run = run_loadgen(
                daemon.host,
                daemon.port,
                tenants=tenants,
                requests=requests,
                seed=fault_seed,
            )
            fingerprints.append(report_run.fingerprints)
            runs.append(
                {
                    "wall_seconds": report_run.wall_seconds,
                    "decisions": report_run.decisions,
                    "decisions_per_s": report_run.decisions_per_sec,
                    "p50_decision_ms": report_run.latency_ms(50.0),
                    "p95_decision_ms": report_run.latency_ms(95.0),
                    "errors": list(report_run.errors),
                    "invariant_violations": list(
                        report_run.violations
                    ),
                    "ok": report_run.ok,
                }
            )

    correct = all(r["ok"] for r in runs)
    complete = all(
        r["decisions"] == tenants * requests for r in runs
    )
    deterministic = fingerprints[0] == fingerprints[1]
    body = {
        "tenants": tenants,
        "requests_per_tenant": requests,
        "seed": fault_seed,
        "runs": runs,
        "decisions_per_s": min(r["decisions_per_s"] for r in runs),
        "p95_decision_ms": max(r["p95_decision_ms"] for r in runs),
        "determinism": {"identical_decisions": deterministic},
        "invariants": {"ok": correct, "complete": complete},
    }
    gates = {
        "invariants_ok": correct,
        "complete": complete,
        "identical_decisions": deterministic,
    }
    return body, gates


def _summarize_serve(report: Dict[str, Any]) -> str:
    lines = [
        f"serve: {report['tenants']} tenants x "
        f"{report['requests_per_tenant']} requests, "
        f"seed {report['seed']}"
    ]
    for i, run in enumerate(report["runs"]):
        lines.append(
            f"  run {i}: {run['decisions']} decisions in "
            f"{run['wall_seconds']:.2f}s "
            f"({run['decisions_per_s']:.0f}/s), "
            f"p95 {run['p95_decision_ms']:.1f} ms, "
            f"{len(run['errors'])} errors, "
            f"{len(run['invariant_violations'])} violations"
        )
    lines.append(
        f"  deterministic decisions: "
        f"{report['determinism']['identical_decisions']}"
    )
    return "\n".join(lines)


#: Every ``repro bench`` suite, by name; ``sweeps`` is the CLI default.
SUITES: Dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            "sweeps",
            frozenset({"figures", "jobs", "mixes", "epochs", "cold"}),
            _run_sweeps,
            _summarize_sweeps,
        ),
        Suite(
            "tracesim",
            frozenset({"accesses", "seeds", "jobs", "cold", "profile"}),
            _run_tracesim,
            _summarize_tracesim,
        ),
        Suite(
            "model",
            frozenset({"mixes", "epochs"}),
            _run_model,
            _summarize_model,
        ),
        Suite(
            "faults",
            frozenset({"fault_seed", "jobs", "mixes", "epochs"}),
            _run_faults,
            _summarize_faults,
        ),
        Suite("obs", frozenset({"epochs"}), _run_obs, _summarize_obs),
        Suite(
            "fleet",
            frozenset({"chips", "epochs", "fault_seed"}),
            _run_fleet,
            _summarize_fleet,
        ),
        Suite(
            "serve",
            frozenset({"tenants", "requests", "fault_seed"}),
            _run_serve,
            _summarize_serve,
        ),
    )
}


def _environment() -> Dict[str, Any]:
    """The machine and toolchain a report was measured on."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_suite(
    name: str, output: Optional[os.PathLike] = None, **options: Any
) -> Dict[str, Any]:
    """Run suite ``name`` with ``options``; write and return its report.

    The report is the suite body's keys inside one envelope: version,
    suite name, code fingerprint, an ``environment`` block (nproc, CPU,
    Python and numpy versions), the suite's ``gates``, and ``ok``
    (every gate passed). It is written to ``output`` (default
    ``BENCH_<name>.json``); the returned dict also carries the written
    path under ``"output"``. A true ``profile`` option dumps pstats
    beside the report (``.prof``).
    """
    suite = SUITES[name]
    path = pathlib.Path(
        output if output is not None else f"BENCH_{name}.json"
    )
    if options.get("profile"):
        options["profile"] = path.with_suffix(".prof")
    body, gates = suite.run(**options)
    report: Dict[str, Any] = {
        "version": __version__,
        "suite": name,
        "code_fingerprint": code_fingerprint(),
        "environment": _environment(),
        **body,
        "gates": gates,
        "ok": all(gates.values()),
    }
    path.write_text(json.dumps(report, indent=2) + "\n")
    report["output"] = str(path)
    return report


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro bench`` options to a subparser.

    Suite options default to ``None`` (not given); the suite body's
    signature holds the real default.
    """
    parser.add_argument(
        "--suite",
        choices=tuple(SUITES),
        default="sweeps",
        help="what to benchmark: figure sweeps (default), the "
        "trace-simulator fast path, the vectorised epoch engine, "
        "the fault-injection chaos smoke, the observability "
        "overhead gate, the rack-scale fleet gate, or the "
        "placement-service gate",
    )
    parser.add_argument(
        "--output", help="report path (default BENCH_<suite>.json)"
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        choices=BENCH_FIGURES,
        help="sweeps suite: figures to benchmark (default: all sweep "
        "figures)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        help="parallel workers (default: REPRO_JOBS or cpu count)",
    )
    parser.add_argument("--mixes", type=int,
                        help="batch mixes per workload")
    parser.add_argument("--epochs", type=int, help="epochs per run")
    parser.add_argument(
        "--cold",
        action="store_true",
        default=None,
        help="clear the result cache first (force full recompute)",
    )
    parser.add_argument(
        "--accesses",
        type=int,
        help="tracesim suite: accesses per core (default 20000)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        help="tracesim suite: independent sharded seed runs "
        "(default 4)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        default=None,
        help="tracesim suite: dump cProfile stats for one simulated "
        "epoch next to the report",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        help="faults/fleet/serve suite: scenario, FaultPlan and "
        "load-generator seed (default 0)",
    )
    parser.add_argument(
        "--chips",
        type=int,
        help="fleet suite: sockets in the fleet "
        "(default REPRO_FLEET_CHIPS or 32)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        help="serve suite: concurrent tenant sessions (default 40)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        help="serve suite: telemetry posts per tenant (default 25)",
    )


def cmd_bench(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """CLI entry point for ``repro bench``; exits 1 iff a gate failed.

    A flag the chosen suite does not read is a usage error
    (``parser.error``) naming the flag and the suite.
    """
    suite = SUITES[args.suite]
    every_option = set().union(*(s.options for s in SUITES.values()))
    options = {}
    for dest in sorted(every_option):
        value = getattr(args, dest)
        if value is None:
            continue
        if dest not in suite.options:
            parser.error(
                f"--{dest.replace('_', '-')} is not an option of "
                f"--suite {suite.name}"
            )
        options[dest] = value
    report = run_suite(suite.name, output=args.output, **options)
    print(suite.summary(report))
    print(f"wrote {report['output']}")
    failed = [gate for gate, ok in report["gates"].items() if not ok]
    if failed:
        print(f"{suite.name}: FAILED gates: {', '.join(failed)}")
        return 1
    return 0
