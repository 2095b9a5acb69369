"""tracesim-mixed: replay 800k accesses through the trace simulator.

20 cores replay Zipf, working-set and streaming streams (one third
each, generated in set-up from the workload seed) for 40,000 accesses
per core, through the private caches, the VTB, the banked LLC and the
NoC tables, with no placer. The replay is driven as 50 ``run`` calls
of 800 accesses per core, the way a caller reconfigures between runs.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

from repro.config import SystemConfig
from repro.sim.reference import ReferenceTraceSimulator
from repro.sim.tracesim import TraceSimulator
from repro.vtb.vtb import descriptor_from_allocation
from repro.workloads.traces import (
    ReplayTrace,
    StreamingTrace,
    WorkingSetTrace,
    ZipfTrace,
)

import layers
from harness import (
    Report,
    alternate,
    digest_of,
    fill_missing_layers,
    layer_rows,
    peak_rss_mb,
    percentile,
    setup_metric,
    summary,
    timed_passes,
)

IMPORTS = ("repro.sim.tracesim", "repro.sim.reference",
           "repro.workloads.traces")
ACCESSES = 40_000
SLICE = 800
#: Accesses per core the scalar reference replays for the check.
PREFIX = 1_600
SETUPS = 3


def make_streams(seed: int, config: SystemConfig, accesses: int):
    """Per-core line streams: Zipf reuse, working-set reuse, scans."""
    streams = []
    for core in range(config.num_cores):
        base = core << 32
        if core % 3 == 0:
            trace = ZipfTrace(40_000, alpha=0.9, seed=seed * 1000 + core,
                              base_line=base)
        elif core % 3 == 1:
            trace = WorkingSetTrace(30_000, seed=seed * 1000 + core,
                                    base_line=base)
        else:
            trace = StreamingTrace(50_000, base_line=base)
        streams.append(trace.lines(accesses))
    return streams


def build(sim_cls, streams, config: SystemConfig):
    """A simulator with every core replaying its stream; each group of
    four cores shares five banks."""
    sim = sim_cls(config)
    for core, stream in enumerate(streams):
        group = (core % 4) * 5
        alloc = {bank: 1.0 for bank in range(group, group + 5)}
        sim.add_core(core, ReplayTrace(stream), vc_id=core,
                     descriptor=descriptor_from_allocation(alloc))
    return sim


@dataclasses.dataclass
class TracePass:
    wall: float
    slices: list
    stats: dict


def trace_pass(streams, config: SystemConfig) -> TracePass:
    sim = build(TraceSimulator, streams, config)
    slices = []
    start = time.perf_counter()
    for _ in range(ACCESSES // SLICE):
        t = time.perf_counter()
        sim.run(SLICE)
        slices.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    return TracePass(wall, slices, sim.stats())


def _stats_text(stats) -> str:
    return repr(sorted((c, dataclasses.astuple(s)) for c, s in stats.items()))


def _check(report: Report, passes, streams, config) -> None:
    texts = [_stats_text(p.stats) for p in passes]
    for i in range(len(passes)):
        report.check(f"tracesim pass {i}: stats equal pass 0",
                     texts[i] == texts[0])
    prefix = [s[:PREFIX] for s in streams]
    fast = build(TraceSimulator, prefix, config).run(PREFIX)
    ref = build(ReferenceTraceSimulator, prefix, config).run(PREFIX)
    report.check(
        f"tracesim {PREFIX}-access prefix equals the scalar reference",
        _stats_text(fast) == _stats_text(ref),
    )
    report.digest = digest_of(texts[:1])


def _setup(seed: int, config: SystemConfig):
    start = time.perf_counter()
    streams = make_streams(seed, config, ACCESSES)
    build(TraceSimulator, streams, config)
    return time.perf_counter() - start, streams


def measure(seed: int, seconds: float, tmp: str, imports) -> Report:
    report = Report()
    config = SystemConfig()
    builds = []
    for _ in range(SETUPS):
        elapsed, streams = _setup(seed, config)
        builds.append(elapsed)
    total = ACCESSES * config.num_cores
    warm = build(TraceSimulator, streams, config)  # warm-up, untimed
    warm.run(SLICE)
    passes = timed_passes(seconds, lambda i: trace_pass(streams, config))
    rss = peak_rss_mb()
    rates = [total / p.wall for p in passes]
    slice_ms = [s * 1e3 for p in passes for s in p.slices]
    report.attempted += total * len(passes)
    setup_metric(report, {
        "imports": imports,
        "streams + simulator": builds,
    })
    report.metric("throughput_per_s", statistics.median(rates), "1/s")
    report.metric("latency_p50_ms", percentile(slice_ms, 50), "ms")
    report.metric("latency_p90_ms", percentile(slice_ms, 90), "ms")
    report.metric("peak_rss_mb", rss, "MB")
    report.note(
        f"tracesim.accesses_per_s (throughput_per_s): {summary(rates)}"
    )
    report.note(
        f"run() of {SLICE} accesses x {config.num_cores} cores "
        f"(latency_p50_ms/latency_p90_ms), n={len(slice_ms)} calls"
    )
    _check(report, passes, streams, config)
    return report


def trace(seed: int, seconds: float, tmp: str) -> Report:
    report = Report()
    config = SystemConfig()
    streams = make_streams(seed, config, ACCESSES)
    warm = build(TraceSimulator, streams, config)  # warm-up, untimed
    warm.run(SLICE)
    untraced, traced_runs, recorder = alternate(
        seconds, lambda: trace_pass(streams, config), layers.TRACESIM
    )
    traced_pass = traced_runs[-1]
    stats = traced_pass.stats.values()
    llc = sum(s.llc_accesses for s in stats)
    report.metric("cache.llc_accesses", llc, "count")
    report.metric("cache.llc_hit_ratio",
                  sum(s.llc_hits for s in stats) / llc, "ratio")
    report.metric("cache.mem_accesses",
                  sum(s.mem_accesses for s in stats), "count")
    layer_rows(report, recorder.records, [p.wall for p in untraced],
               [p.wall for p in traced_runs])
    fill_missing_layers(report)
    report.attempted += 2 * len(untraced) * ACCESSES * config.num_cores
    _check(report, untraced + traced_runs, streams, config)
    return report
