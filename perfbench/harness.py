"""What every workload shares: the report, timing statistics, the
layer table, and set-up timing.

All times are host time (``time.perf_counter``). Simulated statistics
(speedups, tails, SLA strikes, hit counts) are outputs the checks
compare and the digest records, never end-to-end metrics.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from spans import SpanRecord, SpanRecorder, self_times, traced

#: Spans whose self time is one attribution row (``<span>.self_s``).
SPANS = (
    "runner",
    "model.cell",
    "model.run",
    "model.performance",
    "sim.queueing",
    "core.reconfigure",
    "core.lat_crit_placer",
    "core.jumanji_lookahead",
    "core.jumanji_placer",
    "core.jigsaw_place",
    "core.controller",
    "fleet.step",
    "fleet.scheduler",
    "fleet.chip_tick",
    "fleet.audit",
    "serve.client",
    "serve.schema",
    "serve.decide",
    "tracesim.run",
    "tracesim.private_cache",
    "vtb.bank_for_lines",
)

#: Per-layer metric -> (unit, the end-to-end metric and workload it
#: should move). The traced run reports every row on every workload;
#: a layer a workload does not reach reads 0, which is the prediction.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "traced_wall_s": ("s", "n/a: wall time the attribution rows add up to"),
    "untraced_wall_s": ("s", "n/a: the same work with tracing off"),
    "trace_overhead_ratio": ("ratio", "n/a: traced/untraced - 1"),
    "unattributed_s": ("s", "n/a: traced wall time outside every span"),
    "runner.self_s": ("s", "throughput_per_s on sweep-cold"),
    "runner.cells": ("count", "throughput_per_s on sweep-cold"),
    "runner.cache_hits": ("count", "must stay 0 on sweep-cold"),
    "runner.retries": ("count", "throughput_per_s on sweep-cold"),
    "runner.serial_s": ("s", "throughput_per_s on sweep-cold"),
    "runner.parallel_efficiency": ("ratio", "throughput_per_s on sweep-cold"),
    "model.cell.self_s": ("s", "throughput_per_s on sweep-cold"),
    "model.run.self_s": ("s", "throughput_per_s on sweep-cold"),
    "model.performance.self_s": (
        "s", "throughput_per_s on sweep-cold and fleet-churn"),
    "sim.queueing.self_s": (
        "s", "throughput_per_s on sweep-cold and fleet-churn"),
    "core.reconfigure.calls": ("count", "n/a: work count for the core rows"),
    "core.reconfigure.self_s": (
        "s", "throughput_per_s on sweep-cold and fleet-churn; "
        "latency_p90_ms on serve-open"),
    "core.memo_hit_ratio": (
        "ratio", "throughput_per_s on sweep-cold and fleet-churn; "
        "latency_p90_ms on serve-open"),
    "core.lat_crit_placer.self_s": (
        "s", "throughput_per_s on sweep-cold and fleet-churn; "
        "latency_p90_ms on serve-open"),
    "core.jumanji_lookahead.self_s": (
        "s", "throughput_per_s on sweep-cold and fleet-churn; "
        "latency_p90_ms on serve-open"),
    "core.jumanji_placer.self_s": (
        "s", "throughput_per_s on sweep-cold and fleet-churn; "
        "latency_p90_ms on serve-open"),
    "core.jigsaw_place.self_s": (
        "s", "throughput_per_s on sweep-cold and fleet-churn; "
        "latency_p90_ms on serve-open"),
    "core.controller.self_s": (
        "s", "throughput_per_s on sweep-cold and fleet-churn; "
        "latency_p90_ms on serve-open"),
    "fleet.step.self_s": ("s", "throughput_per_s on fleet-churn"),
    "fleet.step.p50_ms": ("ms", "latency_p50_ms on fleet-churn"),
    "fleet.step.max_ms": ("ms", "latency_p90_ms on fleet-churn"),
    "fleet.scheduler.self_s": ("s", "throughput_per_s on fleet-churn"),
    "fleet.chip_tick.self_s": ("s", "throughput_per_s on fleet-churn"),
    "fleet.audit.self_s": ("s", "throughput_per_s on fleet-churn"),
    "fleet.admissions": ("count", "n/a: simulated work count on fleet-churn"),
    "fleet.migrations": ("count", "n/a: simulated work count on fleet-churn"),
    "fleet.rejections": ("count", "n/a: simulated work count on fleet-churn"),
    "serve.client.self_s": (
        "s", "latency_p50_ms and throughput_per_s on serve-open"),
    "serve.schema.self_s": (
        "s", "latency_p50_ms and throughput_per_s on serve-open"),
    "serve.decide.self_s": ("s", "latency_p90_ms on serve-open"),
    "serve.rtt.p50_ms": ("ms", "latency_p50_ms on serve-open"),
    "serve.rtt.p95_ms": ("ms", "latency_p90_ms on serve-open"),
    "serve.decide.p50_ms": ("ms", "latency_p50_ms on serve-open"),
    "serve.decide.p95_ms": ("ms", "latency_p90_ms on serve-open"),
    "serve.transport.p50_ms": (
        "ms", "latency_p50_ms and throughput_per_s on serve-open"),
    "serve.transport.p95_ms": ("ms", "latency_p90_ms on serve-open"),
    "serve.schema_ms": (
        "ms", "latency_p50_ms and throughput_per_s on serve-open"),
    "serve.open.p50_ms": (
        "ms", "n/a: open loop at 20/s, timed from due time; not steady"),
    "serve.open.p95_ms": (
        "ms", "n/a: open loop at 20/s, timed from due time; not steady"),
    "serve.conn_wait.p95_ms": ("ms", "serve.open.p95_ms on serve-open"),
    "serve.generator_lag.p95_ms": (
        "ms", "n/a: must stay small, or the open loop is not open"),
    "serve.sent": ("count", "n/a: requests sent in the open loop"),
    "serve.failed": ("count", "n/a: must stay 0 on serve-open"),
    "tracesim.run.self_s": ("s", "throughput_per_s on tracesim-mixed"),
    "tracesim.private_cache.self_s": (
        "s", "throughput_per_s on tracesim-mixed"),
    "vtb.bank_for_lines.self_s": ("s", "throughput_per_s on tracesim-mixed"),
    "cache.llc_accesses": ("count", "n/a: simulated work count"),
    "cache.llc_hit_ratio": ("ratio", "n/a: simulated output"),
    "cache.mem_accesses": ("count", "n/a: simulated work count"),
}


@dataclass
class Report:
    """One run's metrics, checks and human-readable notes."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    digest: str = ""

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one output check; a failed check is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append((name, bool(ok), detail))
        return ok

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


# -- statistics ----------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries are failed requests."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(list(values))
    return f"median {q2:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def digest_of(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


# -- set-up, memory, timing ----------------------------------------------------


def import_seconds(modules: Sequence[str], src: str, repeats: int = 3
                   ) -> List[float]:
    """Cold-interpreter import time of ``modules``, ``repeats`` times.

    Each sample is a fresh interpreter, so module caches are cold the
    way a user's first command finds them; interpreter start-up itself
    is excluded.
    """
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {src!r})\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(time.perf_counter() - t)\n"
    )
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def setup_metric(report: Report, parts: Dict[str, List[float]]) -> None:
    """``setup_s``: the sum of each set-up step's median."""
    report.metric(
        "setup_s", sum(statistics.median(v) for v in parts.values()), "s"
    )
    report.note("setup_s = " + " + ".join(
        f"{name} {summary(samples)}" for name, samples in parts.items()
    ))


def peak_rss_mb(children: bool = False) -> float:
    """This process's peak RSS, plus the largest reaped child's when
    the workload's own children (a worker pool) do part of the work."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def pass_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th pass.

    Each pass draws its own inputs, so one run averages over several
    scenarios and runs with different seeds agree more closely; the
    sequence is fixed by the run's seed.
    """
    return seed * 1_000 + index


def timed_passes(seconds: float, run_pass: Callable[[int], Any],
                 minimum: int = 1) -> List[Any]:
    """Run ``run_pass(i)`` until ``seconds`` have elapsed (at least
    ``minimum`` times); returns the pass results in order."""
    results = []
    start = time.perf_counter()
    while (
        len(results) < minimum
        or time.perf_counter() - start < seconds
    ):
        results.append(run_pass(len(results)))
    return results


# -- per-layer attribution -----------------------------------------------------


def alternate(seconds: float, run_pass: Callable[[], Any],
              bindings) -> Tuple[list, list, SpanRecorder]:
    """Alternate untraced and traced passes for ``seconds`` (at least
    one pair).

    Alternating keeps slow drifts of the machine out of the tracing
    overhead. Returns both lists of pass results and the recorder of
    the last traced pass, the one the attribution rows describe.
    """
    untraced, traced_runs = [], []
    recorder = SpanRecorder()
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(run_pass())
        recorder = SpanRecorder()
        with traced(recorder, bindings):
            traced_runs.append(run_pass())
    return untraced, traced_runs, recorder


def layer_rows(report: Report, records: Sequence[SpanRecord],
               untraced_walls: Sequence[float],
               traced_walls: Sequence[float]) -> None:
    """Self time per layer plus the explicit ``unattributed`` row.

    ``records`` are the spans of the last traced pass, whose wall
    (thread-)time is ``traced_walls[-1]``; the rows plus
    ``unattributed_s`` add up to it by construction. The overhead is
    the median traced wall over the median untraced wall.
    """
    traced_wall = traced_walls[-1]
    untraced_wall = statistics.median(untraced_walls)
    totals = self_times(records)
    unknown = sorted(set(totals) - set(SPANS))
    if unknown:
        raise ValueError(f"spans without a layer row: {unknown}")
    attributed = 0.0
    for span in SPANS:
        value = totals.get(span, 0.0)
        attributed += value
        report.metric(f"{span}.self_s", value, "s")
    overhead = statistics.median(traced_walls) / untraced_wall - 1.0
    report.check(
        "attribution: layer self times fit inside the traced wall",
        attributed <= traced_wall * (1.0 + 1e-9),
        f"{attributed:.6f} s of {traced_wall:.6f} s",
    )
    report.metric("traced_wall_s", traced_wall, "s")
    report.metric("untraced_wall_s", untraced_wall, "s")
    report.metric("unattributed_s", traced_wall - attributed, "s")
    report.metric("trace_overhead_ratio", overhead, "ratio")
    report.note(
        f"attribution: traced wall {traced_wall:.4f} s = layers "
        f"{attributed:.4f} s + unattributed "
        f"{traced_wall - attributed:.4f} s"
    )
    report.note(
        f"tracing overhead {100.0 * overhead:+.1f}%: traced walls "
        f"{summary(traced_walls)} s vs untraced {summary(untraced_walls)} s"
    )
    rows = sorted(((totals[s], s) for s in totals), reverse=True)
    for value, span in rows:
        report.note(
            f"  layer {span:<24} self {value:10.4f} s "
            f"({100.0 * value / traced_wall:5.1f}%)"
        )


def core_rows(report: Report, records: Sequence[SpanRecord]) -> None:
    """Reconfiguration count and placement-memo hit ratio."""
    calls = [r for r in records if r.name == "core.reconfigure"]
    hits = sum(1 for r in calls if r.tag)
    report.metric("core.reconfigure.calls", len(calls), "count")
    report.metric(
        "core.memo_hit_ratio", hits / len(calls) if calls else 0.0, "ratio"
    )


def fill_missing_layers(report: Report) -> None:
    """Rows of layers this workload never reaches read 0."""
    for name, (unit, _target) in LAYER_METRICS.items():
        if name not in report.metrics:
            report.metric(name, 0.0, unit)
