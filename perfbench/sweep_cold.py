"""sweep-cold: regenerate a figure-style sweep with an empty cache.

5 designs x {xapian, Mixed} x {high, low} x 3 mixes x 20 epochs: 12
Static baseline cells plus 60 design cells, fanned out by
``run_sweep`` over ``SweepRunner(jobs=2)``. Every timed pass gets a
fresh, empty ``ResultCache``, so the pass computes every cell: it
measures the runner pool, result IPC, cache writes and the model, not
cache lookups. Pass ``i`` of a run with seed ``s`` is the sweep with
``base_seed = 1000 * s + i``.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import tempfile
import time
from multiprocessing import shared_memory

from repro.experiments.common import (
    DEFAULT_DESIGNS,
    baseline_cell,
    run_sweep,
    workload_cell,
)
from repro.model.api import run_model
from repro.runner import ResultCache, SweepRunner, cell_key

import layers
from harness import (
    Report,
    alternate,
    digest_of,
    fill_missing_layers,
    core_rows,
    layer_rows,
    pass_seed,
    peak_rss_mb,
    percentile,
    setup_metric,
    summary,
    timed_passes,
)

IMPORTS = ("repro.experiments.common", "repro.runner")
LC_WORKLOADS = ("xapian", "Mixed")
LOADS = ("high", "low")
MIXES = 3
EPOCHS = 20
JOBS = 2
TRIPLES = [
    (lc, load, mix)
    for lc in LC_WORKLOADS for load in LOADS for mix in range(MIXES)
]
CELLS = len(TRIPLES) * (1 + len(DEFAULT_DESIGNS))


@dataclasses.dataclass
class SweepPass:
    seed: int
    setup: float
    wall: float
    stats: object
    outcomes: list
    cell_seconds: list
    arena_leaked: bool


def _arena_exists(name) -> bool:
    if name is None:
        return False
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


def sweep_pass(seed: int, tmp: str, jobs: int) -> SweepPass:
    """One run_sweep over a fresh, empty cache (removed afterwards)."""
    begin = time.perf_counter()
    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=tmp)
    try:
        cache = ResultCache(cache_dir)
        runner = SweepRunner(jobs=jobs, cache=cache)
        start = time.perf_counter()
        result = run_sweep(
            designs=DEFAULT_DESIGNS,
            lc_workloads=LC_WORKLOADS,
            loads=LOADS,
            mixes=MIXES,
            epochs=EPOCHS,
            base_seed=seed,
            runner=runner,
        )
        wall = time.perf_counter() - start
        cells = [
            baseline_cell(lc, load, mix, EPOCHS, seed)
            for lc, load, mix in TRIPLES
        ] + [
            workload_cell(design, lc, load, mix, EPOCHS, seed)
            for lc, load, mix in TRIPLES for design in DEFAULT_DESIGNS
        ]
        cell_seconds = [cache.get(cell_key(c))["duration"] for c in cells]
        return SweepPass(
            seed=seed,
            setup=start - begin,
            wall=wall,
            stats=runner.stats,
            outcomes=result.outcomes,
            cell_seconds=cell_seconds,
            arena_leaked=_arena_exists(runner.last_arena_name),
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _outcome_text(outcome) -> str:
    # repr keeps every float digit and treats NaN as equal to itself.
    return repr(dataclasses.asdict(outcome))


def _check_passes(report: Report, passes, repeats) -> None:
    """Every pass computes every cell; a repeated pass reproduces its
    outcomes; pass 0 agrees with the reference engine."""
    for i, p in enumerate(passes):
        report.check(
            f"sweep pass {i}: {CELLS} cells computed, 0 cache hits, "
            "0 retries",
            p.stats.cells == CELLS and p.stats.computed == CELLS
            and p.stats.cache_hits == 0 and p.stats.retries == 0,
            f"cells={p.stats.cells} computed={p.stats.computed} "
            f"hits={p.stats.cache_hits} retries={p.stats.retries}",
        )
        report.check(f"sweep pass {i}: no shm segment left behind",
                     not p.arena_leaked)
    for i, (a, b) in enumerate(repeats):
        report.check(
            f"sweep repeat {i}: outcomes identical",
            [_outcome_text(o) for o in a.outcomes]
            == [_outcome_text(o) for o in b.outcomes],
        )
    # One cell per design against the frozen scalar reference engine.
    seed = passes[0].seed
    lc, load, mix = TRIPLES[seed % len(TRIPLES)]
    by_cell = {
        (o.design, o.lc_workload, o.load, o.mix_seed): o
        for o in passes[0].outcomes
    }
    baseline = None
    for design in DEFAULT_DESIGNS:
        outcome, _result, ipcs = run_model(
            design=design, lc_workload=lc, load=load, mix_seed=mix,
            epochs=EPOCHS, base_seed=seed, engine="reference",
            baseline_ipcs=baseline,
        )
        if baseline is None:
            baseline = ipcs
        fast = by_cell[(design, lc, load, mix)]
        report.check(
            f"sweep cell {design}/{lc}/{load}/mix{mix} equals the "
            "reference engine",
            _outcome_text(outcome) == _outcome_text(fast),
        )
    report.digest = digest_of(_outcome_text(o) for o in passes[0].outcomes)


def measure(seed: int, seconds: float, tmp: str, imports) -> Report:
    report = Report()
    warm = sweep_pass(pass_seed(seed, 0), tmp, JOBS)  # warm-up, untimed
    passes = timed_passes(
        seconds, lambda i: sweep_pass(pass_seed(seed, i), tmp, JOBS)
    )
    rss = peak_rss_mb(children=True)
    rates = [p.stats.computed / p.wall for p in passes]
    cell_ms = [s * 1e3 for p in passes for s in p.cell_seconds]
    report.attempted += sum(p.stats.cells for p in passes)
    setup_metric(report, {
        "imports": imports,
        "fresh cache and runner": [p.setup for p in passes],
    })
    report.metric("throughput_per_s", statistics.median(rates), "1/s")
    report.metric("latency_p50_ms", percentile(cell_ms, 50), "ms")
    report.metric("latency_p90_ms", percentile(cell_ms, 90), "ms")
    report.metric("peak_rss_mb", rss, "MB")
    report.note(f"sweep.cells_per_s (throughput_per_s): {summary(rates)}")
    report.note(
        f"per-cell compute time (latency_p50_ms/latency_p90_ms), "
        f"n={len(cell_ms)} cells"
    )
    _check_passes(report, passes, [(warm, passes[0])])
    return report


def trace(seed: int, seconds: float, tmp: str) -> Report:
    report = Report()
    # The runner rows come from the untraced jobs=2 pass; worker spans
    # would stay in the workers, so the traced pass runs cells inline.
    # An inline pass fills this process's caches, so the untraced and
    # traced inline passes after it start equally warm.
    first = pass_seed(seed, 0)
    sweep_pass(first, tmp, 1)  # warm-up, untimed
    pooled = sweep_pass(first, tmp, JOBS)
    untraced, traced_runs, recorder = alternate(
        seconds, lambda: sweep_pass(first, tmp, 1), layers.SWEEP
    )
    stats = pooled.stats
    report.metric("runner.cells", stats.cells, "count")
    report.metric("runner.cache_hits", stats.cache_hits, "count")
    report.metric("runner.retries", stats.retries, "count")
    report.metric("runner.serial_s", stats.serial_seconds, "s")
    report.metric(
        "runner.parallel_efficiency",
        stats.serial_seconds / (stats.wall_seconds * JOBS), "ratio",
    )
    layer_rows(report, recorder.records, [p.wall for p in untraced],
               [p.wall for p in traced_runs])
    core_rows(report, recorder.records)
    fill_missing_layers(report)
    report.attempted += stats.cells + 2 * len(untraced) * CELLS
    runs = [pooled] + untraced + traced_runs
    _check_passes(report, runs, [(pooled, p) for p in runs[1:]])
    return report
