"""fleet-churn: a 64-chip fleet for 20 epochs under churn and failures.

``Scenario(chips=64, epochs=20, seed, flash_prob=0.1,
fault_plan=FaultPlan(seed, chip_failure=0.02))`` driven through
``Fleet.setup()`` and one ``Fleet.step(epoch)`` per epoch. It is the
only workload through the cluster scheduler, the chip tick and the
audits, and it runs the placers on 2x2 chips, where numpy call
overhead dominates.

Work is counted in tenant-epochs (tenants hosted, summed over
epochs), not chip-epochs: a rack failure removes eight chips and a
flash crowd quadruples arrivals, so the work in 1,280 chip-epochs
differs by half between seeds, while the time per tenant-epoch stays
within a few percent. Pass ``i`` of a run with seed ``s`` runs the
scenario with seed ``1000 * s + i``.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

from repro.faults import FaultPlan
from repro.fleet import Fleet, Scenario

import layers
from harness import (
    Report,
    alternate,
    core_rows,
    digest_of,
    fill_missing_layers,
    layer_rows,
    pass_seed,
    peak_rss_mb,
    percentile,
    setup_metric,
    summary,
    timed_passes,
)

IMPORTS = ("repro.fleet", "repro.faults")
CHIPS = 64
EPOCHS = 20


def scenario(seed: int) -> Scenario:
    return Scenario(
        chips=CHIPS,
        epochs=EPOCHS,
        seed=seed,
        flash_prob=0.1,
        fault_plan=FaultPlan(seed=seed, chip_failure=0.02),
    )


@dataclasses.dataclass
class FleetPass:
    setup: float
    #: perf_counter reading when the first step began.
    start: float
    wall: float
    steps: list
    result: object

    @property
    def tenant_epochs(self) -> int:
        return sum(e.tenants for e in self.result.epochs)

    def step_ms_per_tenant(self) -> list:
        return [
            1e3 * t / e.tenants
            for t, e in zip(self.steps, self.result.epochs) if e.tenants
        ]


def fleet_pass(seed: int) -> FleetPass:
    """Build and set up a fleet, then step it through every epoch."""
    begin = time.perf_counter()
    fleet = Fleet(scenario(seed))
    fleet.setup()
    start = time.perf_counter()
    steps = []
    for epoch in range(EPOCHS):
        t = time.perf_counter()
        fleet.step(epoch)
        steps.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    return FleetPass(start - begin, start, wall, steps, fleet.result())


def _check_passes(report: Report, passes, repeats) -> None:
    """Every pass keeps its invariants; a repeated scenario reproduces
    its ``to_json`` byte for byte."""
    for i, p in enumerate(passes):
        report.check(
            f"fleet pass {i}: FleetResult.ok", p.result.ok,
            "; ".join(p.result.invariant_violations[:3]),
        )
    for i, (a, b) in enumerate(repeats):
        report.check(f"fleet repeat {i}: to_json identical",
                     a.result.to_json() == b.result.to_json())
    report.digest = digest_of([passes[0].result.to_json()])


def measure(seed: int, seconds: float, tmp: str, imports) -> Report:
    report = Report()
    warm = fleet_pass(pass_seed(seed, 0))  # warm-up, untimed
    passes = timed_passes(
        seconds, lambda i: fleet_pass(pass_seed(seed, i)), minimum=3
    )
    rss = peak_rss_mb()
    rates = [p.tenant_epochs / p.wall for p in passes]
    step_ms = [x for p in passes for x in p.step_ms_per_tenant()]
    report.attempted += CHIPS * EPOCHS * len(passes)
    setup_metric(report, {
        "imports": imports,
        "Fleet() + setup()": [p.setup for p in passes],
    })
    report.metric("throughput_per_s", statistics.median(rates), "1/s")
    report.metric("latency_p50_ms", percentile(step_ms, 50), "ms")
    report.metric("latency_p90_ms", percentile(step_ms, 90), "ms")
    report.metric("peak_rss_mb", rss, "MB")
    report.note(
        f"fleet tenant-epochs per second (throughput_per_s): "
        f"{summary(rates)}; chip-epochs per second: "
        f"{summary([CHIPS * EPOCHS / p.wall for p in passes])}"
    )
    report.note(
        f"Fleet.step time per tenant hosted that epoch "
        f"(latency_p50_ms/latency_p90_ms), n={len(step_ms)} steps"
    )
    _check_passes(report, passes, [(warm, passes[0])])
    return report


def trace(seed: int, seconds: float, tmp: str) -> Report:
    report = Report()
    fleet_pass(pass_seed(seed, 0))  # warm-up, untimed
    untraced, traced_runs, recorder = alternate(
        seconds, lambda: fleet_pass(pass_seed(seed, 0)), layers.FLEET
    )
    traced_pass = traced_runs[-1]
    # Fleet() and setup() admit the initial tenants before the first
    # step; the traced wall is the steps, so only their spans count.
    records = [r for r in recorder.records if r.start >= traced_pass.start]
    steps = [r.duration * 1e3 for r in records if r.name == "fleet.step"]
    report.metric("fleet.step.p50_ms", percentile(steps, 50), "ms")
    report.metric("fleet.step.max_ms", max(steps), "ms")
    counters = traced_pass.result.counters
    for name in ("admissions", "migrations", "rejections"):
        report.metric(f"fleet.{name}", counters[name], "count")
    layer_rows(report, records, [p.wall for p in untraced],
               [p.wall for p in traced_runs])
    core_rows(report, records)
    fill_missing_layers(report)
    report.attempted += 2 * len(untraced) * CHIPS * EPOCHS
    runs = untraced + traced_runs
    _check_passes(report, runs, [(runs[0], p) for p in runs[1:]])
    return report
