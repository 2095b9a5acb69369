"""serve-open: placement decisions over HTTP from an in-process daemon.

A ``ServeDaemon(port=0)`` in this process serves 8 tenant sessions
(half on ``chip="default"``, the 20-core chip, half on
``chip="small"``) over 2 client connections, each its own thread.
Telemetry scripts come from ``serve.loadgen.build_scripts``; pass
``i`` of a run with seed ``s`` uses the scripts of seed ``1000 * s + i``.

* The closed loop gives the end-to-end metrics: each connection sends
  its next decision when the last reply lands; latency is each
  request's round trip and decisions per second is the capacity.
* The open loop runs in the traced run: 200 decisions due at a fixed
  20/s, each timed from when it was due, with the generator's lag and
  connection waits. It is not an end-to-end metric because it is not
  steady: at 20/s the client's delayed ACK is usually off, so the
  ~40 ms Nagle/delayed-ACK stall hits none of the requests in some
  runs and a cascade of 7% of them in others, and the p95 flips
  between ~10 ms and ~140 ms. In the closed loop every reply stalls.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.serve import Client, PlacementService, ServeDaemon
from repro.serve.loadgen import build_scripts
from repro.serve.schema import TelemetryRequest

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
from spans import adopt

IMPORTS = ("repro.serve", "repro.serve.loadgen")
TENANTS = 8
CONNECTIONS = 2
RATE = 20.0
OPEN_EPOCHS = 25  # 8 tenants x 25 = 200 open-loop decisions
CLOSED_EPOCHS = 10  # 80 closed-loop decisions per pass
SETUPS = 3
JOIN_TIMEOUT = 120.0


def chip_of(tenant: int) -> str:
    # Tenant t rides connection t % 2; each connection gets both chips.
    return "default" if (tenant // 2) % 2 == 0 else "small"


def scripts(seed: int, epochs: int):
    base = build_scripts(TENANTS, epochs, seed=seed)
    return [
        dataclasses.replace(
            s, create=dataclasses.replace(s.create, chip=chip_of(s.tenant))
        )
        for s in base
    ]


@dataclasses.dataclass
class Tenant:
    session_id: str
    lc_instances: Tuple[str, ...]
    telemetry: List[TelemetryRequest]


def open_sessions(create, plan) -> List[Tenant]:
    """Create one session per script (``create`` is the client's or an
    in-process service's ``create_session``) and build its telemetry."""
    tenants = []
    for script in plan:
        info = create(script.create)
        telemetry = [
            TelemetryRequest(latencies={
                app: tuple(info.deadlines[app] * f for f in factors)
                for app in sorted(info.lc_instances)
            })
            for factors in script.factors
        ]
        tenants.append(Tenant(info.session_id, info.lc_instances,
                              telemetry))
    return tenants


@dataclasses.dataclass
class Sample:
    tenant: int
    epoch: int
    due: float
    #: When this connection's previous request completed.
    free: float
    send: float
    end: float
    decision: object
    error: Optional[str] = None


@dataclasses.dataclass
class LoopResult:
    samples: List[Sample]
    errors: List[str]
    #: perf_counter reading just before the connection threads started.
    start: float
    #: First thread start to last reply.
    wall: float
    #: Sum over connections of start to that connection's last reply.
    thread_seconds: float
    #: The scripts' seed and length, for the replay check.
    seed: int = 0
    epochs: int = 0
    #: Time to create the loop's sessions (closed loop only).
    sessions_s: float = 0.0


def _drive(host: str, port: int, work, pace, samples, errors) -> None:
    """One connection thread: send ``work`` in order, paced by ``pace``."""
    client = Client(host, port)
    try:
        free = pace(None)
        for tenant, epoch, target in work:
            due = pace(len(samples))
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            send = time.perf_counter()
            decision, error = None, None
            try:
                decision = client.decide(
                    target.session_id, target.telemetry[epoch]
                )
            except Exception as exc:  # a failed request is a miss
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            samples.append(
                Sample(tenant, epoch, due, free, send, end, decision, error)
            )
            free = end
    except Exception as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        client.close()


def _run_connections(daemon, works, paces) -> LoopResult:
    samples = [[] for _ in works]
    errors: List[str] = []
    threads = [
        threading.Thread(
            target=_drive,
            args=(daemon.host, daemon.port, work, pace, out, errors),
            name=f"perfbench-conn{i}",
        )
        for i, (work, pace, out) in enumerate(zip(works, paces, samples))
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a load connection did not finish in time")
    ends = [max(x.end for x in conn) for conn in samples if conn]
    return LoopResult(
        samples=[x for conn in samples for x in conn],
        errors=errors,
        start=start,
        wall=max(ends) - start if ends else math.nan,
        thread_seconds=sum(end - start for end in ends),
    )


def open_loop(daemon, tenants: List[Tenant]) -> LoopResult:
    """Open loop: decision k is due at ``t0 + k / RATE``."""
    order = [
        (tenant, epoch)
        for epoch in range(OPEN_EPOCHS) for tenant in range(TENANTS)
    ]
    t0 = time.perf_counter() + 0.05
    works, paces = [], []
    for conn in range(CONNECTIONS):
        ks = [k for k, (t, _) in enumerate(order) if t % CONNECTIONS == conn]
        works.append([(order[k][0], order[k][1], tenants[order[k][0]])
                      for k in ks])
        paces.append(
            lambda i, ks=ks: t0 if i is None else t0 + ks[i] / RATE
        )
    return _run_connections(daemon, works, paces)


def closed_loop(daemon, tenants: List[Tenant]) -> LoopResult:
    """Closed loop: each connection sends when its last reply lands."""
    works = [
        [(t, epoch, tenants[t])
         for epoch in range(CLOSED_EPOCHS)
         for t in range(TENANTS) if t % CONNECTIONS == conn]
        for conn in range(CONNECTIONS)
    ]
    now = time.perf_counter
    paces = [lambda i: now()] * CONNECTIONS
    return _run_connections(daemon, works, paces)


def closed_pass(daemon, seed: int) -> LoopResult:
    """Fresh sessions, one closed-loop pass, sessions deleted after."""
    with Client(daemon.host, daemon.port) as client:
        begin = time.perf_counter()
        tenants = open_sessions(client.create_session,
                                scripts(seed, CLOSED_EPOCHS))
        created = time.perf_counter()
        result = closed_loop(daemon, tenants)
        for t in tenants:
            client.delete_session(t.session_id)
    result.seed, result.epochs = seed, CLOSED_EPOCHS
    result.sessions_s = created - begin
    return result


def _replay(plan):
    """In-process PlacementService replay of the same scripts: each
    tenant's fingerprints, and the tenants (for their telemetry)."""
    service = PlacementService()
    tenants = open_sessions(service.create_session, plan)
    prints = {
        script.tenant: [
            service.decide(t.session_id, tel).fingerprint()
            for tel in t.telemetry
        ]
        for script, t in zip(plan, tenants)
    }
    return prints, tenants


def _check(report: Report, label: str, loop: LoopResult,
           lc_of: Dict[int, Tuple[str, ...]],
           expected: Dict[int, List[str]]) -> List[str]:
    """Loadgen invariants, and fingerprints equal to the replay."""
    report.check(f"serve {label}: no connection errors", not loop.errors,
                 "; ".join(loop.errors[:3]))
    seen: Dict[int, List[str]] = {t: [] for t in range(TENANTS)}
    problems = []
    for s in sorted(loop.samples, key=lambda s: (s.tenant, s.epoch)):
        d = s.decision
        tag = f"tenant {s.tenant} epoch {s.epoch}"
        if s.error is not None:
            problems.append(f"{tag}: {s.error}")
            continue
        seen[s.tenant].append(d.fingerprint())
        if d.epoch != s.epoch:
            problems.append(f"{tag}: decision epoch {d.epoch}")
        if not all(v > 0.0 for v in d.lat_sizes.values()):
            problems.append(f"{tag}: non-positive LC size")
        if not d.degraded and not set(lc_of[s.tenant]) <= set(d.apps()):
            problems.append(f"{tag}: LC app missing from the allocation")
    report.check(f"serve {label}: every request answered, loadgen "
                 "invariants hold", not problems, "; ".join(problems[:3]))
    report.check(
        f"serve {label}: decision fingerprints equal an in-process "
        "PlacementService replay",
        all(seen[t] == expected[t] for t in range(TENANTS)),
    )
    return [fp for t in range(TENANTS) for fp in seen[t]]


def _latencies(loop: LoopResult) -> List[float]:
    return [
        math.inf if s.error is not None else (s.end - s.due) * 1e3
        for s in loop.samples
    ]


def _count(report: Report, loops: List[LoopResult]) -> None:
    report.attempted += sum(len(loop.samples) for loop in loops)
    report.failed += sum(
        1 for loop in loops for s in loop.samples if s.error is not None
    )


def _finish_checks(report: Report, loops: List[LoopResult]) -> None:
    """Check every loop against a replay of its scripts; the digest is
    the first loop's decisions."""
    replays = {}
    prints = []
    for i, loop in enumerate(loops):
        key = (loop.seed, loop.epochs)
        if key not in replays:
            replays[key] = _replay(scripts(*key))
        expected, tenants = replays[key]
        lc_of = {t: tenant.lc_instances for t, tenant in enumerate(tenants)}
        found = _check(report, f"loop {i} (seed {loop.seed}, "
                       f"{loop.epochs} epochs)", loop, lc_of, expected)
        prints = prints or found
    report.digest = digest_of(prints)


def measure(seed: int, seconds: float, tmp: str, imports) -> Report:
    report = Report()
    boots = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        daemon = ServeDaemon(port=0).start()
        boots.append(time.perf_counter() - start)
        if len(boots) < SETUPS:
            daemon.close()
    try:
        warm = closed_pass(daemon, pass_seed(seed, 0))  # warm-up, untimed
        passes = timed_passes(
            seconds, lambda i: closed_pass(daemon, pass_seed(seed, i)),
            minimum=3,
        )
        rss = peak_rss_mb()
    finally:
        daemon.close()
    latencies = [x for loop in passes for x in _latencies(loop)]
    rates = [len(loop.samples) / loop.wall for loop in passes]
    _count(report, passes)
    setup_metric(report, {
        "imports": imports,
        "daemon boot": boots,
        "8 sessions": [loop.sessions_s for loop in passes],
    })
    report.metric("throughput_per_s", statistics.median(rates), "1/s")
    report.metric("latency_p50_ms", percentile(latencies, 50), "ms")
    report.metric("latency_p90_ms", percentile(latencies, 90), "ms")
    report.metric("peak_rss_mb", rss, "MB")
    report.note(
        f"serve.capacity_per_s (throughput_per_s): closed loop on "
        f"{CONNECTIONS} connections, {summary(rates)}"
    )
    report.note(
        f"serve latency (latency_p50_ms/latency_p90_ms): "
        f"closed-loop round trips, n={len(latencies)}"
    )
    _finish_checks(report, passes + [warm])
    return report


def trace(seed: int, seconds: float, tmp: str) -> Report:
    report = Report()
    daemon = ServeDaemon(port=0).start()
    try:
        first = pass_seed(seed, 0)
        closed_pass(daemon, first)  # warm-up, untimed
        with Client(daemon.host, daemon.port) as client:
            tenants = open_sessions(client.create_session,
                                    scripts(first, OPEN_EPOCHS))
        begin = time.perf_counter()
        open_run = open_loop(daemon, tenants)
        open_run.seed, open_run.epochs = first, OPEN_EPOCHS
        untraced, traced_runs, recorder = alternate(
            seconds - (time.perf_counter() - begin),
            lambda: closed_pass(daemon, first), layers.SERVE,
        )
    finally:
        daemon.close()
    _open_loop_rows(report, open_run)
    # Session set-up precedes the loop; only the loop is traced wall.
    records = [
        r for r in recorder.records if r.start >= traced_runs[-1].start
    ]
    _request_rows(report, records)
    orphans = adopt(records, "serve.client", _server_to_client(records))
    report.check("serve trace: every server span ran inside a client "
                 "request", not orphans, f"{len(orphans)} orphan spans")
    # Connection-thread seconds: each connection's span of the loop.
    layer_rows(report, records, [p.thread_seconds for p in untraced],
               [p.thread_seconds for p in traced_runs])
    core_rows(report, records)
    fill_missing_layers(report)
    _count(report, [open_run] + untraced + traced_runs)
    _finish_checks(report, untraced + traced_runs + [open_run])
    return report


def _server_to_client(records) -> Dict[int, int]:
    """Server handler thread -> the client thread it served."""
    client_tid = {r.tag: r.tid for r in records if r.name == "serve.client"}
    return {
        r.tid: client_tid[r.tag]
        for r in records
        if r.name == "serve.decide" and r.tag in client_tid
    }


def _request_rows(report: Report, records) -> None:
    """Per-request rows, matched client to server by (session, epoch)."""
    rtt = {r.tag: r.duration * 1e3 for r in records
           if r.name == "serve.client"}
    decide = {r.tag: r.duration * 1e3 for r in records
              if r.name == "serve.decide"}
    keys = sorted(set(rtt) & set(decide))
    report.check("serve trace: every request matched client to server",
                 len(keys) == len(rtt) == len(decide),
                 f"{len(keys)} of {len(rtt)}")
    transport = [rtt[k] - decide[k] for k in keys]
    schema_s = sum(r.self_s for r in records if r.name == "serve.schema")
    for name, values in (("rtt", list(rtt.values())),
                         ("decide", list(decide.values())),
                         ("transport", transport)):
        report.metric(f"serve.{name}.p50_ms", percentile(values, 50), "ms")
        report.metric(f"serve.{name}.p95_ms", percentile(values, 95), "ms")
    report.metric("serve.schema_ms", schema_s * 1e3 / len(rtt), "ms")


def _open_loop_rows(report: Report, loop: LoopResult) -> None:
    """Open-loop rows: latency from due time, waits, generator lag."""
    samples = loop.samples
    latencies = _latencies(loop)
    conn_wait = [max(0.0, s.free - s.due) * 1e3 for s in samples]
    lag = [(s.send - max(s.due, s.free)) * 1e3 for s in samples]
    report.metric("serve.open.p50_ms", percentile(latencies, 50), "ms")
    report.metric("serve.open.p95_ms", percentile(latencies, 95), "ms")
    report.metric("serve.conn_wait.p95_ms", percentile(conn_wait, 95), "ms")
    report.metric("serve.generator_lag.p95_ms", percentile(lag, 95), "ms")
    report.metric("serve.sent", len(samples), "count")
    report.metric("serve.failed",
                  sum(1 for s in samples if s.error is not None), "count")
    stalled = sum(1 for s in samples if s.end - s.send > 0.03)
    report.note(
        f"serve open loop at {RATE:g}/s, n={len(samples)}: "
        f"{stalled} requests took over 30 ms on the wire"
    )
