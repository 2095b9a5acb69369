"""The layer map: which public function is each layer, and where its
caller looks it up.

A function imported by name into another module is patched in that
module (``repro.core.designs:jumanji_placer``), because that is the
binding the caller calls; methods are patched on their class.
"""

from __future__ import annotations

from spans import Binding


def _memo_hit(args, record) -> bool:
    return bool(record.memo_hit)


def _request_key(args, decision):
    # (session id, epoch) names one request on both sides of the wire.
    return (args[1], decision.epoch)


CORE = (
    Binding("repro.core.runtime:JumanjiRuntime", "reconfigure",
            "core.reconfigure", tag=_memo_hit),
    Binding("repro.core.designs", "lat_crit_placer", "core.lat_crit_placer"),
    Binding("repro.core.jumanji", "lat_crit_placer", "core.lat_crit_placer"),
    Binding("repro.core.jumanji", "jumanji_lookahead",
            "core.jumanji_lookahead"),
    Binding("repro.core.designs", "jumanji_placer", "core.jumanji_placer"),
    Binding("repro.core.designs", "jigsaw_place", "core.jigsaw_place"),
    Binding("repro.core.jumanji", "jigsaw_place", "core.jigsaw_place"),
    Binding("repro.core.controller:FeedbackController", "ingest_completed",
            "core.controller"),
    Binding("repro.core.controller:FeedbackController", "force_update",
            "core.controller"),
)

MODEL = (
    Binding("repro.model.system:SystemModel", "run", "model.run"),
    Binding("repro.model.batch:BatchSystemModel", "run", "model.run"),
    Binding("repro.model.system", "batch_perf", "model.performance"),
    Binding("repro.model.system", "lc_service_cycles", "model.performance"),
    Binding("repro.model.system", "run_epoch_batch", "sim.queueing"),
    Binding("repro.model.batch", "run_epoch_batch", "sim.queueing"),
    Binding("repro.sim.queueing:LcRequestSimulator", "run_epoch",
            "sim.queueing"),
)

SWEEP = (
    Binding("repro.runner:SweepRunner", "map", "runner"),
    Binding("repro.runner", "compute_cell", "model.cell"),
) + MODEL + CORE

FLEET = (
    Binding("repro.fleet.cluster:Fleet", "step", "fleet.step"),
    Binding("repro.fleet.cluster:Fleet", "audit", "fleet.audit"),
    Binding("repro.fleet.cluster:ClusterScheduler", "select",
            "fleet.scheduler"),
    Binding("repro.fleet.chip:FleetChip", "tick", "fleet.chip_tick"),
    Binding("repro.fleet.chip", "lc_service_cycles", "model.performance"),
    Binding("repro.sim.queueing:LcRequestSimulator", "run_epoch",
            "sim.queueing"),
) + CORE

SERVE = (
    Binding("repro.serve.client:Client", "decide", "serve.client",
            tag=_request_key),
    Binding("repro.serve.service:PlacementService", "decide",
            "serve.decide", tag=_request_key),
    Binding("repro.serve.schema:TelemetryRequest", "to_dict", "serve.schema"),
    Binding("repro.serve.schema:TelemetryRequest", "from_dict",
            "serve.schema"),
    Binding("repro.serve.schema:Decision", "to_dict", "serve.schema"),
    Binding("repro.serve.schema:Decision", "from_dict", "serve.schema"),
) + CORE

TRACESIM = (
    Binding("repro.sim.tracesim:TraceSimulator", "run", "tracesim.run"),
    Binding("repro.sim.tracesim:PrivateCache", "access_block",
            "tracesim.private_cache"),
    Binding("repro.vtb.vtb:PlacementDescriptor", "bank_for_lines",
            "vtb.bank_for_lines"),
)
