"""Workload specification and placement-context construction.

A :class:`WorkloadSpec` binds the VM layout (which app instance runs on
which core) to the analytic profiles and the load level, and knows how
to build the :class:`~repro.core.context.PlacementContext` the placement
algorithms consume — converting each profile's MPKI/misses-per-query
curve into a misses-per-kilocycle curve so marginal utilities are
commensurable across batch and latency-critical apps (as UMON hardware
reports them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cache.misscurve import BoundedCache, MissCurve
from ..config import CORE_FREQ_HZ, SystemConfig, VmSpec
from ..core.context import AppInfo, PlacementContext
from ..noc.mesh import MeshNoc
from ..workloads.mixes import base_app, build_vms, random_batch_mix
from ..workloads.spec import BatchAppProfile, get_profile
from ..workloads.tailbench import LatencyCriticalProfile, get_lc_profile
from .params import DEFAULT_PARAMS, ModelParams
from .performance import estimate_ipc

__all__ = ["WorkloadSpec", "make_default_workload"]

#: Miss curves are sampled on this grid for placement decisions.
CURVE_STEP_MB = 0.125
CURVE_POINTS = 176  # covers 0..21.875 MB, beyond the 20 MB LLC

#: The fast engine's (curve, intensity) pairs, shared by every spec. A
#: pair depends only on its key — LC: (profile, load); batch: (profile,
#: config, params, app count), the count fixing the fair share the IPC
#: estimate is taken at — so the fleet, which builds a new spec on each
#: admit and release, builds each 176-point curve once. The reference
#: engine bypasses it (build_context(engine="reference")) to keep the
#: scalar baseline's per-epoch rebuild cost.
_CURVE_CACHE = BoundedCache(1024)


@dataclass
class WorkloadSpec:
    """One machine-level workload: VMs, app instances, and load."""

    config: SystemConfig
    vms: Sequence[VmSpec]
    load: str = "high"
    params: ModelParams = field(default_factory=lambda: DEFAULT_PARAMS)

    def __post_init__(self) -> None:
        if self.load not in ("low", "high"):
            raise ValueError("load must be 'low' or 'high'")
        self._tiles: Dict[str, int] = {}
        for vm in self.vms:
            for core, app in zip(vm.cores, vm.apps):
                self._tiles[app] = core
        self._lc_profiles: Dict[str, LatencyCriticalProfile] = {
            a: get_lc_profile(base_app(a))
            for vm in self.vms
            for a in vm.lc_apps
        }
        self._batch_profiles: Dict[str, BatchAppProfile] = {
            a: get_profile(base_app(a))
            for vm in self.vms
            for a in vm.batch_apps
        }
        self._num_apps = len(self.lc_apps) + len(self.batch_apps)

    # -- lookups -------------------------------------------------------------------

    @property
    def lc_apps(self) -> List[str]:
        """LC app instance ids, in VM order."""
        return [a for vm in self.vms for a in vm.lc_apps]

    @property
    def batch_apps(self) -> List[str]:
        """Batch app instance ids, in VM order."""
        return [a for vm in self.vms for a in vm.batch_apps]

    def tile_of(self, app: str) -> int:
        """The core/tile an app instance runs on."""
        return self._tiles[app]

    def vm_of(self, app: str) -> int:
        """The VM id owning an app instance."""
        for vm in self.vms:
            if app in vm.apps:
                return vm.vm_id
        raise KeyError(f"unknown app {app!r}")

    def lc_profile(self, app: str) -> LatencyCriticalProfile:
        """The LC profile behind an instance id."""
        return self._lc_profiles[app]

    def batch_profile(self, app: str) -> BatchAppProfile:
        """The batch profile behind an instance id."""
        return self._batch_profiles[app]

    def qps_of(self, app: str) -> float:
        """The instance's arrival rate at this workload's load level."""
        return self._lc_profiles[app].qps_at(self.load)

    # -- thread migration -----------------------------------------------------------

    def migrate(self, app_a: str, app_b: str) -> None:
        """Swap two apps' cores (thread migration).

        Prior D-NUCAs — and Jumanji (Sec. IV-B) — migrate LLC
        allocations along with threads: after a swap, the next
        reconfiguration places each app's data near its *new* core, so
        migration costs one coherence walk rather than a permanent
        penalty. Swapping (rather than moving to a free core) keeps the
        one-app-per-core invariant of the evaluation setup.
        """
        if app_a not in self._tiles or app_b not in self._tiles:
            missing = [
                a for a in (app_a, app_b) if a not in self._tiles
            ]
            raise KeyError(f"unknown app(s): {missing}")
        self._tiles[app_a], self._tiles[app_b] = (
            self._tiles[app_b],
            self._tiles[app_a],
        )

    # -- placement-context construction ----------------------------------------------

    def _batch_curve(self, app: str) -> Tuple[MissCurve, float]:
        """(misses-per-kilocycle curve, accesses-per-kilocycle) for a
        batch app, converting MPKI via an IPC estimate at a fair share."""
        profile = self._batch_profiles[app]
        fair_mb = self.config.llc_size_mb / max(1, self._num_apps)
        ipc_est = estimate_ipc(
            profile, fair_mb, 16.0, self.config, self.params
        )
        values = [
            profile.mpki(i * CURVE_STEP_MB) * ipc_est
            for i in range(CURVE_POINTS)
        ]
        intensity = profile.apki * ipc_est
        return MissCurve(values, CURVE_STEP_MB), intensity

    def _lc_curve(self, app: str) -> Tuple[MissCurve, float]:
        """(misses-per-kilocycle curve, accesses-per-kilocycle) for an LC
        app at the current load's QPS."""
        profile = self._lc_profiles[app]
        qps = self.qps_of(app)
        per_kcycle = qps / (CORE_FREQ_HZ / 1000.0)
        values = [
            profile.misses_per_query(i * CURVE_STEP_MB) * per_kcycle
            for i in range(CURVE_POINTS)
        ]
        intensity = profile.accesses_per_query * per_kcycle
        return MissCurve(values, CURVE_STEP_MB), intensity

    def _curve_of(
        self, app: str, is_lc: bool, use_cache: bool
    ) -> Tuple[MissCurve, float]:
        if not use_cache:
            return self._lc_curve(app) if is_lc else self._batch_curve(app)
        if is_lc:
            return _CURVE_CACHE.get_or_build(
                (self._lc_profiles[app], self.load),
                lambda: self._lc_curve(app),
            )
        return _CURVE_CACHE.get_or_build(
            (self._batch_profiles[app], self.config, self.params,
             self._num_apps),
            lambda: self._batch_curve(app),
        )

    def build_context(
        self,
        lat_sizes: Mapping[str, float],
        noc: Optional[MeshNoc] = None,
        engine: str = "fast",
    ) -> PlacementContext:
        """Build the placement context for one reconfiguration.

        ``engine`` selects the placement implementation the context's
        consumers will use (``"fast"`` or ``"reference"``, see
        :mod:`repro.model.reference`); the reference path also rebuilds
        the miss curves from the profiles instead of using the shared
        curve cache.
        """
        noc = noc if noc is not None else MeshNoc(self.config)
        use_cache = engine != "reference"
        apps: Dict[str, AppInfo] = {}
        for vm in self.vms:
            for app in vm.lc_apps:
                curve, intensity = self._curve_of(app, True, use_cache)
                apps[app] = AppInfo(
                    name=app,
                    tile=self.tile_of(app),
                    vm_id=vm.vm_id,
                    is_lc=True,
                    curve=curve,
                    intensity=intensity,
                )
            for app in vm.batch_apps:
                curve, intensity = self._curve_of(app, False, use_cache)
                apps[app] = AppInfo(
                    name=app,
                    tile=self.tile_of(app),
                    vm_id=vm.vm_id,
                    is_lc=False,
                    curve=curve,
                    intensity=intensity,
                )
        return PlacementContext(
            config=self.config,
            noc=noc,
            vms=list(self.vms),
            apps=apps,
            lat_sizes=dict(lat_sizes),
            engine=engine,
        )


def make_default_workload(
    lc_apps: Sequence[str],
    mix_seed: int,
    load: str = "high",
    config: Optional[SystemConfig] = None,
    batch_apps: Optional[Sequence[str]] = None,
) -> WorkloadSpec:
    """The paper's default 4 x (1 LC + 4 B) workload.

    ``lc_apps`` is either one name (replicated to all four VMs) or four
    names (the 'Mixed' workloads). The batch mix is drawn from
    ``mix_seed`` unless given explicitly.
    """
    config = config if config is not None else SystemConfig()
    lc_list = list(lc_apps)
    if len(lc_list) == 1:
        lc_list = lc_list * 4
    if len(lc_list) != 4:
        raise ValueError("need one or four LC app names")
    batch = (
        list(batch_apps)
        if batch_apps is not None
        else list(random_batch_mix(mix_seed))
    )
    vms = build_vms(lc_list, batch, config)
    return WorkloadSpec(config=config, vms=vms, load=load)
