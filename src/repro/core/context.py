"""The placement context: everything a placement algorithm may consult.

Placement runs every 100 ms in Jumanji's OS runtime. Its inputs are the
hardware description (config + NoC), the VM layout, each app's miss
curve (from UMONs in hardware; from the analytic profiles here), and the
feedback controller's current latency-critical allocation targets. The
:class:`PlacementContext` packages these so every LLC design exposes the
same ``allocate(ctx) -> Allocation`` interface.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence
from typing import Tuple

from ..cache.misscurve import MissCurve
from ..config import Engine, SystemConfig, VmSpec
from ..noc.mesh import MeshNoc
from .allocation import PARTITION_MODES, Allocation

__all__ = [
    "AppInfo",
    "PlacementContext",
    "pack_allocation",
    "unpack_allocation",
]


@dataclass(frozen=True)
class AppInfo:
    """One application as the placement layer sees it.

    ``curve`` maps MB of LLC to the app's miss *rate* (misses per
    kilocycle for batch apps; misses per query scaled by QPS for LC apps)
    so that marginal utilities are commensurable across apps, as UMON
    hardware would report. ``intensity`` is the app's LLC accesses per
    kilocycle, used to model sharing and energy.
    """

    name: str
    tile: int
    vm_id: int
    is_lc: bool
    curve: MissCurve
    intensity: float

    def __post_init__(self) -> None:
        if self.intensity < 0:
            raise ValueError("intensity must be non-negative")


@dataclass
class PlacementContext:
    """Inputs to one placement decision."""

    config: SystemConfig
    noc: MeshNoc
    vms: Sequence[VmSpec]
    apps: Dict[str, AppInfo]
    lat_sizes: Dict[str, float] = field(default_factory=dict)
    #: Which placement implementation the entry-point placers use —
    #: one of :data:`repro.config.Engine.CHOICES`: ``"fast"`` (the
    #: vectorised kernels) or ``"reference"`` (the frozen scalar copies
    #: in :mod:`repro.model.reference`). The two are differentially
    #: tested to be bit-identical.
    engine: str = Engine.FAST

    def __post_init__(self) -> None:
        Engine.validate(self.engine, source="PlacementContext")
        declared = {a for vm in self.vms for a in vm.apps}
        missing = declared - set(self.apps)
        if missing:
            raise ValueError(f"apps without AppInfo: {sorted(missing)}")
        for app, size in self.lat_sizes.items():
            if app not in self.apps:
                raise ValueError(f"lat size for unknown app {app!r}")
            if size < 0:
                raise ValueError(f"negative lat size for {app!r}")

    # -- allocation construction ----------------------------------------------------

    def new_allocation(self, partition_mode: str = "per-app") -> "Allocation":
        """A fresh :class:`~repro.core.allocation.Allocation` for this
        context's engine.

        The fast engine gets an allocation with incremental bank
        totals and derived-stat memos enabled; the reference engine gets
        the plain recompute-everything object.
        """
        from .allocation import Allocation

        return Allocation(
            self.config,
            partition_mode=partition_mode,
            accelerated=Engine.accelerated(self.engine),
        )

    # -- convenience views --------------------------------------------------------

    @property
    def lc_apps(self) -> List[str]:
        """LC app names in VM order."""
        return [a for vm in self.vms for a in vm.lc_apps]

    @property
    def batch_apps(self) -> List[str]:
        """Batch app names in VM order."""
        return [a for vm in self.vms for a in vm.batch_apps]

    def vm_of(self, app: str) -> int:
        """VM id of an app."""
        return self.apps[app].vm_id

    def vm_of_app_map(self) -> Dict[str, int]:
        """Mapping of every app to its VM id."""
        return {name: info.vm_id for name, info in self.apps.items()}

    def tile_of(self, app: str) -> int:
        """Tile/core an app runs on."""
        return self.apps[app].tile

    def lat_size(self, app: str) -> float:
        """Controller-assigned LC allocation (MB); 0 if not set."""
        return self.lat_sizes.get(app, 0.0)

    def vm_by_id(self, vm_id: int) -> VmSpec:
        """The VmSpec with this id; KeyError if absent."""
        for vm in self.vms:
            if vm.vm_id == vm_id:
                return vm
        raise KeyError(f"no VM {vm_id}")

    def vm_centroid(self, vm: VmSpec) -> int:
        """Representative tile for a VM (hop-minimising centroid)."""
        return self.noc.centroid_tile(list(vm.cores))

    def fingerprint(self) -> Tuple[bytes, Tuple[str, ...], Tuple[int, ...]]:
        """Hashable identity of every placement-relevant input.

        Returns ``(key, names, vm_ids)``. ``names`` and ``vm_ids`` are
        the sorted app names and VM ids; ``key`` is name-free: it holds
        each app as its rank in ``names`` and each VM as its rank in
        ``vm_ids``, and covers the LC size targets, the VM layout
        (cores, LC and batch apps), and each app's tile, VM, role,
        intensity and miss-curve *content* digest, in ``apps`` order.
        So drifting UMON-measured curves (new digests) never alias a
        stale memoised placement.

        ``key`` is a :func:`_pack` of the integers (each list led by
        its length, so they parse unambiguously), the float sizes and
        intensities, and the 16-byte curve digests.

        The whole triple identifies the context; ``key`` alone
        identifies it up to an order-preserving renaming of apps and
        VMs. The placers break ties only by name and VM-id order, so
        two contexts with equal keys place identically under the
        renaming. :class:`repro.core.runtime.JumanjiRuntime` keys its
        own memo on the triple and the process-wide one on ``key``.
        """
        names = tuple(sorted(self.apps))
        vm_ids = tuple(sorted(
            {vm.vm_id for vm in self.vms}
            | {info.vm_id for info in self.apps.values()}
        ))
        rank, vm_rank = _ranks(names), _ranks(vm_ids)
        lat = sorted(self.lat_sizes.items())
        ints = [len(lat)]
        ints += [rank[app] for app, _ in lat]
        floats = [size for _, size in lat]
        ints.append(len(self.vms))
        for vm in self.vms:
            ints += (vm_rank[vm.vm_id], len(vm.cores), *vm.cores)
            ints.append(len(vm.lc_apps))
            ints += [rank[a] for a in vm.lc_apps]
            ints.append(len(vm.batch_apps))
            ints += [rank[a] for a in vm.batch_apps]
        ints.append(len(self.apps))
        digests = []
        for name, info in self.apps.items():
            ints += (
                rank[name], info.tile, vm_rank[info.vm_id], info.is_lc
            )
            floats.append(info.intensity)
            digests.append(info.curve.fingerprint)
        return _pack(ints, floats, b"".join(digests)), names, vm_ids


# The name-free encoding: ``fingerprint`` keys a context, and
# ``pack_allocation``/``unpack_allocation`` store its placement, with
# each app name and VM id replaced by its rank in sorted order.


def _ranks(items: Sequence) -> Dict:
    """Each item's rank (its index) in ``items``."""
    return {item: i for i, item in enumerate(items)}


def _pack(
    ints: List[int], floats: Sequence[float], tail: bytes = b""
) -> bytes:
    """``ints`` led by their count, ``floats`` as bit-exact doubles, then
    ``tail``: one byte string, which hashes once and is a fraction of
    the size of the nested tuples it encodes."""
    return b"".join((
        array("i", [len(ints), *ints]).tobytes(),
        array("d", floats).tobytes(),
        tail,
    ))


def _unpack(data: bytes) -> Tuple[Iterator[int], Iterator[float]]:
    """The ints and floats of a tail-less :func:`_pack`, as iterators."""
    view = memoryview(data)
    end = 4 * (1 + view[:4].cast("i")[0])
    return (
        iter(view[4:end].cast("i").tolist()),
        iter(view[end:].cast("d").tolist()),
    )


def pack_allocation(
    allocation: Allocation, names: Sequence[str], vm_ids: Sequence[int]
) -> bytes:
    """``allocation`` packed with app names and VM ids as ranks in
    ``names`` and ``vm_ids`` (the last two parts of a fingerprint).

    It keeps every bank map's insertion order, so
    :func:`unpack_allocation` rebuilds, under any names that rank the
    same, an allocation whose order-dependent float sums are
    bit-identical to this one. The ints are the partition mode and
    engine flag, then per bank ``bank, count, rank...``, then the dirty
    banks, the shared-batch ranks and the ``(app, VM)`` rank pairs of
    the partition groups, each led by its length; the grants in MB
    follow in bank-map order.

    Only VM-Part groups apps, always as ``vm<id>``; another group name
    (or an app outside ``names``) raises ``KeyError``.
    """
    rank = _ranks(names)
    group_rank = _ranks([f"vm{v}" for v in vm_ids])
    ints = [
        PARTITION_MODES.index(allocation.partition_mode),
        int(allocation.accelerated),
        len(allocation.allocs),
    ]
    mbs: List[float] = []
    for bank, bank_map in allocation.allocs.items():
        ints += (bank, len(bank_map))
        ints += [rank[app] for app in bank_map]
        mbs += bank_map.values()
    for part in (
        sorted(allocation._dirty_totals),
        sorted(rank[app] for app in allocation.shared_batch),
    ):
        ints.append(len(part))
        ints += part
    ints.append(len(allocation.partition_groups))
    for app, group in allocation.partition_groups.items():
        ints += (rank[app], group_rank[group])
    return _pack(ints, mbs)


def unpack_allocation(
    data: bytes,
    config: SystemConfig,
    names: Sequence[str],
    vm_ids: Sequence[int],
) -> Allocation:
    """The allocation :func:`pack_allocation` packed, under ``names``
    and ``vm_ids``."""
    ints, grants = _unpack(data)
    mode, accelerated, num_banks = next(ints), next(ints), next(ints)
    allocs: Dict[int, Dict[str, float]] = {}
    for _ in range(num_banks):
        bank, n = next(ints), next(ints)
        allocs[bank] = {names[next(ints)]: next(grants) for _ in range(n)}
    dirty = {next(ints) for _ in range(next(ints))}
    shared = {names[next(ints)] for _ in range(next(ints))}
    groups = {
        names[next(ints)]: f"vm{vm_ids[next(ints)]}"
        for _ in range(next(ints))
    }
    totals: Dict[int, float] = {}
    if accelerated:
        # The running totals the accelerated adds kept: left-to-right
        # sums in insertion order (dirty banks recompute theirs).
        for bank, bank_map in allocs.items():
            if bank not in dirty:
                total = 0.0
                for mb in bank_map.values():
                    total += mb
                totals[bank] = total
    return Allocation(
        config,
        allocs=allocs,
        partition_mode=PARTITION_MODES[mode],
        shared_batch=shared,
        partition_groups=groups,
        accelerated=bool(accelerated),
        _totals=totals,
        _dirty_totals=dirty,
    )
