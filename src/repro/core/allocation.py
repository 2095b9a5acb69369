"""The allocation matrix: how much LLC space each app owns in each bank.

Every placement algorithm in this reproduction produces an
:class:`Allocation` — the ``allocs[b][a]`` matrix of the paper's
Listings 2 and 3 — plus a partitioning mode describing how space is
enforced within banks (which determines associativity effects and attack
surfaces). Downstream consumers (performance model, security metrics,
descriptor generation) all read from this one structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..config import SystemConfig
from ..errors import AllocationInvalid
from ..noc.mesh import MeshNoc
from ..vtb.vtb import PlacementDescriptor, descriptor_from_allocation

__all__ = ["Allocation", "AllocationInvalid", "PARTITION_MODES"]

#: How intra-bank space is enforced:
#: * ``per-app``  — every app has its own way-partition (D-NUCAs);
#: * ``per-vm``   — VMs are partitioned, apps within a VM share (VM-Part);
#: * ``lc-only``  — only LC apps are partitioned; batch shares the rest
#:   (Static, Adaptive);
#: * ``none``     — fully shared.
PARTITION_MODES = ("per-app", "per-vm", "lc-only", "none")


@dataclass
class Allocation:
    """LLC space assignment: bank -> app -> MB.

    ``partition_mode`` describes intra-bank enforcement (see
    :data:`PARTITION_MODES`). ``shared_batch`` lists apps that are *not*
    way-partitioned (they share leftover space); their ``allocs`` entries
    record the modelled occupancy rather than a hard quota.
    """

    config: SystemConfig
    allocs: Dict[int, Dict[str, float]] = field(default_factory=dict)
    partition_mode: str = "per-app"
    shared_batch: Set[str] = field(default_factory=set)
    #: app -> partition-group key. Apps sharing a group share one
    #: way-partition (e.g. all batch apps of a VM under VM-Part); the
    #: associativity available to an app is its *group's* ways.
    partition_groups: Dict[str, str] = field(default_factory=dict)
    #: Accelerated-engine bookkeeping (see :meth:`bank_used`): per-bank
    #: running totals and a memo of derived per-app statistics. Off for
    #: the reference engine, which recomputes every sum from scratch.
    accelerated: bool = field(default=False, compare=False, repr=False)
    _totals: Dict[int, float] = field(
        default_factory=dict, compare=False, repr=False
    )
    _dirty_totals: Set[int] = field(
        default_factory=set, compare=False, repr=False
    )
    _derived: Dict[Tuple, float] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.partition_mode not in PARTITION_MODES:
            raise ValueError(
                f"partition_mode must be one of {PARTITION_MODES}"
            )

    # -- mutation ---------------------------------------------------------------

    def add(self, bank: int, app: str, mb: float) -> None:
        """Grant ``app`` ``mb`` MB in ``bank`` (accumulates)."""
        if not 0 <= bank < self.config.num_banks:
            raise AllocationInvalid(
                f"bank {bank} out of range", bank=bank, app=app
            )
        if mb < 0:
            raise AllocationInvalid(
                f"allocation must be non-negative "
                f"({mb} MB for {app!r} in bank {bank})",
                bank=bank, app=app,
            )
        if mb == 0:
            return
        bank_map = self.allocs.setdefault(bank, {})
        if self.accelerated:
            if self._derived:
                self._derived.clear()
            if app in bank_map:
                # Re-granting changes a value mid-dict: the running
                # total's addition order no longer matches a fresh
                # insertion-order sum, so fall back to recomputing.
                self._dirty_totals.add(bank)
            elif bank not in self._dirty_totals:
                # Fresh key appends at the end of the bank dict, so
                # extending the running sum reproduces the recomputed
                # left-to-right sum bit for bit.
                self._totals[bank] = self._totals.get(bank, 0.0) + mb
        bank_map[app] = bank_map.get(app, 0.0) + mb
        if self.bank_used(bank) > self.config.llc_bank_mb + 1e-9:
            raise AllocationInvalid(
                f"bank {bank} over-committed: "
                f"{self.bank_used(bank):.3f} MB",
                bank=bank, app=app,
            )

    def add_stripe(self, app: str, grants: Iterable[float]) -> None:
        """Grant ``app`` ``grants[b]`` MB in every bank ``b`` (bulk add).

        Exactly equivalent to calling :meth:`add` once per bank in
        ascending order, skipping non-positive grants; the accelerated
        path just avoids per-call dispatch. Grant ``b`` appends to bank
        ``b``'s map in the same position a sequential loop would, so
        dict insertion orders — and therefore every order-dependent
        float accumulation downstream — are unchanged.
        """
        if not self.accelerated:
            for bank, mb in enumerate(grants):
                if mb > 0:
                    self.add(bank, app, mb)
                elif mb < 0:
                    raise AllocationInvalid(
                        f"allocation must be non-negative "
                        f"({mb} MB for {app!r} in bank {bank})",
                        bank=bank, app=app,
                    )
            return
        allocs = self.allocs
        totals = self._totals
        dirty = self._dirty_totals
        limit = self.config.llc_bank_mb + 1e-9
        num_banks = self.config.num_banks
        if self._derived:
            self._derived.clear()
        for bank, mb in enumerate(grants):
            if mb <= 0:
                if mb < 0:
                    raise AllocationInvalid(
                        f"allocation must be non-negative "
                        f"({mb} MB for {app!r} in bank {bank})",
                        bank=bank, app=app,
                    )
                continue
            if bank >= num_banks:
                raise AllocationInvalid(
                    f"bank {bank} out of range", bank=bank, app=app
                )
            bank_map = allocs.get(bank)
            if bank_map is None:
                allocs[bank] = {app: mb}
                used = totals.get(bank, 0.0) + mb
                totals[bank] = used
            elif app in bank_map:
                bank_map[app] = bank_map[app] + mb
                dirty.add(bank)
                used = sum(bank_map.values())
            else:
                bank_map[app] = mb
                if bank in dirty:
                    used = sum(bank_map.values())
                else:
                    used = totals.get(bank, 0.0) + mb
                    totals[bank] = used
            if used > limit:
                raise AllocationInvalid(
                    f"bank {bank} over-committed: {used:.3f} MB",
                    bank=bank, app=app,
                )

    # -- queries ------------------------------------------------------------------

    def bank_used(self, bank: int) -> float:
        """MB committed in ``bank``."""
        if self.accelerated and bank not in self._dirty_totals:
            # int 0 for untouched banks, exactly like the empty sum().
            return self._totals.get(bank, 0)
        return sum(self.allocs.get(bank, {}).values())

    def bank_free(self, bank: int) -> float:
        """MB still free in ``bank``."""
        return self.config.llc_bank_mb - self.bank_used(bank)

    def bank_free_all(self) -> List[float]:
        """``[bank_free(b) for b in range(num_banks)]``, one pass.

        The accelerated path reads the running totals directly (same
        expression :meth:`bank_free` evaluates, minus the per-bank
        method dispatch); any dirty bank falls back to the per-bank
        calls.
        """
        n = self.config.num_banks
        cap = self.config.llc_bank_mb
        if not self.accelerated or self._dirty_totals:
            return [cap - self.bank_used(b) for b in range(n)]
        get = self._totals.get
        return [cap - get(b, 0) for b in range(n)]

    def _memo(self, key: Tuple, compute) -> float:
        """Value-memoise a derived statistic (accelerated only).

        Derived stats are pure functions of the allocation matrix; the
        memo is cleared on every :meth:`add`, so a hit always replays
        the exact computation the reference engine would perform.
        """
        if not self.accelerated:
            return compute()
        hit = self._derived.get(key)
        if hit is None:
            hit = compute()
            self._derived[key] = hit
        return hit

    def _grant_rows(
        self,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Dense per-app grant rows over the touched banks.

        Returns ``(banks, rows)``: the touched bank ids in ``allocs``
        insertion order, and each app's MB vector over those columns.
        Memoised like every derived statistic (cleared on mutation);
        the vectorised NoC averages and the security metric all share
        one build. Column order matters: left-to-right accumulation
        over these columns replays the scalar loops' ``allocs``
        iteration order exactly.
        """
        return self._memo(("rows",), self._grant_rows_build)

    def _grant_rows_build(
        self,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        allocs = self.allocs
        nb = len(allocs)
        banks = np.fromiter(allocs.keys(), dtype=np.int64, count=nb)
        rows: Dict[str, np.ndarray] = {}
        for j, bank_map in enumerate(allocs.values()):
            for a, mb in bank_map.items():
                row = rows.get(a)
                if row is None:
                    row = rows[a] = np.zeros(nb)
                row[j] = mb
        return banks, rows

    def app_size(self, app: str) -> float:
        """Total MB owned by ``app`` across all banks."""
        return self._memo(("size", app), lambda: self._app_size_raw(app))

    def _app_size_raw(self, app: str) -> float:
        if self.accelerated:
            # cumsum over the grant-row columns replays the scalar
            # sum's allocs iteration order; absent apps and empty
            # matrices return the exact values (0.0 / int 0) the
            # scalar genexpr sum produces.
            if not self.allocs:
                return 0
            row = self._grant_rows()[1].get(app)
            if row is None:
                return 0.0
            return float(np.cumsum(row)[-1])
        return sum(
            bank_map.get(app, 0.0) for bank_map in self.allocs.values()
        )

    def app_banks(self, app: str) -> List[int]:
        """Banks where ``app`` has space, ascending."""
        return sorted(
            b for b, bank_map in self.allocs.items()
            if bank_map.get(app, 0.0) > 0
        )

    def apps_in_bank(self, bank: int) -> List[str]:
        """Apps with space in ``bank``."""
        return sorted(
            a for a, mb in self.allocs.get(bank, {}).items() if mb > 0
        )

    def apps(self) -> List[str]:
        """All apps with any allocation."""
        out: Set[str] = set()
        for bank_map in self.allocs.values():
            out.update(a for a, mb in bank_map.items() if mb > 0)
        return sorted(out)

    def total_used(self) -> float:
        """MB committed across the whole LLC."""
        return sum(self.bank_used(b) for b in self.allocs)

    # -- derived quantities ----------------------------------------------------------

    def avg_noc_rtt(self, app: str, tile: int, noc: MeshNoc) -> float:
        """Average round-trip NoC latency from ``tile`` to the app's data.

        Weighted by the fraction of the app's allocation in each bank —
        with proportional placement descriptors, this is the expected
        per-access NoC latency.
        """
        return self._memo(
            ("rtt", app, tile, id(noc)),
            lambda: self._avg_noc_rtt_raw(app, tile, noc),
        )

    def _avg_noc_rtt_raw(self, app: str, tile: int, noc: MeshNoc) -> float:
        size = self.app_size(app)
        if size <= 0:
            # No LLC space: accesses still traverse to a home bank;
            # model as the S-NUCA average. Both engines sum exact
            # integer cycle counts, so the accumulation order cannot
            # matter.
            if self.accelerated:
                return float(
                    noc.round_trip_from(tile)[
                        : self.config.num_banks
                    ].sum()
                ) / self.config.num_banks
            banks = range(self.config.num_banks)
            return sum(noc.round_trip(tile, b) for b in banks) / (
                self.config.num_banks
            )
        if self.accelerated:
            # cumsum is strictly left-to-right over the same columns
            # the scalar loop visits; zero-MB entries contribute +0.0,
            # which cannot change a non-negative running sum.
            banks, rows = self._grant_rows()
            row = rows.get(app)
            if row is None or row.size == 0:
                return 0.0
            terms = noc.round_trip_from(tile)[banks] * (row / size)
            return float(np.cumsum(terms)[-1])
        total = 0.0
        for bank, bank_map in self.allocs.items():
            mb = bank_map.get(app, 0.0)
            if mb > 0:
                total += noc.round_trip(tile, bank) * (mb / size)
        return total

    def avg_noc_hops(self, app: str, tile: int, noc: MeshNoc) -> float:
        """Average one-way hop count from ``tile`` to the app's data."""
        return self._memo(
            ("hops", app, tile, id(noc)),
            lambda: self._avg_noc_hops_raw(app, tile, noc),
        )

    def _avg_noc_hops_raw(self, app: str, tile: int, noc: MeshNoc) -> float:
        size = self.app_size(app)
        if size <= 0:
            if self.accelerated:
                return float(
                    noc.hops_from(tile)[: self.config.num_banks].sum()
                ) / self.config.num_banks
            banks = range(self.config.num_banks)
            return sum(noc.hops(tile, b) for b in banks) / (
                self.config.num_banks
            )
        if self.accelerated:
            # Same ordering argument as :meth:`_avg_noc_rtt_raw`.
            banks, rows = self._grant_rows()
            row = rows.get(app)
            if row is None or row.size == 0:
                return 0.0
            terms = noc.hops_from(tile)[banks] * (row / size)
            return float(np.cumsum(terms)[-1])
        total = 0.0
        for bank, bank_map in self.allocs.items():
            mb = bank_map.get(app, 0.0)
            if mb > 0:
                total += noc.hops(tile, bank) * (mb / size)
        return total

    def ways_per_bank(self, app: str) -> float:
        """Average partition associativity available to ``app``.

        The associativity an app sees is that of its *partition*: its own
        allocation, or its group's when ``partition_groups`` places
        several apps in one partition (e.g. a VM's batch apps under
        VM-Part). Weighted by the app's per-bank allocation fraction: an
        app whose partition spans 0.25 MB of a 1 MB 32-way bank has 8
        ways there. Low values cause the associativity penalties the
        paper attributes to way-partitioning.
        """
        return self._memo(
            ("ways", app), lambda: self._ways_per_bank_raw(app)
        )

    def _ways_per_bank_raw(self, app: str) -> float:
        size = self.app_size(app)
        if size <= 0:
            return 0.0
        group = self.partition_groups.get(app)
        if group is not None:
            # A list in insertion order, not a set: the float sum below
            # must not follow string-hash randomisation.
            members = [
                a
                for a, g in self.partition_groups.items()
                if g == group
            ]
        else:
            members = [app]
        ways_per_mb = self.config.llc_bank_ways / self.config.llc_bank_mb
        total = 0.0
        for bank_map in self.allocs.values():
            mb = bank_map.get(app, 0.0)
            if mb <= 0:
                continue
            group_mb = sum(bank_map.get(a, 0.0) for a in members)
            total += (group_mb * ways_per_mb) * (mb / size)
        return total

    def descriptor_for(self, app: str) -> PlacementDescriptor:
        """Placement descriptor realising this allocation for ``app``."""
        alloc = {
            b: bank_map.get(app, 0.0)
            for b, bank_map in self.allocs.items()
            if bank_map.get(app, 0.0) > 0
        }
        if not alloc:
            raise ValueError(f"app {app!r} has no allocation")
        return descriptor_from_allocation(alloc)

    # -- security ------------------------------------------------------------------

    def bank_vms(self, vm_of_app: Mapping[str, int]) -> Dict[int, Set[int]]:
        """VMs with data in each bank."""
        out: Dict[int, Set[int]] = {}
        for bank, bank_map in self.allocs.items():
            vms = {
                vm_of_app[a] for a, mb in bank_map.items() if mb > 0
            }
            if vms:
                out[bank] = vms
        return out

    def violates_bank_isolation(
        self, vm_of_app: Mapping[str, int]
    ) -> List[int]:
        """Banks shared by more than one VM (Jumanji guarantees none)."""
        return sorted(
            bank
            for bank, vms in self.bank_vms(vm_of_app).items()
            if len(vms) > 1
        )

    def validate(self) -> None:
        """Check structural invariants.

        Raises :class:`~repro.errors.AllocationInvalid` (a
        ``ValueError``) carrying the offending ``bank``/``app`` pair on
        failure, so degraded-mode handlers can log exactly what was
        rejected before falling back.
        """
        for bank, bank_map in self.allocs.items():
            if not 0 <= bank < self.config.num_banks:
                raise AllocationInvalid(
                    f"bank {bank} out of range", bank=bank
                )
            for app, mb in bank_map.items():
                if mb < 0:
                    raise AllocationInvalid(
                        f"negative allocation for {app} in bank {bank}",
                        bank=bank, app=app,
                    )
            if self.bank_used(bank) > self.config.llc_bank_mb + 1e-9:
                over = self.apps_in_bank(bank)
                raise AllocationInvalid(
                    f"bank {bank} over-committed "
                    f"({self.bank_used(bank):.3f} MB by {over})",
                    bank=bank,
                    app=over[0] if over else None,
                )

    def validate_isolation(
        self, vm_of_app: Mapping[str, int]
    ) -> None:
        """Enforce the no-shared-banks security invariant.

        Raises :class:`~repro.errors.AllocationInvalid` naming the
        first shared bank and the VMs resident in it. Designs that
        intentionally share banks (S-NUCA baselines) simply don't call
        this.
        """
        for bank in self.violates_bank_isolation(vm_of_app):
            vms = sorted(self.bank_vms(vm_of_app)[bank])
            raise AllocationInvalid(
                f"bank {bank} shared by VMs {vms} "
                "(no-shared-banks invariant violated)",
                bank=bank,
                vms=tuple(vms),
            )
