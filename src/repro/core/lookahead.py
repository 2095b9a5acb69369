"""Capacity partitioning: UCP Lookahead and Jumanji's bank-granular variant.

The Lookahead algorithm (Qureshi & Patt, MICRO 2006) divides cache
capacity among applications by repeatedly granting capacity to whichever
app currently offers the largest *marginal utility* — misses avoided per
unit of cache — looking ahead across allocation sizes so that cliff-
shaped curves (no benefit until the working set fits) are handled
correctly.

``JumanjiLookahead`` (paper Sec. VI-D) is the same algorithm applied to
per-VM *combined* miss curves, constrained so that each VM's total
allocation (latency-critical reservation + batch space) is a whole
number of banks — the bank-granularity Jumanji's isolation guarantee
requires.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Tuple

from .. import obs
from ..cache.misscurve import (
    BoundedCache,
    MissCurve,
    ScanRecord,
    horizon_scan,
    replay_records,
)

__all__ = ["lookahead", "jumanji_lookahead"]


#: Memo of the two placers' horizon scans. The fleet reruns them every
#: epoch over the same shared curves, and most scans repeat an earlier
#: (curve, size, horizon) exactly; the key is everything the scan reads.
_SCAN_MEMO = BoundedCache(4096)


def _scan(
    curve: MissCurve, current: float, max_steps: int, step: float
) -> Tuple[ScanRecord, ...]:
    """Memoised :func:`~repro.cache.misscurve.horizon_scan`."""
    return _SCAN_MEMO.get_or_build(
        (curve.fingerprint, current, max_steps, step),
        lambda: horizon_scan(curve, current, max_steps, step),
    )


def lookahead(
    curves: Mapping[str, MissCurve],
    capacity: float,
    step: float,
    minimums: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Divide ``capacity`` among apps by the Lookahead algorithm.

    ``curves`` maps app -> miss curve (any commensurable miss-rate unit).
    ``minimums`` optionally pre-grants floors (e.g. every app keeps a
    sliver so it can make progress). Returns app -> size in the same
    units as ``capacity``. Grants are multiples of ``step``; any residue
    smaller than one step is handed to the app with the steepest curve
    at its current size.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if step <= 0:
        raise ValueError("step must be positive")
    if not curves:
        raise ValueError("need at least one curve")
    sizes: Dict[str, float] = {a: 0.0 for a in curves}
    if minimums:
        for app, floor in minimums.items():
            if app not in sizes:
                raise ValueError(f"minimum for unknown app {app!r}")
            if floor < 0:
                raise ValueError("minimum must be non-negative")
            sizes[app] = floor
    remaining = capacity - sum(sizes.values())
    if remaining < -1e-9:
        raise ValueError("minimums exceed capacity")

    # Round-to-round memo of each app's best (util, delta). Only the
    # winning app's size changes between rounds, and the budget only
    # shrinks; a cached (util, delta) stays the maximum over the
    # shrunken horizon as long as its own horizon still fits (a max
    # attained inside a prefix is the prefix's max, and a no-benefit
    # verdict over a longer horizon covers every shorter one). The
    # winner's entry is dropped, so its scan reruns from its new size —
    # the values compared each round are bit-identical to a full rescan.
    best_cache: Dict[str, Tuple[float, float, int]] = {}
    while remaining >= step - 1e-12:
        best_app = None
        best_util = -1.0
        best_delta = 0.0
        max_steps = int(remaining / step + 1e-9)
        for app, curve in curves.items():
            hit = best_cache.get(app)
            if hit is not None and hit[2] <= max_steps:
                util, delta = hit[0], hit[1]
            else:
                util, _, delta = replay_records(
                    _scan(curve, sizes[app], max_steps, step), -1.0
                )
                best_cache[app] = (
                    util, delta, int(delta / step + 1e-9)
                )
            if delta > 0 and util > best_util + 1e-15:
                best_util = util
                best_app = app
                best_delta = delta
        if best_app is None:
            break
        if best_util <= 0:
            # No one benefits: spread the rest evenly so capacity is not
            # wasted (idle LLC space costs nothing but helps nobody).
            share = remaining / len(sizes)
            for app in sizes:
                sizes[app] += share
            remaining = 0.0
            break
        sizes[best_app] += best_delta
        remaining -= best_delta
        best_cache.pop(best_app, None)
    if remaining > 1e-12 and sizes:
        steepest = max(
            curves,
            key=lambda a: curves[a].marginal_utility(sizes[a], step),
        )
        sizes[steepest] += remaining
    return sizes


def jumanji_lookahead(
    vm_curves: Mapping[int, MissCurve],
    lat_allocs: Mapping[int, float],
    num_banks: int,
    bank_mb: float,
) -> Dict[int, float]:
    """Bank-granular capacity division among VMs (paper Sec. VI-D).

    ``vm_curves`` maps vm_id -> the VM's combined *batch* miss curve (MB
    domain); ``lat_allocs`` maps vm_id -> MB already reserved for its
    latency-critical apps. Every VM's total (batch + LC) must be a whole
    number of banks, and the totals must sum to the whole LLC — Jumanji
    assigns every bank to exactly one VM.

    Returns vm_id -> *batch* MB for each VM, i.e. the paper's
    ``sizeOfVMs`` before the ``+= latAppAllocs`` line. For a VM whose LC
    reservation is 1.3 banks, the possible batch sizes are 0.7, 1.7, ...
    banks, exactly as the paper's example describes.
    """
    with obs.span(
        "placer.lookahead", vms=len(vm_curves), num_banks=num_banks
    ):
        return _jumanji_lookahead_impl(
            vm_curves, lat_allocs, num_banks, bank_mb
        )


def _jumanji_lookahead_impl(
    vm_curves: Mapping[int, MissCurve],
    lat_allocs: Mapping[int, float],
    num_banks: int,
    bank_mb: float,
) -> Dict[int, float]:
    """The lookahead body (spanned by :func:`jumanji_lookahead`)."""
    if num_banks < 1:
        raise ValueError("need at least one bank")
    if bank_mb <= 0:
        raise ValueError("bank size must be positive")
    vms = sorted(vm_curves)
    if sorted(lat_allocs) != vms and any(
        vm not in vm_curves for vm in lat_allocs
    ):
        raise ValueError("lat_allocs refers to unknown VMs")
    # Minimum whole banks per VM: enough to cover the LC reservation, and
    # at least one bank so every VM has somewhere to live.
    min_banks: Dict[int, int] = {}
    for vm in vms:
        lat = lat_allocs.get(vm, 0.0)
        if lat < 0:
            raise ValueError("negative LC reservation")
        min_banks[vm] = max(1, math.ceil(lat / bank_mb - 1e-9))
    total_min = sum(min_banks.values())
    if total_min > num_banks:
        raise ValueError(
            f"LC reservations need {total_min} banks; only {num_banks}"
        )

    banks_of: Dict[int, int] = dict(min_banks)
    remaining = num_banks - total_min

    def batch_mb(vm: int, banks: int) -> float:
        return banks * bank_mb - lat_allocs.get(vm, 0.0)

    # Grant one bank at a time to the VM whose combined batch curve gains
    # the most from it, with a lookahead over multi-bank grants to respect
    # cliffs (same structure as UCP Lookahead, at bank granularity).
    while remaining > 0:
        best_vm = None
        best_util = -1.0
        best_banks = 0
        for vm in vms:
            best_util, idx, _ = replay_records(
                _scan(
                    vm_curves[vm],
                    batch_mb(vm, banks_of[vm]),
                    remaining,
                    bank_mb,
                ),
                best_util,
            )
            if idx >= 0:
                best_vm = vm
                best_banks = idx + 1
        if best_vm is None or best_util <= 0:
            # Nobody benefits: distribute leftovers round-robin so every
            # bank has an owner (required for bank isolation).
            i = 0
            while remaining > 0:
                banks_of[vms[i % len(vms)]] += 1
                remaining -= 1
                i += 1
            break
        banks_of[best_vm] += best_banks
        remaining -= best_banks

    return {vm: batch_mb(vm, banks_of[vm]) for vm in vms}
