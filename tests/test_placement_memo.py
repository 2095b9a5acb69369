"""The process-wide placement and descriptor memos (``core/runtime.py``).

A runtime that misses its own memo looks the context up in one shared
memo keyed by the name-free half of ``PlacementContext.fingerprint()``:
apps and VMs appear as ranks in sorted order. These tests pin the
property that makes this sound (placers read names only through their
order), that the key separates designs, parameters and hardware, that
a shared hit rebuilds the placed allocation exactly and never shows in
a record, and that both memos stay bounded under threads.
"""

import os
import random
import string
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cache.misscurve import BoundedCache, MissCurve
from repro.config import SystemConfig, VmSpec
from repro.core import runtime as runtime_mod
from repro.core.allocation import Allocation
from repro.core.context import (
    AppInfo,
    PlacementContext,
    pack_allocation,
    unpack_allocation,
)
from repro.core.designs import DESIGNS, JumanjiDesign, make_design
from repro.core.runtime import JumanjiRuntime
from repro.fleet.chip import small_chip_config
from repro.noc.mesh import MeshNoc
from repro.serve import PlacementService, TelemetryRequest
from repro.serve.loadgen import build_scripts

seeds = st.integers(min_value=0, max_value=10**6)


@pytest.fixture()
def memo(fresh_placement_memos):
    """The process-wide placement memo, emptied for this test."""
    return fresh_placement_memos


def _names(rng, count):
    """``count`` distinct random names, in random order."""
    names = set()
    while len(names) < count:
        names.add("".join(rng.choices(string.ascii_lowercase, k=5)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def random_context(seed, config=None):
    """A random 2-4 VM context whose name order differs from VM order."""
    rng = random.Random(seed)
    config = config or SystemConfig()
    num_vms = rng.randint(2, 4)
    tiles = rng.sample(range(config.num_cores), 2 * num_vms)
    names = _names(rng, 2 * num_vms)
    vm_ids = rng.sample(range(100), num_vms)
    vms, apps, lat_sizes = [], {}, {}
    for i, vm_id in enumerate(vm_ids):
        lc, batch = names[2 * i], names[2 * i + 1]
        lc_tile, batch_tile = tiles[2 * i], tiles[2 * i + 1]
        vms.append(VmSpec(
            vm_id=vm_id, cores=(lc_tile, batch_tile),
            lc_apps=(lc,), batch_apps=(batch,),
        ))
        level, decay = rng.uniform(0.1, 2.0), rng.uniform(0.3, 0.9)
        apps[lc] = AppInfo(
            name=lc, tile=lc_tile, vm_id=vm_id, is_lc=True,
            curve=MissCurve(
                [level * decay ** j for j in range(41)], step=0.5
            ),
            intensity=rng.uniform(0.5, 3.0),
        )
        level, slope = rng.uniform(1.0, 20.0), rng.uniform(0.05, 1.0)
        apps[batch] = AppInfo(
            name=batch, tile=batch_tile, vm_id=vm_id, is_lc=False,
            curve=MissCurve(
                [level / (1.0 + j * slope) for j in range(41)], step=0.5
            ),
            intensity=rng.uniform(1.0, 20.0),
        )
        lat_sizes[lc] = rng.uniform(0.3, 2.0)
    return PlacementContext(
        config=config, noc=MeshNoc(config), vms=vms, apps=apps,
        lat_sizes=lat_sizes,
    )


def renamed(ctx, app_map, vm_map):
    """``ctx`` with every app and VM id renamed (dict orders kept)."""
    return PlacementContext(
        config=ctx.config,
        noc=ctx.noc,
        vms=[
            VmSpec(
                vm_id=vm_map[vm.vm_id], cores=vm.cores,
                lc_apps=tuple(app_map[a] for a in vm.lc_apps),
                batch_apps=tuple(app_map[a] for a in vm.batch_apps),
            )
            for vm in ctx.vms
        ],
        apps={
            app_map[name]: AppInfo(
                name=app_map[name], tile=info.tile,
                vm_id=vm_map[info.vm_id], is_lc=info.is_lc,
                curve=info.curve, intensity=info.intensity,
            )
            for name, info in ctx.apps.items()
        },
        lat_sizes={app_map[a]: s for a, s in ctx.lat_sizes.items()},
        engine=ctx.engine,
    )


def order_preserving(rng, ctx):
    """Random renamings of apps and VM ids that keep both orders."""
    names = sorted(ctx.apps)
    new_names = sorted(_names(rng, len(names)))
    vm_ids = sorted({vm.vm_id for vm in ctx.vms})
    new_ids = sorted(rng.sample(range(1000, 2000), len(vm_ids)))
    return dict(zip(names, new_names)), dict(zip(vm_ids, new_ids))


def layout(alloc, app_map=None, vm_map=None):
    """Everything an allocation holds, names mapped, orders kept."""
    app_map = app_map or {}
    vm_map = vm_map or {}
    name = lambda a: app_map.get(a, a)  # noqa: E731
    groups = {f"vm{old}": f"vm{new}" for old, new in vm_map.items()}
    return (
        [
            (bank, [(name(a), mb) for a, mb in bank_map.items()])
            for bank, bank_map in alloc.allocs.items()
        ],
        alloc.partition_mode,
        sorted(name(a) for a in alloc.shared_batch),
        [
            (name(a), groups.get(g, g))
            for a, g in alloc.partition_groups.items()
        ],
        alloc.accelerated,
        sorted(alloc._dirty_totals),
        {
            b: t for b, t in alloc._totals.items()
            if b not in alloc._dirty_totals
        },
        [alloc.bank_used(b) for b in range(alloc.config.num_banks)],
    )


def fixed_runtime(design, ctx_of, **kwargs):
    return JumanjiRuntime(
        design, ctx_of().config, context_builder=lambda _: ctx_of(),
        memoize_placement=True, **kwargs,
    )


class TestNameFreeKey:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_order_preserving_renaming_places_identically(self, seed):
        ctx = random_context(seed)
        app_map, vm_map = order_preserving(random.Random(seed), ctx)
        other = renamed(ctx, app_map, vm_map)
        assert other.fingerprint()[0] == ctx.fingerprint()[0]
        for design_name in DESIGNS:
            design = make_design(design_name)
            expected = layout(design.allocate(ctx), app_map, vm_map)
            assert layout(design.allocate(other)) == expected, design_name

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_order_breaking_renaming_changes_the_key(self, seed):
        ctx = random_context(seed)
        names = sorted(ctx.apps)
        swapped = dict(zip(names, names[::-1]))
        ids = sorted(vm.vm_id for vm in ctx.vms)
        assert (
            renamed(ctx, swapped, {v: v for v in ids}).fingerprint()[0]
            != ctx.fingerprint()[0]
        )
        reversed_ids = dict(zip(ids, ids[::-1]))
        same_names = {a: a for a in names}
        assert (
            renamed(ctx, same_names, reversed_ids).fingerprint()[0]
            != ctx.fingerprint()[0]
        )

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_shared_hit_rebuilds_the_placed_allocation(self, seed):
        ctx = random_context(seed)
        app_map, vm_map = order_preserving(random.Random(seed), ctx)
        other = renamed(ctx, app_map, vm_map)
        for design_name in DESIGNS:
            design = make_design(design_name)
            placed = design.allocate(ctx)
            _, names, vm_ids = ctx.fingerprint()
            packed = pack_allocation(placed, names, vm_ids)
            _, new_names, new_ids = other.fingerprint()
            rebuilt = unpack_allocation(
                packed, ctx.config, new_names, new_ids
            )
            assert layout(rebuilt) == layout(placed, app_map, vm_map)
            direct = design.allocate(other)
            for app in direct.apps():
                tile = other.tile_of(app)
                assert rebuilt.app_size(app) == direct.app_size(app)
                assert rebuilt.ways_per_bank(app) == (
                    direct.ways_per_bank(app)
                )
                assert rebuilt.avg_noc_rtt(app, tile, other.noc) == (
                    direct.avg_noc_rtt(app, tile, other.noc)
                )


class TestSharedMemo:
    def test_shared_hit_is_invisible_in_records(self, memo):
        ctx = random_context(7)
        app_map, vm_map = order_preserving(random.Random(7), ctx)
        other = renamed(ctx, app_map, vm_map)
        first = fixed_runtime(JumanjiDesign(), lambda: ctx)
        second = fixed_runtime(JumanjiDesign(), lambda: other)
        a0, a1 = first.reconfigure(), first.reconfigure()
        assert memo.hits == 0
        b0, b1 = second.reconfigure(), second.reconfigure()
        assert memo.hits == 1
        assert (a0.memo_hit, a1.memo_hit) == (False, True)
        assert (b0.memo_hit, b1.memo_hit) == (False, True)
        assert (second.memo_hits, second.memo_misses) == (1, 1)
        assert b1.allocation is b0.allocation
        assert layout(b0.allocation) == layout(
            a0.allocation, app_map, vm_map
        )

    def test_shared_hit_is_spanned(self, memo):
        """A trace shows where each allocation came from: the placer,
        or the shared memo."""
        ctx = random_context(8)
        app_map, vm_map = order_preserving(random.Random(8), ctx)
        other = renamed(ctx, app_map, vm_map)
        spans = []
        obs.configure(enabled=True)
        try:
            for context in (ctx, other):
                fixed_runtime(JumanjiDesign(), lambda: context).reconfigure()
                spans.append({
                    r["name"] for r in obs.take_events()
                    if r["type"] == "span"
                })
        finally:
            obs.reset()
        placed, shared = spans
        assert {"placer.allocate", "placer.jumanji"} <= placed
        assert "placer.shared_hit" not in placed
        assert "placer.shared_hit" in shared
        assert not any(name.startswith("placer.") for name in
                       shared - {"placer.shared_hit"})

    def test_no_cross_hit_between_parameters_designs_configs(
        self, memo
    ):
        ctx = random_context(11)
        for design in (
            JumanjiDesign(step_mb=0.125),
            JumanjiDesign(step_mb=0.25),
            make_design("Jigsaw"),
            make_design("VM-Part"),
        ):
            fixed_runtime(design, lambda: ctx).reconfigure()
        assert (memo.hits, memo.misses) == (0, 4)
        # Same VMs and curves on other hardware: a different problem.
        small = small_chip_config()
        tiny = PlacementContext(
            config=small, noc=MeshNoc(small),
            vms=[
                VmSpec(vm_id=0, cores=(0, 1), lc_apps=("a",),
                       batch_apps=("b",)),
            ],
            apps={
                name: AppInfo(
                    name=name, tile=tile, vm_id=0, is_lc=name == "a",
                    curve=MissCurve([4.0 / (1 + j) for j in range(33)],
                                    step=0.125),
                    intensity=1.0,
                )
                for name, tile in (("a", 0), ("b", 1))
            },
            lat_sizes={"a": 0.5},
        )
        wide = SystemConfig(
            num_cores=4, mesh_cols=2, mesh_rows=2, num_mem_ctrls=4,
            llc_bank_mb=2.0,
        )
        assert wide != small
        for config in (small, wide):
            ctx_on = PlacementContext(
                config=config, noc=MeshNoc(config), vms=tiny.vms,
                apps=tiny.apps, lat_sizes=tiny.lat_sizes,
            )
            fixed_runtime(JumanjiDesign(), lambda: ctx_on).reconfigure()
        assert memo.hits == 0

    def test_unregistered_design_is_not_shared(self, memo):
        class Custom(JumanjiDesign):
            pass

        ctx = random_context(3)
        for _ in range(2):
            fixed_runtime(Custom(), lambda: ctx).reconfigure()
        assert (memo.hits, memo.misses, len(memo)) == (0, 0, 0)

    def test_memo_stays_within_its_bound(self, monkeypatch):
        memo = BoundedCache(8)
        monkeypatch.setattr(runtime_mod, "_PLACEMENT_MEMO", memo)
        for seed in range(20):
            ctx = random_context(seed)
            fixed_runtime(JumanjiDesign(), lambda: ctx).reconfigure()
            assert len(memo) <= 8
        assert memo.misses == 20


def _replay(service, scripts):
    """Each tenant's decision fingerprints, tenants in script order."""
    prints = {}
    for script in scripts:
        info = service.create_session(script.create)
        prints[script.tenant] = [
            service.decide(info.session_id, TelemetryRequest(
                latencies={
                    app: tuple(info.deadlines[app] * f for f in factors)
                    for app in sorted(info.lc_instances)
                },
            )).fingerprint()
            for factors in script.factors
        ]
    return prints


class TestServe:
    def test_two_services_replay_identically_in_either_order(
        self, memo
    ):
        scripts = build_scripts(3, 6, seed=5)
        first = _replay(PlacementService(), scripts)
        hits = memo.hits
        second = _replay(PlacementService(), scripts[::-1])
        assert memo.hits > hits  # the second replay shared
        assert second == first

    def test_threaded_decides_at_a_tiny_bound(self, monkeypatch):
        memo = BoundedCache(2)
        monkeypatch.setattr(runtime_mod, "_PLACEMENT_MEMO", memo)
        monkeypatch.setattr(runtime_mod, "_DESCRIPTOR_MEMO", BoundedCache(2))
        scripts = build_scripts(4, 8, seed=9)
        expected = _replay(PlacementService(), scripts)
        results, errors = {}, []

        def worker(script):
            try:
                results.update(_replay(PlacementService(), [script]))
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in scripts
        ]
        old = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert results == expected
        assert len(memo) <= 2


_FLEET_SHA = """
import hashlib, sys
from repro.faults import FaultPlan
from repro.fleet import Fleet, Scenario
from repro.core import runtime

def sha(seed):
    scenario = Scenario(
        chips=16, epochs=8, seed=seed, flash_prob=0.1,
        fault_plan=FaultPlan(seed=seed, chip_failure=0.02),
    )
    return hashlib.sha256(Fleet(scenario).run().to_json().encode()).hexdigest()

for seed in sys.argv[1:]:
    before = runtime._PLACEMENT_MEMO.hits
    print(seed, sha(int(seed)), runtime._PLACEMENT_MEMO.hits - before)
"""


def _fleet_shas(*seeds):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    out = subprocess.run(
        [sys.executable, "-c", _FLEET_SHA, *map(str, seeds)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return [line.split() for line in out.splitlines()]


class TestFleet:
    def test_warm_memo_replays_a_fresh_process(self):
        ((_, fresh, _),) = _fleet_shas(3)
        *_, (seed, warm, hits) = _fleet_shas(1, 2, 3)
        assert int(hits) > 0  # the warmed memo served this seed
        assert warm == fresh


class TestDescriptorMemo:
    def test_key_keeps_the_grant_order(self):
        """Grant sums are order-dependent floats: two insertion orders
        of the same grants can apportion the 128 entries differently,
        so they must not share a memo entry."""
        config = SystemConfig()
        runtime = JumanjiRuntime(
            JumanjiDesign(), config, context_builder=lambda _: None,
            memoize_placement=True,
        )
        grants = [(12, 0.9), (6, 0.2), (15, 0.8), (11, 0.5)]
        entries = []
        for order in (grants, grants[::-1]):
            alloc = Allocation(config, accelerated=True)
            for bank, mb in order:
                alloc.add(bank, "app", mb)
            descriptor = runtime._descriptor_for(alloc, "app")
            assert descriptor.entries == alloc.descriptor_for("app").entries
            entries.append(descriptor.entries)
        assert entries[0] != entries[1]

    def test_equal_descriptors_are_one_object(self, fresh_placement_memos):
        config = SystemConfig()
        runtime = JumanjiRuntime(
            JumanjiDesign(), config, context_builder=lambda _: None,
            memoize_placement=True,
        )
        seen = []
        for mbs in ((0.5, 0.25), (0.5000001, 0.25)):
            alloc = Allocation(config, accelerated=True)
            alloc.add(3, "app", mbs[0])
            alloc.add(4, "app", mbs[1])
            seen.append(runtime._descriptor_for(alloc, "app"))
        assert seen[0].entries == seen[1].entries
        assert seen[0] is seen[1]
        assert runtime.subepoch_misses == 2
