"""The placers' shared memos: the curve cache, the horizon-scan memo and
the combine cache — correctness of a hit, bounds and thread safety."""

import sys
import threading

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache import misscurve
from repro.cache.misscurve import (
    MissCurve,
    chain_argbest,
    combine_curves,
    horizon_scan,
    replay_records,
)
from repro.config import VmSpec
from repro.core.lookahead import _SCAN_MEMO, _scan
from repro.fleet.chip import FleetChip, TenantVM
from repro.model import workload
from repro.model.params import ModelParams
from repro.model.workload import WorkloadSpec, make_default_workload


def scalar_chain(utils, best_util, eps=1e-15):
    """The sequential tie-break every placer used before vectorising."""
    best_idx = -1
    for i, util in enumerate(utils):
        if util > best_util + eps:
            best_util, best_idx = float(util), i
    return best_util, best_idx


# Values that tie exactly or sit within eps (1e-15) of each other, mixed
# with arbitrary ones.
_near = st.builds(
    lambda base, k: base + k * 3e-16,
    st.sampled_from([-1.0, 0.0, 0.25, 1.0]),
    st.integers(-4, 4),
)
_util = st.one_of(_near, st.floats(-4.0, 4.0, allow_nan=False))


class TestRecordReplay:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_util, max_size=24), _util)
    def test_replay_matches_chain_and_scalar_loop(self, values, best):
        utils = np.array(values, dtype=float)
        records = [
            (i, float(utils[i]), 0.0)
            for i in misscurve._record_indices(utils)
        ]
        replayed = replay_records(records, best)[:2]
        assert replayed == chain_argbest(utils, best)
        assert replayed == scalar_chain(values, best)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(0.0, 50.0), min_size=2, max_size=20),
        st.integers(0, 30),
        st.integers(0, 24),
        st.sampled_from([0.5, 1.0]),
        _util,
    )
    def test_scan_matches_full_sequential_scan(
        self, values, start, max_steps, step, best
    ):
        curve = MissCurve(values, step)
        current = start * step / 2
        deltas = np.arange(1, max_steps + 1, dtype=float) * step
        utils = (
            curve.misses_at(current)
            - curve.misses_at_many(current + deltas)
        ) / deltas
        want_util, want_idx = scalar_chain(utils.tolist(), best)
        got_util, got_idx, got_delta = replay_records(
            horizon_scan(curve, current, max_steps, step), best
        )
        assert (got_util, got_idx) == (want_util, want_idx)
        assert got_delta == (float(deltas[want_idx]) if want_idx >= 0
                             else 0.0)


def combine_full_rescan(curve_list, step):
    """``_combine`` as it was: every app rescanned on every grant."""
    num_points = max(c.num_points for c in curve_list)
    allocs = [0.0] * len(curve_list)
    current = [c.misses_at(0.0) for c in curve_list]
    combined = np.empty(num_points, dtype=float)
    combined[0] = sum(current)
    granted = 0
    while granted < num_points - 1:
        remaining = num_points - 1 - granted
        best_app, best_util, best_k = -1, -1.0, 1
        for i, curve in enumerate(curve_list):
            best_util, idx, _ = replay_records(
                horizon_scan(curve, allocs[i], remaining, step), best_util
            )
            if idx >= 0:
                best_app, best_k = i, idx + 1
        if best_app < 0 or best_util <= 0:
            combined[granted + 1:] = combined[granted]
            break
        for _ in range(best_k):
            allocs[best_app] += step
            current[best_app] = curve_list[best_app].misses_at(
                allocs[best_app]
            )
            granted += 1
            combined[granted] = sum(current)
    return combined


class TestCombineRescan:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(0.0, 50.0), min_size=2, max_size=40),
            min_size=1, max_size=5,
        ),
        st.sampled_from([0.125, 0.5]),
    )
    def test_rescanning_the_granted_app_only_is_exact(self, rows, step):
        """Curves of different lengths, flats, cliffs and ties."""
        curves = [MissCurve(row, step) for row in rows]
        got = misscurve._combine(curves, step).values
        want = MissCurve(combine_full_rescan(curves, step), step).values
        assert got.tobytes() == want.tobytes()


def make_vm(tenant_id, lc_app, batch):
    return TenantVM(
        tenant_id=tenant_id,
        lc_app=lc_app,
        batch_apps=tuple(batch),
        arrival_epoch=0,
        lifetime_epochs=5,
    )


def curves_of(ctx):
    return {app: info.curve for app, info in ctx.apps.items()}


class TestCurveCache:
    def test_admit_and_release_reuse_curve_objects(self):
        chip = FleetChip(0)
        first = make_vm(1, "xapian", ("429.mcf",))
        second = make_vm(2, "moses", ("403.gcc",))
        chip.admit(first)
        chip.admit(second)
        before = curves_of(chip._build_context({}))
        chip.release(2)
        alone = curves_of(chip._build_context({}))
        chip.admit(second)
        after = curves_of(chip._build_context({}))
        assert before.keys() == after.keys()
        for app, curve in before.items():
            assert after[app] is curve
        # An LC curve does not depend on the co-runners.
        assert alone[first.lc_instance] is before[first.lc_instance]

    def test_app_count_selects_the_batch_curve(self, config):
        def spec(num_batch):
            vm = VmSpec(
                vm_id=0,
                cores=tuple(range(1 + num_batch)),
                lc_apps=("xapian#0",),
                batch_apps=tuple(
                    f"429.mcf#{j}" for j in range(num_batch)
                ),
            )
            return WorkloadSpec(config=config, vms=[vm])

        small = spec(1).build_context({}).apps["429.mcf#0"].curve
        large = spec(3).build_context({}).apps["429.mcf#0"].curve
        assert small is not large
        assert small != large

    def test_cached_curves_equal_fresh_builds(self):
        for lc, seed, load in (("xapian", 0, "high"), ("silo", 3, "low")):
            spec = make_default_workload([lc], mix_seed=seed, load=load)
            ctx = spec.build_context({})
            for app, info in ctx.apps.items():
                fresh = (
                    spec._lc_curve(app) if info.is_lc
                    else spec._batch_curve(app)
                )
                assert (info.curve, info.intensity) == fresh

    def test_reference_engine_bypasses_the_cache(self):
        spec = make_default_workload(["masstree"], mix_seed=7)
        cached = curves_of(spec.build_context({}))
        size = len(workload._CURVE_CACHE)
        ref_a = curves_of(spec.build_context({}, engine="reference"))
        ref_b = curves_of(spec.build_context({}, engine="reference"))
        assert len(workload._CURVE_CACHE) == size
        for app, curve in cached.items():
            assert ref_a[app] == curve
            assert ref_a[app] is not curve
            assert ref_a[app] is not ref_b[app]


class TestBounds:
    def test_curve_cache_and_scan_memo_stay_bounded(self, config):
        curve_cache = workload._CURVE_CACHE
        vm = VmSpec(
            vm_id=0, cores=(0, 1), lc_apps=("xapian#0",),
            batch_apps=("429.mcf#0",),
        )
        for i in range(curve_cache.maxsize + 8):
            params = ModelParams(mlp=1.0 + i / 4096)
            WorkloadSpec(config=config, vms=[vm], params=params) \
                .build_context({})
            assert len(curve_cache) <= curve_cache.maxsize
        assert len(curve_cache) == curve_cache.maxsize

        memo = _SCAN_MEMO
        curve = MissCurve([8.0, 4.0, 2.0, 1.0], 1.0)
        for i in range(memo.maxsize + 8):
            _scan(curve, i / 8192, 2, 1.0)
            assert len(memo) <= memo.maxsize
        assert len(memo) == memo.maxsize


class TestThreadSafety:
    def test_combine_cache_at_capacity_under_threads(self, monkeypatch):
        # Ten keys through an eight-entry cache from sixteen threads: a
        # thread's hit on the oldest entry keeps racing other threads'
        # evictions of it (unguarded, move_to_end raised KeyError).
        cache = misscurve._COMBINE_CACHE
        monkeypatch.setattr(cache, "maxsize", 8)
        pairs = [
            (MissCurve([9.0 + i, 4.0], 1.0), MissCurve([6.0, 3.0], 1.0))
            for i in range(10)
        ]
        expected = [misscurve._combine(list(p), 1.0) for p in pairs]
        errors = []

        def worker(offset):
            try:
                for r in range(2000):
                    j = (offset + r) % len(pairs)
                    if combine_curves(pairs[j]) != expected[j]:
                        errors.append(f"wrong curve for pair {j}")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(16)
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(cache) <= cache.maxsize
