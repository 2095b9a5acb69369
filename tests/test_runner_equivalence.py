"""Runner equivalence: parallel, serial, and cache-warm runs are
bit-identical, results travel from workers through the pool pipe
alone, and the content-addressed cache invalidates at exactly cell
granularity.

These tests run a reduced Fig. 13 sweep (one LC workload, one load,
two designs, 8 mixes, 2 epochs) so they stay fast while still going
through the full runner path: baseline cells, nested ``get_or_compute``,
the fork pool, and the on-disk cache.
"""

import json
import os
import pathlib
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.experiments.common import run_sweep, workload_cell
from repro.runner import (
    Cell,
    ResultCache,
    SweepRunner,
    cell_key,
    collecting_stats,
    register_cell_kind,
)

DESIGNS = ("Static", "Jumanji")
SCALE = dict(
    designs=DESIGNS,
    lc_workloads=("xapian",),
    loads=("high",),
    mixes=8,
    epochs=2,
)


@register_cell_kind("odd_payload")
def _odd_payload(x):
    # Oddly shaped enough to catch serialization slips on the way back
    # from a worker: nested containers, floats, bytes.
    return {
        "x": x,
        "nested": [[x, [float(x) / 3.0]], {"k": (x, None)}],
        "vec": [float(i) * 0.5 for i in range(256)],
        "tag": bytes([x % 256]) * 32,
    }


def _small_sweep(jobs):
    return run_sweep(jobs=jobs, **SCALE)


def _canon(sweep):
    """Bit-exact canonical form of a sweep (dataclass reprs)."""
    return [repr(o) for o in sweep.outcomes]


class TestEquivalence:
    def test_parallel_serial_and_warm_bit_identical(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        parallel = _canon(_small_sweep(jobs=4))

        with collecting_stats() as warm_stats:
            warm = _canon(_small_sweep(jobs=4))

        # Serial run against a fresh cache: everything recomputed inline.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        with collecting_stats() as serial_stats:
            serial = _canon(_small_sweep(jobs=1))

        assert parallel == serial
        assert parallel == warm
        assert warm_stats.computed == 0
        assert warm_stats.cache_hits == warm_stats.cells > 0
        assert serial_stats.cache_hits == 0
        assert serial_stats.computed == serial_stats.cells > 0

    def test_results_preserve_submission_order(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        sweep = _small_sweep(jobs=4)
        expected = [
            ("xapian", "high", mix, design)
            for mix in range(SCALE["mixes"])
            for design in DESIGNS
        ]
        got = [
            (o.lc_workload, o.load, o.mix_seed, o.design)
            for o in sweep.outcomes
        ]
        assert got == expected


    @pytest.mark.parametrize(
        "cells",
        [
            [
                workload_cell("Jumanji", "xapian", "high", m, epochs=2)
                for m in range(3)
            ],
            [Cell("odd_payload", {"x": i}) for i in range(6)],
        ],
        ids=["sweep", "odd_payload"],
    )
    def test_jobs1_and_jobs2_byte_identical(self, tmp_path, cells):
        serial = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "s"))
        parallel = SweepRunner(jobs=2, cache=ResultCache(tmp_path / "p"))
        # Pickled per result: serial results may share objects across
        # cells (one pickle memo entry), worker results never do.
        assert [pickle.dumps(r) for r in serial.map(cells)] == [
            pickle.dumps(r) for r in parallel.map(cells)
        ]


_NO_SHARED_MEMORY_PROBE = textwrap.dedent(
    """
    import json, os, sys, tempfile
    from multiprocessing import resource_tracker
    from repro.runner import Cell, ResultCache, SweepRunner, register_cell_kind

    @register_cell_kind("dev_shm_listing")
    def _listing(i):
        # Runs in a worker while the sweep is live.
        return sorted(os.listdir("/dev/shm"))

    before = set(os.listdir("/dev/shm"))
    with tempfile.TemporaryDirectory() as tmp:
        runner = SweepRunner(jobs=2, cache=ResultCache(tmp))
        seen = runner.map([Cell("dev_shm_listing", {"i": i}) for i in range(4)])
    json.dump({
        "tracker_started": resource_tracker._resource_tracker._pid is not None,
        "new_segments": sorted(set().union(*map(set, seen)) - before),
        "last_arena_name": runner.last_arena_name,
    }, sys.stdout)
    """
)


@pytest.mark.skipif(
    not pathlib.Path("/dev/shm").is_dir(), reason="no /dev/shm"
)
def test_parallel_sweep_uses_no_shared_memory():
    """A fresh interpreter's jobs=2 sweep starts no resource tracker and
    creates no /dev/shm segment: results travel through the pool pipe."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SHARED_MEMORY_PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {
        "tracker_started": False,
        "new_segments": [],
        "last_arena_name": None,
    }


class TestCacheInvalidation:
    def _cells(self, epochs_last=2):
        cells = [
            workload_cell("Jumanji", "xapian", "high", m, epochs=2)
            for m in range(3)
        ]
        cells.append(
            workload_cell("Jumanji", "xapian", "high", 3,
                          epochs=epochs_last)
        )
        return cells

    def test_mutating_one_input_invalidates_exactly_that_cell(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = SweepRunner(jobs=1)
        runner.map(self._cells())

        # Same inputs: every cell is served from the cache.
        with collecting_stats() as stats:
            runner.map(self._cells())
        assert stats.computed == 0
        assert stats.cache_hits == 4

        # One cell's input mutated: exactly that one recomputes.
        with collecting_stats() as stats:
            runner.map(self._cells(epochs_last=3))
        assert stats.computed == 1
        assert stats.cache_hits == 3

        # The original entries were not disturbed by the mutated run.
        with collecting_stats() as stats:
            runner.map(self._cells())
        assert stats.computed == 0
        assert stats.cache_hits == 4

    def test_invalidate_removes_single_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = [
            Cell("baseline", {
                "lc_workload": "xapian", "load": "high",
                "mix_seed": m, "epochs": 2, "base_seed": 0,
                "config": None,
            })
            for m in range(2)
        ]
        runner = SweepRunner(jobs=1, cache=cache)
        runner.map(cells)
        assert cache.size() == 2

        assert cache.invalidate(cell_key(cells[0]))
        assert cache.size() == 1

        with collecting_stats() as stats:
            runner.map(cells)
        assert stats.computed == 1
        assert stats.cache_hits == 1

    def test_key_depends_on_every_param(self):
        base = workload_cell("Jumanji", "xapian", "high", 0, epochs=2)
        assert cell_key(base) == cell_key(
            workload_cell("Jumanji", "xapian", "high", 0, epochs=2)
        )
        variants = [
            workload_cell("Jigsaw", "xapian", "high", 0, epochs=2),
            workload_cell("Jumanji", "moses", "high", 0, epochs=2),
            workload_cell("Jumanji", "xapian", "low", 0, epochs=2),
            workload_cell("Jumanji", "xapian", "high", 1, epochs=2),
            workload_cell("Jumanji", "xapian", "high", 0, epochs=3),
            workload_cell("Jumanji", "xapian", "high", 0, epochs=2,
                          base_seed=1),
        ]
        keys = {cell_key(v) for v in variants}
        assert len(keys) == len(variants)
        assert cell_key(base) not in keys


class TestShardedSimCells:
    """The attack / validation / tracesim cell kinds shard losslessly."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_leakage_mixes_shard_identically(self):
        from repro.sim.attack import run_leakage_experiment

        serial = run_leakage_experiment(num_mixes=3, accesses=1500)
        sharded = run_leakage_experiment(
            num_mixes=3, accesses=1500, jobs=2
        )
        assert serial == sharded

    def test_port_attack_shards_identically(self):
        from repro.sim.attack import (
            PortAttackConfig,
            run_port_attack,
            run_port_attack_sharded,
        )

        cfg = PortAttackConfig(dwell_accesses=200, pause_accesses=50)
        attack, baseline = run_port_attack_sharded(cfg, jobs=2)
        assert attack == run_port_attack(cfg, include_victim=True)
        assert baseline == run_port_attack(cfg, include_victim=False)

    def test_umon_validation_suite_matches_direct(self):
        from repro.model.validation import (
            umon_matches_trace,
            umon_validation_suite,
        )
        from repro.workloads.traces import trace_from_spec

        specs = [
            {"kind": "zipf", "num_lines": 1024, "alpha": 0.9, "seed": s}
            for s in range(2)
        ]
        suite = umon_validation_suite(specs, accesses=2000, jobs=2)
        for spec, report in zip(specs, suite):
            direct = umon_matches_trace(
                lambda: trace_from_spec(spec), accesses=2000
            )
            assert report.umon_miss_fraction == direct.umon_miss_fraction
            assert report.trace_miss_rate == direct.trace_miss_rate

    def test_tracesim_runs_shard_and_cache(self):
        from repro.sim.shard import run_tracesim_cell, shard_tracesim_runs

        specs = [
            {
                "cores": [
                    {
                        "core_id": c,
                        "trace": {
                            "kind": "working_set",
                            "working_set_lines": 2000,
                            "seed": seed * 10 + c,
                            "base_line": c << 32,
                        },
                        "banks": [c % 4],
                        "partition": f"app{c}",
                    }
                    for c in range(3)
                ],
                "rounds": 800,
                "bank_sets": 64,
            }
            for seed in range(2)
        ]
        results, runner = shard_tracesim_runs(specs, jobs=2)
        assert results == [run_tracesim_cell(**s) for s in specs]
        assert runner.stats.computed == 2
        # Warm rerun: both runs served from the cache, same values.
        warm, warm_runner = shard_tracesim_runs(specs, jobs=2)
        assert warm == results
        assert warm_runner.stats.cache_hits == 2
