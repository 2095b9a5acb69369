"""``repro bench``: CLI wiring and the BENCH_sweeps.json contract."""

import json

import pytest

from repro.cli import main


def _run_bench(out, extra=()):
    argv = [
        "bench", "--figures", "fig18", "--mixes", "1", "--epochs", "2",
        "--jobs", "1", "--output", str(out), *extra,
    ]
    assert main(argv) == 0
    return json.loads(out.read_text())


REQUIRED_FIGURE_KEYS = {
    "cells",
    "computed",
    "cache_hits",
    "cache_hit_rate",
    "wall_seconds",
    "serial_seconds_estimate",
    "speedup_vs_serial",
}


@pytest.fixture()
def bench_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def test_bench_report_schema_and_cache_behaviour(bench_env, capsys):
    out = bench_env / "BENCH_sweeps.json"
    cold = _run_bench(out)

    assert cold["jobs"] == 1
    assert cold["cold"] is False
    assert cold["cache_dir"] == str(bench_env / "cache")
    assert len(cold["code_fingerprint"]) == 64
    fig = cold["figures"]["fig18"]
    assert REQUIRED_FIGURE_KEYS <= set(fig)
    assert fig["cells"] == fig["computed"] > 0
    assert fig["cache_hits"] == 0
    assert fig["wall_seconds"] > 0
    total = cold["total"]
    assert total["cells"] == fig["cells"]
    assert 0.0 <= total["cache_hit_rate"] <= 1.0

    # Warm rerun: every cell served from the cache, none recomputed.
    warm = _run_bench(out)
    wfig = warm["figures"]["fig18"]
    assert wfig["cells"] == fig["cells"]
    assert wfig["computed"] == 0
    assert wfig["cache_hit_rate"] == 1.0
    # The warm serial estimate still reflects the recorded compute cost.
    assert wfig["serial_seconds_estimate"] > 0

    # --cold clears the cache first, forcing a full recompute.
    forced = _run_bench(out, extra=("--cold",))
    assert forced["cold"] is True
    ffig = forced["figures"]["fig18"]
    assert ffig["computed"] == fig["cells"]
    assert ffig["cache_hits"] == 0

    summary = capsys.readouterr().out
    assert "fig18:" in summary
    assert str(out) in summary


def test_bench_rejects_unknown_figure(bench_env):
    from repro.bench import run_suite

    with pytest.raises(ValueError, match="unknown figures"):
        run_suite("sweeps", figures=["fig99"])


@pytest.mark.parametrize(
    "suite, flag",
    [
        ("model", ["--jobs", "8"]),
        ("serve", ["--cold"]),
        ("obs", ["--mixes", "40"]),
        ("sweeps", ["--tenants", "2"]),
        ("tracesim", ["--fault-seed", "1"]),
        ("fleet", ["--profile"]),
    ],
)
def test_bench_rejects_flags_the_suite_does_not_read(
    bench_env, capsys, suite, flag
):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite", suite, *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag[0] in err
    assert f"--suite {suite}" in err


def test_bench_output_path_is_written_as_given(bench_env, monkeypatch):
    monkeypatch.chdir(bench_env)
    argv = [
        "bench", "--suite", "serve", "--tenants", "2", "--requests", "2",
        "--output", "BENCH_sweeps.json",
    ]
    assert main(argv) == 0
    report = json.loads((bench_env / "BENCH_sweeps.json").read_text())
    assert report["suite"] == "serve"
    assert not (bench_env / "BENCH_serve.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "fleet", "--chips", "4", "--epochs", "4"],
        ["--suite", "serve", "--tenants", "2", "--requests", "2"],
    ],
    ids=["fleet", "serve"],
)
def test_gate_suites_pass_with_the_common_envelope(bench_env, argv):
    out = bench_env / "BENCH.json"
    assert main(["bench", *argv, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    envelope = {
        "version", "suite", "code_fingerprint", "environment", "gates",
        "ok",
    }
    assert envelope <= set(report)
    assert report["suite"] == argv[1]
    assert {"nproc", "python", "numpy"} <= set(report["environment"])
    assert report["gates"]
    assert all(report["gates"].values())
    assert report["ok"] is True


def test_fleet_suite_reports_the_shared_placement_memo(bench_env):
    out = bench_env / "BENCH.json"
    argv = ["--suite", "fleet", "--chips", "4", "--epochs", "4"]
    assert main(["bench", *argv, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    memo = report["placement_memo"]
    assert 0 < memo["size"] <= memo["maxsize"]
    # The second run replays the first run's contexts on fresh chips.
    assert memo["hits"] > 0


def test_figure_command_accepts_jobs(bench_env, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_MIXES", "1")
    monkeypatch.setenv("REPRO_EPOCHS", "2")
    assert main(["figure", "fig18", "--jobs", "1"]) == 0
    assert "Fig. 18" in capsys.readouterr().out


TRACESIM_REQUIRED_KEYS = {
    "suite",
    "code_fingerprint",
    "jobs",
    "cold",
    "cache_dir",
    "workload",
    "scalar_reference",
    "fast_path",
    "speedup_vs_scalar",
    "stats_identical",
    "sharded_runs",
    "profile",
}


def _run_tracesim_bench(out, extra=()):
    argv = [
        "bench", "--suite", "tracesim", "--accesses", "200",
        "--seeds", "2", "--jobs", "1", "--output", str(out), *extra,
    ]
    assert main(argv) == 0
    return json.loads(out.read_text())


def test_tracesim_bench_schema_and_cache_behaviour(bench_env, capsys):
    out = bench_env / "BENCH_tracesim.json"
    cold = _run_tracesim_bench(out)

    assert TRACESIM_REQUIRED_KEYS <= set(cold)
    assert cold["suite"] == "tracesim"
    assert cold["stats_identical"] is True
    assert cold["speedup_vs_scalar"] > 0
    assert cold["workload"]["accesses_per_core"] == 200
    assert cold["scalar_reference"]["accesses_per_sec"] > 0
    assert cold["fast_path"]["accesses_per_sec"] > 0
    shards = cold["sharded_runs"]
    assert shards["seeds"] == 2
    assert shards["cells"] == 2
    assert shards["computed"] == 2
    assert shards["cache_hits"] == 0
    assert cold["profile"] is None

    # Warm rerun: the sharded seed runs come from the cache.
    warm = _run_tracesim_bench(out)
    wshards = warm["sharded_runs"]
    assert wshards["computed"] == 0
    assert wshards["cache_hits"] == 2

    summary = capsys.readouterr().out
    assert "speedup" in summary
    assert str(out) in summary


def test_tracesim_bench_fails_when_reference_diverges(
    bench_env, capsys, monkeypatch
):
    import dataclasses

    from repro.sim.reference import ReferenceTraceSimulator

    real_stats = ReferenceTraceSimulator.stats

    def perturbed(self):
        stats = real_stats(self)
        stats[0] = dataclasses.replace(
            stats[0], llc_hits=stats[0].llc_hits + 1
        )
        return stats

    monkeypatch.setattr(ReferenceTraceSimulator, "stats", perturbed)
    out = bench_env / "BENCH_tracesim.json"
    argv = [
        "bench", "--suite", "tracesim", "--accesses", "200",
        "--seeds", "1", "--jobs", "1", "--output", str(out),
    ]
    assert main(argv) == 1
    assert "FAILED gates: stats_identical" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["gates"] == {"stats_identical": False}
    assert report["ok"] is False


def test_tracesim_bench_profile_dumps_pstats(bench_env):
    import pstats

    out = bench_env / "BENCH_tracesim.json"
    report = _run_tracesim_bench(out, extra=("--profile",))
    prof = report["profile"]
    assert prof is not None
    assert prof["total_calls"] > 0
    stats = pstats.Stats(prof["path"])
    assert stats.total_calls == prof["total_calls"]
