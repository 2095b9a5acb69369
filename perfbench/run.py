"""The repository benchmark: four host-time workloads, one command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps each layer's public functions (see ``layers.py``)
and reports per-layer self time, counts and waits, the explicit
``unattributed_s`` row, and the traced and untraced wall times. Every
run checks the program's outputs outside the timed region; a failed
check is a failed operation and makes the command exit 1. The last
line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report (environment, notes, checks, output digest).

The program is imported from ``src/`` of the same checkout, never from
an installed copy. ``REPRO_*`` variables in the environment are
ignored; every temporary file lives under ``.perfbench_tmp/`` in the
checkout and is removed before exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "sweep-cold": "sweep_cold",
    "fleet-churn": "fleet_churn",
    "serve-open": "serve_open",
    "tracesim-mixed": "tracesim_mixed",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def isolate(tmp: pathlib.Path) -> None:
    """Drop the program's environment knobs; keep temp files in tmp."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    # Anything that falls back to a default cache or temp directory
    # still lands inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "default-cache")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def environment() -> dict:
    import numpy
    from repro.runner import code_fingerprint

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "code_fingerprint": code_fingerprint(),
    }


def _child_pids() -> list:
    """Pids of this process's children, alive or not yet reaped."""
    me = str(os.getpid())
    pids = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The fields after the parenthesised command: state, ppid, ...
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == me:
            pids.append(int(entry.name))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Shared memory (the sweep runner's arena) makes multiprocessing
    start a resource tracker that would outlive this process; closing
    its pipe ends it. Anything else still running is terminated.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    temp_root = ROOT / ".perfbench_tmp"
    temp_root.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=temp_root))
    try:
        isolate(tmp)
        sys.path.insert(0, str(SRC))
        import repro

        origin = pathlib.Path(repro.__file__).resolve()
        if SRC not in origin.parents:
            print(f"perfbench: imported repro from {origin}, not {SRC}",
                  file=sys.stderr)
            return 2
        from harness import LAYER_METRICS, import_seconds

        declared = declared_metrics(args.trace)
        module = importlib.import_module(WORKLOADS[args.workload])
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("environment " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            report = module.trace(args.seed, args.seconds, str(tmp))
        else:
            imports = import_seconds(module.IMPORTS, str(SRC))
            report = module.measure(args.seed, args.seconds, str(tmp),
                                    imports)
        emitted = {name: unit for name, (_, unit) in report.metrics.items()}
        if emitted != declared:
            print(f"perfbench: metrics {sorted(emitted)} do not match "
                  f"BENCHMARK.json {sorted(declared)}", file=sys.stderr)
            return 3
        metrics = {}
        for name in declared:
            value, unit = report.metrics[name]
            if not math.isfinite(value):
                report.check(f"metric {name} is finite", False, repr(value))
                value = -1.0
            metrics[name] = {"value": value, "unit": unit}
        for note in report.notes:
            print(note)
        for name, ok, detail in report.checks:
            suffix = f" ({detail})" if detail and not ok else ""
            print(f"check {'ok  ' if ok else 'FAIL'} {name}{suffix}")
        print(f"digest sha256:{report.digest}")
        for name, entry in metrics.items():
            target = (
                f"  -> {LAYER_METRICS[name][1]}" if args.trace else ""
            )
            print(f"metric {name} = {entry['value']:.6g} {entry['unit']}"
                  f"{target}")
        print(json.dumps({
            "correct": report.correct,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": metrics,
        }))
        return 0 if report.correct else 1
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            temp_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
