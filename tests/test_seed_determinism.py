"""End-to-end seed injection and determinism.

The simulation must be a pure function of its inputs plus one injected
seed: same seed => bit-identical results, different seed => different
randomness, and no run may read or perturb the process-global RNGs
(``random`` / ``numpy.random``) — hidden global state would break the
runner's cache-equivalence guarantee.
"""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.designs import make_design
from repro.core.runtime import JumanjiRuntime
from repro.experiments.common import run_seed
from repro.model.api import run_model
from repro.model.system import SystemModel
from repro.model.workload import make_default_workload


def _workload():
    return make_default_workload(["xapian"], mix_seed=0, load="high")


def _fingerprint(result):
    return (
        repr(result.batch_ipcs()),
        repr({a: result.lc_tail(a) for a in result.lc_deadlines}),
    )


class TestRunDeterminism:
    def test_same_seed_bit_identical(self):
        workload = _workload()
        a = run_model(design="Jumanji", workload=workload, epochs=3, seed=7)
        b = run_model(design="Jumanji", workload=workload, epochs=3, seed=7)
        assert _fingerprint(a) == _fingerprint(b)

    def test_different_seed_differs(self):
        workload = _workload()
        a = run_model(design="Jumanji", workload=workload, epochs=3, seed=7)
        b = run_model(design="Jumanji", workload=workload, epochs=3, seed=8)
        assert _fingerprint(a) != _fingerprint(b)

    def test_global_rng_state_untouched(self):
        random_state = random.getstate()
        np_state = np.random.get_state()[1].tobytes()
        run_model(design="Jumanji", workload=_workload(), epochs=2, seed=3)
        assert random.getstate() == random_state
        assert np.random.get_state()[1].tobytes() == np_state

    def test_runs_insensitive_to_global_rng_state(self):
        """Reseeding the global RNGs must not change simulation output —
        proof that no code path draws from them."""
        workload = _workload()
        random.seed(1)
        np.random.seed(1)
        a = run_model(design="Jumanji", workload=workload, epochs=2, seed=5)
        random.seed(99)
        np.random.seed(99)
        b = run_model(design="Jumanji", workload=workload, epochs=2, seed=5)
        assert _fingerprint(a) == _fingerprint(b)


class TestSeedPlumbing:
    def test_run_seed_mapping(self):
        # base_seed=0 preserves the legacy per-mix seeds exactly.
        for mix in range(5):
            assert run_seed(0, mix) == mix
        # Distinct (base, mix) pairs at sweep scale never collide.
        seen = {
            run_seed(base, mix)
            for base in range(4)
            for mix in range(64)
        }
        assert len(seen) == 4 * 64

    def test_runtime_owns_a_seeded_stream(self):
        design = make_design("Static")
        config = SystemConfig()
        builder = lambda sizes: None  # noqa: E731 - never called here
        a = JumanjiRuntime(design, config, builder, seed=11)
        b = JumanjiRuntime(design, config, builder, seed=11)
        c = JumanjiRuntime(design, config, builder, seed=12)
        assert a.seed == 11
        draws_a = [a.rng.random() for _ in range(8)]
        draws_b = [b.rng.random() for _ in range(8)]
        draws_c = [c.rng.random() for _ in range(8)]
        assert draws_a == draws_b
        assert draws_a != draws_c

    def test_system_model_threads_seed_into_runtime(self):
        model = SystemModel(
            make_design("Jumanji"), _workload(), seed=9
        )
        assert model.runtime.seed == 9

    def test_base_seed_shifts_workload_outcomes(self):
        common = dict(
            design="Jumanji", lc_workload="xapian", load="high",
            mix_seed=0, epochs=2,
        )
        a, _, _ = run_model(base_seed=0, **common)
        b, _, _ = run_model(base_seed=0, **common)
        c, _, _ = run_model(base_seed=1, **common)
        assert repr(a) == repr(b)
        assert repr(a) != repr(c)


_VM_PART_CELL = (
    "from repro.model.api import run_model\n"
    "outcome, result, _ = run_model(design='VM-Part', lc_workload='Mixed',"
    " load='high', mix_seed=1, epochs=2, base_seed=501000)\n"
    "print(repr(outcome)); print(repr(result))\n"
)


def test_results_independent_of_string_hash_seed():
    """A cell's results must not follow ``PYTHONHASHSEED``.

    VM-Part groups a VM's batch apps into one partition; summing their
    per-bank MB in set order made the float total depend on string-hash
    randomisation.
    """
    outputs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _VM_PART_CELL],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


class TestReproducePaperScript:
    def test_cli_accepts_seed_and_jobs(self, monkeypatch):
        import importlib.util
        import pathlib
        import sys

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples" / "reproduce_paper.py"
        )
        spec = importlib.util.spec_from_file_location(
            "reproduce_paper", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        monkeypatch.setattr(
            sys, "argv", ["reproduce_paper.py", "--seed", "3",
                          "--jobs", "2"]
        )
        args = module._parse_args()
        assert args.seed == 3
        assert args.jobs == 2

        monkeypatch.setenv("REPRO_SEED", "17")
        monkeypatch.setattr(sys, "argv", ["reproduce_paper.py"])
        args = module._parse_args()
        assert args.seed == 17
        assert args.jobs is None
