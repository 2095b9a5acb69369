"""Tests for the unified environment settings and engine selection.

``repro.config.Settings`` is the package's single reader of the
``REPRO_*`` environment; ``repro.config.Engine`` is the single
validator of fast/reference engine literals. Garbage in either place
must raise :class:`~repro.errors.ConfigError` naming the offender.
"""

import pytest

from repro.config import Engine, Settings, SystemConfig
from repro.core.designs import make_design
from repro.errors import ConfigError
from repro.model.system import SystemModel
from repro.model.workload import make_default_workload
from repro.sim.shard import run_tracesim_cell

from .helpers import synthetic_context


class TestSettings:
    def test_defaults_with_empty_environment(self):
        s = Settings.from_env({})
        assert s.seed == 0
        assert s.jobs is None
        assert s.mixes is None
        assert s.epochs is None
        assert s.cell_timeout is None
        assert s.checkpoint is None
        assert s.cache_dir is None
        assert s.trace is None
        assert s.metrics is None

    def test_blank_values_mean_unset(self):
        s = Settings.from_env(
            {"REPRO_JOBS": "  ", "REPRO_SEED": "", "REPRO_TRACE": " "}
        )
        assert s.jobs is None
        assert s.seed == 0
        assert s.trace is None

    def test_valid_values_parse(self):
        s = Settings.from_env(
            {
                "REPRO_SEED": "-3",
                "REPRO_JOBS": "4",
                "REPRO_MIXES": "40",
                "REPRO_EPOCHS": "25",
                "REPRO_CELL_TIMEOUT": "1.5",
                "REPRO_CHECKPOINT": "/tmp/ck.jsonl",
                "REPRO_CACHE_DIR": "/tmp/cache",
                "REPRO_TRACE": "/tmp/t.json",
                "REPRO_METRICS": "/tmp/m.txt",
            }
        )
        assert s.seed == -3
        assert s.jobs == 4
        assert s.mixes == 40
        assert s.epochs == 25
        assert s.cell_timeout == 1.5
        assert s.checkpoint == "/tmp/ck.jsonl"
        assert s.cache_dir == "/tmp/cache"
        assert s.trace == "/tmp/t.json"
        assert s.metrics == "/tmp/m.txt"

    @pytest.mark.parametrize(
        "name",
        ["REPRO_JOBS", "REPRO_MIXES", "REPRO_EPOCHS"],
    )
    @pytest.mark.parametrize("bad", ["banana", "1.5", "0", "-2"])
    def test_garbage_ints_name_the_variable(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            Settings.from_env({name: bad})

    @pytest.mark.parametrize("bad", ["soon", "0", "-1"])
    def test_garbage_timeout_names_the_variable(self, bad):
        with pytest.raises(ConfigError, match="REPRO_CELL_TIMEOUT"):
            Settings.from_env({"REPRO_CELL_TIMEOUT": bad})

    def test_garbage_seed_names_the_variable(self):
        with pytest.raises(ConfigError, match="REPRO_SEED"):
            Settings.from_env({"REPRO_SEED": "zero"})

    def test_reads_real_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "7")
        monkeypatch.setenv("REPRO_JOBS", "2")
        s = Settings.from_env()
        assert s.seed == 7
        assert s.jobs == 2

    def test_frozen(self):
        s = Settings.from_env({})
        with pytest.raises(AttributeError):
            s.seed = 1


class TestEngine:
    def test_choices(self):
        assert Engine.FAST == "fast"
        assert Engine.REFERENCE == "reference"
        assert Engine.CHOICES == ("fast", "reference")
        assert not hasattr(Engine, "BATCH")

    def test_validate_accepts_known(self):
        assert Engine.validate("fast") == "fast"
        assert Engine.validate("reference") == "reference"

    def test_accelerated_split(self):
        assert Engine.accelerated("fast")
        assert not Engine.accelerated("reference")

    def test_validate_rejects_unknown_naming_source(self):
        with pytest.raises(ConfigError, match="SystemModel"):
            Engine.validate("turbo", source="SystemModel")
        # The former third engine is gone, not aliased.
        with pytest.raises(ConfigError, match="batch"):
            Engine.validate("batch")
        # ConfigError subclasses ValueError, so seed-era except clauses
        # and pytest.raises(ValueError) both still hold.
        with pytest.raises(ValueError, match="engine"):
            Engine.validate("turbo")

    def test_placement_context_validates_engine(self):
        ctx = synthetic_context()
        assert ctx.engine == Engine.FAST
        with pytest.raises(ConfigError, match="PlacementContext"):
            PlacementContextWithEngine = type(ctx)
            PlacementContextWithEngine(
                config=ctx.config,
                noc=ctx.noc,
                vms=ctx.vms,
                apps=ctx.apps,
                lat_sizes=dict(ctx.lat_sizes),
                engine="turbo",
            )

    def test_system_model_validates_engine(self):
        workload = make_default_workload(
            ["xapian"], mix_seed=0, load="high"
        )
        with pytest.raises(ConfigError, match="engine"):
            SystemModel(
                make_design("Static"), workload, engine="turbo"
            )

    def test_tracesim_cell_validates_engine(self):
        spec = {
            "core_id": 0,
            "trace": {
                "kind": "zipf",
                "num_lines": 64,
                "alpha": 0.9,
                "seed": 1,
            },
            "banks": [0],
        }
        with pytest.raises(ConfigError, match="tracesim_run"):
            run_tracesim_cell([spec], rounds=1, engine="turbo")

    def test_tracesim_cell_engines_agree(self):
        config = SystemConfig(
            num_cores=4, mesh_cols=2, mesh_rows=2, num_mem_ctrls=4
        )
        import dataclasses

        specs = [
            {
                "core_id": core,
                "trace": {
                    "kind": "zipf",
                    "num_lines": 256,
                    "alpha": 0.9,
                    "seed": core + 1,
                },
                "banks": [core],
            }
            for core in range(2)
        ]
        kwargs = dict(
            rounds=200,
            config=dataclasses.asdict(config),
            bank_sets=16,
        )
        fast = run_tracesim_cell(specs, engine="fast", **kwargs)
        ref = run_tracesim_cell(specs, engine="reference", **kwargs)
        assert fast == ref
