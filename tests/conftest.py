"""Shared fixtures for the test suite."""

import pytest

from repro.config import SystemConfig
from repro.core import runtime


@pytest.fixture
def fresh_placement_memos():
    """Empty process-wide placement and descriptor memos, as in a fresh
    process, for tests that count shared hits or need the placer itself
    to run (and span): otherwise both depend on which tests ran before.
    Returns the placement memo."""
    runtime.clear_shared_memos()
    return runtime._PLACEMENT_MEMO


@pytest.fixture
def config() -> SystemConfig:
    """The paper's default 20-core system."""
    return SystemConfig()


@pytest.fixture
def small_config() -> SystemConfig:
    """A 2x2 mini system for fast structural tests."""
    return SystemConfig(
        num_cores=4,
        mesh_cols=2,
        mesh_rows=2,
        num_mem_ctrls=4,
    )
