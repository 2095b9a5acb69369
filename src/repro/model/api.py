"""The unified model entry point: one call, ``engine=`` dispatch.

Exactly one of ``workload`` / ``workloads`` / ``lc_workload`` selects
the mode, and the return type follows it:

======================= ==========================================
argument                returns
======================= ==========================================
``workload=``           :class:`~repro.model.system.RunResult`
``workloads=``          ``List[RunResult]`` (batched over mixes)
``lc_workload=``        ``(WorkloadOutcome, RunResult, ipcs)`` —
                        the sweep-cell triple
======================= ==========================================

``engine`` defaults to ``fast``; ``reference`` runs the frozen scalar
oracle, which is bit-identical and has no batched form. An optional
argument the chosen mode does not use raises
:class:`~repro.errors.ConfigError` naming it.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from ..config import ControllerConfig, Engine, SystemConfig
from ..errors import ConfigError
from .system import _run_single
from .workload import WorkloadSpec

__all__ = ["run_model"]

#: The optional arguments each mode uses.
_MODE_ARGS = {
    "workload": (
        "epochs", "seed", "controller_config", "engine", "design_kwargs",
    ),
    "workloads": (
        "epochs", "seeds", "controller_config", "engine", "design_kwargs",
    ),
    "lc_workload": (
        "load", "mix_seed", "config", "baseline_ipcs", "epochs",
        "base_seed", "engine", "design_kwargs",
    ),
}


def run_model(
    *,
    design: str,
    workload: Optional[WorkloadSpec] = None,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    lc_workload: Optional[str] = None,
    load: Optional[str] = None,
    mix_seed: Optional[int] = None,
    config: Optional[SystemConfig] = None,
    baseline_ipcs: Optional[Mapping[str, float]] = None,
    epochs: Optional[int] = None,
    seed: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    base_seed: Optional[int] = None,
    controller_config: Optional[ControllerConfig] = None,
    engine: Optional[str] = None,
    design_kwargs: Optional[Dict[str, Any]] = None,
):
    """Run ``design`` against exactly one workload selector.

    * ``workload=`` — one :class:`~repro.model.workload.WorkloadSpec`;
      honours ``epochs`` (default 20) and ``seed`` (default 0).
    * ``workloads=`` — a sequence of specs advanced in lockstep by
      :class:`~repro.model.batch.BatchSystemModel`; honours ``epochs``
      and per-mix ``seeds``. Fast engine only.
    * ``lc_workload=`` — a named LC workload (``"xapian"``, ...,
      ``"Mixed"``); builds the paper's default mix from ``load``
      (default ``"high"``) / ``mix_seed`` (default 0) / ``config`` and
      returns the sweep-cell triple ``(outcome, result,
      baseline_ipcs)``. ``epochs`` defaults to the ``REPRO_EPOCHS``
      setting and the cell seed is derived from ``base_seed``
      (default 0) / ``mix_seed``.

    ``design_kwargs`` are forwarded to
    :func:`~repro.core.designs.make_design` (sensitivity variants).
    """
    selectors = {
        "workload": workload,
        "workloads": workloads,
        "lc_workload": lc_workload,
    }
    chosen = [name for name, value in selectors.items() if value is not None]
    if len(chosen) != 1:
        raise ConfigError(
            "run_model needs exactly one of workload=, workloads=, "
            f"lc_workload=; got {chosen or 'none'}"
        )
    mode = chosen[0]
    optional = {
        "load": load,
        "mix_seed": mix_seed,
        "config": config,
        "baseline_ipcs": baseline_ipcs,
        "epochs": epochs,
        "seed": seed,
        "seeds": seeds,
        "base_seed": base_seed,
        "controller_config": controller_config,
        "engine": engine,
        "design_kwargs": design_kwargs,
    }
    for name, value in optional.items():
        if value is not None and name not in _MODE_ARGS[mode]:
            raise ConfigError(
                f"run_model: {name}= does not apply to {mode}= mode"
            )
    engine = Engine.validate(
        engine if engine is not None else Engine.FAST, source="run_model"
    )
    kwargs = dict(design_kwargs) if design_kwargs else {}

    if workload is not None:
        return _run_single(
            design,
            workload,
            num_epochs=epochs if epochs is not None else 20,
            seed=seed if seed is not None else 0,
            controller_config=controller_config,
            engine=engine,
            **kwargs,
        )

    if workloads is not None:
        from .batch import BatchSystemModel

        if engine != Engine.FAST:
            raise ConfigError(
                f"run_model: engine={engine!r} does not apply to "
                "workloads= mode (the batch driver runs the fast engine)"
            )
        return BatchSystemModel(
            design,
            workloads,
            seeds=list(seeds) if seeds is not None else None,
            controller_config=controller_config,
            **kwargs,
        ).run(epochs if epochs is not None else 20)

    # Named LC workload: the sweep-cell path. Imported lazily — the
    # experiments package imports this module's neighbours.
    from ..experiments.common import _run_lc_cell

    return _run_lc_cell(
        design,
        lc_workload,
        load if load is not None else "high",
        mix_seed if mix_seed is not None else 0,
        epochs=epochs,
        config=config,
        baseline_ipcs=baseline_ipcs,
        base_seed=base_seed if base_seed is not None else 0,
        engine=engine,
        **kwargs,
    )
