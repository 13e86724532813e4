"""Sharded execution of the control-plane sweeps: the one way a sweep runs.

Every sweep in :mod:`repro.control.sweep` is embarrassingly parallel over
episodes: the engine's per-(episode, node) uniform streams, the system
controllers' per-episode streams and a dynamic adversary's per-episode rows
are independent parts of one ``SeedSequence`` tree
(:mod:`repro.sim.streams`), and every per-episode metric is a row-wise
reduction.  This module runs that work as shard tasks:

* **Contiguous episode shards.**  ``num_envs`` episodes are partitioned
  into contiguous ``[lo, hi)`` shards (:func:`shard_episodes`); each
  ``(scenario, cell, shard)`` triple is one task, so a grid with more cells
  than workers keeps every core busy.
* **One seed tree per sweep.**  The parent resolves one root entropy
  (``seed=None`` draws fresh OS entropy once) and a shard regenerates only
  rows ``[lo, hi)`` of each part of the tree.  Every column of a table
  therefore sees the same episode streams (common random numbers), and
  **any shard count reproduces a direct** ``engine.run(seed=...)`` /
  ``TwoLevelController.run(seed=...)`` **bit for bit**.
* **Results by value.**  A shard task returns its
  :class:`~repro.control.two_level.TwoLevelResult` /
  :class:`~repro.sim.BatchSimulationResult`; the parent concatenates one
  cell's row blocks in ``lo`` order and folds the shards' engine profiles
  together with :meth:`~repro.sim.kernels.EngineProfile.merge`.
* **One path for every** ``n_jobs``.  With one worker (or one task) the
  identical shard code runs in-process, without a pool.

Strategies, policies and scenarios must be picklable for ``n_jobs > 1`` —
everything the repo ships is; ad-hoc lambdas are not.

The entry points are the ``n_jobs=`` parameters of
:func:`~repro.control.sweep.engine_fleet_sweep`,
:func:`~repro.control.sweep.closed_loop_sweep`,
:func:`~repro.control.sweep.mixed_closed_loop_sweep` and
:func:`~repro.control.sweep.attacker_intensity_sweep`;
``benchmarks/bench_parallel_sweep.py`` asserts the bit-exact parity and
the multi-core speedup.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
from typing import Mapping, Sequence

import numpy as np

from ..sim import BatchRecoveryEngine, FleetScenario
from ..sim.adversary import draw_adversary_uniforms
from ..sim.kernels import EngineProfile
from ..sim.streams import engine_uniforms, resolve_entropy, system_seed_sequences
from .two_level import TwoLevelController
from .vector_system import strategy_consumes_rng

__all__ = [
    "validate_n_jobs",
    "shard_episodes",
    "shard_uniforms",
    "parallel_closed_loop_table",
    "parallel_engine_sweep_table",
]


# -- sharding contract -------------------------------------------------------------
def validate_n_jobs(n_jobs: int) -> int:
    """Validate the worker count of a parallel entry point.

    Raises:
        ValueError: Named ``n_jobs`` error for non-integers and values
            below 1 (the satellite contract of the parallel API).
    """
    if isinstance(n_jobs, bool) or not isinstance(n_jobs, (int, np.integer)):
        raise ValueError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    return int(n_jobs)


def shard_episodes(num_episodes: int, num_shards: int) -> list[tuple[int, int]]:
    """Partition ``B`` episodes into contiguous ``[lo, hi)`` shards.

    Shard sizes differ by at most one episode; when there are more shards
    than episodes the surplus shards are dropped (never empty ranges).
    """
    if num_episodes < 1:
        raise ValueError(f"num_episodes must be >= 1, got {num_episodes}")
    num_shards = min(validate_n_jobs(num_shards), num_episodes)
    base, extra = divmod(num_episodes, num_shards)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for index in range(num_shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def shard_uniforms(
    entropy: int, lo: int, hi: int, num_nodes: int, width: int
) -> np.ndarray:
    """Engine uniform rows for episodes ``[lo, hi)`` of the full batch.

    Rows ``lo:hi`` of :meth:`~repro.sim.BatchRecoveryEngine.draw_uniforms`
    for the same seed (:func:`repro.sim.streams.engine_uniforms`); shards
    look this function up by name at call time.
    """
    return engine_uniforms(entropy, lo, hi, num_nodes, width)


# -- worker-side execution ---------------------------------------------------------
#: Per-worker state set up by the pool initializer: the sweep spec and memos
#: for compiled engines / uniform shards so multiple cells of one scenario
#: reuse them within a worker.
_WORKER: dict = {}


@dataclasses.dataclass(frozen=True)
class _ClosedLoopSpec:
    """Everything a worker needs to run closed-loop shards (picklable)."""

    scenarios: tuple  # (FleetScenario, ...)
    cells: tuple  # (ClosedLoopCell, ...)
    num_envs: int
    k: int
    initial_nodes: tuple  # one entry (int | None) per scenario
    entropy: int
    profile: bool


@dataclasses.dataclass(frozen=True)
class _EngineSweepSpec:
    """Everything a worker needs to run engine-sweep shards (picklable)."""

    scenarios: tuple  # (FleetScenario, ...)
    strategies: tuple  # (strategy, ...)
    entropy: int
    profile: bool


def _init_worker(spec) -> None:
    _WORKER.clear()
    _WORKER["spec"] = spec
    _WORKER["engines"] = {}
    _WORKER["uniforms"] = {}


def _worker_engine(scenario_index: int, scenario: FleetScenario) -> BatchRecoveryEngine:
    engines = _WORKER["engines"]
    engine = engines.get(scenario_index)
    if engine is None:
        engine = engines[scenario_index] = BatchRecoveryEngine(scenario)
    return engine


def _worker_uniforms(
    entropy: int, lo: int, hi: int, num_nodes: int, width: int
) -> np.ndarray:
    # Keyed by stream geometry, not scenario index: scenarios that share
    # (N, width) — every n1 of a closed-loop sweep, every intensity of an
    # attacker sweep — consume identical uniform streams.
    memo = _WORKER["uniforms"]
    key = (lo, hi, num_nodes, width)
    uniforms = memo.get(key)
    if uniforms is None:
        uniforms = shard_uniforms(entropy, lo, hi, num_nodes, width)
        memo.clear()  # one live shard buffer per worker bounds memory
        memo[key] = uniforms
    return uniforms


def _shard_adversary_uniforms(
    engine: BatchRecoveryEngine, entropy: int, lo: int, hi: int
) -> np.ndarray | None:
    """Adversary uniform rows for episodes ``[lo, hi)`` of the full batch.

    The buffers are small (``(hi - lo, horizon, K)``) and
    adversary-dependent, so they deliberately bypass the geometry-keyed
    engine-uniform memo.
    """
    if not engine.is_dynamic:
        return None
    scenario = engine.scenario
    return draw_adversary_uniforms(
        engine.adversary, entropy, lo, hi, scenario.num_nodes, scenario.horizon
    )


def _run_closed_loop_shard(task: tuple[int, int, int, int]):
    scenario_index, cell_index, lo, hi = task
    spec: _ClosedLoopSpec = _WORKER["spec"]
    scenario = spec.scenarios[scenario_index]
    cell = spec.cells[cell_index]
    engine = _worker_engine(scenario_index, scenario)
    controller = TwoLevelController(
        scenario,
        hi - lo,
        cell.recovery,
        replication_strategy=cell.replication,
        initial_nodes=spec.initial_nodes[scenario_index],
        k=spec.k,
        enforce_invariant=cell.enforce_invariant,
        respect_recovery_limit=cell.respect_recovery_limit,
        engine=engine,
    )
    sequences = None
    if cell.replication is not None and strategy_consumes_rng(cell.replication):
        sequences = system_seed_sequences(
            spec.entropy, spec.num_envs, scenario.num_nodes, lo, hi
        )
    return controller.run(
        uniforms=_worker_uniforms(
            spec.entropy, lo, hi, scenario.num_nodes, 2 * scenario.horizon
        ),
        system_seed_sequences=sequences,
        profile=spec.profile,
        adversary_uniforms=_shard_adversary_uniforms(engine, spec.entropy, lo, hi),
    )


def _run_engine_shard(task: tuple[int, int, int, int]):
    scenario_index, strategy_index, lo, hi = task
    spec: _EngineSweepSpec = _WORKER["spec"]
    scenario = spec.scenarios[scenario_index]
    engine = _worker_engine(scenario_index, scenario)
    return engine.run(
        spec.strategies[strategy_index],
        uniforms=_worker_uniforms(
            spec.entropy, lo, hi, scenario.num_nodes, 2 * scenario.horizon
        ),
        profile=spec.profile or None,
        adversary_uniforms=_shard_adversary_uniforms(engine, spec.entropy, lo, hi),
    )


# -- parent-side drivers -----------------------------------------------------------
def _pool_context():
    """Prefer fork (cheap start, inherited imports); fall back to spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _plan_shards(num_episodes: int, n_jobs: int, num_pairs: int) -> list[tuple[int, int]]:
    """Choose the episode-shard count for a grid of ``num_pairs`` cells.

    Every (scenario, cell) pair is already an independent task, and each
    episode shard pays the full horizon loop's fixed per-step cost — the
    vectorized engine's step time is ``c + B * m`` with the constant ``c``
    dominating at small ``B``.  So episodes are split only as much as
    needed to keep ``n_jobs`` workers busy: ``ceil(n_jobs / num_pairs)``
    shards per pair (at least one; capped at ``num_episodes``).  Any shard
    count yields the bit-identical table — this only decides wall-clock.
    """
    if n_jobs <= 1:
        return [(0, num_episodes)]
    per_pair = -(-n_jobs // max(num_pairs, 1))
    return shard_episodes(num_episodes, per_pair)


def _effective_jobs(n_jobs: int, num_tasks: int) -> int:
    return max(1, min(n_jobs, num_tasks, (os.cpu_count() or 1) * 4))


def _check_unique(keys: Sequence, kind: str) -> None:
    """Reject a repeated table key, which would silently drop a cell."""
    seen = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"duplicate {kind} {key!r}: every table key must be unique")
        seen.add(key)


def _concatenate(parts: list):
    """Join one cell's shard results, in ``lo`` order, along the episodes.

    Arrays and per-class dictionaries of arrays are concatenated, the
    episode length must agree across shards, and engine profiles are
    merged.
    """
    first = parts[0]
    if any(part.steps != first.steps for part in parts):
        raise ValueError(
            f"shards disagree on the episode length: {[p.steps for p in parts]}"
        )
    joined = {}
    for field in dataclasses.fields(first):
        values = [getattr(part, field.name) for part in parts]
        head = values[0]
        if isinstance(head, np.ndarray):
            joined[field.name] = np.concatenate(values)
        elif isinstance(head, dict):
            joined[field.name] = {
                label: np.concatenate([value[label] for value in values])
                for label in head
            }
        elif isinstance(head, EngineProfile):
            joined[field.name] = EngineProfile.merge(*values)
        else:
            joined[field.name] = head
    return type(first)(**joined)


def _run_grid(spec, runner, row_keys, columns, num_episodes: int, n_jobs: int) -> dict:
    """Run every ``(row, column)`` cell of a sweep grid, keyed ``(row, column)``."""
    if not row_keys or not columns:
        return {}
    shards = _plan_shards(num_episodes, n_jobs, len(row_keys) * len(columns))
    # Shard geometry varies slowest within a scenario so consecutive tasks
    # on one worker hit its uniform-buffer memo across columns.
    tasks = [
        (i, j, lo, hi)
        for i in range(len(row_keys))
        for lo, hi in shards
        for j in range(len(columns))
    ]
    blocks: dict = {}
    for (i, j, _, _), result in zip(tasks, _map_tasks(spec, runner, tasks, n_jobs)):
        blocks.setdefault((row_keys[i], columns[j]), []).append(result)
    return {key: _concatenate(parts) for key, parts in blocks.items()}


def parallel_closed_loop_table(
    scenarios: Sequence[tuple[object, FleetScenario]],
    cells: Sequence,
    num_envs: int,
    seed: int | None,
    k: int,
    initial_nodes: int | None | Sequence[int | None],
    n_jobs: int,
    profile: bool = False,
) -> dict:
    """Run a keyed closed-loop sweep grid, keyed ``(scenario key, cell name)``.

    Every ``(scenario, cell)`` pair's ``num_envs`` episodes are split into
    contiguous shards, each shard runs a
    :class:`~repro.control.two_level.TwoLevelController` over its own rows
    of the seed tree, and the join assembles one
    :class:`~repro.control.two_level.TwoLevelResult` per pair with the
    shards' engine profiles merged.  Bit-identical to a direct
    ``TwoLevelController(...).run(seed=seed)`` per pair for any ``n_jobs``.

    Raises:
        ValueError: For an invalid ``n_jobs``, a repeated scenario key or
            cell name, or a per-scenario ``initial_nodes`` of the wrong
            length.
    """
    n_jobs = validate_n_jobs(n_jobs)
    scenarios = tuple(scenarios)
    keys = [key for key, _ in scenarios]
    cells = tuple(cells)
    _check_unique(keys, "scenario key")
    _check_unique([cell.name for cell in cells], "cell name")
    if isinstance(initial_nodes, (list, tuple)):
        initial = tuple(initial_nodes)
        if len(initial) != len(keys):
            raise ValueError(
                f"need one initial_nodes entry per scenario "
                f"({len(keys)}), got {len(initial)}"
            )
    else:
        initial = (initial_nodes,) * len(keys)
    spec = _ClosedLoopSpec(
        scenarios=tuple(scenario for _, scenario in scenarios),
        cells=cells,
        num_envs=num_envs,
        k=k,
        initial_nodes=initial,
        entropy=resolve_entropy(seed),
        profile=profile,
    )
    return _run_grid(
        spec,
        _run_closed_loop_shard,
        keys,
        [cell.name for cell in cells],
        num_envs,
        n_jobs,
    )


def parallel_engine_sweep_table(
    scenarios: Sequence[tuple[object, FleetScenario]],
    strategies: Mapping,
    num_episodes: int,
    seed: int | None,
    n_jobs: int,
    profile: bool = False,
) -> dict:
    """Run a keyed node-POMDP engine sweep, keyed ``(scenario key, strategy name)``.

    Each shard replays its episode rows of the shared uniform buffer
    through :meth:`~repro.sim.BatchRecoveryEngine.run`, and the join
    assembles :class:`~repro.sim.BatchSimulationResult` tables bit-identical
    to a direct ``engine.run(strategy, num_episodes, seed=seed)`` per pair.

    Raises:
        ValueError: For an invalid ``n_jobs`` or a repeated scenario key.
    """
    n_jobs = validate_n_jobs(n_jobs)
    scenarios = tuple(scenarios)
    keys = [key for key, _ in scenarios]
    _check_unique(keys, "scenario key")
    spec = _EngineSweepSpec(
        scenarios=tuple(scenario for _, scenario in scenarios),
        strategies=tuple(strategies.values()),
        entropy=resolve_entropy(seed),
        profile=profile,
    )
    return _run_grid(
        spec, _run_engine_shard, keys, list(strategies), num_episodes, n_jobs
    )


def _map_tasks(spec, runner, tasks, n_jobs: int) -> list:
    """Run the shard tasks on a worker pool (in-process when pointless).

    A single worker — or a single task — skips the pool entirely and runs
    the identical shard code in-process, which keeps ``n_jobs=2`` usable on
    one-core machines for parity testing without fork overhead dominating.
    """
    jobs = _effective_jobs(n_jobs, len(tasks))
    if jobs == 1:
        _init_worker(spec)
        try:
            return [runner(task) for task in tasks]
        finally:
            _WORKER.clear()
    with _pool_context().Pool(jobs, initializer=_init_worker, initargs=(spec,)) as pool:
        return pool.map(runner, tasks)
