"""The episode seed tree: where every seeded random stream of a run comes from.

A run of ``B`` episodes on ``N`` node slots under one entropy value ``e``
draws all of its randomness from a single ``SeedSequence`` tree in three
parts:

* **engine streams** — node stream ``(b, j)`` is child ``b * N + j`` of
  ``SeedSequence(e)`` (episode-major); its generator fills the
  ``2 * horizon`` uniforms the node POMDP may consume in episode ``b``;
* **system-controller streams** — episode ``b``'s replication controller
  takes child ``B * N + b``, right after the engine's children, so one
  seed reproduces the whole two-level loop;
* **adversary rows** — episode ``b``'s dynamic adversary draws from the
  salted root ``SeedSequence([salt, e], spawn_key=(b,))``, which never
  collides with either part above.

Every child is built directly from the spawn-key identity
``SeedSequence(e).spawn(n)[i] == SeedSequence(e, spawn_key=(i,))``, so
each part is computed for an episode range ``[lo, hi)`` as exactly rows
``lo:hi`` of the monolithic draw.  That is the whole contract behind the
bit parity of the scalar replays, the sharded sweeps
(:mod:`repro.control.parallel`) and the fused decision-service cohorts
(:mod:`repro.serve`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "resolve_entropy",
    "seed_children",
    "uniform_rows",
    "engine_uniforms",
    "system_seed_sequences",
    "adversary_uniforms",
]

#: Salt prepended to the run entropy so adversary streams are independent of
#: the engine's episode streams and the controllers' system streams.
_ADVERSARY_SALT = 0x5EED_AD7E


def resolve_entropy(seed: int | None) -> int:
    """The root entropy of a run's seed tree.

    An integer seed is its own entropy; ``None`` draws fresh OS entropy
    once, so that every part of the (non-reproducible) run still descends
    from one tree.
    """
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    return int(seed)


def _child(entropy: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy, spawn_key=(index,))


def seed_children(entropy: int, start: int, stop: int) -> list[np.random.SeedSequence]:
    """Children ``start .. stop - 1`` of the root ``SeedSequence(entropy)``."""
    return [_child(entropy, index) for index in range(start, stop)]


def uniform_rows(
    sequences: Iterable[np.random.SeedSequence], count: int, shape: tuple
) -> np.ndarray:
    """Stack ``default_rng(s).random(shape)`` for ``count`` seed sequences.

    The one row generator behind every pre-drawn buffer: returns an array
    of shape ``(count, *shape)`` whose row ``i`` is the first
    ``prod(shape)`` uniforms of the ``i``-th sequence's generator.
    """
    buffer = np.empty((count, *shape))
    for row, sequence in enumerate(sequences):
        buffer[row] = np.random.default_rng(sequence).random(shape)
    return buffer


def engine_uniforms(
    entropy: int, lo: int, hi: int, num_nodes: int, width: int
) -> np.ndarray:
    """Engine uniform rows of episodes ``[lo, hi)``, shape ``(hi - lo, N, width)``."""
    count = (hi - lo) * num_nodes
    start = lo * num_nodes
    sequences = (_child(entropy, index) for index in range(start, start + count))
    return uniform_rows(sequences, count, (width,)).reshape(hi - lo, num_nodes, width)


def system_seed_sequences(
    entropy: int, num_episodes: int, num_nodes: int, lo: int, hi: int
) -> list[np.random.SeedSequence]:
    """System-controller seed sequences of episodes ``[lo, hi)``.

    Episode ``b`` of a ``num_episodes``-episode run on ``num_nodes`` slots
    takes child ``num_episodes * num_nodes + b``.
    """
    offset = num_episodes * num_nodes
    return seed_children(entropy, offset + lo, offset + hi)


def adversary_uniforms(
    entropy: int, lo: int, hi: int, horizon: int, width: int
) -> np.ndarray:
    """Adversary uniform rows of episodes ``[lo, hi)``, shape ``(hi - lo, horizon, width)``."""
    sequences = (
        np.random.SeedSequence([_ADVERSARY_SALT, int(entropy)], spawn_key=(b,))
        for b in range(lo, hi)
    )
    return uniform_rows(sequences, hi - lo, (horizon, width))

