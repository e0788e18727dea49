"""Counter-based splitmix64: pure draws indexed by (seed, counter).

Draw number k of a seed's stream is splitmix64's output on the state
seed + (k + 1) * GAMMA, so any draw can be computed without the ones before
it. `draw_array` computes a whole array of counters at once. Sampling uses
draw number k = step * n + trajectory, so results do not depend on
evaluation order, batching, or how many trajectories finish early; the same
(seed, n, horizon) always replays the same runs.
"""
from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def draw_array(seed: int, ks: np.ndarray) -> np.ndarray:
    """Draws number ks of the stream seeded at `seed`, each uniform on
    [0, 2^64), as uint64."""
    z = (np.uint64(seed & _MASK) + (ks.astype(np.uint64) + np.uint64(1)) * np.uint64(GAMMA))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))
