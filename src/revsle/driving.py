"""Brownian driving functions for Loewner flows.

A driving path is xi_k = sqrt(kappa) * B(t_k) on the uniform capacity-time
grid t_k = k*T/n.  Increments come from a counter-based recipe, so any single
increment is recomputable in isolation (``raw_normals`` with its ``block``)
and ensembles parallelize with no shared state:

    raw_k = k-th 64-bit word of the Philox4x64 stream keyed by ``seed``
    u_k   = ((raw_k >> 11) + 1/2) * 2**-53        uniform in (0, 1)
    z_k   = ndtri(u_k)                            standard normal
    xi_{k+1} - xi_k = sqrt(kappa * dt) * z_k

This recipe is part of the reproducibility contract: identical
(grid, kappa, seed) always produce bitwise-identical paths, and the raw
normals do not depend on kappa (so paths scale exactly with sqrt(kappa)).

Each thread keeps one Philox generator and one state dict.  A call re-keys
the generator by setting only that dict's key (``seed mod 2**128``) and
counter (the requested block) words and assigning it, buffer empty.  This
yields the same words as a fresh ``Philox(key=seed)``, whose construction
also draws a SeedSequence from OS entropy and costs more than the words
themselves, and it leaves no state from one call to the next.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

__all__ = ["TimeGrid", "DrivingPath", "sample_brownian", "explicit_path", "raw_normals"]

_KEY_MOD = 1 << 128  # Philox key width
_WORD = (1 << 64) - 1
_local = threading.local()  # .gen: this thread's re-keyable Philox; .state: its state dict


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0, T/n, 2T/n, ..., T in half-plane capacity time.

    Grid times are always computed as k*T/n (never by accumulating dt), so
    time n is exactly the horizon.
    """

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.horizon / self.n_steps


@dataclass(frozen=True, eq=False)
class DrivingPath:
    """Discretized driving function.

    ``values[k]`` is xi at grid time k; there are ``n_steps + 1`` entries.
    Instances are immutable (the values are copied into a private read-only
    array, so later writes to the caller's array do not reach them) and safe
    to share across concurrent workers.
    """

    grid: TimeGrid
    kappa: float
    values: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n_steps + 1,):
            raise ValueError(
                f"need {self.grid.n_steps + 1} values, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def raw_normals(seed: int, n: int, block: int = 0) -> np.ndarray:
    """Standard normals 4*block .. 4*block+n-1 of the stream keyed by seed.

    Philox counters advance in blocks of four 64-bit words, so normal k is
    ``raw_normals(seed, k % 4 + 1, block=k // 4)[-1]``, computed without its
    predecessors."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = Philox(0)
        _local.state = {"bit_generator": "Philox",
                        "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
    words = _local.state["state"]
    key = seed % _KEY_MOD
    words["counter"] = [block & _WORD, (block >> 64) & _WORD,
                        (block >> 128) & _WORD, (block >> 192) & _WORD]
    words["key"] = [key & _WORD, key >> 64]
    gen.state = _local.state
    raw = gen.random_raw(n)
    raw >>= np.uint64(11)
    u = np.add(raw, 0.5)   # float64(raw) + 0.5, exact below 2**53
    u *= 2.0**-53
    return ndtri(u, out=u)


def sample_brownian(grid: TimeGrid, kappa: float, seed: int) -> DrivingPath:
    """Sample xi_t = sqrt(kappa) B_t on the grid, xi_0 = 0.

    Deterministic in (grid, kappa, seed).  Increment k is
    sqrt(kappa*dt) times standard normal k of the stream keyed by seed.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    z = raw_normals(seed, grid.n_steps)
    values = np.empty(grid.n_steps + 1)
    values[0] = 0.0
    np.cumsum(np.sqrt(kappa * grid.dt) * z, out=values[1:])
    return DrivingPath(grid, float(kappa), values)


def explicit_path(grid: TimeGrid, kappa: float, values) -> DrivingPath:
    """Wrap caller-supplied driving values (e.g. zero driving for exact tests)."""
    return DrivingPath(grid, float(kappa), values)

