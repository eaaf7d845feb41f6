"""Brownian driving functions for Loewner flows.

A driving path is xi_k = sqrt(kappa) * B(t_k) on the uniform capacity-time
grid t_k = k*T/n.  Increments come from a counter-based recipe in the style
of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11):
every (seed, index, leg) has its own Philox4x64 stream, so ensembles
parallelize with no shared state and a sample's values do not depend on
which worker drew them:

    key      = seed mod 2**128
    counter  = [position (words 0-1), index (word 2), leg (word 3)]
    z_0, z_1, ... = numpy Generator(Philox(key, counter=index*2**128
                    + leg*2**192)).standard_normal(n)   (ziggurat)
    xi_{k+1} - xi_k = sqrt(kappa * dt) * z_k

Ensembles draw sample i of a run as (master_seed, index=i); composed runs
draw its forward leg as leg 0 and its backward leg as leg 1.  Seeds that
differ mod 2**128 are distinct keys, so runs at nearby seeds share no
sample.  The ziggurat (Marsaglia and Tsang, J. Stat. Softw. 5, 2000)
returns finite normals only, and it may take more than one word for a
normal, so a single increment is not recomputable on its own; a prefix is:
the first m normals of a stream do not depend on how many more are drawn.

This recipe is part of the reproducibility contract: identical
(grid, kappa, seed, index) always produce bitwise-identical paths under one
numpy version, and the raw normals do not depend on kappa (so paths scale
exactly with sqrt(kappa)).  numpy's NEP 19 does not promise Generator
streams across numpy versions, so the CLI records numpy's version in each
manifest.

Each thread keeps one Philox generator, one Generator on top of it and one
state dict.  A call re-keys the generator by setting only that dict's key
and counter words and assigning it, buffer empty.  This yields the same
normals as a fresh ``Generator(Philox(key=..., counter=...))``, whose
construction also draws a SeedSequence from OS entropy and costs more than
the normals themselves, and it leaves no state from one call to the next.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["TimeGrid", "DrivingPath", "sample_brownian", "explicit_path", "raw_normals"]

_KEY_MOD = 1 << 128  # Philox key width
_WORD = (1 << 64) - 1
# .bits: this thread's re-keyable Philox; .gen: the Generator on it; .state:
# its state dict
_local = threading.local()


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


def raw_normals(seed: int, n: int, index: int = 0, leg: int = 0) -> np.ndarray:
    """The first n standard normals of the stream (seed, index, leg); index
    and leg are counter words, in [0, 2**64)."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        _local.bits = Philox(0)
        gen = _local.gen = Generator(_local.bits)
        _local.state = {"bit_generator": "Philox",
                        "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
    words = _local.state["state"]
    key = seed % _KEY_MOD
    words["counter"] = [0, 0, index, leg]
    words["key"] = [key & _WORD, key >> 64]
    _local.bits.state = _local.state
    return gen.standard_normal(n)


def sample_brownian(grid: TimeGrid, kappa: float, seed: int, index: int = 0) -> DrivingPath:
    """Sample xi_t = sqrt(kappa) B_t on the grid, xi_0 = 0.

    Deterministic in (grid, kappa, seed, index).  Increment k is
    sqrt(kappa*dt) times normal k of the stream (seed, index, leg 0).
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    z = raw_normals(seed, grid.n_steps, index)
    values = np.empty(grid.n_steps + 1)
    values[0] = 0.0
    with np.errstate(invalid="ignore"):   # inf - inf: a NaN the callers check
        np.cumsum(np.sqrt(kappa * grid.dt) * z, out=values[1:])
    return DrivingPath(grid, float(kappa), values)


def explicit_path(grid: TimeGrid, kappa: float, values) -> DrivingPath:
    """Wrap caller-supplied driving values (e.g. zero driving for exact tests)."""
    return DrivingPath(grid, float(kappa), values)

