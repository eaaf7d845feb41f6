"""Brownian driving functions for Loewner flows.

A driving path is xi_k = sqrt(kappa) * B(t_k) on the uniform capacity-time
grid t_k = k*T/n.  Increments come from a counter-based recipe, so any single
increment is recomputable in isolation and ensembles parallelize with no
shared state:

    raw_k = k-th 64-bit word of the Philox4x64 stream keyed by ``seed``
    u_k   = ((raw_k >> 11) + 1/2) * 2**-53        uniform in (0, 1)
    z_k   = ndtri(u_k)                            standard normal
    xi_{k+1} - xi_k = sqrt(kappa * dt) * z_k

This recipe is part of the reproducibility contract: identical
(grid, kappa, seed) always produce bitwise-identical paths, and the raw
normals do not depend on kappa (so paths scale exactly with sqrt(kappa)).

Each thread keeps one Philox generator and re-keys it per call by setting
its state (key ``seed mod 2**128``, counter at the requested block, buffer
empty).  This yields the same words as a fresh ``Philox(key=seed)``, whose
construction also draws a SeedSequence from OS entropy and costs more than
the words themselves, and it leaves no state from one call to the next.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

__all__ = [
    "TimeGrid",
    "DrivingPath",
    "sample_brownian",
    "explicit_path",
    "reverse_driving",
    "quadratic_variation",
    "raw_normals",
    "normal_increment",
    "path_to_csv",
]

_KEY_MOD = 1 << 128  # Philox key width
_WORD = (1 << 64) - 1
_local = threading.local()  # .gen: this thread's re-keyable Philox


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

    def time(self, k: int) -> float:
        return k * self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.horizon / self.n_steps


@dataclass(frozen=True, eq=False)
class DrivingPath:
    """Discretized driving function.

    ``values[k]`` is xi at grid time k; there are ``n_steps + 1`` entries.
    Instances are immutable (the value array is marked read-only) and safe to
    share across concurrent workers.
    """

    grid: TimeGrid
    kappa: float
    values: np.ndarray
    seed: int
    origin: str  # "sampled" | "reversed" | "explicit"

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if self.origin not in ("sampled", "reversed", "explicit"):
            raise ValueError(f"unknown origin {self.origin!r}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n_steps + 1,):
            raise ValueError(
                f"need {self.grid.n_steps + 1} values, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps


def _normals(seed: int, n: int, block: int = 0) -> np.ndarray:
    """Standard normals 4*block .. 4*block+n-1 of the stream keyed by seed."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = Philox(0)
    key = seed % _KEY_MOD
    gen.state = {"bit_generator": "Philox",
                 "state": {"counter": [(block >> s) & _WORD for s in (0, 64, 128, 192)],
                           "key": [key & _WORD, key >> 64]},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
    raw = gen.random_raw(n)
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return ndtri(u, out=u)


def raw_normals(seed: int, n: int) -> np.ndarray:
    """First n standard normals of the counter-based stream keyed by seed."""
    return _normals(seed, n)


def normal_increment(seed: int, k: int) -> float:
    """Standard normal number k of the stream, computed without its
    predecessors (Philox counters advance in blocks of four 64-bit words)."""
    return float(_normals(seed, k % 4 + 1, k // 4)[-1])


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
    return DrivingPath(grid, float(kappa), values, int(seed), "sampled")


def explicit_path(grid: TimeGrid, kappa: float, values, seed: int = 0) -> DrivingPath:
    """Wrap caller-supplied driving values (e.g. zero driving for exact tests)."""
    return DrivingPath(grid, float(kappa), np.asarray(values, dtype=np.float64),
                       int(seed), "explicit")


def reverse_driving(path: DrivingPath) -> DrivingPath:
    """Time-reversed driving: xi~_k = xi_{n-k} on the same grid."""
    if path.grid.n_steps < 1:
        raise ValueError("need at least 2 grid points")
    return DrivingPath(path.grid, path.kappa, path.values[::-1].copy(),
                       path.seed, "reversed")


def quadratic_variation(path: DrivingPath) -> float:
    """Sum of squared increments; estimates kappa*T for Brownian driving."""
    return float(np.sum(np.square(np.diff(path.values))))


def path_to_csv(path: DrivingPath) -> bytes:
    """Columns (t, xi) as CSV bytes."""
    lines = ["t,xi\n"]
    lines += [f"{t!r},{x!r}\n" for t, x in zip(path.grid.times().tolist(),
                                               path.values.tolist())]
    return "".join(lines).encode()
