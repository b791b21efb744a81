"""splitmix64 pseudo-random streams.

Every random choice in the package flows through this generator. The
integer and uniform streams are bit-identical across platforms; normal
variates go through one shared numpy code path, so scalar and batched
draws agree bit-for-bit with each other (transcendentals may vary by an
ulp between platforms, never between runs). Draw order is part of each
caller's contract; helpers below document theirs.
"""

from __future__ import annotations

import numpy as np

from .errors import BadArgument

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def check_seed(seed) -> int:
    """`seed` if it is an integer in 0..2**64 - 1. SplitMix64 reduces a
    seed modulo 2**64, so a bool, a float or an integer outside that range
    would alias another seed; each raises BadArgument."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or not 0 <= seed <= _MASK:
        raise BadArgument(f"seed must be an integer in 0..2**64 - 1, not {seed!r}")
    return seed


def derive_seed(seed: int, *tags: int) -> int:
    """Fold integer tags into a seed; used to split independent streams."""
    s = seed & _MASK
    for t in tags:
        s = _mix((s + 0x9E3779B97F4A7C15 + (t & _MASK)) & _MASK)
    return s


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64 increment + mix)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        """One u64 draw mapped to [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Box-Muller, two uniform draws per call (no caching).

        Delegates to normal_array so scalar and batched draws share one
        transcendental code path and stay bit-identical to each other.
        """
        return float(self.normal_array(1, mu, sigma)[0])

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), partial Fisher-Yates.

        Draw order: one randbelow(n - i) per selection step, i = 0..k-1.
        The result is sorted ascending so downstream consumers keep the
        input order of whatever the indices address. The pool is a dict
        holding only the swapped entries, so its size grows with k, not n.
        """
        if k > n:
            raise ValueError("cannot sample more indices than available")
        pool = {}                      # position -> index, where they differ
        picked = []
        for i in range(k):
            j = i + self.randbelow(n - i)
            picked.append(pool.get(j, j))
            pool[j] = pool.get(i, i)
        picked.sort()
        return picked

    # -- vectorized counterparts (bit-identical to the scalar draws) -----

    def uniform_array(self, n: int) -> np.ndarray:
        """n uniforms in one shot; advances the stream exactly n draws."""
        idx = np.arange(1, n + 1, dtype=np.uint64)
        states = np.uint64(self._state) + idx * np.uint64(_GOLDEN)
        self._state = (self._state + n * _GOLDEN) & _MASK
        return (_mix_np(states) >> np.uint64(11)) * (1.0 / (1 << 53))

    def normal_array(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """n Box-Muller normals; consumes 2n uniform draws like n normal() calls."""
        u = self.uniform_array(2 * n)
        r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        return mu + sigma * r * np.cos(2.0 * np.pi * u[1::2])


def _mix_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))
