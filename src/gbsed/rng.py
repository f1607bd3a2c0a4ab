"""Deterministic random number generation.

Everything random in this package flows from splitmix64 (Steele, Lea &
Flood constants), so a single 64-bit seed reproduces an entire experiment
bit-for-bit. The bulk generators are counter-based (output k of the stream
is a pure function of seed and k), so the numba and numpy paths produce
identical integer and uniform streams; normals agree to the last ulp (the
two paths may use different trig code). The ``*_streams`` generators run
many seeds in one call on the numpy path.

Set GBSED_NO_NUMBA=1 to force the pure-numpy path even when numba is
installed.
"""

import math
import os

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_TWO_NEG53 = 2.0 ** -53


def _mix_scalar(z):
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential scalar splitmix64 stream, for light control-flow randomness."""

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix_scalar(self._state)

    def random(self):
        """Uniform float64 in [0, 1)."""
        return (self.next_u64() >> 11) * _TWO_NEG53

    def randint(self, lo, hi):
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.next_u64() % (hi - lo + 1)

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random()

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


# ---------------------------------------------------------------------------
# bulk counter-based generators: numpy reference path


def _mix(z):
    z = (z ^ (z >> np.uint64(30))) * _U_MIX1
    z = (z ^ (z >> np.uint64(27))) * _U_MIX2
    return z ^ (z >> np.uint64(31))


def _to_unit(raw):
    return (raw >> np.uint64(11)).astype(np.float64) * _TWO_NEG53


def _box_muller(raw):
    """One normal per raw output; raw holds whole (u1, u2) pairs."""
    # u1 in (0, 1] keeps log() finite; u2 in [0, 1)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_NEG53
    u2 = _to_unit(raw[1::2])
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(raw.size)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out


def _splitmix64_numpy(seed, n):
    idx = np.arange(1, n + 1, dtype=np.uint64)
    return _mix(np.uint64(seed & _MASK64) + idx * _U_GOLDEN)


def _uniforms_numpy(seed, n):
    return _to_unit(_splitmix64_numpy(seed, n))


def _normals_numpy(seed, n):
    return _box_muller(_splitmix64_numpy(seed, 2 * ((n + 1) // 2)))[:n]


# ---------------------------------------------------------------------------
# many seeds at once: the streams of seeds[i], counts[i] outputs each, back
# to back. Output k of a stream depends only on (seed, k), so each segment
# equals the single-seed generator's output for that seed.


def splitmix64_streams(seeds, counts):
    """``concatenate([splitmix64_stream(s, c) for s, c in zip(seeds, counts)])``."""
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    # 1-based position of every output within its own stream
    idx = np.arange(1, total + 1, dtype=np.int64) - np.repeat(ends - counts, counts)
    seeds = np.asarray(seeds, dtype=np.uint64)
    return _mix(np.repeat(seeds, counts) + idx.astype(np.uint64) * _U_GOLDEN)


def uniforms_streams(seeds, counts):
    """``uniforms(seeds[i], counts[i])`` for every i, back to back."""
    return _to_unit(splitmix64_streams(seeds, counts))


def normals_streams(seeds, counts):
    """``normals(seeds[i], counts[i])`` for every i, back to back; every
    count must be even."""
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts % 2):
        raise ValueError("normals_streams needs even counts")
    return _box_muller(splitmix64_streams(seeds, counts))


# ---------------------------------------------------------------------------
# numba-accelerated path

_want_numba = os.environ.get("GBSED_NO_NUMBA", "") not in ("1", "true", "yes")
_numba_ok = False
if _want_numba:
    try:
        from numba import njit as _njit

        _numba_ok = True
    except ImportError:
        _numba_ok = False

if _numba_ok:

    @_njit(cache=True)
    def _splitmix64_numba(seed, n):  # pragma: no cover - exercised via dispatch
        out = np.empty(n, dtype=np.uint64)
        g = np.uint64(_GOLDEN)
        m1 = np.uint64(_MIX1)
        m2 = np.uint64(_MIX2)
        s = np.uint64(seed)
        for k in range(n):
            z = s + np.uint64(k + 1) * g
            z = (z ^ (z >> np.uint64(30))) * m1
            z = (z ^ (z >> np.uint64(27))) * m2
            out[k] = z ^ (z >> np.uint64(31))
        return out

    @_njit(cache=True)
    def _uniforms_numba(seed, n):  # pragma: no cover
        raw = _splitmix64_numba(seed, n)
        out = np.empty(n)
        for k in range(n):
            out[k] = (raw[k] >> np.uint64(11)) * _TWO_NEG53
        return out

    @_njit(cache=True)
    def _normals_numba(seed, n):  # pragma: no cover
        npairs = (n + 1) // 2
        raw = _splitmix64_numba(seed, 2 * npairs)
        out = np.empty(2 * npairs)
        for k in range(npairs):
            u1 = ((raw[2 * k] >> np.uint64(11)) + np.uint64(1)) * _TWO_NEG53
            u2 = (raw[2 * k + 1] >> np.uint64(11)) * _TWO_NEG53
            r = np.sqrt(-2.0 * np.log(u1))
            theta = (2.0 * math.pi) * u2
            out[2 * k] = r * np.cos(theta)
            out[2 * k + 1] = r * np.sin(theta)
        return out[:n]


USING_NUMBA = _numba_ok

if USING_NUMBA:
    def splitmix64_stream(seed, n):
        return _splitmix64_numba(np.uint64(seed & _MASK64), n)

    def uniforms(seed, n):
        return _uniforms_numba(np.uint64(seed & _MASK64), n)

    def normals(seed, n):
        return _normals_numba(np.uint64(seed & _MASK64), n)
else:
    def splitmix64_stream(seed, n):
        return _splitmix64_numpy(seed, n)

    def uniforms(seed, n):
        return _uniforms_numpy(seed, n)

    def normals(seed, n):
        return _normals_numpy(seed, n)


# reference implementations stay importable for cross-path tests and benchmarks
splitmix64_numpy = _splitmix64_numpy
uniforms_numpy = _uniforms_numpy
normals_numpy = _normals_numpy
