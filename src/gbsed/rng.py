"""Deterministic random number generation.

Everything random in this package flows from splitmix64 (Steele, Lea &
Flood constants), so a single 64-bit seed reproduces an entire experiment
bit-for-bit. The bulk generators are counter-based: output k of the stream
of seed s is ``mix(s + k·G)``, a pure function of (s, k), so the streams of
many seeds can be drawn in one call (``splitmix64_streams``) and each
equals the single-seed generator's output for its seed.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_TWO_NEG53 = 2.0 ** -53

# the bulk generators are numpy only; perfbench reports this as the RNG path
USING_NUMBA = False


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
# bulk counter-based generators


def golden_steps(n):
    """``k·G`` for k = 1..n: the counter term of outputs 1..n of any stream."""
    return np.arange(1, n + 1, dtype=np.uint64) * _U_GOLDEN


def _mix(z):
    """splitmix64's output function, in place on a uint64 array."""
    t = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= _U_MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _U_MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _to_unit(raw):
    return (raw >> np.uint64(11)).astype(np.float64) * _TWO_NEG53


def polar(raw):
    """The Box-Muller radius and angle of raw's (u1, u2) pairs, float64:
    normal 2i is ``r[i]·cos(theta[i])`` and normal 2i + 1 ``r[i]·sin(theta[i])``."""
    # r = sqrt(-2 log u1) with u1 in (0, 1], which keeps log() finite, and
    # theta = 2 pi u2 with u2 in [0, 1), each step rounded as written
    r = (raw[0::2] >> np.uint64(11)).astype(np.float64)
    r += 1.0
    r *= _TWO_NEG53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = _to_unit(raw[1::2])
    theta *= 2.0 * math.pi
    return r, theta


# the largest radius polar gives: u1 = 2^-53
R_MAX = math.sqrt(-2.0 * math.log(_TWO_NEG53))


def _box_muller(raw):
    """One normal per raw output; raw holds whole (u1, u2) pairs."""
    r, theta = polar(raw)
    out = np.empty(raw.size)
    np.multiply(r, np.cos(theta), out=out[0::2])
    np.multiply(r, np.sin(theta, out=theta), out=out[1::2])
    return out


def splitmix64_stream(seed, n):
    return _mix(np.uint64(seed & _MASK64) + golden_steps(n))


def uniforms(seed, n):
    return _to_unit(splitmix64_stream(seed, n))


def normals(seed, n):
    return _box_muller(splitmix64_stream(seed, 2 * ((n + 1) // 2)))[:n]


# ---------------------------------------------------------------------------
# many seeds at once: the streams of seeds[i], counts[i] outputs each, back
# to back. Output j of stream i sits at position g = starts[i] + j - 1 of the
# batch, so its counter is (seeds[i] - starts[i]·G) + (g + 1)·G mod 2^64:
# one per-stream offset plus a counter term shared by every stream.


def splitmix64_streams(seeds, counts, steps):
    """``concatenate([splitmix64_stream(s, c) for s, c in zip(seeds, counts)])``.

    ``steps`` is ``golden_steps(n)`` for some n >= sum(counts), which can be
    laid out once and shared by every call.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    offsets = np.asarray(seeds, dtype=np.uint64) - starts.astype(np.uint64) * _U_GOLDEN
    z = np.repeat(offsets, counts)
    z += steps[:total]
    return _mix(z)
