"""Deterministic random number generation.

Everything random in this package flows from splitmix64 (Steele, Lea &
Flood constants), so a single 64-bit seed reproduces an entire experiment
bit-for-bit. The bulk generators are counter-based: output k of the stream
of seed s is ``mix(s + k·G)``, a pure function of (s, k), so the streams of
many seeds can be laid out back to back (``stream_slices``) and mixed in one
pass, and each equals the single-seed generator's output for its seed.

``_mix`` runs in two parts: ``_premix``, its first six steps, and
``_finish``, the last xor-shift ``z ^= z >> 31``, which leaves an output's
top 31 bits as they were. A caller whose decisions read only top bits can
decide on the unfinished words and finish just the outputs it must.
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


def _premix(z, t):
    """splitmix64's output function but for its last step (``_finish``), in
    place on a uint64 array; t is a uint64 array of z's size that it
    overwrites."""
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= _U_MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _U_MIX2
    return z


def _finish(z, t):
    """The last step of splitmix64's output function, ``z ^= z >> 31``, in
    place as _premix. It is a bijection that keeps z's top 31 bits; its
    inverse is ``y ^ y >> 31 ^ y >> 62``."""
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def _mix(z, t):
    """splitmix64's output function, in place as _premix."""
    return _finish(_premix(z, t), t)


def polar(raw, r, theta):
    """The Box-Muller radius and angle of raw's (u1, u2) pairs, written into
    the float64 arrays r and theta of raw.size // 2 each, which it returns:
    normal 2i is ``r[i]·cos(theta[i])`` and normal 2i + 1
    ``r[i]·sin(theta[i])``. raw is overwritten."""
    # r = sqrt(-2 log u1) with u1 in (0, 1], which keeps log() finite, and
    # theta = 2 pi u2 with u2 in [0, 1), each step rounded as written (the
    # 53-bit integers and their scaling by 2^-53 are exact in float64)
    np.right_shift(raw, np.uint64(11), out=raw)
    np.copyto(r, raw[0::2])
    r += 1.0
    r *= _TWO_NEG53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    np.copyto(theta, raw[1::2])
    theta *= _TWO_NEG53
    theta *= 2.0 * math.pi
    return r, theta


# the largest radius polar gives: u1 = 2^-53
R_MAX = math.sqrt(-2.0 * math.log(_TWO_NEG53))


def splitmix64_stream(seed, n):
    z = np.uint64(seed & _MASK64) + golden_steps(n)
    return _mix(z, np.empty_like(z))


def uniforms(seed, n):
    return (splitmix64_stream(seed, n) >> np.uint64(11)).astype(np.float64) * _TWO_NEG53


def normals(seed, n):
    """Box-Muller on the stream's (u1, u2) pairs, one normal per output."""
    m = (n + 1) // 2
    r, theta = polar(splitmix64_stream(seed, 2 * m), np.empty(m), np.empty(m))
    out = np.empty(2 * m)
    np.multiply(r, np.cos(theta), out=out[0::2])
    np.multiply(r, np.sin(theta, out=theta), out=out[1::2])
    return out[:n]


# ---------------------------------------------------------------------------
# many seeds at once: the streams of seeds[i], counts[i] outputs each, back
# to back. Output j of stream i is mix(seeds[i] + j·G), and its counter is
# the seed plus golden_steps' term j, which every stream shares.


def stream_slices(counts, steps, out):
    """Views that lay out streams of counts[i] outputs each back to back in
    out: a pair (steps[:c], out[at:at + c]) a stream. ``np.add(terms, seed,
    out=counters)`` on a stream's pair writes its counters, and ``_mix`` of
    out[:sum(counts)] then gives every stream's outputs.

    ``steps`` is ``golden_steps(n)`` for some n >= max(counts), which can be
    laid out once and shared by every call.
    """
    ends = np.cumsum(counts, dtype=np.int64).tolist()
    return tuple((steps[:b - a], out[a:b]) for a, b in zip([0] + ends, ends))
