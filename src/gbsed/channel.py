"""Noisy-link simulation: Gray-coded 64-QAM over AWGN, plus a binary
symmetric channel, and OFDM frame-capacity accounting.

The noiseless sentinel is ``snr_db = math.inf``. All randomness derives
from the 64-bit seed in LinkConfig via the splitmix64 stream.

``plan_link`` lays out many back-to-back payloads once, and each ``send``
of the plan sends every payload with its own seed; ``transmit`` is a
one-frame ``send``. It decides every symbol as the float64 primitives
``qam64_demap(awgn(qam64_map(bits)))`` would.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .codec import HEADER_LEN

AWGN64QAM = "awgn64qam"
BSC = "bsc"

PROTECTED = "protected"
UNPROTECTED = "unprotected"

# one OFDM frame: subcarriers x symbols x bits per 64-QAM symbol, one stream
OFDM_FRAME_BITS = 132 * 14 * 6

# a link plan sends whole frames in blocks of at most this many body bits
# (a larger frame is a block of its own), which bounds the memory of a send
_BLOCK_BITS = 1 << 16

# per-axis Gray map: 3-bit code -> amplitude level
# 000 -> -7, 001 -> -5, 011 -> -3, 010 -> -1, 110 -> +1, 111 -> +3, 101 -> +5, 100 -> +7
_LEVEL_BY_CODE = np.array([-7, -5, -1, -3, 7, 5, 1, 3], dtype=np.float64)
_SCALE = 1.0 / math.sqrt(42.0)  # unit average symbol energy

_SIX = np.arange(64)
# 6-bit code (I code, then Q code) -> symbol, and its bits -> code
_SYMBOL_BY_CODE = (_LEVEL_BY_CODE[_SIX >> 3] + 1j * _LEVEL_BY_CODE[_SIX & 7]) * _SCALE
_BIT_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
# level index i (level = 2i-7) has the 3-bit code i ^ (i >> 1), Gray's. For
# w = 8 * I level index + Q level index, w ^ (w >> 1 & 0b011011) is I's code
# then Q's: the mask drops the bit of I that the shift moves into Q's field
_CODE_BY_LEVELS = (_SIX ^ (_SIX >> 1 & 0b011011)).astype(np.uint8)


@dataclass(frozen=True)
class LinkConfig:
    snr_db: float = math.inf
    channel_kind: str = AWGN64QAM
    bsc_flip_prob: float = 0.0
    seed: int = 0
    header_protection: str = PROTECTED

    def __post_init__(self):
        if self.channel_kind not in (AWGN64QAM, BSC):
            raise ValueError(f"unknown channel kind {self.channel_kind!r}")
        if not 0.0 <= self.bsc_flip_prob <= 0.5:
            raise ValueError(f"bsc_flip_prob {self.bsc_flip_prob} outside [0, 0.5]")
        if self.header_protection not in (PROTECTED, UNPROTECTED):
            raise ValueError(f"unknown header protection {self.header_protection!r}")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db is NaN")
        if math.isinf(_noise_power(self.snr_db)):
            raise ValueError(f"snr_db {self.snr_db} gives an infinite noise power")


def qam64_map(bits):
    """Map a bit array to unit-energy 64-QAM symbols.

    Pads with zero bits to a multiple of 6; returns (symbols, pad_len).
    First 3 bits of each group select the in-phase level, last 3 the
    quadrature level.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    pad = (-bits.size) % 6
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    return _SYMBOL_BY_CODE[bits.reshape(-1, 6) @ _BIT_WEIGHTS], pad


def _noiseless(snr_db):
    return math.isinf(snr_db) and snr_db > 0


def _noise_power(snr_db):
    """N0 at snr_db with unit symbol energy; inf where it overflows."""
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        return math.inf


def _sigma(snr_db):
    """Per-axis noise deviation at snr_db, with unit symbol energy."""
    return math.sqrt(_noise_power(snr_db) / 2.0)


def awgn(symbols, snr_db, seed):
    """Add circularly-symmetric complex Gaussian noise at the given SNR."""
    if _noiseless(snr_db):
        return np.array(symbols, copy=True)
    z = rng.normals(seed, 2 * len(symbols))
    return symbols + _sigma(snr_db) * (z[0::2] + 1j * z[1::2])


def _decide_axis(u):
    """Nearest-level index (level = 2i-7) of unnormalized amplitudes; midway
    ties go to the lower-magnitude level (-1 at the origin)."""
    # the index is the number of midpoints between levels that q lies above;
    # q exactly on a midpoint counts it below the origin's (3.5) and not from
    # there up, so a tie goes to the level nearer zero
    q = (u + 7.0) / 2.0
    idx = np.zeros(q.shape, dtype=np.int8)
    for mid in (0.5, 1.5, 2.5):
        idx += q >= mid
    for mid in (3.5, 4.5, 5.5, 6.5):
        idx += q > mid
    return idx


def qam64_demap(symbols, pad=0):
    """Hard per-axis nearest-level decision and inverse Gray map."""
    u = np.asarray(symbols) / _SCALE
    codes = _CODE_BY_LEVELS[8 * _decide_axis(u.real) + _decide_axis(u.imag)]
    flat = np.unpackbits(codes).reshape(-1, 8)[:, 2:].reshape(-1)
    return flat[: flat.size - pad] if pad else flat


def qam64_ber_exact(snr_db):
    """Exact bit error rate of hard decisions on Gray-coded square 64-QAM
    over AWGN at snr_db = Es/N0 (Cho & Yoon, "On the general BER expression
    of one- and two-dimensional amplitude modulations", IEEE Trans. Commun.
    2002). Bit k of an axis code has a weighted sum of erfc terms, one per
    distance 2i+1 in half level spacings; the BER is their mean over bits."""
    root_m = 8
    # half the level spacing over the noise deviation, divided by sqrt(2):
    # sqrt(3 Es/N0 / (2 (M - 1)))
    arg = math.sqrt(3.0 * 10.0 ** (snr_db / 10.0) / (2.0 * (root_m ** 2 - 1)))
    total = 0.0
    for k in (1, 2, 3):
        w = 2 ** (k - 1)
        for i in range(root_m - root_m // 2 ** k):
            sign = -1.0 if (i * w // root_m) % 2 else 1.0
            total += sign * (w - (2 * i * w + root_m) // (2 * root_m)) \
                * math.erfc((2 * i + 1) * arg)
    return total / (3 * root_m)


def transmit(payload, cfg):
    """Send payload octets through the configured channel: a one-frame
    ``send`` with seed cfg.seed mod 2^64.

    Returns (received_payload, bit_error_count). With protected headers the
    first 21 octets bypass the channel entirely.
    """
    data = np.frombuffer(bytes(payload), dtype=np.uint8)
    plan = plan_link(data, [data.size], cfg.channel_kind, cfg.header_protection)
    received, errors = send(plan, [cfg.seed % (1 << 64)], cfg)
    return received.tobytes(), errors


@dataclass(frozen=True)
class _Block:
    frames: slice       # the frames it carries
    octets: slice       # their body octets, within the plan's body octets
    counts: np.ndarray  # splitmix64 outputs each frame draws
    levels: np.ndarray  # AWGN: the sent symbols' (I, Q) levels, int8, see plan_link
    keep: np.ndarray    # AWGN: where the body octets sit among the repacked octets


class _Scratch:
    """Buffers for a plan's largest block of n splitmix64 outputs (its bits
    on the BSC, two per symbol on AWGN), which every send of the plan reuses.
    Roles whose lifetimes do not overlap share memory: polar's (r, theta)
    live in tmp, which _mix is done with, and the amplitudes u in raw,
    which polar is done with."""

    def __init__(self, n, awgn_link):
        self.raw, self.tmp = np.empty((2, n), dtype=np.uint64)
        self.flags = np.empty(n, dtype=bool)  # BSC flips, AWGN near-midpoint parts
        if awgn_link:
            self.u = self.raw.view(np.float64)
            self.r, self.theta = self.tmp[:n // 2 * 2].view(np.float64).reshape(2, -1)
            self.t, self.cos = np.empty((2, n // 2), dtype=np.float32)
            self.sent, self.d = np.empty((2, n))
            self.levels = np.empty(n, dtype=np.uint8)
            self.codes, self.gray = np.empty((2, n // 2), dtype=np.uint8)
            self.octets = np.empty((n // 8, 3), dtype=np.uint8)
            self.got, self.diff = np.empty((2, 3 * n // 8), dtype=np.uint8)


@dataclass(frozen=True)
class LinkPlan:
    """What sending a fixed set of back-to-back payloads over one kind of
    link takes that does not depend on the seeds or the noise level; built
    by ``plan_link``, used by ``send``. Each send works in the plan's
    scratch, so a plan is not meant for concurrent sends."""
    channel_kind: str
    header_protection: str
    buffer: np.ndarray   # the sent payloads, back to back
    frames: int          # how many
    body_at: np.ndarray  # buffer offsets of the octets that meet the channel
    sent: np.ndarray     # those octets
    blocks: tuple
    steps: np.ndarray    # rng.golden_steps of the most draws of one frame
    scratch: _Scratch


def plan_link(buffer, lengths, channel_kind, header_protection):
    """Lay out back-to-back payloads of the given lengths for ``send``.

    On AWGN every frame's body octets are padded with zeros to whole groups
    of 3, which are 4 symbols: the zero bits that close the frame's last
    symbol, as ``qam64_map`` pads a lone frame, are among them, and
    decisions on the pad land only in octets that are dropped.
    """
    buffer = np.asarray(buffer, dtype=np.uint8)
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    guard = HEADER_LEN if header_protection == PROTECTED else 0
    head = np.minimum(lengths, guard)
    octets = lengths - head
    first = np.cumsum(octets) - octets
    body_at = np.repeat(starts + head - first, octets) + np.arange(octets.sum())
    awgn_link = channel_kind == AWGN64QAM
    groups = -(-octets // 3)
    # two splitmix64 outputs per symbol, one per bit
    counts = 8 * groups if awgn_link else 8 * octets
    sent = buffer[body_at]
    blocks = []
    ends = np.cumsum(8 * octets)
    a = 0
    while a < lengths.size:
        # the longest run of frames within the block budget, at least one
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - 8 * octets[a] + _BLOCK_BITS,
                                          side="right")))
        span = slice(int(first[a]), int(first[b - 1] + octets[b - 1]))
        levels = keep = None
        if awgn_link:
            padded = 3 * groups[a:b]
            keep = (np.repeat(np.cumsum(padded) - padded - (first[a:b] - first[a]),
                              octets[a:b]) + np.arange(span.stop - span.start))
            octet_groups = np.zeros(padded.sum(), dtype=np.uint8)
            octet_groups[keep] = sent[span]
            codes = _codes_from_octets(octet_groups)
            levels = _LEVEL_BY_CODE[np.stack([codes >> 3, codes & 7], axis=1)]
            levels = levels.astype(np.int8).reshape(-1)
        blocks.append(_Block(slice(a, b), span, counts[a:b], levels, keep))
        a = b
    most = max((int(blk.counts.sum()) for blk in blocks), default=0)
    return LinkPlan(channel_kind, header_protection, buffer, int(lengths.size), body_at,
                    sent, tuple(blocks), rng.golden_steps(int(counts.max(initial=0))),
                    _Scratch(most, awgn_link))


def _codes_from_octets(octets):
    """Octets, a whole number of groups of 3, as 6-bit codes, 4 a group."""
    o = octets.reshape(-1, 3)
    codes = np.empty((o.shape[0], 4), dtype=np.uint8)
    codes[:, 0] = o[:, 0] >> 2
    codes[:, 1] = (o[:, 0] & 3) << 4 | o[:, 1] >> 4
    codes[:, 2] = (o[:, 1] & 15) << 2 | o[:, 2] >> 6
    codes[:, 3] = o[:, 2] & 63
    return codes.reshape(-1)


def _octets_from_codes(codes, out):
    """Inverse of _codes_from_octets, into out of shape (codes.size // 4, 3)."""
    c = codes.reshape(-1, 4)
    o0, o1, o2 = out[:, 0], out[:, 1], out[:, 2]
    np.left_shift(c[:, 0], 2, out=o0)
    o0 |= np.right_shift(c[:, 1], 4, out=o1)
    np.left_shift(c[:, 1], 4, out=o1)
    o1 |= np.right_shift(c[:, 2], 2, out=o2)
    np.left_shift(c[:, 2], 6, out=o2)
    o2 |= c[:, 3]
    return out.reshape(-1)


def _flip_threshold(p):
    """The raw splitmix64 outputs below which a BSC flips a bit: uniforms'
    (raw >> 11)·2^-53 < p holds exactly when raw < ceil(p·2^53)·2^11."""
    return np.uint64(math.ceil(p * 2.0 ** 53) << 11)


def send(plan, seeds, cfg):
    """Send the plan's payloads through the link, payload i with seed
    seeds[i] in [0, 2^64); cfg.seed is not used, and cfg's channel kind and
    header protection must be the plan's; ``transmit`` is a one-frame send.

    Returns (received_buffer, bit_error_count). On AWGN every body bit is
    decided as ``qam64_demap(awgn(qam64_map(bits), snr_db, seed))`` decides
    it; on the BSC it flips where ``rng.uniforms(seed, bits) < p``.
    """
    if (cfg.channel_kind, cfg.header_protection) != (plan.channel_kind,
                                                     plan.header_protection):
        raise ValueError("the link differs from the one the plan was made for")
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.shape != (plan.frames,):
        raise ValueError(f"{seeds.size} seeds for a plan of {plan.frames} frames")
    received = plan.buffer.copy()
    if (cfg.bsc_flip_prob == 0.0 if cfg.channel_kind == BSC else _noiseless(cfg.snr_db)):
        return received, 0
    s = plan.scratch
    errors = 0
    for blk in plan.blocks:
        sent = plan.sent[blk.octets]
        raw = rng.splitmix64_streams(seeds[blk.frames], blk.counts, plan.steps, s.raw, s.tmp)
        if cfg.channel_kind == BSC:
            flips = np.less(raw, _flip_threshold(cfg.bsc_flip_prob), out=s.flags[:raw.size])
            errors += int(np.count_nonzero(flips))
            got = np.packbits(flips)
            got ^= sent
        else:
            got = _awgn_block(blk, raw, s, cfg.snr_db)
            diff = np.bitwise_xor(got, sent, out=s.diff[:got.size])
            errors += int(np.bitwise_count(diff, out=diff).sum())
        received[plan.body_at[blk.octets]] = got
    return received, errors


# numpy's float32 cos and sin are vectorized and its float64 ones are not.
# For theta in [0, 2 pi), |fl32(theta) - theta| <= 2^-22 and the float32
# functions are good to a few float32 ulps, so cos and sin of fl32(theta)
# are within 2^-20 of the float64 ones of theta (the tests pin this); the
# bound allows 16 times that
_TRIG32_ERROR = 2.0 ** -16
# the two evaluations round their steps apart, by a few ulps of |u| <=
# R_MAX·sigma/_SCALE + 7, and _decide_axis's thresholds lie within 2^-49 of
# the midpoints: within 2^-40 plus a sliver of the trig term
_ROUNDING = 2.0 ** -40


def _trig32_bound(sigma):
    """The most a received level-unit amplitude from float32 trig can be
    off from the float64 one, at per-axis noise deviation sigma."""
    return rng.R_MAX * sigma / _SCALE * _TRIG32_ERROR + _ROUNDING


def _to_levels(iq, sent, sigma):
    """Unit noise given as interleaved (I, Q) floats, in place, to the
    received amplitudes in level units, rounded as qam64_demap(awgn(...))
    rounds them; sent are the symbols' interleaved parts."""
    # the parts of awgn's complex sum, whose cross terms are exact
    # zeros; numpy's complex y / _SCALE multiplies each part by
    # fl(1 / _SCALE), which on a few values near a midpoint decides
    # otherwise than dividing
    iq *= sigma
    iq += sent
    iq *= 1.0 / _SCALE
    return iq


def _refine(u, at, r, theta, sent, sigma):
    """Redo symbols ``at`` of u from float64 trig, as awgn computes them."""
    r, theta = r[at], theta[at]
    exact = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    u.reshape(-1, 2)[at] = _to_levels(exact, sent.reshape(-1, 2)[at], sigma)


def _decide_by_floor(u, bound, s):
    """The level indices of level-unit amplitudes u by one floor, and where
    u lies within bound of a midpoint -6, ..., 6, the only places where the
    floor and _decide_axis may differ; in scratch s, overwriting u."""
    levels, near, d = s.levels[:u.size], s.flags[:u.size], s.d[:u.size]
    # y = u/2 + 4, in u, puts the midpoints on the integers 1..7 and level
    # index i on (i, i + 1)
    y = np.multiply(u, 0.5, out=u)
    y += 4.0
    np.rint(y, out=d)
    np.clip(d, 1.0, 7.0, out=d)
    d -= y
    np.abs(d, out=d)
    np.less_equal(d, bound * 0.5, out=near)
    np.clip(y, 0.0, 7.5, out=y)
    np.copyto(levels, y, casting="unsafe")  # truncation, which is the floor here
    return levels, near


def _received_codes(r, theta, sent, sigma, s):
    """The 6-bit codes qam64_demap decides for the symbols with parts sent
    plus sigma times the normals of Box-Muller's (r, theta), in scratch s:
    from float32 trig by a floor, and the symbols with an amplitude within
    _trig32_bound of a midpoint from float64 trig by _decide_axis; every
    other one lies on the side of each midpoint its float64 value lies on."""
    n, half = sent.size, sent.size // 2
    u, t = s.u[:n], s.t[:half]
    np.copyto(t, theta, casting="same_kind")
    np.copyto(u[0::2], np.cos(t, out=s.cos[:half]))
    np.copyto(u[1::2], np.sin(t, out=t))
    u[0::2] *= r
    u[1::2] *= r
    _to_levels(u, sent, sigma)
    levels, near = _decide_by_floor(u, _trig32_bound(sigma), s)
    # the symbols with either part flagged: a pair of flags read as a uint16
    at = np.flatnonzero(near.view(np.uint16))
    if at.size:
        _refine(u, at, r, theta, sent, sigma)
        levels.reshape(-1, 2)[at] = _decide_axis(u.reshape(-1, 2)[at])
    # the code of 8 * I level index + Q level index, as _CODE_BY_LEVELS
    codes = np.left_shift(levels[0::2], 3, out=s.codes[:half])
    codes |= levels[1::2]
    gray = np.right_shift(codes, 1, out=s.gray[:half])
    gray &= 0b011011
    codes ^= gray
    return codes


def _awgn_block(blk, raw, s, snr_db):
    """The block's body octets as qam64_demap decides them after awgn, from
    its splitmix64 outputs raw, in scratch s."""
    n = raw.size
    r, theta = rng.polar(raw, s.r[:n // 2], s.theta[:n // 2])
    sent = s.sent[:n]
    np.copyto(sent, blk.levels)
    sent *= _SCALE  # the parts of _SYMBOL_BY_CODE, bit for bit
    octets = _octets_from_codes(_received_codes(r, theta, sent, _sigma(snr_db), s),
                                s.octets[:n // 8])
    # keep is in range; mode "clip" takes straight into out, "raise" buffers it
    return np.take(octets, blk.keep, out=s.got[:blk.keep.size], mode="clip")


def frames_required(payload_len_octets):
    """OFDM frames needed for a payload on a fully loaded uncoded grid."""
    if payload_len_octets <= 0:
        raise ValueError("payload length must be positive")
    return -(-8 * payload_len_octets // OFDM_FRAME_BITS)
