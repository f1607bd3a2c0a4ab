"""Noisy-link simulation: Gray-coded 64-QAM over AWGN, plus a binary
symmetric channel, and OFDM frame-capacity accounting.

The noiseless sentinel is ``snr_db = math.inf``. All randomness derives
from the 64-bit seed in LinkConfig via the splitmix64 stream.

``plan_link`` lays out many back-to-back payloads once, and a ``send``
receives every payload once a row, each row on its own link with its own
seeds; ``transmit`` is a one-frame, one-row ``send``. It decides every
symbol as the float64 primitives ``qam64_demap(awgn(qam64_map(bits)))``
would: on AWGN a float32 filter decides each block of a row, and one
float64 pass per send redoes the symbols it flags as near a midpoint in
every row, each at its row's noise level, with awgn's and qam64_demap's
own code; the Gray map is written once each way (``_level_index``,
``_codes_from_levels``). On either link a send ends in one gather: each
received octet is read from its row's link octets (on AWGN the decided
codes, packed word by word) or from the row's copy of the sent buffer.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .codec import HEADER_LEN
from .errors import integer, number

AWGN64QAM = "awgn64qam"
BSC = "bsc"

PROTECTED = "protected"
UNPROTECTED = "unprotected"

# one OFDM frame: subcarriers x symbols x bits per 64-QAM symbol, one stream
OFDM_FRAME_BITS = 132 * 14 * 6

# a link plan sends whole frames in blocks of at most this many splitmix64
# outputs, which size its scratch (a larger frame is a block of its own)
_BLOCK_DRAWS = 1 << 16


def _level_index(codes):
    """Level indices i (level 2i - 7) of 3-bit Gray codes, i's being i ^ i >> 1,
    in each 3-bit field of codes up to 24 bits wide: the masks drop the bits
    that the shifts bring in from the next field."""
    return codes ^ codes >> 1 & 0x6DB6DB ^ codes >> 2 & 0x249249


def _codes_from_levels(levels, out):
    """The 6-bit codes of (2, m) I and Q level indices into out, overwriting
    levels[1]: w ^ (w >> 1 & 0b011011) for w = 8 I + Q, the mask dropping I's
    shifted bit. The arrays may be unsigned views that hold an index in every
    byte lane, as uint32 views do four: the indices are at most 7, so no bit
    crosses a lane, and the mask, repeated in every lane, drops the bit that
    the shift brings in from the next."""
    np.left_shift(levels[0], 3, out=out)
    out |= levels[1]
    gray = np.right_shift(out, 1, out=levels[1])
    gray &= 0x1B1B1B1B & np.iinfo(gray.dtype).max
    out ^= gray
    return out


# per-axis Gray map: 3-bit code -> amplitude level
_LEVEL_BY_CODE = 2.0 * _level_index(np.arange(8)) - 7.0
_SCALE = 1.0 / math.sqrt(42.0)  # unit average symbol energy

_SIX = np.arange(64)
# 6-bit code (I code, then Q code) -> symbol; its bits, and 8 I index + Q index, -> code
_SYMBOL_BY_CODE = (_LEVEL_BY_CODE[_SIX >> 3] + 1j * _LEVEL_BY_CODE[_SIX & 7]) * _SCALE
_BIT_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
_CODE_BY_LEVELS = _codes_from_levels(np.uint8([_SIX >> 3, _SIX & 7]), np.empty(64, np.uint8))


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
        object.__setattr__(self, "bsc_flip_prob",
                           number("bsc_flip_prob", self.bsc_flip_prob, 0.0, 0.5))
        if self.header_protection not in (PROTECTED, UNPROTECTED):
            raise ValueError(f"unknown header protection {self.header_protection!r}")
        object.__setattr__(self, "seed", integer("seed", self.seed))
        object.__setattr__(self, "snr_db", number("snr_db", self.snr_db))
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
    return _noisy(symbols, _sigma(snr_db), z[0::2], z[1::2])


def _noisy(symbols, sigma, i, q):
    """The symbols plus sigma times the unit normals i (I) and q (Q)."""
    return symbols + sigma * (i + 1j * q)


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


def _decide(symbols):
    """The 6-bit codes of symbols by hard per-axis nearest-level decision."""
    u = np.asarray(symbols) / _SCALE
    return _CODE_BY_LEVELS[8 * _decide_axis(u.real) + _decide_axis(u.imag)]


def qam64_demap(symbols, pad=0):
    """Hard per-axis nearest-level decision and inverse Gray map."""
    flat = np.unpackbits(_decide(symbols)).reshape(-1, 8)[:, 2:].reshape(-1)
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
    received = np.empty((1, data.size), dtype=np.uint8)
    errors = send(plan, [[cfg.seed % (1 << 64)]], [cfg], received)
    return received.tobytes(), int(errors[0])


@dataclass(frozen=True)
class _Block:
    frames: slice       # the frames it carries
    octets: slice       # their body octets, within the plan's body octets
    counts: np.ndarray  # splitmix64 outputs each frame draws
    symbols: slice      # AWGN: their symbols, within the plan's symbols
    draws: int          # counts.sum()
    counters: tuple     # rng.stream_slices of its frames into the scratch's raw


class _Scratch:
    """Buffers that every send of a plan reuses: for its largest block of n
    splitmix64 outputs (its bits on the BSC, two per symbol on AWGN), 17
    bytes an output (18.5 on AWGN); source, a row a reception of its
    ``link`` octets (BSC: body octets; AWGN: a code a symbol, then packed 3
    octets to 4 bytes) and a copy of the sent buffer, padded to whole words,
    which the received rows are gathered from; and diff, each received row
    XOR the sent buffer in zero-padded 64-bit words. The float32 filter
    works in tmp, which _premix is done with, so raw keeps a block's
    unfinished outputs until the flagged pairs are taken; then tmp is the
    spare words of the packing."""

    def __init__(self, n, link, buffer, awgn_link, rows=1):
        self.raw, self.tmp = np.empty((2, n), dtype=np.uint64)
        self.flags = np.empty(n, dtype=bool)  # BSC candidates; AWGN finite r, then far parts
        self.source = np.empty((rows, -(-(link + buffer.size) // 8) * 8), dtype=np.uint8)
        self.source[:, link:link + buffer.size] = buffer
        self.diff = np.zeros((rows, -(-buffer.size // 8)), dtype=np.uint64)
        if awgn_link:
            m = n // 2
            # hi1, then radius; hi2, then angle; I and Q amplitudes. The
            # first two become distances
            self.f32 = self.tmp.view(np.float32)[:4 * m].reshape(4, m)
            self.inside = np.empty(m, dtype=bool)
            self.levels = np.empty((2, m), dtype=np.uint8)


@dataclass(frozen=True)
class LinkPlan:
    """What sending a fixed set of back-to-back payloads over one kind of
    link takes that does not depend on the seeds or the noise levels; built
    by ``plan_link``, used by ``send``, which writes every received row in
    one gather by recv_from, one index per buffer octet. Each send works in
    the plan's scratch, so a plan is not meant for concurrent sends."""
    channel_kind: str
    header_protection: str
    buffer: np.ndarray     # the sent payloads, back to back
    frames: int            # how many
    recv_from: np.ndarray  # where each buffer octet is read from in a row of scratch.source, intp
    sent: np.ndarray       # BSC: the octets that meet the channel
    blocks: tuple
    scratch: _Scratch
    indices: np.ndarray    # AWGN: (2, symbols) I and Q level indices (level 2i - 7), uint8


def plan_link(buffer, lengths, channel_kind, header_protection, rows=1):
    """Lay out back-to-back payloads of the given lengths for ``send``s of
    up to ``rows`` receptions of them each.

    On AWGN every frame's body octets are padded with zeros to whole groups
    of 3, which are 4 symbols: the zero bits that close the frame's last
    symbol, as ``qam64_map`` pads a lone frame, are among them, and
    decisions on the pad land only in octets that are not read.
    """
    buffer = np.asarray(buffer, dtype=np.uint8)
    lengths = np.asarray(lengths, dtype=np.int64)
    guard = HEADER_LEN if header_protection == PROTECTED else 0
    head = np.minimum(lengths, guard)
    octets = lengths - head
    first = np.cumsum(octets) - octets
    awgn_link = channel_kind == AWGN64QAM
    groups = -(-octets // 3)
    # two splitmix64 outputs per symbol, one per bit
    counts = 8 * groups if awgn_link else 8 * octets
    symbols = np.concatenate([[0], np.cumsum(4 * groups)])  # where frames' symbols start
    size = int(symbols[-1]) if awgn_link else int(octets.sum())
    recv_from, sent, indices = _read_from(buffer, lengths, head, size, awgn_link)
    runs = []
    ends = np.cumsum(counts)
    a = 0
    while a < lengths.size:
        # the longest run of frames within the block budget, at least one
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - counts[a] + _BLOCK_DRAWS,
                                          side="right")))
        runs.append((a, b, int(counts[a:b].sum())))
        a = b
    scratch = _Scratch(max((n for _, _, n in runs), default=0), size, buffer, awgn_link,
                       rows)
    steps = rng.golden_steps(int(counts.max(initial=0)))
    blocks = tuple(_Block(slice(a, b), slice(int(first[a]), int(first[b - 1] + octets[b - 1])),
                          counts[a:b], slice(int(symbols[a]), int(symbols[b])), n,
                          rng.stream_slices(counts[a:b], steps, scratch.raw))
                   for a, b, n in runs)
    return LinkPlan(channel_kind, header_protection, buffer, int(lengths.size), recv_from,
                    sent, blocks, scratch, indices)


def _read_from(buffer, lengths, head, size, awgn_link):
    """A plan's recv_from, for ``size`` link octets ahead of the copy of the
    buffer in the source, and its sent body octets (BSC) or the level
    indices of its symbols (AWGN). The octet-sized temporaries are freed on
    return, before plan_link makes the scratch."""
    octets = lengths - head
    # a frame's body octets take their places among the link's body octets,
    # on AWGN each frame's padded to whole groups of 3
    room = 3 * -(-octets // 3) if awgn_link else octets
    # the buffer in segments, each frame's header and then its body: the
    # header reads from the copy of the buffer, a body octet from its place
    segments = np.stack([head, octets], axis=1).ravel()
    offsets = np.stack([np.full(lengths.size, size),
                        np.cumsum(room) - room - (np.cumsum(lengths) - lengths) - head], axis=1)
    recv_from = np.repeat(offsets.ravel(), segments).astype(np.intp, copy=False)
    recv_from += np.arange(buffer.size)
    body = np.repeat(np.tile([False, True], lengths.size), segments)
    sent, indices = buffer[body], None
    if awgn_link:
        place = recv_from[body]
        # octet k of group g, at place 3 g + k, is byte 2 - k of the group's
        # packed word: link octet 4 g + 2 - k = 7 g + 2 - place
        link = 7 * (place // 3) + 2 - place
        recv_from[body] = link
        words = np.zeros(room.sum() // 3, dtype=_WORD)
        words.view(np.uint8)[link] = sent
        sent, indices = None, _indices_from_words(words)
    return recv_from, sent, indices


# a group's 4 codes, and then its 3 octets, as one little-endian word
_WORD = np.dtype("<u4")


def _indices_from_words(words):
    """The (2, 4 words.size) I and Q level indices of the symbols of _WORD
    words that each hold a group's 3 octets in bytes 2, 1 and 0 and a clear
    byte 3, as _octets_from_codes packs them. A word's 8 3-bit fields, from
    the top, are the I and Q Gray codes of its 4 symbols: they are decoded
    where they lie, the inverse of _octets_from_codes' shifts and masks
    moves symbol k's 8 I + Q to byte k, and every byte lane is split into I
    and Q at once."""
    codes = _level_index(words)
    pair = np.bitwise_and(codes, 0xFFF)  # symbols 2 and 3
    pair <<= 16
    codes >>= 12
    codes |= pair  # symbols 0 and 1 in the low half, 2 and 3 in the high
    np.bitwise_and(codes, 0x003F003F, out=pair)  # symbols 1 and 3
    pair <<= 8
    codes >>= 6
    codes &= 0x003F003F  # symbols 0 and 2
    codes |= pair
    indices = np.empty((2, 4 * words.size), dtype=np.uint8)
    i, q = indices.view(_WORD)
    np.right_shift(codes, 3, out=i)
    i &= 0x07070707
    np.bitwise_and(codes, 0x07070707, out=q)
    return indices


def _octets_from_codes(words, spare):
    """Groups of 3 octets from their 4 6-bit codes, in place on _WORD words
    that each hold a group's codes c0..c3 in bytes 0..3: a word becomes
    c0 << 18 | c1 << 12 | c2 << 6 | c3, whose bytes 2, 1 and 0 are the
    group's octets. spare is a flat _WORD array of at least words.size,
    which it overwrites."""
    pair = np.bitwise_and(words, 0x003F003F,  # c0 and c2
                          out=spare[:words.size].reshape(words.shape))
    pair <<= 6
    words >>= 8
    words &= 0x003F003F  # c1 and c3
    words |= pair        # c0 << 6 | c1 in the low half, c2 << 6 | c3 in the high
    np.bitwise_and(words, 0xFFF, out=pair)
    pair <<= 12
    words >>= 16
    words |= pair
    return words


def _flip_threshold(p):
    """The raw splitmix64 outputs below which a BSC flips a bit: uniforms'
    (raw >> 11)·2^-53 < p holds exactly when raw < ceil(p·2^53)·2^11."""
    return np.uint64(math.ceil(p * 2.0 ** 53) << 11)


def _flips(z, threshold, flags):
    """A block's BSC flips, packed 8 to an octet, from its splitmix64 outputs
    z but for their last step: where the finished output is below threshold
    (at most 2^63, from _flip_threshold). The last step keeps an output's
    top 31 bits, so one whose top 31 bits exceed threshold's cannot flip;
    the octets of the candidates, marked in flags, are finished and decided
    again."""
    bound = np.uint64(((int(threshold) >> 33) + 1) << 33)
    packed = np.packbits(np.less(z, bound, out=flags[:z.size]))
    at = np.flatnonzero(packed != 0)
    near = z.reshape(-1, 8)[at]
    packed[at] = np.packbits(rng._finish(near, np.empty_like(near)) < threshold)
    return packed


def _premixed(seeds, blk, s):
    """The block's splitmix64 outputs for its frames' seeds, but for their
    last step (rng._finish), in s.raw."""
    for seed, (terms, counters) in zip(seeds, blk.counters):
        np.add(terms, seed, out=counters)
    return rng._premix(s.raw[:blk.draws], s.tmp[:blk.draws])


def send(plan, seeds, links, out):
    """Receive the plan's payloads once a row, into the rows of out, a
    (rows, buffer octets) uint8 array: row j on links[j], payload i with
    seed seeds[j, i] in [0, 2^64). The links' seeds are not used, and
    their channel kind and header protection must be the plan's;
    ``transmit`` is a one-frame, one-row send.

    Returns each row's bit error count. On AWGN every body bit is decided
    as ``qam64_demap(awgn(qam64_map(bits), snr_db, seed))`` decides it; on
    the BSC it flips where ``rng.uniforms(seed, bits) < p``. A noiseless
    row (SNR +inf, or p = 0) draws nothing.
    """
    if any((cfg.channel_kind, cfg.header_protection)
           != (plan.channel_kind, plan.header_protection) for cfg in links):
        raise ValueError("a link differs from the one the plan was made for")
    seeds = np.asarray(seeds, dtype=np.uint64)
    rows, s = len(links), plan.scratch
    if seeds.shape != (rows, plan.frames) or rows > len(s.source):
        raise ValueError(f"seeds of shape {seeds.shape} for {rows} links, and a plan of "
                         f"{plan.frames} frames and at most {len(s.source)} rows")
    if out.shape != (rows, plan.buffer.size) or out.dtype != np.uint8:
        raise ValueError(f"out of shape {out.shape} and {out.dtype} for {rows} rows of "
                         f"{plan.buffer.size} octets")
    noisy = np.array([(cfg.bsc_flip_prob != 0.0 if cfg.channel_kind == BSC
                       else not _noiseless(cfg.snr_db)) for cfg in links], dtype=bool)
    if not noisy.any():  # nothing to draw, pack or gather
        out[:] = plan.buffer
        return np.zeros(rows, dtype=np.int64)
    if plan.channel_kind == AWGN64QAM:
        _awgn_octets(plan, seeds, [_sigma(cfg.snr_db) for cfg in links], noisy)
    else:
        for j in np.flatnonzero(noisy):
            threshold = _flip_threshold(links[j].bsc_flip_prob)
            for blk in plan.blocks:
                z = _premixed(seeds[j, blk.frames], blk, s)
                np.bitwise_xor(_flips(z, threshold, s.flags), plan.sent[blk.octets],
                               out=s.source[j, blk.octets])
    np.take(s.source[:rows], plan.recv_from, axis=1, out=out, mode="clip")  # "raise" buffers out
    out[~noisy] = plan.buffer
    # the bit differences in whole 64-bit words, which count far faster than octets
    diff = s.diff[:rows]
    np.bitwise_xor(out, plan.buffer, out=diff.view(np.uint8)[:, :out.shape[1]])
    return np.bitwise_count(diff).sum(axis=1, dtype=np.int64)


# The float32 filter reads the high 32-bit words hi1 and hi2 of a symbol's
# two outputs (word _HI in a uint32 view), which it finishes itself. For
# hi1 in [_EDGE, 2^32 - _EDGE) its radius and its cos and sin are within
# 2^-15 and 2^-20 of polar's in float64 (the tests pin both; it flags every
# other symbol); the bound allows 16 times each, and 4 times its own
# rounding (README derives it)
_HI = 1 if np.little_endian else 0
_EDGE = 1 << 12
_RADIUS32_ERROR = 2.0 ** -11
_TRIG32_ERROR = 2.0 ** -16
_ROUNDING = 2.0 ** -18


def _filter_bound(sigma):
    """The most a received level-unit amplitude from the float32 filter
    can be off from the float64 one, at per-axis noise deviation sigma."""
    return sigma / _SCALE * (rng.R_MAX * _TRIG32_ERROR + _RADIUS32_ERROR) + _ROUNDING


def _high_words(z, hi, t):
    """The high 32-bit words hi1 and hi2 of (u1, u2) pairs from their
    splitmix64 outputs z but for the last step, into the rows of hi, a
    (2, z.size // 2) uint32 array: copied in one pass, then finished, as
    the last step z ^= z >> 31 acts on a high word: hi ^= hi >> 31. t is a
    uint32 array of hi's shape that it overwrites."""
    np.copyto(hi, z.view(np.uint32).reshape(-1, 4)[:, _HI::2].T)
    hi ^= np.right_shift(hi, 31, out=t)
    return hi


def _polar32(hi, r, theta):
    """The float32 Box-Muller radius sqrt(-2 ln((hi1 + 1/2)·2^-32)) and angle
    hi2·2 pi·2^-32, hi2 read as signed, of the high words hi = (hi1, hi2)
    of (u1, u2) pairs, into r and theta, which may be hi's own rows."""
    np.copyto(r, hi[0], casting="unsafe")
    r += 0.5
    r *= 2.0 ** -32
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    np.copyto(theta, hi[1].view(np.int32), casting="unsafe")
    theta *= np.float32(2.0 * math.pi * 2.0 ** -32)
    return r, theta


def _decide32(y, half_bound, s):
    """The level indices of (2, m) float32 amplitudes y = (level-unit
    amplitude + 8) / 2 (midpoints on 1..7, level index i on (i, i + 1)) by
    one floor, and where y lies farther than half_bound from every midpoint
    (NaN does not): there the floor decides as _decide_axis does on the
    float64 amplitude. In scratch s, overwriting y."""
    m = y.shape[1]
    d, far, levels = s.f32[:2, :m], s.flags[:2 * m].reshape(2, m), s.levels[:, :m]
    np.rint(y, out=d)
    np.clip(d, 1.0, 7.0, out=d)
    d -= y
    np.abs(d, out=d)
    np.greater(d, half_bound, out=far)
    np.clip(y, 0.0, 7.5, out=y)
    np.copyto(levels, y, casting="unsafe")  # truncation, which is the floor here
    return levels, far


def _filter(z, indices, sigma, s, codes):
    """The 6-bit codes of a block's symbols, a whole number of 4-symbol
    groups, from their splitmix64 outputs z but for the last step
    (rng._finish) and their sent level indices, decided in float32 into
    codes; returns the symbols it flags: with hi1 within _EDGE of 0 or
    2^32, an infinite amplitude, or a part within half the bound of a
    midpoint."""
    m = z.size // 2
    f = s.f32[:, :m]
    hi = _high_words(z, f[:2].view(np.uint32), f[2:].view(np.uint32))
    # hi1 + _EDGE wraps the values within _EDGE of 2^32 below 2 _EDGE
    edged = np.add(hi[0], _EDGE, out=f[2].view(np.uint32))
    inside = np.greater_equal(edged, 2 * _EDGE, out=s.inside[:m])
    r, theta = _polar32(hi, f[0], f[1])
    y = f[2:]
    np.cos(theta, out=y[0])
    np.sin(theta, out=y[1])
    r *= np.float32(sigma / (2.0 * _SCALE))
    # flag an r that overflows (past about -749 dB): y would keep only the trig's sign
    inside &= np.less(r, np.inf, out=s.flags[:m])
    y *= r
    y += indices
    y += 0.5
    levels, far = _decide32(y, _filter_bound(sigma) / 2.0, s)
    far[0] &= far[1]
    far[0] &= inside
    _codes_from_levels(levels.view(np.uint32), codes.view(np.uint32))
    return np.flatnonzero(np.logical_not(far[0], out=far[0]))


def _refine(pairs, at, indices, sigma, codes):
    """Redo symbols ``at``, numbered across the rows of codes, from their
    splitmix64 output pairs, the sent level indices of a row's symbols and
    sigma (one, or one a symbol), as qam64_demap decides them after awgn."""
    at = np.unravel_index(at, codes.shape)
    r, theta = rng.polar(pairs.reshape(-1), np.empty(len(pairs)), np.empty(len(pairs)))
    sent = _SYMBOL_BY_CODE[_codes_from_levels(indices[:, at[-1]],
                                              np.empty(len(pairs), np.uint8))]
    codes[at] = _decide(_noisy(sent, sigma, r * np.cos(theta), r * np.sin(theta)))


def _awgn_octets(plan, seeds, sigmas, noisy):
    """The plan's body octets as qam64_demap decides them after awgn, row j
    at per-axis noise deviation sigmas[j], into the scratch's rows, packed 3
    to a word: each noisy row's blocks through the float32 filter, then the
    symbols it flags in every row in one float64 pass, then one packing."""
    s = plan.scratch
    codes = s.source[:len(seeds), :plan.indices.shape[1]]
    pairs, flagged, deviations = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for j in np.flatnonzero(noisy):
            for blk in plan.blocks:
                z = _premixed(seeds[j, blk.frames], blk, s)
                at = _filter(z, plan.indices[:, blk.symbols], sigmas[j], s,
                             codes[j, blk.symbols])
                if at.size:
                    pairs.append(z.reshape(-1, 2)[at])
                    flagged.append(at + (j * codes.shape[1] + blk.symbols.start))
                    deviations.append(np.full(at.size, sigmas[j]))
    if flagged:
        pairs = np.concatenate(pairs)
        _refine(rng._finish(pairs, np.empty_like(pairs)), np.concatenate(flagged),
                plan.indices, np.concatenate(deviations), codes)
    words, spare = codes.view(_WORD), s.tmp.view(_WORD)
    # spare holds a block's words 16 times over: a piece is as many whole
    # rows as it holds, or a part of a row longer than it
    wide = max(min(spare.size, words.shape[1]), 1)
    tall = max(spare.size // wide, 1)
    for lo in range(0, words.shape[0], tall):
        for at in range(0, words.shape[1], wide):
            _octets_from_codes(words[lo:lo + tall, at:at + wide], spare)


def frames_required(payload_len_octets):
    """OFDM frames needed for a payload on a fully loaded uncoded grid; an
    int for one payload length, and an array for an array of them."""
    octets = np.asarray(payload_len_octets)
    if (octets <= 0).any():
        raise ValueError("payload length must be positive")
    frames = -(-8 * octets // OFDM_FRAME_BITS)
    return frames if frames.ndim else int(frames)
