"""Noisy-link simulation: Gray-coded 64-QAM over AWGN, plus a binary
symmetric channel, and OFDM frame-capacity accounting.

The noiseless sentinel is ``snr_db = math.inf``. All randomness derives
from the 64-bit seed in LinkConfig via the splitmix64 stream.
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

# transmit_frames sends whole frames in blocks of at most this many body
# bits (a larger frame is a block of its own), which bounds its memory
_BLOCK_BITS = 1 << 16

# per-axis Gray map: 3-bit code -> amplitude level
# 000 -> -7, 001 -> -5, 011 -> -3, 010 -> -1, 110 -> +1, 111 -> +3, 101 -> +5, 100 -> +7
_LEVEL_BY_CODE = np.array([-7, -5, -1, -3, 7, 5, 1, 3], dtype=np.float64)
# level index i (level = 2i-7) -> 3-bit code
_CODE_BY_LEVEL_INDEX = np.array([0, 1, 3, 2, 6, 7, 5, 4], dtype=np.int64)
_SCALE = 1.0 / math.sqrt(42.0)  # unit average symbol energy

_SIX = np.arange(64)
# 6-bit code (I code, then Q code) -> symbol, and its bits -> code
_SYMBOL_BY_CODE = (_LEVEL_BY_CODE[_SIX >> 3] + 1j * _LEVEL_BY_CODE[_SIX & 7]) * _SCALE
_BIT_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
# 8 * I level index + Q level index -> 6-bit code
_CODE_BY_LEVELS = (_CODE_BY_LEVEL_INDEX[_SIX >> 3] << 3
                   | _CODE_BY_LEVEL_INDEX[_SIX & 7]).astype(np.uint8)


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


@dataclass(frozen=True)
class FrameGrid:
    subcarriers: int = 132
    symbols_per_frame: int = 14
    bits_per_symbol: int = 6
    streams: int = 1

    @property
    def bits_per_frame(self):
        return self.subcarriers * self.symbols_per_frame * self.bits_per_symbol * self.streams


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


def _add_noise(symbols, snr_db, z):
    """symbols plus noise at snr_db from z, two unit normals per symbol."""
    n0 = 10.0 ** (-snr_db / 10.0)
    sigma = math.sqrt(n0 / 2.0)
    return symbols + sigma * (z[0::2] + 1j * z[1::2])


def awgn(symbols, snr_db, seed):
    """Add circularly-symmetric complex Gaussian noise at the given SNR."""
    if _noiseless(snr_db):
        return np.array(symbols, copy=True)
    return _add_noise(symbols, snr_db, rng.normals(seed, 2 * len(symbols)))


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


def _channel_bits(bits, cfg):
    if bits.size == 0:
        return bits.copy()
    if cfg.channel_kind == BSC:
        if cfg.bsc_flip_prob == 0.0:
            return bits.copy()
        flips = rng.uniforms(cfg.seed, bits.size) < cfg.bsc_flip_prob
        return bits ^ flips.astype(np.uint8)
    symbols, pad = qam64_map(bits)
    noisy = awgn(symbols, cfg.snr_db, cfg.seed)
    return qam64_demap(noisy, pad)


def transmit(payload, cfg):
    """Send payload octets through the configured channel.

    Returns (received_payload, bit_error_count). With protected headers the
    first 21 octets bypass the channel entirely.
    """
    data = np.frombuffer(bytes(payload), dtype=np.uint8)
    bits = np.unpackbits(data)
    guard = 0
    if cfg.header_protection == PROTECTED:
        guard = min(HEADER_LEN * 8, bits.size)
    body = _channel_bits(bits[guard:], cfg)
    received_bits = np.concatenate([bits[:guard], body])
    errors = int(np.count_nonzero(received_bits != bits))
    return np.packbits(received_bits).tobytes(), errors


def transmit_frames(buffer, lengths, seeds, cfg):
    """Send back-to-back payloads through the link, payload i with seed
    seeds[i]; cfg.seed is not used.

    Returns (received_buffer, bit_error_count), the same octets and total
    as ``transmit(payload_i, replace(cfg, seed=seeds[i]))`` for every i,
    but one batch of numpy calls per block of whole payloads.
    """
    buffer = np.asarray(buffer, dtype=np.uint8)
    lengths = np.asarray(lengths, dtype=np.int64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    starts = np.cumsum(lengths) - lengths
    guard = HEADER_LEN if cfg.header_protection == PROTECTED else 0
    body = np.ones(buffer.size, dtype=bool)
    head = np.arange(guard)
    body[(starts[:, None] + head)[head < lengths[:, None]]] = False
    body_bits = 8 * (lengths - np.minimum(lengths, guard))
    received = buffer.copy()
    errors = 0
    ends = np.cumsum(body_bits)
    a = 0
    while a < lengths.size:
        # the longest run of frames within the block budget, at least one
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - body_bits[a] + _BLOCK_BITS,
                                          side="right")))
        lo, hi = starts[a], starts[b - 1] + lengths[b - 1]
        sent = buffer[lo:hi][body[lo:hi]]
        got, block_errors = _channel_block(sent, body_bits[a:b], seeds[a:b], cfg)
        received[lo:hi][body[lo:hi]] = got
        errors += block_errors
        a = b
    return received, errors


def _channel_block(octets, frame_bits, seeds, cfg):
    """Body octets of whole frames through the channel; each frame's bits
    meet the noise that _channel_bits gives them under that frame's seed."""
    if cfg.channel_kind == BSC:
        if cfg.bsc_flip_prob == 0.0:
            return octets.copy(), 0
        flips = rng.uniforms_streams(seeds, frame_bits) < cfg.bsc_flip_prob
        return octets ^ np.packbits(flips), int(np.count_nonzero(flips))
    bits = np.unpackbits(octets)
    # zero bits close each frame's last symbol, as qam64_map pads a lone frame
    pad = -frame_bits % 6
    at = np.repeat(np.cumsum(frame_bits), pad)
    symbols, _ = qam64_map(np.insert(bits, at, 0))
    if not _noiseless(cfg.snr_db):
        z = rng.normals_streams(seeds, (frame_bits + pad) // 3)
        symbols = _add_noise(symbols, cfg.snr_db, z)
    got = np.delete(qam64_demap(symbols), at + np.arange(at.size))
    return np.packbits(got), int(np.count_nonzero(got != bits))


def frames_required(payload_len_octets, grid=FrameGrid()):
    """OFDM frames needed for a payload on a fully loaded uncoded grid."""
    if payload_len_octets <= 0:
        raise ValueError("payload length must be positive")
    return -(-8 * payload_len_octets // grid.bits_per_frame)
