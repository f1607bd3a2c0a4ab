"""The link frame by frame in float64: the oracle ``channel.send`` (and so
``transmit``) is tested against.

It is built only from the channel's public primitives: the body bits go
through ``qam64_map``, ``awgn`` and ``qam64_demap`` on AWGN, and flip where
``rng.uniforms`` is below the flip probability on the BSC. A protected
header's octets bypass the channel.
"""

import numpy as np

from gbsed import rng
from gbsed.channel import BSC, PROTECTED, awgn, qam64_demap, qam64_map
from gbsed.codec import HEADER_LEN


def _channel_bits(bits, cfg):
    if bits.size == 0:
        return bits.copy()
    if cfg.channel_kind == BSC:
        if cfg.bsc_flip_prob == 0.0:
            return bits.copy()
        flips = rng.uniforms(cfg.seed, bits.size) < cfg.bsc_flip_prob
        return bits ^ flips.astype(np.uint8)
    symbols, pad = qam64_map(bits)
    return qam64_demap(awgn(symbols, cfg.snr_db, cfg.seed), pad)


def reference_transmit(payload, cfg):
    """(received_payload, bit_error_count) of payload sent with cfg."""
    bits = np.unpackbits(np.frombuffer(bytes(payload), dtype=np.uint8))
    guard = min(HEADER_LEN * 8, bits.size) if cfg.header_protection == PROTECTED else 0
    received = np.concatenate([bits[:guard], _channel_bits(bits[guard:], cfg)])
    return np.packbits(received).tobytes(), int(np.count_nonzero(received != bits))
