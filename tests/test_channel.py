import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsed import channel, rng, sweep
from gbsed.codec import HEADER_LEN
from gbsed.channel import (
    AWGN64QAM,
    BSC,
    PROTECTED,
    UNPROTECTED,
    OFDM_FRAME_BITS,
    LinkConfig,
    awgn,
    frames_required,
    plan_link,
    qam64_ber_exact,
    qam64_demap,
    qam64_map,
    send,
    transmit,
)
from gbsed.ontology import default_ontology
from gbsed.scenarios import ScenarioSpec, generate
from reference_link import reference_transmit

_SCALE = 1.0 / math.sqrt(42.0)


def _send(plan, seeds, cfg):
    """A one-row send of the plan's payloads with the given seeds: the
    received buffer and its bit error count."""
    out = np.empty((1, plan.buffer.size), dtype=np.uint8)
    errors = send(plan, [seeds], [cfg], out)
    assert errors.shape == (1,)
    return out[0], int(errors[0])


def _all_symbols():
    bits = np.array([[(v >> (5 - k)) & 1 for k in range(6)] for v in range(64)],
                    dtype=np.uint8).reshape(-1)
    symbols, pad = qam64_map(bits)
    assert pad == 0
    return symbols


# -- mapping ------------------------------------------------------------------

def test_corner_symbol():
    symbols, pad = qam64_map([0, 0, 0, 0, 0, 0])
    assert pad == 0
    assert symbols[0] == pytest.approx((-7 - 7j) * _SCALE)


def test_unit_average_energy():
    symbols = _all_symbols()
    assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_constellation_covers_grid():
    symbols = _all_symbols()
    levels = {-7, -5, -3, -1, 1, 3, 5, 7}
    points = {(round(s.real / _SCALE), round(s.imag / _SCALE)) for s in symbols}
    assert points == {(i, q) for i in levels for q in levels}


def test_gray_property_exhaustive():
    # axis-adjacent constellation neighbors differ in exactly one bit
    symbols = _all_symbols()
    by_point = {}
    for v, s in enumerate(symbols):
        by_point[(round(s.real / _SCALE), round(s.imag / _SCALE))] = v
    for (i, q), v in by_point.items():
        for ni, nq in ((i + 2, q), (i, q + 2)):
            if (ni, nq) in by_point:
                diff = v ^ by_point[(ni, nq)]
                assert bin(diff).count("1") == 1, f"({i},{q}) vs ({ni},{nq})"


def test_padding_recorded_and_removed():
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)
    symbols, pad = qam64_map(bits)
    assert pad == 2 and len(symbols) == 1
    np.testing.assert_array_equal(qam64_demap(symbols, pad), bits)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=0, max_size=600))
def test_demap_inverts_map(bit_list):
    bits = np.array(bit_list, dtype=np.uint8)
    symbols, pad = qam64_map(bits)
    np.testing.assert_array_equal(qam64_demap(symbols, pad), bits)


def test_midway_tie_goes_to_lower_magnitude():
    # +6 sits midway between +5 and +7: decide +5; 0 between -1/+1: decide -1
    symbols = np.array([(6 + 0j), (0 - 6j), (-6 + 6j)]) * _SCALE
    bits = qam64_demap(symbols)
    back, _ = qam64_map(bits)
    np.testing.assert_allclose(back, np.array([5 - 1j, -1 - 5j, -5 + 5j]) * _SCALE,
                               atol=1e-12)


# The map and the decision spelled out per axis: the symbol is the scaled
# pair of Gray levels, and the decision rounds q = (u + 7) / 2 to the nearest
# level index, a midway q going to the lower-magnitude level.
_LEVELS = np.array([-7, -5, -1, -3, 7, 5, 1, 3], dtype=np.float64)
_CODES = np.array([0, 1, 3, 2, 6, 7, 5, 4])


def _map_by_axis(bits):
    groups = np.asarray(bits, dtype=np.int64).reshape(-1, 6)
    code_i = groups[:, 0] * 4 + groups[:, 1] * 2 + groups[:, 2]
    code_q = groups[:, 3] * 4 + groups[:, 4] * 2 + groups[:, 5]
    return (_LEVELS[code_i] + 1j * _LEVELS[code_q]) * _SCALE


def _decide_by_rounding(u):
    q = (u + 7.0) / 2.0
    low = np.floor(q)
    lower_magnitude = np.where(low >= 3, low, low + 1)
    idx = np.where(q - low == 0.5, lower_magnitude, np.round(q))
    return np.clip(idx, 0, 7).astype(np.int64)


def _demap_by_axis(symbols):
    u = np.asarray(symbols) / _SCALE
    codes = _CODES[_decide_by_rounding(u.real)] * 8 + _CODES[_decide_by_rounding(u.imag)]
    return ((codes[:, None] >> np.arange(5, -1, -1)) & 1).astype(np.uint8).reshape(-1)


def test_map_matches_per_axis_levels():
    bits = (rng.uniforms(3, 6 * 5000) < 0.5).astype(np.uint8)
    symbols, _ = qam64_map(bits)
    assert symbols.tobytes() == _map_by_axis(bits).tobytes()


def test_demap_matches_rounding_at_ties_and_their_neighbours():
    # the ties and their neighbours in level units, and the scaled ties with
    # their neighbours as floats: at +-6 * _SCALE, dividing by _SCALE and
    # multiplying by its inverse fall on either side of a midpoint
    mids = np.arange(-24, 25) / 2.0
    amps = np.concatenate([mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf),
                           [1e300, -1e300, 5e-324, -0.0]])
    u = np.add.outer(amps, 1j * amps).ravel()
    scaled = mids * _SCALE
    scaled = np.concatenate([scaled, np.nextafter(scaled, np.inf), np.nextafter(scaled, -np.inf)])
    z = rng.normals(4, 200_000) * 4.0
    for symbols in (u * _SCALE, u, np.add.outer(scaled, 1j * scaled).ravel(),
                    (z[0::2] + 1j * z[1::2]) * _SCALE):
        np.testing.assert_array_equal(qam64_demap(symbols), _demap_by_axis(symbols))


def _codes_from_octets(octets):
    """Octets, a whole number of groups of 3, as 6-bit codes, 4 a group."""
    o = octets.reshape(-1, 3)
    codes = np.empty((o.shape[0], 4), dtype=np.uint8)
    codes[:, 0] = o[:, 0] >> 2
    codes[:, 1] = (o[:, 0] & 3) << 4 | o[:, 1] >> 4
    codes[:, 2] = (o[:, 1] & 15) << 2 | o[:, 2] >> 6
    codes[:, 3] = o[:, 2] & 63
    return codes.reshape(-1)


def _packed(codes):
    """Codes, 4 a group, through the word packer: the octets of each packed
    word's bytes 2, 1 and 0, in order, and every word's byte 3."""
    words = np.array(codes, dtype=np.uint8).view(channel._WORD)
    channel._octets_from_codes(words, np.empty_like(words))
    octets = words.view(np.uint8).reshape(-1, 4)
    return octets[:, 2::-1].reshape(-1), octets[:, 3]


def test_word_packing_inverts_the_octet_split():
    # every 6-bit value in every lane of a word, and all 4,096 value pairs
    # of each pair of neighbouring lanes, the other lanes all 0s or all 1s:
    # the packed octets split back into the codes, and byte 3 stays clear;
    # a plan's level indices of the packed words are the codes' I and Q halves'
    six = np.arange(64, dtype=np.uint8)
    groups = []
    for fill in (0, 63):
        for lane in range(4):
            g = np.full((64, 4), fill, dtype=np.uint8)
            g[:, lane] = six
            groups.append(g)
        for lane in range(3):
            g = np.full((64 * 64, 4), fill, dtype=np.uint8)
            g[:, lane], g[:, lane + 1] = np.repeat(six, 64), np.tile(six, 64)
            groups.append(g)
    codes = np.concatenate(groups).reshape(-1)
    octets, top = _packed(codes)
    np.testing.assert_array_equal(_codes_from_octets(octets), codes)
    assert not top.any()
    words = np.stack([octets[2::3], octets[1::3], octets[0::3], top], axis=1)
    indices = channel._indices_from_words(words.reshape(-1).view(channel._WORD))
    np.testing.assert_array_equal(indices, (_LEVELS[np.stack([codes >> 3, codes & 7])] + 7) / 2)


def test_codes_from_levels_on_words_matches_bytes():
    # all 64 (I, Q) level index pairs in each of the 4 byte lanes of uint32
    # views, the other lanes all 0s or all 7s, against the uint8 path
    pairs = np.stack([np.repeat(np.arange(8), 8), np.tile(np.arange(8), 8)]).astype(np.uint8)
    for fill in (0, 7):
        for lane in range(4):
            levels = np.full((2, 64, 4), fill, dtype=np.uint8)
            levels[:, :, lane] = pairs
            levels = levels.reshape(2, -1)
            expect = channel._codes_from_levels(levels.copy(), np.empty(levels.shape[1], np.uint8))
            codes = np.empty(levels.shape[1], dtype=np.uint8)
            channel._codes_from_levels(levels.view(np.uint32), codes.view(np.uint32))
            np.testing.assert_array_equal(codes, expect)
            np.testing.assert_array_equal(codes.reshape(64, 4)[:, lane],
                                          channel._CODE_BY_LEVELS[8 * pairs[0] + pairs[1]])


def test_gray_tables_match_the_literal_map():
    # the code-to-level and level-to-code tables, and a plan's level
    # indices, come from the Gray formulas; the literal map above pins them
    assert channel._LEVEL_BY_CODE.dtype == np.float64
    np.testing.assert_array_equal(channel._LEVEL_BY_CODE, _LEVELS)
    assert channel._CODE_BY_LEVELS.dtype == np.uint8
    np.testing.assert_array_equal(channel._CODE_BY_LEVELS,
                                  (8 * _CODES[:, None] + _CODES).reshape(-1))
    codes = np.arange(64, dtype=np.uint8)
    octets, _ = _packed(codes)
    plan = plan_link(octets, [octets.size], AWGN64QAM, UNPROTECTED)
    np.testing.assert_array_equal(_CODES[plan.indices], np.stack([codes >> 3, codes & 7]))


def test_planned_levels_scale_to_the_symbol_table_bit_for_bit():
    # the float64 pass takes the sent symbols from qam64_map's
    # _SYMBOL_BY_CODE through the codes of a plan's level indices: they
    # must be the sent codes, here every 6-bit code in order, and their
    # symbols the scaled levels 2i - 7 to the last bit
    octets, _ = _packed(np.arange(64, dtype=np.uint8))
    plan = plan_link(octets, [octets.size], AWGN64QAM, UNPROTECTED)
    assert plan.indices.dtype == np.uint8 and plan.indices.shape == (2, 64)
    codes = channel._codes_from_levels(plan.indices.copy(), np.empty(64, dtype=np.uint8))
    np.testing.assert_array_equal(codes, np.arange(64))
    parts = (plan.indices.T * 2.0 - 7.0) * _SCALE
    assert channel._SYMBOL_BY_CODE[codes].view(np.float64).tobytes() == parts.tobytes()


# -- AWGN ---------------------------------------------------------------------

def test_awgn_noiseless_sentinel():
    symbols = _all_symbols()
    np.testing.assert_array_equal(awgn(symbols, math.inf, 0), symbols)


def test_awgn_deterministic():
    symbols = _all_symbols()
    np.testing.assert_array_equal(awgn(symbols, 10.0, 7), awgn(symbols, 10.0, 7))
    assert not np.array_equal(awgn(symbols, 10.0, 7), awgn(symbols, 10.0, 8))


def test_awgn_noise_variance_at_10db():
    n = 1_000_000
    symbols = np.zeros(n, dtype=complex)
    noise = awgn(symbols, 10.0, 123)
    var = np.mean(np.abs(noise) ** 2)
    assert var == pytest.approx(0.1, rel=0.01)  # N0 = 10^-1


def test_awgn_ber_monotone_in_snr():
    bits = (rng.uniforms(77, 600_000) < 0.5).astype(np.uint8)
    symbols, pad = qam64_map(bits)
    rates = []
    for snr in range(0, 21, 2):
        out = qam64_demap(awgn(symbols, float(snr), 1000 + snr), pad)
        rates.append(np.count_nonzero(out != bits) / bits.size)
    assert all(a >= b for a, b in zip(rates, rates[1:]))


# -- float32 filter and float64 pass -----------------------------------------

def _codes_of_bits(bits):
    """qam64_demap's bits as 6-bit codes, I's code then Q's."""
    return (bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1))).astype(np.uint8)


def _pairs(u1, u2):
    """(u1, u2) splitmix64 output pairs, flat, as send draws them."""
    u1, u2 = np.broadcast_arrays(np.asarray(u1, dtype=np.uint64),
                                 np.asarray(u2, dtype=np.uint64))
    return np.stack([u1, u2], axis=1).reshape(-1)


def _unfinished(raw):
    """The words z that splitmix64's last step, z ^ z >> 31, takes to the
    outputs raw: its inverse, raw ^ raw >> 31 ^ raw >> 62. send decides on
    such words, as rng._premix leaves them."""
    raw = np.asarray(raw, dtype=np.uint64)
    return raw ^ raw >> np.uint64(31) ^ raw >> np.uint64(62)


def _polar32(raw):
    m = raw.size // 2
    hi = channel._high_words(_unfinished(raw), np.empty((2, m), dtype=np.uint32),
                             np.empty((2, m), dtype=np.uint32))
    return channel._polar32(hi, np.empty(m, dtype=np.float32), np.empty(m, dtype=np.float32))


def _polar64(raw):
    m = raw.size // 2
    return rng.polar(raw.copy(), np.empty(m), np.empty(m))


def _scratch(n):
    """An AWGN scratch for blocks of up to n outputs."""
    return channel._Scratch(n, 0, np.empty(0, dtype=np.uint8), True)


def _filter(raw, indices, snr_db):
    """The float32 filter's codes and flagged symbols for output pairs raw
    whose sent levels have the given (2, m) level indices: the filter is
    handed the words that finish to them. A block is whole groups of 4
    symbols: the pairs are padded to one, and the padding dropped."""
    m = raw.size // 2
    pad = -m % 4
    raw = np.concatenate([_unfinished(raw), np.zeros(2 * pad, dtype=np.uint64)])
    indices = np.concatenate([np.asarray(indices, dtype=np.uint8),
                              np.zeros((2, pad), dtype=np.uint8)], axis=1)
    codes = np.empty(m + pad, dtype=np.uint8)
    at = channel._filter(raw, indices, channel._sigma(snr_db), _scratch(raw.size), codes)
    return codes[:m], at[at < m]


def test_float32_trig_within_sixteenth_of_the_bound():
    # the filter decides from cos and sin of its float32 angle of u2's high
    # word; its bound assumes they are within channel._TRIG32_ERROR of the
    # float64 ones of polar's angle, and 2^-20 pins a 16-fold margin, so
    # worse float32 trig fails here before it changes bytes. The angles:
    # 2^20 uniform ones, the multiples of pi/4 (u2 = k 2^61) with their
    # neighbours in u2's high and low words, and those next to 0 and 2 pi
    assert 2.0 ** -20 * 16 == channel._TRIG32_ERROR
    near = np.add.outer(np.arange(9, dtype=np.uint64) << np.uint64(61),
                        np.concatenate([np.arange(-64, 65), np.arange(-64, 65) << 32,
                                        [(1 << 32) - 1, -(1 << 32) - 1]]).astype(np.uint64))
    u2 = np.concatenate([rng.splitmix64_stream(17, 1 << 20), near.ravel()])
    raw = _pairs(1 << 63, u2)
    _, theta = _polar64(raw)
    _, t32 = _polar32(raw)
    for f in (np.cos, np.sin):
        assert f(t32).dtype == np.float32
        assert np.max(np.abs(f(t32).astype(np.float64) - f(theta))) <= 2.0 ** -20


def test_float32_radius_within_sixteenth_of_the_bound():
    # the filter's radius from u1's high word hi1 lies within
    # channel._RADIUS32_ERROR / 16 of polar's for every hi1 in [2^12,
    # 2^32 - 2^12): sampled draws, the first hi1 values and the last, with
    # the low words that put u1 at either end of its high word's range.
    # Beyond the last, u1 near 1, float32 rounds u1 to 2^-24 and the error
    # outgrows the bound: the filter flags those symbols
    assert 2.0 ** -15 * 16 == channel._RADIUS32_ERROR and channel._EDGE == 1 << 12
    edge, top = channel._EDGE, (1 << 32) - channel._EDGE
    sampled = rng.splitmix64_stream(19, 1 << 20)
    hi = sampled >> np.uint64(32)
    sampled = sampled[(hi >= edge) & (hi < top)]
    first = np.arange(edge, edge + 65, dtype=np.uint64)
    last = np.arange(top - 4096, top, dtype=np.uint64)
    crafted = np.add.outer(np.concatenate([first, last]) << np.uint64(32),
                           np.array([0, 12345, (1 << 32) - 1], dtype=np.uint64))
    raw = _pairs(np.concatenate([sampled, crafted.ravel()]), 0)
    r, _ = _polar64(raw)
    r32, _ = _polar32(raw)
    assert r32.dtype == np.float32
    assert np.max(np.abs(r32.astype(np.float64) - r)) <= 2.0 ** -15
    beyond = _pairs(np.arange(top, 1 << 32, dtype=np.uint64) << np.uint64(32), 0)
    assert np.max(np.abs(_polar32(beyond)[0].astype(np.float64) - _polar64(beyond)[0])) \
        > 2.0 ** -15


def test_polar_radius_at_most_r_max():
    # the smallest u1, 2^-53, gives the largest radius
    r, _ = rng.polar(np.array([0, 0, (1 << 64) - 1, 0], dtype=np.uint64),
                     np.empty(2), np.empty(2))
    assert r[0] <= rng.R_MAX and r[0] == pytest.approx(rng.R_MAX, rel=1e-15)
    assert r[1] == 0.0


@pytest.mark.parametrize("snr_db", [0.0, 20.0, 60.0])
def test_filter_flags_symbols_with_u1_within_2_to_minus_20_of_0_or_1(snr_db):
    # hi1 below 2^12 or from 2^32 - 2^12 up: flagged whatever the angle
    edge = channel._EDGE
    hi1 = np.concatenate([np.arange(edge), np.arange((1 << 32) - edge, 1 << 32)])
    u1 = (hi1.astype(np.uint64) << np.uint64(32)) | rng.splitmix64_stream(3, hi1.size) \
        >> np.uint64(32)
    raw = _pairs(u1, rng.splitmix64_stream(4, hi1.size))
    indices = np.full((2, hi1.size), 3, dtype=np.uint8)
    _, at = _filter(raw, indices, snr_db)
    np.testing.assert_array_equal(at, np.arange(hi1.size))
    # and a step inside the edges, at 60 dB nothing is near a midpoint
    inside = np.array([edge, (1 << 32) - edge - 1], dtype=np.uint64) << np.uint64(32)
    _, at = _filter(_pairs(inside, 1 << 61), np.full((2, 2), 3, dtype=np.uint8), 60.0)
    assert at.size == 0


def _decide32(y, bound):
    """The filter's level indices of float32 amplitudes y (midpoints on
    1..7) and which of them it flags, at level-unit bound."""
    y = np.asarray(y, dtype=np.float32)
    s = _scratch(2 * y.size)
    with np.errstate(invalid="ignore"):  # NaN's level is garbage, and redone
        levels, far = channel._decide32(np.stack([y, y]), bound / 2.0, s)
    return levels[0].copy(), ~far[0]


def _within(points, offset):
    """The float32 values nearest points + offset that lie no farther from
    the points than |offset|."""
    v = np.float32(points + offset)
    return np.where(np.abs(v.astype(np.float64) - points) > abs(offset),
                    np.nextafter(v, points), v)


@pytest.mark.parametrize("snr_db", [-40.0, 0.0, 0.5, 20.0, 60.0, 1e308])
def test_near_midpoint_flags_every_midpoint_and_its_neighbours(snr_db):
    bound = channel._filter_bound(channel._sigma(snr_db))
    half = bound / 2.0
    mids = np.arange(1.0, 8.0, dtype=np.float32)
    values = [mids, _within(mids, 0.99 * half), _within(mids, -0.99 * half), [np.nan]]
    up, down = mids, mids
    for _ in range(4):
        up, down = np.nextafter(up, np.float32(np.inf)), np.nextafter(down, np.float32(-np.inf))
        values += [up, down]
    assert _decide32(np.concatenate(values), bound)[1].all()
    # from 1.01 bound/2 off each midpoint out to half a level unit off it,
    # beyond the outer levels and at the infinities, the floor decides as
    # _decide_axis does on the level-unit amplitude 2 y - 8
    offsets = np.geomspace(1.01 * half, 0.5, 200)
    beyond = np.array([7.75, 24.0, 504.0, np.inf])
    away = np.concatenate([np.add.outer(mids, offsets).ravel(),
                           np.add.outer(mids, -offsets).ravel(), beyond, 8.0 - beyond])
    away = away.astype(np.float32)
    decided, near = _decide32(away, bound)
    np.testing.assert_array_equal(decided, channel._decide_axis(2.0 * away.astype(np.float64)
                                                                - 8.0))
    assert not near[-8:].any()
    if bound < 0.5:
        # the level centres, and the integers 0 and 8 and -1 just beyond the
        # outer midpoints, are no midpoints
        assert not _decide32(np.arange(8) + 0.5, bound)[1].any()
        ends = np.array([-1.0, 0.0, 8.0], dtype=np.float32)
        far = [ends, _within(ends, 0.99 * half), _within(ends, -0.99 * half)]
        assert not _decide32(np.concatenate(far), bound)[1].any()


@pytest.fixture
def refined(monkeypatch):
    """How many symbols each call of send's float64 pass redoes, in call
    order."""
    sizes = []
    refine = channel._refine
    monkeypatch.setattr(channel, "_refine",
                        lambda pairs, at, *rest: sizes.append(at.size) or refine(pairs, at, *rest))
    return sizes


def test_near_midpoint_refines_few_symbols_at_minus_70db(refined):
    # at -70 dB the bound is about 9 level units, but almost every sample
    # lies far beyond the outer midpoints: few symbols are redone in float64,
    # and the octets are still the reference link's
    lengths = [3000] * 20
    cfg = LinkConfig(snr_db=-70.0, header_protection=UNPROTECTED)
    plan = plan_link(np.zeros(sum(lengths), dtype=np.uint8), lengths, AWGN64QAM, UNPROTECTED)
    received, errors = _send(plan, np.arange(len(lengths)), cfg)
    expect = [reference_transmit(bytes(n), replace(cfg, seed=s)) for s, n in enumerate(lengths)]
    assert received.tobytes() == b"".join(r for r, _ in expect)
    assert errors == sum(e for _, e in expect)
    symbols = sum(8 * n // 6 for n in lengths)
    assert len(refined) == 1 and sum(refined) < 0.01 * symbols


def test_refine_mends_what_float32_trig_decides_wrong():
    # radii that put midpoint 4 (level 0) between the float32 and the
    # float64 I amplitudes of a symbol sent on level index 3, each far
    # closer to it than the bound: the filter flags them, and the float64
    # pass decides them as the float64 link does
    snr_db = 10.0
    sigma = channel._sigma(snr_db)
    u2 = rng.splitmix64_stream(5, 1 << 14)
    u2 = u2[np.cos(_polar64(_pairs(0, u2))[1]) > 0.5]
    theta = _polar64(_pairs(0, u2))[1]
    # u1 whose radius puts the float64 I amplitude on the midpoint
    r = _SCALE / (sigma * np.cos(theta))
    # and its neighbours two steps of u1 either way
    k = (np.floor(np.exp(-r * r / 2.0) * 2.0 ** 53) - 3.0).astype(np.uint64)
    raw = np.concatenate([_pairs((k + np.uint64(j)) << np.uint64(11), u2) for j in range(5)])
    m = raw.size // 2
    indices = np.full((2, m), 3, dtype=np.uint8)
    codes, at = _filter(raw, indices, snr_db)
    rad, ang = _polar64(raw)
    sent = channel._SYMBOL_BY_CODE[8 * _CODES[3] + _CODES[3]]
    received = sent + sigma * (rad * np.cos(ang) + 1j * rad * np.sin(ang))
    expect = _codes_of_bits(qam64_demap(received))
    wrong = np.flatnonzero(codes != expect)
    assert wrong.size > 20
    assert np.isin(wrong, at).all()
    channel._refine(raw.reshape(-1, 2)[at], at, indices, sigma, codes)
    np.testing.assert_array_equal(codes, expect)


def test_send_redoes_symbols_whose_float32_amplitude_overflows(monkeypatch):
    # at -770 dB fl32(sigma / 2s) is infinite, so every float32 amplitude
    # is. u2's high word 2^30 - 1 rounds to 2^30 in float32: the float32
    # angle lies just past pi/2 and its cosine is negative, while the
    # float64 cosine is positive. Decided by its sign, the infinite I
    # amplitude would give level index 0 where the float64 link gives 7;
    # the filter flags it, and send gives the reference link's octets
    seed, u1, u2 = 7, 1 << 63, ((1 << 30) - 1) << 32
    # the first symbol of seed's stream draws outputs 0 and 1, the mix of
    # counters seed + G and seed + 2 G. rng._mix, which the reference link
    # draws with, finishes what rng._premix gives, and send decides on that
    crafted = {(seed + k * rng._GOLDEN) & rng._MASK64: u for k, u in ((1, u1), (2, u2))}
    premix = rng._premix

    def premix_crafted(z, t):
        at = [(np.flatnonzero(z == np.uint64(c)), u) for c, u in crafted.items()]
        premix(z, t)
        for i, u in at:
            z[i] = _unfinished(u)
        return z

    monkeypatch.setattr(rng, "_premix", premix_crafted)
    # the first symbol is sent on level index 3 on both axes
    payload = bytes([int(channel._CODE_BY_LEVELS[8 * 3 + 3]) << 2]) + bytes(29)
    cfg = LinkConfig(snr_db=-770.0, seed=seed, header_protection=UNPROTECTED)
    expect = reference_transmit(payload, cfg)
    first = np.unpackbits(np.frombuffer(expect[0][:1], dtype=np.uint8))[:6]
    assert _codes_of_bits(first)[0] == channel._CODE_BY_LEVELS[8 * 7 + 7]
    received, errors = transmit(payload, cfg)
    assert (received, errors) == expect


# -- transmit -----------------------------------------------------------------

def test_transmit_noiseless_identity():
    payload = bytes(range(256))
    cfg = LinkConfig(snr_db=math.inf)
    received, errors = transmit(payload, cfg)
    assert received == payload and errors == 0


def test_transmit_header_protected():
    payload = bytes(range(64))
    cfg = LinkConfig(snr_db=-10.0, seed=5, header_protection=PROTECTED)
    received, errors = transmit(payload, cfg)
    assert received[:HEADER_LEN] == payload[:HEADER_LEN]
    assert errors > 0


def test_transmit_header_unprotected_can_corrupt_header():
    payload = bytes(64)
    cfg = LinkConfig(snr_db=-10.0, seed=5, header_protection=UNPROTECTED)
    received, _ = transmit(payload, cfg)
    assert received[:HEADER_LEN] != payload[:HEADER_LEN]


def test_transmit_short_payload_fully_protected():
    payload = b"\xab" * 10  # shorter than the header guard
    received, errors = transmit(payload, LinkConfig(snr_db=-20.0, seed=1))
    assert received == payload and errors == 0


def test_bsc_zero_flip_identity():
    payload = bytes(range(100))
    cfg = LinkConfig(channel_kind=BSC, bsc_flip_prob=0.0, seed=3)
    received, errors = transmit(payload, cfg)
    assert received == payload and errors == 0


def test_bsc_half_flip_rate():
    n_octets = 125_000 + HEADER_LEN  # 10^6 body bits
    payload = bytes(n_octets)
    cfg = LinkConfig(channel_kind=BSC, bsc_flip_prob=0.5, seed=9)
    _, errors = transmit(payload, cfg)
    assert errors / 1e6 == pytest.approx(0.5, abs=0.002)


def test_bsc_rate_within_binomial_bounds():
    p = 0.05
    n = 800_000
    payload = bytes(n // 8 + HEADER_LEN)
    _, errors = transmit(payload, LinkConfig(channel_kind=BSC, bsc_flip_prob=p, seed=21))
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(errors - n * p) <= 3 * sigma


def test_transmit_error_count_consistent():
    payload = bytes(range(200))
    cfg = LinkConfig(snr_db=5.0, seed=77)
    received, errors = transmit(payload, cfg)
    sent_bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    got_bits = np.unpackbits(np.frombuffer(received, dtype=np.uint8))
    assert errors == int(np.count_nonzero(sent_bits != got_bits))


# the AWGN links on which some symbol of every send of the test's payloads
# lands near enough a midpoint for send to redo it in float64. Past about
# -749 dB the float32 amplitudes can overflow to infinities, which the
# filter flags; at -770 and -3080 dB every symbol is redone
_REFINED = ("awgn", "awgn_unprotected", "awgn_minus_5db", "awgn_20db_unprotected",
            "awgn_half_db", "awgn_3db", "awgn_minus_750db", "awgn_minus_770db",
            "awgn_minus_3080db_unprotected")


@pytest.mark.parametrize("cfg", [
    LinkConfig(snr_db=4.0),
    LinkConfig(snr_db=4.0, header_protection=UNPROTECTED),
    LinkConfig(snr_db=math.inf),
    LinkConfig(channel_kind=BSC, bsc_flip_prob=0.1),
    LinkConfig(channel_kind=BSC, bsc_flip_prob=0.1, header_protection=UNPROTECTED),
    LinkConfig(channel_kind=BSC),
    LinkConfig(snr_db=-5.0),
    LinkConfig(snr_db=20.0, header_protection=UNPROTECTED),
    LinkConfig(snr_db=40.0),
    LinkConfig(snr_db=0.5, header_protection=UNPROTECTED),
    LinkConfig(snr_db=3.0),
    LinkConfig(snr_db=30.0, header_protection=UNPROTECTED),
    LinkConfig(channel_kind=BSC, bsc_flip_prob=0.5),
    LinkConfig(channel_kind=BSC, bsc_flip_prob=2.0 ** -10, header_protection=UNPROTECTED),
    LinkConfig(channel_kind=BSC, bsc_flip_prob=1 / 3),
    LinkConfig(snr_db=-750.0),
    LinkConfig(snr_db=-770.0),
    LinkConfig(snr_db=-3080.0, header_protection=UNPROTECTED),
], ids=["awgn", "awgn_unprotected", "noiseless", "bsc", "bsc_unprotected", "bsc_0",
        "awgn_minus_5db", "awgn_20db_unprotected", "awgn_40db", "awgn_half_db",
        "awgn_3db", "awgn_30db_unprotected", "bsc_half", "bsc_2_to_minus_10_unprotected",
        "bsc_third", "awgn_minus_750db", "awgn_minus_770db", "awgn_minus_3080db_unprotected"])
def test_transmit_frames_matches_transmit(cfg, request, monkeypatch, refined):
    # a plan and one send per seed vector give what the float64 reference
    # link gives frame by frame. The lengths cover every 64-QAM pad and
    # every pad to whole groups of 3 octets, payloads inside the header
    # guard and an empty one. A budget of 1,000 splitmix64 outputs splits
    # the batch into many blocks, one frame larger than a block among them;
    # the 2^16 default sends it as one block
    lengths = [40, 41, 42, 0, 10, HEADER_LEN, 300, 22, 23, 24, 5000, 25]
    gen = rng.SplitMix64(8)
    payloads = [bytes(gen.randint(0, 255) for _ in range(n)) for n in lengths]
    buffer = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    for budget in (1000, 1 << 16):
        monkeypatch.setattr(channel, "_BLOCK_DRAWS", budget)
        plan = plan_link(buffer, lengths, cfg.channel_kind, cfg.header_protection)
        for point in range(2):
            seeds = [((1 << 64) - 1) ^ point, point, 5, 6, 7, 1 << 63, 9, 10, 11, 12, 13, 14]
            calls = len(refined)
            received, errors = _send(plan, seeds, cfg)
            # the float64 pass runs once per send, over every block's flags
            assert len(refined) - calls == (request.node.callspec.id in _REFINED)
            expect = [reference_transmit(p, replace(cfg, seed=s))
                      for p, s in zip(payloads, seeds)]
            assert received.tobytes() == b"".join(r for r, _ in expect)
            assert errors == sum(e for _, e in expect)


@pytest.mark.parametrize("cfg", [
    LinkConfig(snr_db=2.0),
    LinkConfig(channel_kind=BSC, bsc_flip_prob=0.1),
], ids=["awgn", "bsc"])
def test_transmit_reduces_seeds_mod_2_to_64(cfg):
    # send takes seeds in [0, 2^64); transmit takes any integer seed, as the
    # reference link's rng streams do, and sends it mod 2^64
    gen = rng.SplitMix64(3)
    for n in (0, 10, HEADER_LEN, 22, 5000):
        payload = bytes(gen.randint(0, 255) for _ in range(n))
        for seed in (-1, -12345, (1 << 64) - 1, (1 << 64) + 5):
            link = replace(cfg, seed=seed)
            assert transmit(payload, link) == reference_transmit(payload, link)


def test_link_config_refuses_a_seed_that_is_no_integer():
    # 2.5 would draw seed 2's noise; a numpy integer is kept, as an int
    for seed in (2.5, 3.0, np.float64(3), "3", None):
        with pytest.raises(ValueError, match="not an integer"):
            LinkConfig(seed=seed)
    payload = bytes(range(40))
    for seed in (np.uint64(7), np.int64(-3), np.int32(7), (1 << 64) + 7):
        link = LinkConfig(snr_db=2.0, seed=seed)
        assert type(link.seed) is int
        assert transmit(payload, link) == transmit(payload, LinkConfig(snr_db=2.0, seed=int(seed)))


def test_link_config_refuses_infinite_noise_power():
    # -inf dB, and any SNR whose noise power 10^(-snr/10) overflows a float
    for snr_db in (-math.inf, -3100.0, -3084.0, -1e300):
        with pytest.raises(ValueError):
            LinkConfig(snr_db=snr_db)
    assert channel._noise_power(-3080.0) == 1e308
    LinkConfig(snr_db=-3080.0)


def test_send_refuses_another_link():
    plan = plan_link(np.zeros(30, dtype=np.uint8), [30], AWGN64QAM, PROTECTED)
    for cfg in (LinkConfig(channel_kind=BSC), LinkConfig(header_protection=UNPROTECTED)):
        with pytest.raises(ValueError):
            send(plan, [[0]], [cfg], np.empty((1, 30), dtype=np.uint8))


@pytest.mark.parametrize("cfg", [
    LinkConfig(snr_db=3.0),
    LinkConfig(),
    LinkConfig(channel_kind=BSC, bsc_flip_prob=0.1),
], ids=["awgn", "noiseless", "bsc"])
def test_send_refuses_a_seed_vector_not_one_per_frame(cfg):
    plan = plan_link(np.zeros(90, dtype=np.uint8), [30, 30, 30], cfg.channel_kind, PROTECTED)
    for seeds in ([0, 1, 2, 3], [0, 1], [[0, 1, 2]]):
        with pytest.raises(ValueError):
            _send(plan, seeds, cfg)
    _send(plan, [0, 1, 2], cfg)


def test_sends_on_one_plan_leak_nothing_between_them(refined):
    # every send of a plan reuses its scratch: each result is the reference
    # link's frame by frame whatever was sent before, and a buffer returned
    # earlier is not touched by later sends
    lengths = [40, 0, 300, 22, 5000, 25, 234, 41, HEADER_LEN, 3000]
    gen = rng.SplitMix64(11)
    payloads = [bytes(gen.randint(0, 255) for _ in range(n)) for n in lengths]
    buffer = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    ends = np.cumsum(lengths)
    for kind, links in (
            (AWGN64QAM, [LinkConfig(snr_db=0.5), LinkConfig(snr_db=20.0),
                         LinkConfig(snr_db=0.5)]),
            (BSC, [LinkConfig(channel_kind=BSC, bsc_flip_prob=0.002),
                   LinkConfig(channel_kind=BSC, bsc_flip_prob=0.5)])):
        plan = plan_link(buffer, lengths, kind, PROTECTED)
        returned = []
        for k, cfg in enumerate(links):
            seeds = [(1 << 64) - 1 - 7 * k - f for f in range(len(lengths))]
            received, errors = _send(plan, seeds, cfg)
            assert type(errors) is int
            expect = [reference_transmit(p, replace(cfg, seed=s))
                      for p, s in zip(payloads, seeds)]
            for f, (octets, _) in enumerate(expect):
                assert received[ends[f] - lengths[f]:ends[f]].tobytes() == octets, (cfg, f)
            assert errors == sum(e for _, e in expect)
            returned.append((received, received.copy()))
            if k == 0 and kind == AWGN64QAM:
                assert sum(refined) > 0
        for received, copy in returned:
            np.testing.assert_array_equal(received, copy)


# the links of one batched send each, in row order: a noiseless row among
# noisy ones
_BATCHES = {
    "awgn": [LinkConfig(snr_db=s) for s in (0.0, 10.0, math.inf, 20.0)],
    "awgn_unprotected": [LinkConfig(snr_db=s, header_protection=UNPROTECTED)
                         for s in (20.0, math.inf, 0.0, 10.0)],
    "bsc": [LinkConfig(channel_kind=BSC, bsc_flip_prob=p) for p in (0.002, 0.0, 0.5)],
    "bsc_unprotected": [LinkConfig(channel_kind=BSC, bsc_flip_prob=p,
                                   header_protection=UNPROTECTED) for p in (0.5, 0.0, 0.002)],
}


@pytest.mark.parametrize("budget", [1000, 1 << 16])
@pytest.mark.parametrize("name", sorted(_BATCHES))
def test_a_batched_send_equals_one_row_sends(name, budget, monkeypatch, refined):
    # one send of several receptions, each on its own link with its own
    # seeds, gives each row what a one-row send of it gives (and the
    # reference link), octet for octet and error for error, with one float64
    # pass over every row's flagged symbols. Its plan holds more rows than
    # are sent, and at a budget of 1,000 outputs a frame is longer than a
    # block
    monkeypatch.setattr(channel, "_BLOCK_DRAWS", budget)
    links = _BATCHES[name]
    lengths = [40, 41, 42, 0, 10, HEADER_LEN, 300, 22, 5000, 25]
    gen = rng.SplitMix64(43)
    payloads = [bytes(gen.randint(0, 255) for _ in range(n)) for n in lengths]
    buffer = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    kind, protection = links[0].channel_kind, links[0].header_protection
    plan = plan_link(buffer, lengths, kind, protection, rows=len(links) + 2)
    single = plan_link(buffer, lengths, kind, protection)
    assert any(blk.counts.sum() > budget for blk in plan.blocks) == (budget == 1000)
    seeds = np.array([[gen.next_u64() for _ in lengths] for _ in links], dtype=np.uint64)
    for rows in (len(links), 2):
        out = np.empty((rows, buffer.size), dtype=np.uint8)
        calls = len(refined)
        errors = send(plan, seeds[:rows], links[:rows], out)
        batched = refined[calls:]
        assert errors.shape == (rows,) and errors.dtype == np.int64
        for j, cfg in enumerate(links[:rows]):
            received, e = _send(single, seeds[j], cfg)
            assert out[j].tobytes() == received.tobytes() and errors[j] == e, (cfg, j)
            expect = [reference_transmit(p, replace(cfg, seed=int(s)))
                      for p, s in zip(payloads, seeds[j])]
            assert received.tobytes() == b"".join(r for r, _ in expect)
            assert e == sum(e for _, e in expect)
        # one float64 pass redoes what the one-row sends redo between them
        one_row = refined[calls + len(batched):]
        assert len(batched) == (len(one_row) > 0) and sum(batched) == sum(one_row)
        if rows == len(links):
            assert len(one_row) > 1 if kind == AWGN64QAM else not one_row
    quiet = [j for j, cfg in enumerate(links) if cfg.snr_db == math.inf
             and cfg.bsc_flip_prob == 0.0]
    out = np.empty((len(links), buffer.size), dtype=np.uint8)
    errors = send(plan, seeds, links, out)
    for j in quiet:
        assert out[j].tobytes() == buffer.tobytes() and errors[j] == 0
    assert (errors[[j for j in range(len(links)) if j not in quiet]] > 0).all()
    # and a send of noiseless rows only, into rows that held noisy ones
    errors = send(plan, seeds[:2], [links[quiet[0]]] * 2, out[:2])
    assert [row.tobytes() for row in out[:2]] == [buffer.tobytes()] * 2
    assert errors.tolist() == [0, 0] and errors.dtype == np.int64


@pytest.mark.parametrize("kind", [AWGN64QAM, BSC])
def test_send_refuses_what_does_not_fit_its_plan(kind):
    plan = plan_link(np.zeros(90, dtype=np.uint8), [30, 30, 30], kind, PROTECTED, rows=2)
    link = LinkConfig(snr_db=3.0, channel_kind=kind, bsc_flip_prob=0.1)
    other = BSC if kind == AWGN64QAM else AWGN64QAM
    seeds = np.arange(6, dtype=np.uint64).reshape(2, 3)
    out = np.empty((2, 90), dtype=np.uint8)
    refused = {
        "another kind": (seeds, [link, LinkConfig(channel_kind=other)], out),
        "another protection": (seeds, [replace(link, header_protection=UNPROTECTED), link],
                               out),
        "a seed too few": (seeds[:, :2], [link, link], out),
        "a seed too many": (np.arange(8).reshape(2, 4), [link, link], out),
        "one row of seeds": (seeds.ravel(), [link, link], out),
        "fewer rows of seeds than links": (seeds[:1], [link, link], out),
        "more rows of seeds than links": (seeds, [link], out[:1]),
        "more rows than the plan": (np.zeros((3, 3)), [link] * 3, np.empty((3, 90), np.uint8)),
        "an out of fewer octets": (seeds, [link, link], out[:, :89]),
        "an out of more octets": (seeds, [link, link], np.empty((2, 91), np.uint8)),
        "an out of fewer rows": (seeds, [link, link], out[:1]),
        "a flat out": (seeds, [link, link], np.empty(180, np.uint8)),
        "an out not of octets": (seeds, [link, link], np.empty((2, 90), np.int64)),
    }
    for why, (s, links, o) in refused.items():
        with pytest.raises(ValueError):
            send(plan, s, links, o)
            pytest.fail(why)
    send(plan, seeds, [link, link], out)
    send(plan, seeds[:1], [link], out[:1])


def _body_bit_blocks(lengths, guard, budget):
    """The frames of each block under the rule that counted body bits: the
    longest run of whole frames of at most budget body bits, at least one."""
    bits = [8 * max(n - guard, 0) for n in lengths]
    blocks, a = [], 0
    while a < len(lengths):
        b, total = a + 1, bits[a]
        while b < len(lengths) and total + bits[b] <= budget:
            total += bits[b]
            b += 1
        blocks.append(slice(a, b))
        a = b
    return blocks


@pytest.mark.parametrize("protection", [PROTECTED, UNPROTECTED])
@pytest.mark.parametrize("kind", [AWGN64QAM, BSC])
def test_plan_blocks_are_maximal_runs_within_the_draw_budget(kind, protection,
                                                             monkeypatch):
    # empty frames, frames within the header guard, small ones, and one
    # larger than the budget on either link (80,000 outputs on AWGN)
    gen = rng.SplitMix64(29)
    lengths = [[0, gen.randint(1, HEADER_LEN), gen.randint(1, 700)][gen.randint(0, 2)]
               for _ in range(300)]
    lengths[137] = 30_000 + HEADER_LEN
    guard = HEADER_LEN if protection == PROTECTED else 0
    body = np.maximum(np.array(lengths) - guard, 0)
    draws = 8 * body if kind == BSC else 8 * -(-body // 3)
    buffer = np.zeros(sum(lengths), dtype=np.uint8)
    for budget in (1000, 1 << 16):
        monkeypatch.setattr(channel, "_BLOCK_DRAWS", budget)
        plan = plan_link(buffer, lengths, kind, protection)
        frames = [blk.frames for blk in plan.blocks]
        # the blocks tile the frames, and their body octets, in order
        assert [f.start for f in frames] == [0] + [f.stop for f in frames[:-1]]
        assert frames[-1].stop == len(lengths)
        assert [blk.octets.start for blk in plan.blocks] == [
            int(body[:f.start].sum()) for f in frames]
        for blk in plan.blocks:
            np.testing.assert_array_equal(blk.counts, draws[blk.frames])
            held = int(blk.counts.sum())
            assert held <= budget or blk.counts.size == 1
            # the next frame would overflow the block
            if blk.frames.stop < len(lengths):
                assert held + draws[blk.frames.stop] > budget
        assert plan.scratch.raw.size == max(int(blk.counts.sum()) for blk in plan.blocks)
        assert any(blk.counts.sum() > budget for blk in plan.blocks)
        if kind == BSC:
            # one output per body bit: the blocks of the body-bit rule
            assert frames == _body_bit_blocks(lengths, guard, budget)


@pytest.mark.parametrize("protection", [PROTECTED, UNPROTECTED])
@pytest.mark.parametrize("kind", [AWGN64QAM, BSC])
def test_plan_arrays_match_their_formulas(kind, protection):
    # the received buffer's gather, sent and the level indices, against the
    # formulas plan_link wrote them with before it shared one arange and
    # decoded the Gray codes arithmetically: each body octet's buffer offset
    # (body_at) and its place among the padded groups (keep) by its own
    # arange, and each level index looked up through the Gray map's levels
    gen = rng.SplitMix64(31)
    lengths = [gen.randint(0, 90) for _ in range(60)] + [0, HEADER_LEN, HEADER_LEN + 1]
    buffer = np.frombuffer(bytes(gen.randint(0, 255) for _ in range(sum(lengths))),
                           dtype=np.uint8)
    plan = plan_link(buffer, lengths, kind, protection, rows=3)
    lengths = np.array(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    head = np.minimum(lengths, HEADER_LEN if protection == PROTECTED else 0)
    octets = lengths - head
    first = np.cumsum(octets) - octets
    body_at = np.repeat(starts + head - first, octets) + np.arange(octets.sum())
    assert not hasattr(plan, "body_at") and not hasattr(plan, "keep")
    if kind == BSC:
        # the body octets are the link octets, in order
        np.testing.assert_array_equal(plan.sent, buffer[body_at])
        assert plan.indices is None
        link, size = np.arange(body_at.size), body_at.size
    else:
        padded = 3 * -(-octets // 3)
        keep = np.repeat(np.cumsum(padded) - padded - first, octets) + np.arange(body_at.size)
        groups = np.zeros(padded.sum(), dtype=np.uint8)
        groups[keep] = buffer[body_at]
        codes = _codes_from_octets(groups)
        assert set(codes.tolist()) == set(range(64))
        levels = ((_LEVELS + 7) / 2).astype(np.uint8)
        indices = levels[np.stack([codes >> 3, codes & 7])]
        assert plan.sent is None
        assert plan.indices.dtype == np.uint8 and plan.indices.shape == indices.shape
        np.testing.assert_array_equal(plan.indices, indices)
        # octet k of a group of 3 is byte 2 - k of the group's 4-byte word
        link, size = 4 * (keep // 3) + 2 - keep % 3, codes.size
    # the link octets, then a copy of the buffer that the other octets come from
    recv_from = np.arange(size, size + buffer.size)
    recv_from[body_at] = link
    assert plan.recv_from.dtype == np.intp
    np.testing.assert_array_equal(plan.recv_from, recv_from)
    # a row a reception, each padded to whole 8-octet words
    assert plan.scratch.source.shape == (3, -(-(size + buffer.size) // 8) * 8)
    for row in plan.scratch.source:
        np.testing.assert_array_equal(row[size:size + buffer.size], buffer)


@pytest.mark.parametrize("cfg", [
    LinkConfig(snr_db=3.0),
    LinkConfig(channel_kind=BSC, bsc_flip_prob=0.002),
], ids=["awgn", "bsc"])
def test_send_allocates_no_block_sized_buffers(cfg):
    # after a first send has set the plan's scratch going, a send into out
    # allocates its per-row bit counts and small per-block arrays; tracemalloc
    # sees the buffers numpy allocates. A 234-octet frame draws 568
    # splitmix64 outputs on AWGN (71 groups of 3 body octets) and 1,704 on
    # the BSC
    peak, draws = _second_send_peak(cfg, 1)
    assert peak < 2 * draws, peak / draws


def _second_send_peak(cfg, rows):
    """The tracemalloc peak of a second send of `rows` receptions on cfg
    into out, of 4 blocks of 234-octet frames a row, and the bytes of a
    block's draws."""
    per_frame = {AWGN64QAM: 568, BSC: 1704}[cfg.channel_kind]
    lengths = [234] * (4 * (channel._BLOCK_DRAWS // per_frame))
    plan = plan_link(np.zeros(sum(lengths), dtype=np.uint8), lengths, cfg.channel_kind,
                     PROTECTED, rows)
    assert plan.blocks[0].counts[0] == per_frame
    assert len(plan.blocks) == 4
    draws = 8 * max(int(blk.counts.sum()) for blk in plan.blocks)
    seeds = np.arange(rows * len(lengths), dtype=np.uint64).reshape(rows, -1)
    out = np.empty((rows, plan.buffer.size), dtype=np.uint8)
    send(plan, seeds, [cfg] * rows, out)
    tracemalloc.start()
    try:
        send(plan, seeds + 1, [cfg] * rows, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, draws


@pytest.mark.parametrize("cfg", [
    LinkConfig(snr_db=3.0),
    LinkConfig(channel_kind=BSC, bsc_flip_prob=0.002),
], ids=["awgn", "bsc"])
def test_a_five_row_send_allocates_no_block_sized_buffers(cfg):
    # five rows of 107,640 octets each: their bit differences live in the
    # plan's scratch, and a send copies no row
    peak, draws = _second_send_peak(cfg, 5)
    assert peak < 2 * draws, peak / draws


@pytest.mark.parametrize("n", [100_001, 100_000])
def test_awgn_scratch_shares_memory_between_roles(n):
    # the float32 filter's rows live in tmp, which _premix is done with: with
    # the send-wide source of a one-block plan for one reception, its codes
    # and a copy of the buffer of their 3 octets a group, under 20 bytes
    # per draw
    buffer = np.zeros(3 * n // 8, dtype=np.uint8)
    tracemalloc.start()
    try:
        s = channel._Scratch(n, n // 2, buffer, True, rows=1)
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert allocated <= 20 * n, allocated / n
    assert s.f32.shape == (4, n // 2)
    assert s.source.shape == (1, -(-(n // 2 + buffer.size) // 8) * 8)
    assert np.shares_memory(s.f32, s.tmp) and not np.shares_memory(s.f32, s.raw)


@pytest.mark.parametrize("protection", [PROTECTED, UNPROTECTED])
@pytest.mark.parametrize("kind", [AWGN64QAM, BSC])
def test_plan_keeps_one_index_per_buffer_octet(kind, protection):
    # beside its scratch, a plan keeps the gather's one index per buffer
    # octet, and on AWGN 2 level indices a symbol (8/3 bytes a body octet)
    # or on the BSC the sent body octets: at most 12 bytes a buffer octet
    lengths = [3000] * 64
    buffer = (rng.splitmix64_stream(37, sum(lengths)) >> np.uint64(56)).astype(np.uint8)
    tracemalloc.start()
    try:
        plan = plan_link(buffer, lengths, kind, protection)
        allocated = tracemalloc.get_traced_memory()[0]
        s = plan.scratch
        s = channel._Scratch(s.raw.size, s.source.size - buffer.size, buffer, kind == AWGN64QAM)
        scratch = tracemalloc.get_traced_memory()[0] - allocated
    finally:
        tracemalloc.stop()
    assert allocated - scratch <= 12 * buffer.size, (allocated - scratch) / buffer.size


def test_send_packs_the_codes_of_many_blocks_in_pieces(monkeypatch):
    # a send packs its codes in pieces of the words its spare holds, 2
    # words an output of the largest block: blocks of one 81-octet frame
    # (216 outputs) give pieces of 432 words, and 60 frames give 1,620
    # words, so the last piece is short
    monkeypatch.setattr(channel, "_BLOCK_DRAWS", 256)
    lengths = [HEADER_LEN + 81] * 60
    gen = rng.SplitMix64(41)
    payloads = [bytes(gen.randint(0, 255) for _ in range(n)) for n in lengths]
    plan = plan_link(np.frombuffer(b"".join(payloads), dtype=np.uint8), lengths, AWGN64QAM,
                     PROTECTED)
    assert len(plan.blocks) == 60 and plan.scratch.tmp.view(channel._WORD).size == 432
    cfg = LinkConfig(snr_db=0.5)
    received, errors = _send(plan, np.arange(60), cfg)
    expect = [reference_transmit(p, replace(cfg, seed=s)) for s, p in enumerate(payloads)]
    assert received.tobytes() == b"".join(r for r, _ in expect)
    assert errors == sum(e for _, e in expect)


def test_send_packs_whole_rows_in_pieces(monkeypatch):
    # 3 one-frame blocks of 81 body octets a row: 81 words a row, and a
    # spare of 432 words packs 5 whole rows a piece, so 22 rows take 5
    # pieces, the last of 2 rows
    monkeypatch.setattr(channel, "_BLOCK_DRAWS", 256)
    lengths = [HEADER_LEN + 81] * 3
    gen = rng.SplitMix64(47)
    payloads = [bytes(gen.randint(0, 255) for _ in range(n)) for n in lengths]
    plan = plan_link(np.frombuffer(b"".join(payloads), dtype=np.uint8), lengths, AWGN64QAM,
                     PROTECTED, rows=22)
    assert plan.indices.shape[1] == 4 * 81 and plan.scratch.tmp.view(channel._WORD).size == 432
    links = [LinkConfig(snr_db=0.5 * j) for j in range(22)]
    seeds = np.arange(66, dtype=np.uint64).reshape(22, 3)
    out = np.empty((22, plan.buffer.size), dtype=np.uint8)
    errors = send(plan, seeds, links, out)
    for j, cfg in enumerate(links):
        expect = [reference_transmit(p, replace(cfg, seed=int(s)))
                  for p, s in zip(payloads, seeds[j])]
        assert out[j].tobytes() == b"".join(r for r, _ in expect), j
        assert errors[j] == sum(e for _, e in expect)


@pytest.mark.parametrize("p", [0.5, 0.25, 2.0 ** -10, 0.1, 1 / 3, 0.002,
                               2.0 ** -60, 1e-300, 5e-324])
def test_bsc_threshold_on_raw_outputs_is_exact(p):
    # send flips a bit where the raw splitmix64 output is below a threshold,
    # ceil(p·2^53)·2^11, where the reference link compares uniforms'
    # (raw >> 11)·2^-53 with p; at and next to the boundary raws K·2^11 they
    # must agree
    k = math.ceil(p * 2.0 ** 53)
    raws = np.array([max(v, 0) for v in (k * 2048 - 1, k * 2048, k * 2048 + 2047,
                                         (k - 1) * 2048, (k - 1) * 2048 + 2047, 0,
                                         (1 << 64) - 1)], dtype=np.uint64)
    as_uniforms = (raws >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 < p
    np.testing.assert_array_equal(raws < channel._flip_threshold(p), as_uniforms)
    assert as_uniforms[0] and not as_uniforms[1] and not as_uniforms[2]


@pytest.mark.parametrize("p", [0.002, 1 / 3, 0.5, 2.0 ** -60, 5e-324])
def test_bsc_flips_on_unfinished_outputs_at_the_edge(p):
    # send decides a flip on the word before splitmix64's last step, which
    # keeps an output's top 31 bits, and finishes only the octets of words
    # whose top 31 bits are at most the threshold's. Outputs whose top 31
    # bits are the threshold's, one below and one above it, each with low
    # bits on both sides of the threshold's, as the words that finish to
    # them: the flips are where the output is below the threshold
    threshold = int(channel._flip_threshold(p))
    top, low = threshold >> 33, threshold & ((1 << 33) - 1)
    lows = sorted({v for v in (0, 1, low - 1, low, low + 1, low + 2048, (1 << 33) - 1)
                   if 0 <= v < 1 << 33})
    raws = [t << 33 | v for t in (top - 1, top, top + 1) if t >= 0 for v in lows]
    raws += [0, (1 << 64) - 1] + [(1 << 64) - 1] * (-(len(raws) + 2) % 8)
    raws = np.array(raws, dtype=np.uint64)
    z = _unfinished(raws)
    assert (z >> np.uint64(33) == raws >> np.uint64(33)).all()
    flips = channel._flips(z, channel._flip_threshold(p), np.empty(z.size, dtype=bool))
    np.testing.assert_array_equal(np.unpackbits(flips).astype(bool), raws < np.uint64(threshold))
    assert (raws < np.uint64(threshold)).any() and not (raws < np.uint64(threshold)).all()


def test_high_words_finish_as_the_mix_does():
    # the float32 filter copies the high words of the unfinished outputs and
    # finishes them itself: bit for bit the high words of rng._mix's
    # outputs of the counters that _premix took to them, and of the finish
    # of random words and of words with the top bit set
    counters = np.uint64(53) + rng.golden_steps(1 << 13)
    z = np.concatenate([rng._premix(counters.copy(), np.empty_like(counters)),
                        rng.splitmix64_stream(59, 1 << 12) | np.uint64(1 << 63),
                        np.array([0, 1 << 63, (1 << 64) - 1, (1 << 63) - 1], dtype=np.uint64)])
    assert (z[:counters.size] >= np.uint64(1 << 63)).any()
    m = z.size // 2
    hi = channel._high_words(z, np.empty((2, m), dtype=np.uint32),
                             np.empty((2, m), dtype=np.uint32))
    finished = rng._finish(z.copy(), np.empty_like(z)) >> np.uint64(32)
    np.testing.assert_array_equal(hi, np.stack([finished[0::2], finished[1::2]]))
    mixed = rng._mix(counters.copy(), np.empty_like(counters)) >> np.uint64(32)
    np.testing.assert_array_equal(hi[:, :counters.size // 2],
                                  np.stack([mixed[0::2], mixed[1::2]]))


@pytest.mark.parametrize("kind", [AWGN64QAM, BSC])
def test_plan_counter_slices_give_each_frames_stream(kind, monkeypatch):
    # a plan lays out each block's counters once, as views of one run of
    # golden steps and of the scratch: with each frame's seed added, one
    # _premix and one _finish give the frame's splitmix64 stream. A block
    # of many frames, and a frame of more outputs than a block's budget
    monkeypatch.setattr(channel, "_BLOCK_DRAWS", 4096)
    lengths = [40] * 30 + [HEADER_LEN + 2000] + [0, 25, 300]
    plan = plan_link(np.zeros(sum(lengths), dtype=np.uint8), lengths, kind, PROTECTED)
    assert max(len(blk.counts) for blk in plan.blocks) > 10
    assert any(blk.draws > 4096 for blk in plan.blocks)
    seeds = np.array([(1 << 64) - 1 - 3 * f for f in range(len(lengths))], dtype=np.uint64)
    s = plan.scratch
    steps = plan.blocks[0].counters[0][0].base
    for blk in plan.blocks:
        assert len(blk.counters) == len(blk.counts) and blk.draws == blk.counts.sum()
        for (terms, counters), count in zip(blk.counters, blk.counts):
            assert terms.size == counters.size == count
            assert terms.base is steps and counters.base is s.raw.base
        z = channel._premixed(seeds[blk.frames], blk, s)
        expect = [rng.splitmix64_stream(int(seed), int(c))
                  for seed, c in zip(seeds[blk.frames], blk.counts)]
        np.testing.assert_array_equal(rng._finish(z.copy(), np.empty_like(z)),
                                      np.concatenate(expect))


@pytest.mark.parametrize("kind", [AWGN64QAM, BSC])
def test_send_finishes_only_what_its_decisions_read(kind, monkeypatch, refined):
    # a send draws its outputs with _premix and never the whole mix; the
    # 64-bit finish runs only on the octets of the BSC's candidates (outputs
    # whose top 31 bits are at most the threshold's) and, once a send, on
    # the AWGN filter's flagged pairs. A noiseless row draws nothing
    lengths = [234] * 40 + [0, 5000]
    gen = rng.SplitMix64(61)
    buffer = np.frombuffer(bytes(gen.randint(0, 255) for _ in range(sum(lengths))),
                           dtype=np.uint8)
    plan = plan_link(buffer, lengths, kind, UNPROTECTED, rows=2)
    noisy = LinkConfig(snr_db=0.5, channel_kind=kind, bsc_flip_prob=0.002,
                       header_protection=UNPROTECTED)
    quiet = replace(noisy, snr_db=math.inf, bsc_flip_prob=0.0)
    seeds = np.array([[gen.next_u64() for _ in lengths] for _ in range(2)], dtype=np.uint64)
    bound = ((int(channel._flip_threshold(0.002)) >> 33) + 1) << 33
    outputs = np.concatenate([rng.splitmix64_stream(int(seed), 8 * n)
                              for seed, n in zip(seeds[1], lengths)])
    candidates = 8 * int((outputs.reshape(-1, 8) < np.uint64(bound)).any(axis=1).sum())
    expect = [b"".join(reference_transmit(buffer[a - n:a].tobytes(), replace(cfg, seed=int(sd)))[0]
                       for sd, n, a in zip(row, lengths, np.cumsum(lengths)))
              for row, cfg in zip(seeds, (quiet, noisy))]
    finished, premixed = [], []
    finish, premix = rng._finish, rng._premix
    monkeypatch.setattr(rng, "_finish", lambda z, t: finished.append(z.size) or finish(z, t))
    monkeypatch.setattr(rng, "_premix", lambda z, t: premixed.append(z.size) or premix(z, t))
    monkeypatch.setattr(rng, "_mix", lambda z, t: pytest.fail("send finished every output"))
    out = np.empty((2, buffer.size), dtype=np.uint8)
    send(plan, seeds, [quiet, noisy], out)
    assert [row.tobytes() for row in out] == expect
    assert premixed == [blk.draws for blk in plan.blocks]
    if kind == BSC:
        assert 0 < sum(finished) == candidates < outputs.size // 20
    else:
        assert len(finished) == 1 and sum(finished) == 2 * sum(refined) > 0
    finished.clear(), premixed.clear()
    send(plan, seeds, [quiet, quiet], out)
    assert not finished and not premixed


# -- exact BER ----------------------------------------------------------------

# Gray labels of the axis levels -7, -5, ..., 7
_GRAY = [0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100]


def _bit_errors_by_decision_regions(snr_db):
    """[sent level index, bit of the axis label, high bit first] -> the
    probability that the bit is decided wrong: the Gaussian mass of every
    decision interval whose label differs in that bit."""
    sigma = math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0) * math.sqrt(42.0)  # level units

    def below(x):  # P(noise < x)
        return 0.5 * math.erfc(-x / (sigma * math.sqrt(2.0)))

    p = np.zeros((8, 3))
    for sent in range(8):
        for decided in range(8):
            lo = -math.inf if decided == 0 else 2 * decided - 8
            hi = math.inf if decided == 7 else 2 * decided - 6
            mass = below(hi - (2 * sent - 7)) - below(lo - (2 * sent - 7))
            for bit in range(3):
                if (_GRAY[sent] ^ _GRAY[decided]) >> (2 - bit) & 1:
                    p[sent, bit] += mass
    return p


def test_qam64_ber_exact_matches_decision_regions():
    # equally likely levels: the mean over sent levels and label bits
    for snr_db in np.arange(0.0, 20.5, 0.5):
        expect = _bit_errors_by_decision_regions(snr_db).mean()
        assert qam64_ber_exact(snr_db) == pytest.approx(expect, rel=0, abs=1e-12)
    assert qam64_ber_exact(math.inf) == 0.0


def test_send_ber_on_uniform_bits_matches_exact():
    # 2 x 10^6 bits of uniform payload, unprotected, through the batched link
    lengths = [2500] * 100
    buffer = (rng.splitmix64_stream(31, sum(lengths)) >> np.uint64(56)).astype(np.uint8)
    plan = plan_link(buffer, lengths, AWGN64QAM, UNPROTECTED)
    for snr_db in (8.0, 12.0):
        _, errors = _send(plan, np.arange(len(lengths)) + int(snr_db) * 1009,
                          LinkConfig(snr_db=snr_db, header_protection=UNPROTECTED))
        assert errors / (8 * buffer.size) == pytest.approx(qam64_ber_exact(snr_db), rel=0.05)


def test_sweep_ber_matches_exact_for_its_payloads():
    # Payload bits are far from uniform (most matrix cells are zero), so
    # their symbols sit on the outer levels more often than the equally
    # likely levels qam64_ber_exact assumes, and the sweep's BER is about a
    # third below it. The expected BER here weighs every sent bit by the
    # decision regions of the level it rides on.
    ont = default_ontology()
    corpus = generate(ScenarioSpec(seed=7, num_sequences=10, frames_per_sequence=5), ont)
    level_by_label = np.argsort(_GRAY)
    bits = []
    for seq in corpus:
        for frame in seq.frames:
            b = np.unpackbits(np.frombuffer(sweep.encode_frame(frame, ont), dtype=np.uint8))
            groups = np.concatenate([b, np.zeros(-b.size % 6, dtype=np.uint8)]).reshape(-1, 3)
            levels = level_by_label[groups @ np.array([4, 2, 1])]
            bits.append(np.stack([np.repeat(levels, 3), np.tile(np.arange(3), levels.size)],
                                 axis=1)[:b.size])
    bits = np.concatenate(bits)
    cfg = sweep.SweepConfig(snr_points=(8.0, 12.0), trials_per_point=400,
                            header_protection=UNPROTECTED)
    for row in sweep.run_sweep(corpus, ont, cfg):
        p = _bit_errors_by_decision_regions(row["snr_db"])
        assert row["ber"] == pytest.approx(p[bits[:, 0], bits[:, 1]].mean(), rel=0.05)


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(channel_kind="qpsk")
    with pytest.raises(ValueError):
        LinkConfig(channel_kind=BSC, bsc_flip_prob=0.6)
    with pytest.raises(ValueError):
        LinkConfig(header_protection="none")
    with pytest.raises(ValueError):
        LinkConfig(snr_db=float("nan"))
    # a float field that is no number was a bare TypeError; now a ValueError
    # naming the field
    for fields in (dict(snr_db="10"), dict(snr_db=None), dict(snr_db=math.nan),
                   dict(snr_db=10 ** 400),  # beyond float range
                   dict(channel_kind=BSC, bsc_flip_prob="0.1"),
                   dict(channel_kind=BSC, bsc_flip_prob=math.nan)):
        name = "snr_db" if "snr_db" in fields else "bsc_flip_prob"
        with pytest.raises(ValueError, match=name):
            LinkConfig(**fields)
    # a number of another type is stored as a float; +inf is the noiseless link
    link = LinkConfig(snr_db=np.int64(10), channel_kind=BSC, bsc_flip_prob=np.float32(0.25))
    assert (link.snr_db, link.bsc_flip_prob) == (10.0, 0.25)
    assert type(link.snr_db) is float and type(link.bsc_flip_prob) is float
    assert LinkConfig(snr_db=math.inf).snr_db == math.inf


# -- frame accounting ---------------------------------------------------------

def test_frames_required_examples():
    assert OFDM_FRAME_BITS == 11088
    assert frames_required(1386) == 1
    assert frames_required(1387) == 2


def test_frames_required_positive_only():
    with pytest.raises(ValueError):
        frames_required(0)


def test_frames_required_of_an_array_is_each_payloads():
    # the sweep counts the OFDM frames of a whole pass in one call
    lengths = np.array([1, 1386, 1387, 2772, 2773, 234, 30_021])
    assert type(frames_required(1386)) is int
    assert frames_required(lengths).tolist() == [frames_required(x) for x in lengths.tolist()]
    with pytest.raises(ValueError):
        frames_required(np.array([5, 0, 7]))


# -- cross-path determinism ---------------------------------------------------

def test_channel_output_matches_numpy_rng_path():
    symbols = _all_symbols()
    n0 = 10.0 ** (-1.2)
    sigma = math.sqrt(n0 / 2.0)
    z = rng.normals(42, 2 * len(symbols))
    expect = symbols + sigma * (z[0::2] + 1j * z[1::2])
    np.testing.assert_allclose(awgn(symbols, 12.0, 42), expect, rtol=0, atol=1e-12)
