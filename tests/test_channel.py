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
    FrameGrid,
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
    mids = np.arange(-24, 25) / 2.0
    amps = np.concatenate([mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf),
                           [1e300, -1e300, 5e-324, -0.0]])
    u = np.add.outer(amps, 1j * amps).ravel()
    z = rng.normals(4, 200_000) * 4.0
    for symbols in (u * _SCALE, u, (z[0::2] + 1j * z[1::2]) * _SCALE):
        np.testing.assert_array_equal(qam64_demap(symbols), _demap_by_axis(symbols))


def _scratch(n):
    return channel._Scratch(n, awgn_link=True)


def test_planned_levels_scale_to_the_symbol_table_bit_for_bit():
    # send builds the sent parts as a plan's int8 levels times _SCALE, and
    # awgn adds its noise to qam64_map's _SYMBOL_BY_CODE: they must agree
    # to the last bit, here for every 6-bit code in order
    octets = channel._octets_from_codes(np.arange(64, dtype=np.uint8),
                                        np.empty((16, 3), dtype=np.uint8))
    plan = plan_link(octets, [octets.size], AWGN64QAM, UNPROTECTED)
    (blk,) = plan.blocks
    assert blk.levels.dtype == np.int8
    parts = blk.levels.astype(np.float64) * _SCALE
    assert parts.tobytes() == channel._SYMBOL_BY_CODE.tobytes()


def test_flat_decision_matches_demap_at_ties_and_their_neighbours():
    # send decides on interleaved (I, Q) floats; at +-6 * _SCALE, dividing by
    # _SCALE and multiplying by its inverse fall on either side of a midpoint.
    # With no noise (radius 0, sigma 1) the received parts are the sent ones
    mids = np.arange(-24, 25) / 2.0 * _SCALE
    amps = np.concatenate([mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)])
    symbols = np.add.outer(amps, 1j * amps).ravel()
    parts = symbols.view(np.float64).copy()
    zeros = np.zeros(symbols.size)
    codes = channel._received_codes(zeros, zeros, parts, 1.0, _scratch(parts.size))
    np.testing.assert_array_equal(np.unpackbits(codes[:, None], axis=1)[:, 2:].ravel(),
                                  qam64_demap(symbols))


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


# -- float32 trig decision ----------------------------------------------------

def _trig_angles():
    # 2^20 uniform angles in [0, 2 pi), the multiples of pi/4 below 2 pi with
    # their neighbours, and the angles just below 2 pi
    theta = rng.uniforms(17, 1 << 20) * (2.0 * math.pi)
    marks = np.arange(8) * (math.pi / 4)
    up, down = [marks], [marks]
    for _ in range(4):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], -np.inf))
    top = [np.nextafter(2.0 * math.pi, 0.0)]
    for _ in range(15):
        top.append(np.nextafter(top[-1], 0.0))
    angles = np.concatenate([theta, *up, *down[1:], top])
    return angles[(angles >= 0.0) & (angles < 2.0 * math.pi)]


def test_float32_trig_within_sixteenth_of_the_bound():
    # send decides from cos and sin of fl32(theta); its bound assumes they are
    # within channel._TRIG32_ERROR of the float64 ones, and 2^-20 pins a
    # 16-fold margin, so worse float32 trig fails here before it changes bytes
    assert 2.0 ** -20 * 16 == channel._TRIG32_ERROR
    theta = _trig_angles()
    t32 = theta.astype(np.float32)
    for f in (np.cos, np.sin):
        assert f(t32).dtype == np.float32
        assert np.max(np.abs(f(t32).astype(np.float64) - f(theta))) <= 2.0 ** -20


def test_polar_radius_at_most_r_max():
    # the smallest u1, 2^-53, gives the largest radius
    r, _ = rng.polar(np.array([0, 0, (1 << 64) - 1, 0], dtype=np.uint64),
                     np.empty(2), np.empty(2))
    assert r[0] <= rng.R_MAX and r[0] == pytest.approx(rng.R_MAX, rel=1e-15)
    assert r[1] == 0.0


def _decide_by_floor(u, bound):
    levels, near = channel._decide_by_floor(u.copy(), bound, _scratch(u.size))
    return levels.copy(), near.copy()


@pytest.mark.parametrize("snr_db", [-40.0, 0.0, 0.5, 20.0, 60.0, 1e308])
def test_near_midpoint_flags_every_midpoint_and_its_neighbours(snr_db):
    sigma = channel._sigma(snr_db)
    bound = channel._trig32_bound(sigma)
    mids = np.arange(-6.0, 7.0, 2.0)
    values = [mids, mids + 0.99 * bound, mids - 0.99 * bound]
    up, down = mids, mids
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        values += [up, down]
    assert _decide_by_floor(np.concatenate(values), bound)[1].all()
    # from 1.01 bound/2 off each midpoint out to 1 off it, and beyond the
    # outer levels, the floor decides as _decide_axis
    offsets = np.geomspace(1.01 * bound / 2, 1.0, 200)
    beyond = np.array([7.5, 40.0, 1e3])
    away = np.concatenate([np.add.outer(mids, offsets).ravel(),
                           np.add.outer(mids, -offsets).ravel(), beyond, -beyond])
    decided, near = _decide_by_floor(away, bound)
    np.testing.assert_array_equal(decided, channel._decide_axis(away))
    assert not near[-6:].any()
    if bound < 0.5:
        # the levels, and the even integers beyond the outer midpoints
        # +-6, are no midpoints
        levels = np.arange(-7.0, 8.0, 2.0)
        assert not _decide_by_floor(levels, bound)[1].any()
        evens = np.array([-10.0, -8.0, 8.0])
        far = [evens, evens + 0.99 * bound, evens - 0.99 * bound]
        up, down = evens, evens
        for _ in range(4):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            far += [up, down]
        assert not _decide_by_floor(np.concatenate(far), bound)[1].any()


@pytest.fixture
def refined(monkeypatch):
    """How many symbols each call of send's _refine redoes with float64
    trig, in call order."""
    sizes = []
    refine = channel._refine
    monkeypatch.setattr(channel, "_refine",
                        lambda u, at, *rest: sizes.append(at.size) or refine(u, at, *rest))
    return sizes


def test_near_midpoint_refines_few_symbols_at_minus_70db(refined):
    # at -70 dB the bound is about 1.9 level units, but almost every sample
    # lies far beyond the outer midpoints: few symbols are redone in float64,
    # and the octets are still the reference link's
    lengths = [3000] * 20
    cfg = LinkConfig(snr_db=-70.0, header_protection=UNPROTECTED)
    plan = plan_link(np.zeros(sum(lengths), dtype=np.uint8), lengths, AWGN64QAM, UNPROTECTED)
    received, errors = send(plan, np.arange(len(lengths)), cfg)
    expect = [reference_transmit(bytes(n), replace(cfg, seed=s)) for s, n in enumerate(lengths)]
    assert received.tobytes() == b"".join(r for r, _ in expect)
    assert errors == sum(e for _, e in expect)
    symbols = sum(8 * n // 6 for n in lengths)
    assert sum(refined) < 0.01 * symbols


def _interleave(r, c, s):
    out = np.empty(2 * r.size)
    out[0::2], out[1::2] = r * c, r * s
    return out


def _decide_codes(u):
    """The 6-bit codes of interleaved (I, Q) level-unit amplitudes, decided
    by _decide_axis."""
    i, q = (channel._decide_axis(part).astype(np.int64) for part in (u[0::2], u[1::2]))
    return channel._CODE_BY_LEVELS[8 * i + q]


def test_refine_mends_what_float32_trig_decides_wrong():
    # radii that put midpoint +-2 between the float32 and the float64 I
    # amplitudes, each far closer to it than the bound
    sigma = channel._sigma(10.0)
    theta = rng.uniforms(5, 4096) * (2.0 * math.pi)
    c32 = np.cos(theta.astype(np.float32)).astype(np.float64)
    c64 = np.cos(theta)
    pick = (np.abs(c64) > 0.5) & (np.abs(c32 - c64) > 1e-8)
    theta, c32, c64 = theta[pick], c32[pick], c64[pick]
    r = 2.0 / (sigma / _SCALE * np.abs(c32 + c64) / 2.0)
    assert r.size > 20 and r.max() <= rng.R_MAX
    sent = np.zeros(2 * r.size)
    as_float64 = channel._to_levels(_interleave(r, c64, np.sin(theta)), sent, sigma)
    as_float32 = channel._to_levels(
        _interleave(r, c32, np.sin(theta.astype(np.float32))), sent, sigma)
    decided = channel._received_codes(r, theta, sent, sigma, _scratch(sent.size))
    np.testing.assert_array_equal(decided, _decide_codes(as_float64))
    assert np.all(_decide_codes(as_float32) != decided)


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


# the AWGN links on which some symbol of the test's payloads lands near
# enough a midpoint for send to redo it with float64 trig
_REFINED = ("awgn_half_db", "awgn_minus_5db")


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
], ids=["awgn", "awgn_unprotected", "noiseless", "bsc", "bsc_unprotected", "bsc_0",
        "awgn_minus_5db", "awgn_20db_unprotected", "awgn_40db", "awgn_half_db",
        "awgn_3db", "awgn_30db_unprotected", "bsc_half", "bsc_2_to_minus_10_unprotected",
        "bsc_third"])
def test_transmit_frames_matches_transmit(cfg, request, monkeypatch, refined):
    # a plan and one send per seed vector give what the float64 reference
    # link gives frame by frame. The lengths cover every 64-QAM pad and
    # every pad to whole groups of 3 octets, payloads inside the header
    # guard, an empty one and one longer than the block budget; a 1,000-bit
    # budget splits the batch into many blocks, the 2^16-bit default into few
    lengths = [40, 41, 42, 0, 10, HEADER_LEN, 300, 22, 23, 24, 5000, 25]
    gen = rng.SplitMix64(8)
    payloads = [bytes(gen.randint(0, 255) for _ in range(n)) for n in lengths]
    buffer = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    for budget in (1000, 1 << 16):
        monkeypatch.setattr(channel, "_BLOCK_BITS", budget)
        plan = plan_link(buffer, lengths, cfg.channel_kind, cfg.header_protection)
        for point in range(2):
            seeds = [((1 << 64) - 1) ^ point, point, 5, 6, 7, 1 << 63, 9, 10, 11, 12, 13, 14]
            received, errors = send(plan, seeds, cfg)
            expect = [reference_transmit(p, replace(cfg, seed=s))
                      for p, s in zip(payloads, seeds)]
            assert received.tobytes() == b"".join(r for r, _ in expect)
            assert errors == sum(e for _, e in expect)
    if request.node.callspec.id in _REFINED:
        assert sum(refined) > 0


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
            send(plan, [0], cfg)


@pytest.mark.parametrize("cfg", [
    LinkConfig(snr_db=3.0),
    LinkConfig(),
    LinkConfig(channel_kind=BSC, bsc_flip_prob=0.1),
], ids=["awgn", "noiseless", "bsc"])
def test_send_refuses_a_seed_vector_not_one_per_frame(cfg):
    plan = plan_link(np.zeros(90, dtype=np.uint8), [30, 30, 30], cfg.channel_kind, PROTECTED)
    for seeds in ([0, 1, 2, 3], [0, 1], [[0, 1, 2]]):
        with pytest.raises(ValueError):
            send(plan, seeds, cfg)
    send(plan, [0, 1, 2], cfg)


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
            received, errors = send(plan, seeds, cfg)
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


@pytest.mark.parametrize("cfg", [
    LinkConfig(snr_db=3.0),
    LinkConfig(channel_kind=BSC, bsc_flip_prob=0.002),
], ids=["awgn", "bsc"])
def test_send_allocates_no_block_sized_buffers(cfg):
    # after a first send has set the plan's scratch going, a send allocates
    # its received buffer and small per-block arrays; tracemalloc sees the
    # buffers numpy allocates
    body = 234 - HEADER_LEN
    lengths = [234] * (4 * (channel._BLOCK_BITS // (8 * body)))
    plan = plan_link(np.zeros(sum(lengths), dtype=np.uint8), lengths, cfg.channel_kind,
                     PROTECTED)
    assert len(plan.blocks) == 4
    draws = 8 * max(int(blk.counts.sum()) for blk in plan.blocks)
    seeds = np.arange(len(lengths), dtype=np.uint64)
    send(plan, seeds, cfg)
    tracemalloc.start()
    try:
        send(plan, seeds + 1, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * draws, peak / draws


@pytest.mark.parametrize("n", [100_001, 100_000])
def test_awgn_scratch_shares_memory_between_roles(n):
    # u lives in raw and polar's (r, theta) in tmp, whose lifetimes do not
    # overlap: about 40 bytes per draw, 56 if every role had its own memory
    tracemalloc.start()
    try:
        s = channel._Scratch(n, True)
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert allocated <= 41 * n, allocated / n
    assert s.u.size == n and s.r.size == s.theta.size == n // 2
    assert np.shares_memory(s.u, s.raw) and not np.shares_memory(s.r, s.theta)
    assert np.shares_memory(s.r, s.tmp) and np.shares_memory(s.theta, s.tmp)


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
        _, errors = send(plan, np.arange(len(lengths)) + int(snr_db) * 1009,
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


# -- frame accounting ---------------------------------------------------------

def test_frames_required_examples():
    grid = FrameGrid()
    assert grid.bits_per_frame == 11088
    assert frames_required(1386, grid) == 1
    assert frames_required(1387, grid) == 2
    assert frames_required(2772, FrameGrid(streams=2)) == 1


def test_frames_required_positive_only():
    with pytest.raises(ValueError):
        frames_required(0)


# -- cross-path determinism ---------------------------------------------------

def test_channel_output_matches_numpy_rng_path():
    symbols = _all_symbols()
    n0 = 10.0 ** (-1.2)
    sigma = math.sqrt(n0 / 2.0)
    z = rng.normals(42, 2 * len(symbols))
    expect = symbols + sigma * (z[0::2] + 1j * z[1::2])
    np.testing.assert_allclose(awgn(symbols, 12.0, 42), expect, rtol=0, atol=1e-12)
