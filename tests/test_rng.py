import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsed import rng

SEEDS = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_scalar_and_stream_agree():
    gen = rng.SplitMix64(12345)
    scalar = [gen.next_u64() for _ in range(64)]
    bulk = rng.splitmix64_stream(12345, 64)
    assert scalar == [int(v) for v in bulk]


def test_known_first_output():
    # splitmix64(seed=0) first output, cross-checked against the published
    # reference sequence
    assert rng.SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_counter_based_prefix_property(seed):
    # output k depends only on (seed, k), so prefixes of longer streams match
    long = rng.splitmix64_stream(seed, 50)
    short = rng.splitmix64_stream(seed, 20)
    np.testing.assert_array_equal(long[:20], short)


def test_uniforms_in_unit_interval():
    u = rng.uniforms(7, 100_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01


def test_normals_moments():
    z = rng.normals(99, 1_000_000)
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 0.005
    assert abs(z.std() - 1.0) < 0.005


def test_normals_odd_length():
    assert rng.normals(5, 7).shape == (7,)
    np.testing.assert_array_equal(rng.normals(5, 7), rng.normals(5, 8)[:7])


def test_randint_inclusive_bounds():
    gen = rng.SplitMix64(3)
    draws = {gen.randint(2, 5) for _ in range(500)}
    assert draws == {2, 3, 4, 5}


def test_choice_uniformity():
    gen = rng.SplitMix64(11)
    seq = ("a", "b", "c")
    seen = {gen.choice(seq) for _ in range(100)}
    assert seen == set(seq)


# -- many seeds at once -------------------------------------------------------

def _streams(seeds, counts, steps, out, tmp):
    """The streams of seeds, counts[i] outputs each, back to back in out:
    each seed added to its pair of rng.stream_slices, then one _mix."""
    for seed, (terms, counters) in zip(seeds, rng.stream_slices(counts, steps, out)):
        np.add(terms, np.uint64(seed), out=counters)
    return rng._mix(out[:sum(counts)], tmp[:sum(counts)])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(SEEDS, st.integers(min_value=0, max_value=40)), max_size=8))
def test_streams_concatenate_single_seed_streams(pairs):
    seeds = [s for s, _ in pairs]
    counts = [c for _, c in pairs]
    even = [2 * c for c in counts]
    # into buffers longer than the streams, whose tail stays as it was
    tmp = np.empty(2 * sum(even) + 5, dtype=np.uint64)
    # with just enough counter terms, and with a longer shared run of them
    for steps in (rng.golden_steps(max(even, default=0)), rng.golden_steps(2 * sum(even) + 3)):
        out = np.zeros(tmp.size, dtype=np.uint64)
        assert len(rng.stream_slices(counts, steps, out)) == len(pairs)
        np.testing.assert_array_equal(
            _streams(seeds, counts, steps, out, tmp),
            np.concatenate([rng.splitmix64_stream(s, c) for s, c in pairs] or [[]]))
        assert not out[sum(counts):].any()
        # polar on streams of even counts, then float64 trig: each seed's normals
        raw = _streams(seeds, even, steps, out, tmp)
        r, theta = rng.polar(raw, np.empty(sum(counts)), np.empty(sum(counts)))
        normals = np.empty(2 * r.size)
        np.multiply(r, np.cos(theta), out=normals[0::2])
        np.multiply(r, np.sin(theta), out=normals[1::2])
        assert normals.tobytes() == np.concatenate(
            [rng.normals(s, c) for s, c in zip(seeds, even)] or [[]]).tobytes()


def test_mix_is_premix_then_finish_and_finish_inverts():
    # the two parts of splitmix64's output function make the whole, and the
    # last step's inverse y ^ y >> 31 ^ y >> 62 undoes it, for words with
    # the top bit set and clear
    z = np.concatenate([rng.golden_steps(1000), np.array([0, 1 << 63, (1 << 64) - 1,
                                                          (1 << 31) - 1], dtype=np.uint64)])
    t = np.empty_like(z)
    premixed = rng._premix(z.copy(), t)
    finished = rng._finish(premixed.copy(), t)
    np.testing.assert_array_equal(finished, rng._mix(z.copy(), t))
    np.testing.assert_array_equal(finished >> np.uint64(33), premixed >> np.uint64(33))
    undone = finished ^ finished >> np.uint64(31) ^ finished >> np.uint64(62)
    np.testing.assert_array_equal(undone, premixed)
