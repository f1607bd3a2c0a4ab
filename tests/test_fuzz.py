"""Totality fuzzing: the payload parser and the scenes parser must return a
value or raise a typed package error on any input, never crash. And the
one-call encoder must write what the staged encode writes, on any graphs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsed import codec
from gbsed.errors import GbsedError
from gbsed.ontology import default_ontology
from gbsed.rng import SplitMix64, splitmix64_stream
from gbsed.scenarios import scenes_from_text
from gbsed.scene_graph import SceneGraph

ONT = default_ontology()


def _random_octets(seed, length):
    if length == 0:
        return b""
    raw = splitmix64_stream(seed, (length + 7) // 8)
    return raw.view(np.uint8).tobytes()[:length]


def test_parser_total_over_random_octets():
    gen = SplitMix64(2024)
    for trial in range(2000):
        payload = _random_octets(trial, gen.randint(0, 4096))
        try:
            codec.parse(payload, ONT)
        except GbsedError:
            pass


def test_parser_total_over_mutated_valid_payloads(corpus_frames):
    gen = SplitMix64(55)
    frames = corpus_frames[:50]
    for trial in range(2000):
        frame = frames[trial % len(frames)]
        c = codec.compress(codec.encode_tensor(frame, ONT))
        payload = bytearray(codec.serialize(c, frame.features, ONT))
        for _ in range(gen.randint(1, 8)):
            payload[gen.randint(0, len(payload) - 1)] ^= 1 << gen.randint(0, 7)
        try:
            compressed, feats = codec.parse(bytes(payload), ONT)
            triplets, _ = codec.decompress(compressed, ONT.num_relations)
            codec.regenerate(triplets, feats)
        except GbsedError:
            pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=512))
def test_parser_total_hypothesis(payload):
    try:
        codec.parse(payload, ONT)
    except GbsedError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=200))
def test_scenes_parser_total(text):
    try:
        scenes_from_text(text, ONT)
    except GbsedError:
        pass


def test_truncation_of_valid_payload_always_typed(corpus_frames):
    frame = corpus_frames[0]
    c = codec.compress(codec.encode_tensor(frame, ONT))
    payload = codec.serialize(c, frame.features, ONT)
    for cut in range(len(payload)):
        try:
            codec.parse(payload[:cut], ONT)
            assert False, f"truncation at {cut} parsed"
        except GbsedError:
            pass


# a graph: up to 12 nodes of 4 features each, float32 values, infinities and
# NaN among them, and a set of triplets over its nodes and the 8 relations
_graphs = st.integers(1, 12).flatmap(lambda n: st.builds(
    lambda features, edges: SceneGraph(np.array(features).reshape(n, 4), tuple(sorted(edges))),
    st.lists(st.floats(allow_nan=False, width=32) | st.just(math.nan),
             min_size=4 * n, max_size=4 * n),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(1, 8), st.integers(0, n - 1)),
            max_size=3 * n)))


@settings(max_examples=120, deadline=None)
@given(st.lists(_graphs, min_size=1, max_size=6))
def test_one_encoder_call_writes_what_the_stages_write(graphs):
    buffer, lengths, _ = codec.encode_frames(graphs, ONT)
    staged = [codec.serialize(codec.compress(codec.encode_tensor(g, ONT)), g.features, ONT)
              for g in graphs]
    assert lengths.tolist() == [len(p) for p in staged]
    assert buffer.tobytes() == b"".join(staged)
