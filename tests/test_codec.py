import itertools
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gbsed import codec
from gbsed.errors import (
    CapacityError,
    FormatError,
    GbsedError,
    OntologyMismatch,
    ShapeError,
    TruncationError,
)
from gbsed.ontology import Attribute, Relation, RelationOntology
from gbsed.rng import SplitMix64
from gbsed.scenarios import ScenarioSpec, generate
from gbsed.scene_graph import SceneGraph, stack_graphs

# the most nodes the header's 16-bit N carries
_MAX_NODES = 0xFFFF


def _random_graph(seed, n, num_rel, edge_prob=0.2, d=4):
    gen = SplitMix64(seed)
    features = [[round(gen.uniform(-20, 20) * 64) / 64 for _ in range(d)]
                for _ in range(n)]
    edges = sorted(
        (i, r, j)
        for i in range(n) for j in range(n) if i != j
        for r in range(1, num_rel + 1)
        if gen.random() < edge_prob
    )
    return SceneGraph(features, tuple(edges))


def _tiny_ontology():
    return RelationOntology((Relation(1, "is_near"), Relation(2, "to_left_of")),
                            (Attribute(0, "class", "categorical"),))


# -- encode_tensor ------------------------------------------------------------

def test_encode_edgeless(ontology):
    g = SceneGraph(np.zeros((3, 4)), ())
    t = codec.encode_tensor(g, ontology)
    assert t.shape == (8, 3, 3) and t.dtype == np.uint8
    assert not t.any()


def test_encode_direct_transcription():
    o = _tiny_ontology()
    g = SceneGraph([[0.0], [1.0]], ((0, 1, 1), (1, 2, 0)))
    t = codec.encode_tensor(g, o)
    assert t[0][0][1] == 1 and t[1][1][0] == 2
    assert int(t.sum()) == 3


def test_encode_coordinate_bijection(ontology):
    g = _random_graph(11, 7, 8)
    t = codec.encode_tensor(g, ontology)
    coords = {(i, r + 1, j) for r in range(8)
              for i, j in zip(*np.nonzero(t[r]))}
    assert coords == set(map(tuple, g.edges.tolist()))
    for r in range(8):  # self-describing: slice r holds only {0, r+1}
        assert set(np.unique(t[r])) <= {0, r + 1}


def test_encode_bad_relation_id(ontology):
    g = SceneGraph(np.zeros((2, 4)), ((0, 9, 1),))
    with pytest.raises(OntologyMismatch):
        codec.encode_tensor(g, ontology)


# -- compress -----------------------------------------------------------------

def test_compress_all_zero(ontology):
    retained = codec.compress(np.zeros((8, 4, 4), dtype=np.uint8))
    assert retained.shape == (0, 4, 4)


def test_compress_identity_case(ontology):
    slices = np.zeros((8, 2, 2), dtype=np.uint8)
    for r in range(8):
        slices[r, 0, 1] = r + 1
    assert len(codec.compress(slices)) == 8


def test_compress_selects_active_relations():
    slices = np.zeros((8, 3, 3), dtype=np.uint8)
    for r in (1, 3, 7):
        slices[r - 1, 0, 1] = r
    c = codec.compress(slices)
    assert [int(m.max()) for m in c] == [1, 3, 7]
    # slice-count reduction 5/8 = 62.5%
    assert 1 - len(c) / 8 == pytest.approx(0.625)


def test_compress_retained_independent_of_tensor():
    slices = np.zeros((4, 2, 2), dtype=np.uint8)
    slices[2, 1, 0] = 3
    slices[0, 0, 1] = 1
    c = codec.compress(slices)
    slices[:] = 0
    assert c.tolist() == [[[0, 1], [0, 0]], [[0, 0], [3, 0]]]


def test_compress_matches_distinct_relation_oracle(ontology):
    for seed in range(50):
        g = _random_graph(seed, 6, 8)
        c = codec.compress(codec.encode_tensor(g, ontology))
        assert len(c) == len({r for _, r, _ in g.edges})


# -- decompress ---------------------------------------------------------------

def test_decompress_empty():
    triplets, warnings = codec.decompress(np.zeros((0, 4, 4), dtype=np.uint8), 5)
    assert triplets.shape == (0, 3) and triplets.dtype == np.int64
    assert warnings == []


def test_decompress_inverts_compress(ontology):
    for seed in range(20):
        g = _random_graph(seed + 500, 5, 8)
        tensor = codec.encode_tensor(g, ontology)
        triplets, warnings = codec.decompress(codec.compress(tensor), 8)
        assert triplets.dtype == np.int64
        np.testing.assert_array_equal(triplets, g.edges)
        assert warnings == []


def test_mode_repair_out_of_range_discarded():
    mat = np.zeros((3, 3), dtype=np.uint8)
    mat[0, 1] = mat[0, 2] = mat[1, 0] = 3
    mat[2, 2] = 200
    triplets, warnings = codec.decompress(mat[None], 8)
    assert len(warnings) == 1
    assert triplets.tolist() == [[0, 3, 1], [0, 3, 2], [1, 3, 0]]  # 200 never placed


def test_mode_repair_tie_toward_smallest_id():
    mat = np.zeros((2, 2), dtype=np.uint8)
    mat[0, 1] = 5
    mat[1, 0] = 2
    triplets, warnings = codec.decompress(mat[None], 8)
    # the 5 is in range, so relation 2's matrix keeps it as an edge
    assert triplets.tolist() == [[0, 2, 1], [1, 2, 0]]
    assert len(warnings) == 1


def test_mode_repair_drop_when_nothing_in_range():
    mat = np.full((2, 2), 200, dtype=np.uint8)
    out, warnings = codec.decompress(mat[None], 8)
    assert not out.any()
    assert "dropped" in warnings[0]


def test_empty_matrix_dropped_with_warning():
    mat = np.zeros((2, 2), dtype=np.uint8)
    out, warnings = codec.decompress(mat[None], 8)
    assert not out.any() and len(warnings) == 1


def test_duplicate_relation_later_wins():
    a = np.zeros((2, 2), dtype=np.uint8)
    a[0, 1] = 3
    b = np.zeros((2, 2), dtype=np.uint8)
    b[1, 0] = 3
    triplets, warnings = codec.decompress(np.stack([a, b]), 8)
    assert triplets.tolist() == [[1, 3, 0]]
    assert any("duplicate" in w for w in warnings)


def _reference_resolve(mat, num_relations):
    """The per-matrix loop decompress ran before relation_ids: (id or None, warning)."""
    values = mat[mat > 0]
    if values.size == 0:
        return None, "matrix dropped: no nonzero entry"
    uniq = np.unique(values)
    if uniq.size == 1 and 1 <= int(uniq[0]) <= num_relations:
        return int(uniq[0]), None
    in_range = values[(values >= 1) & (values <= num_relations)]
    if in_range.size == 0:
        return None, f"matrix dropped: no in-range nonzero value among {uniq.tolist()}"
    counts = np.bincount(in_range.astype(np.int64), minlength=num_relations + 1)
    rel = int(np.flatnonzero(counts == counts.max())[0])  # ties toward smallest id
    return rel, f"matrix repaired to relation {rel} (values {uniq.tolist()})"


def _reference_decompress(retained, num_relations):
    n = retained.shape[1]
    tensor = np.zeros((num_relations, n, n), dtype=np.uint8)
    occupied = set()
    warnings = []
    for mat in retained:
        rel, warning = _reference_resolve(mat, num_relations)
        if warning is not None:
            warnings.append(warning)
        if rel is None:
            continue
        if rel in occupied:
            warnings.append(f"duplicate matrix for relation {rel}; later one kept")
        occupied.add(rel)
        tensor[rel - 1] = (mat >= 1) & (mat <= num_relations)
    return tensor, warnings


def _random_stack(gen, num_relations):
    """(K, N, N) received matrices: zeros, in-range ids, out-of-range values,
    some clean, some with forced ties and some sharing an id."""
    k, n = int(gen.integers(0, 7)), int(gen.integers(1, 6))
    stack = np.zeros((k, n, n), dtype=np.uint8)
    for mat in stack.reshape(k, n * n):
        style = gen.integers(5)
        if style == 0:    # left all zero
            continue
        ids = gen.integers(1, num_relations + 1, size=2)
        if style == 1:    # one id, clean
            mat[gen.choice(mat.size, gen.integers(1, mat.size + 1), replace=False)] = ids[0]
        elif style == 2 and mat.size >= 2:  # a tie between two ids
            at = gen.choice(mat.size, 2 * (mat.size // 2), replace=False)
            mat[at[::2]], mat[at[1::2]] = ids
        elif style == 3:  # out-of-range values only
            mat[gen.integers(mat.size)] = gen.integers(num_relations + 1, 256)
        else:             # anything
            mat[:] = gen.choice([0, 0, 0, *ids, num_relations + 1, 255], size=mat.size)
    if k >= 2 and gen.random() < 0.5:  # a duplicate of an earlier matrix's id
        stack[k - 1] = np.where(stack[k - 1] > 0, stack[0].max(), 0)
    return stack


def test_relation_rule_matches_the_per_matrix_loop():
    gen = np.random.default_rng(29)
    all_warnings = []
    for num_relations in (1, 3, 8):
        stacks = [_random_stack(gen, num_relations) for _ in range(400)]
        for retained in stacks:
            triplets, warnings = codec.decompress(retained, num_relations)
            expect_tensor, expect_warnings = _reference_decompress(retained, num_relations)
            # the triplets of the reference's tensor, in the order of a sort
            r, src, dst = np.nonzero(expect_tensor)
            expect = sorted(zip(src.tolist(), (r + 1).tolist(), dst.tolist()))
            assert triplets.dtype == np.int64 and triplets.shape == (len(expect), 3)
            assert list(map(tuple, triplets.tolist())) == expect
            assert warnings == expect_warnings
            all_warnings += warnings
        # the same stacks as frames of one pass: every frame's ids and kept matrices
        frame_ids = [s for s in stacks if s.shape[1] == 3]
        octets = np.concatenate([s.reshape(-1) for s in frame_ids])
        k = np.array([len(s) for s in frame_ids])
        rel, chosen = codec.relation_ids(octets, np.arange(k.sum()) * 9,
                                         np.repeat(np.arange(len(frame_ids)), k),
                                         len(frame_ids), num_relations)
        expect_rel = [_reference_resolve(m, num_relations)[0] or 0
                      for s in frame_ids for m in s]
        assert rel.tolist() == expect_rel
        width = num_relations + 1
        expect_chosen = np.full(len(frame_ids) * width, -1)
        for m, (f, r) in enumerate(zip(np.repeat(np.arange(len(frame_ids)), k), expect_rel)):
            if r:
                expect_chosen[f * width + r] = m
        assert chosen.tolist() == expect_chosen.tolist()
    for kind in ("matrix repaired", "matrix dropped: no nonzero", "matrix dropped: no in-range",
                 "duplicate matrix"):
        assert any(w.startswith(kind) for w in all_warnings), kind


# -- regenerate ---------------------------------------------------------------

def test_regenerate_zero_tensor():
    g = codec.regenerate(np.zeros((0, 3), dtype=np.int64), np.zeros((2, 4)))
    assert g.num_nodes == 2 and g.edges.shape == (0, 3)


def test_regenerate_single_triplet():
    o = _tiny_ontology()
    g = codec.regenerate(np.array([[0, 2, 1]]), np.zeros((2, 1)))
    assert g.edges.tolist() == [[0, 2, 1]] and g.edges.dtype == np.int64
    assert not g.edges.flags.writeable
    assert o.relation_name(2) == "to_left_of"


def test_regenerate_shape_mismatch():
    # SceneGraph does not check node range: node 5 of 2 must be refused here
    with pytest.raises(ShapeError):
        codec.regenerate(np.array([[0, 1, 5]]), np.zeros((2, 4)))
    for triplets in (np.array([[-1, 1, 0]]), np.zeros((1, 2), dtype=np.int64),
                     np.zeros(3, dtype=np.int64), np.array([[0.0, 1.0, 1.0]])):
        with pytest.raises(ShapeError):
            codec.regenerate(triplets, np.zeros((2, 4)))


def test_regenerate_converts_the_features_once():
    # a parsed frame's float32 features become the graph's float64 matrix
    # in one conversion: the peak is the matrix, twice the float32 bytes,
    # where a second float64 copy made it four times
    feats = np.arange(65_535 * 4, dtype=np.float32).reshape(-1, 4)
    tracemalloc.start()
    try:
        g = codec.regenerate(np.zeros((0, 3), dtype=np.int64), feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(g.features, feats)
    assert peak <= 2.5 * feats.nbytes, peak / feats.nbytes


def test_regenerate_keeps_a_signalling_nan():
    # float32 signalling NaNs off the wire become float64 NaNs, with no warning
    feats = np.frombuffer(bytes.fromhex("7f800001" "3f800000"), dtype=codec.FEATURE)
    g = codec.regenerate(np.zeros((0, 3), dtype=np.int64), feats.astype(np.float32).reshape(1, 2))
    assert np.isnan(g.features[0, 0]) and g.features[0, 1] == 1.0


# -- serialize / parse --------------------------------------------------------

def test_payload_size_example():
    o = _tiny_ontology()
    mat = np.zeros((2, 2), dtype=np.uint8)
    mat[0, 1] = 1
    payload = codec.serialize(mat[None], np.zeros((2, 1), dtype=np.float32), o)
    assert len(payload) == 33 == codec.payload_length(2, 1, 1)
    back, feats = codec.parse(payload, o)
    np.testing.assert_array_equal(back, mat[None])
    assert feats.shape == (2, 1)


def test_payload_size_formula(ontology):
    for seed in range(20):
        g = _random_graph(seed + 900, 6, 8)
        c = codec.compress(codec.encode_tensor(g, ontology))
        payload = codec.serialize(c, g.features, ontology)
        assert len(payload) == codec.payload_length(6, 4, len(c))


def test_empty_retained_payload(ontology):
    c = np.zeros((0, 3, 3), dtype=np.uint8)
    payload = codec.serialize(c, np.zeros((3, 4), dtype=np.float32), ontology)
    assert len(payload) == codec.payload_length(3, 4, 0)
    back, _ = codec.parse(payload, ontology)
    assert back.shape == (0, 3, 3)


def test_serialize_injective_over_corpus(ontology, corpus_frames):
    seen = set()
    for frame in corpus_frames:
        c = codec.compress(codec.encode_tensor(frame, ontology))
        seen.add(codec.serialize(c, frame.features, ontology))
    distinct_inputs = {
        (frame.edges.tobytes(), tuple(map(tuple, frame.features.astype(np.float32).tolist())))
        for frame in corpus_frames
    }
    assert len(seen) == len(distinct_inputs)


def test_parse_bad_magic(ontology):
    g = _random_graph(1, 3, 8)
    payload = bytearray(_serialized(g, ontology))
    payload[0] ^= 0xFF
    with pytest.raises(FormatError) as e:
        codec.parse(bytes(payload), ontology)
    assert e.value.offset == 0


def test_parse_bad_version(ontology):
    payload = bytearray(_serialized(_random_graph(2, 3, 8), ontology))
    payload[4] = 99
    with pytest.raises(FormatError) as e:
        codec.parse(bytes(payload), ontology)
    assert e.value.offset == 4


def test_parse_digest_mismatch(ontology):
    payload = bytearray(_serialized(_random_graph(3, 3, 8), ontology))
    payload[5] ^= 1
    with pytest.raises(OntologyMismatch) as e:
        codec.parse(bytes(payload), ontology)
    assert e.value.offset == 5


def test_parse_truncated(ontology):
    payload = _serialized(_random_graph(4, 3, 8), ontology)
    with pytest.raises(TruncationError):
        codec.parse(payload[:10], ontology)
    with pytest.raises(TruncationError):
        codec.parse(payload[:-1], ontology)


def test_parse_trailing_octets(ontology):
    payload = _serialized(_random_graph(5, 3, 8), ontology)
    with pytest.raises(FormatError) as e:
        codec.parse(payload + b"\x00", ontology)
    assert e.value.offset == len(payload)


def test_parse_nonzero_flags(ontology):
    payload = bytearray(_serialized(_random_graph(6, 3, 8), ontology))
    payload[19] = 1
    with pytest.raises(FormatError) as e:
        codec.parse(bytes(payload), ontology)
    assert e.value.offset == 19


def test_parse_counts_other_than_the_ontology(ontology):
    # d and |R| must equal the ontology's attribute and relation counts
    for at, offset in ((16, 15), (17, 17)):
        payload = bytearray(_serialized(_random_graph(7, 3, 8), ontology))
        payload[at] ^= 1
        with pytest.raises(FormatError) as e:
            codec.parse(bytes(payload), ontology)
        assert e.value.offset == offset


def test_serialize_shape_errors(ontology):
    # so that every payload serialize writes parses, it refuses features of
    # another width than the ontology's and matrices that are not (K, N, N)
    mats = np.zeros((1, 3, 3), dtype=np.uint8)
    for feats in (np.zeros((3, 5)), np.zeros((2, 4)), np.zeros(12)):
        with pytest.raises(ShapeError):
            codec.serialize(mats, feats, ontology)
    for bad in (mats[0], np.zeros((1, 3, 2), dtype=np.uint8)):
        with pytest.raises(ShapeError):
            codec.serialize(bad, np.zeros((3, 4)), ontology)
    # parse refuses node count 0
    with pytest.raises(ShapeError):
        codec.serialize(np.zeros((0, 0, 0), dtype=np.uint8), np.zeros((0, 4)), ontology)


def _parses(payload, ontology):
    try:
        codec.parse(payload, ontology)
    except GbsedError:
        return False
    return True


def test_headers_parse_agrees_with_parse(ontology):
    gen = np.random.default_rng(13)
    # 8 nodes, no edges: 149 octets, as are 4 nodes and 4 matrices
    eight = SceneGraph(np.ones((8, 4)), ())
    for graph in (eight, _random_graph(7, 3, 8), _random_graph(8, 1, 8)):
        payload = _serialized(graph, ontology)
        sent = np.frombuffer(payload[:codec.HEADER_LEN], dtype=np.uint8)
        headers = []
        for at in range(codec.HEADER_LEN):
            for value in range(256):
                if value != sent[at]:
                    headers.append(sent.copy())
                    headers[-1][at] = value
        for _ in range(3000):
            h = sent.copy()
            at = gen.choice(codec.HEADER_LEN, size=gen.integers(2, 5), replace=False)
            h[at] = gen.integers(0, 256, at.size)
            headers.append(h)
            # N and K small enough that the length may fit, sometimes with
            # one more octet changed
            h = sent.copy()
            h[13:15] = 0, gen.integers(0, 17)
            h[18] = gen.integers(0, 12)
            if gen.random() < 0.3:
                h[gen.integers(codec.HEADER_LEN)] = gen.integers(0, 256)
            headers.append(h)
        headers = np.array(headers)
        expect = [_parses(h.tobytes() + payload[codec.HEADER_LEN:], ontology) for h in headers]
        got = codec.headers_parse(headers, np.broadcast_to(sent, headers.shape),
                                  np.full(len(headers), len(payload)))
        assert got.tolist() == expect
        assert any(expect) and not all(expect)
    sent = np.frombuffer(_serialized(eight, ontology)[:codec.HEADER_LEN], dtype=np.uint8)
    crafted = sent.copy()
    crafted[14], crafted[18] = 4, 4  # N 8 -> 4, K 0 -> 4
    assert codec.headers_parse(crafted[None], sent[None], np.array([149])).tolist() == [True]


def test_capacity_errors():
    c = np.zeros((0, 3, 3), dtype=np.uint8)
    wide = SimpleNamespace(num_relations=300, num_attributes=4)
    with pytest.raises(CapacityError):
        codec.serialize(c, np.zeros((3, 4), dtype=np.float32), wide)


def test_encode_tensor_refuses_before_allocating(ontology):
    # 70,000 nodes would be |R|·4.9 GB of relation slices; the header's
    # 16-bit N cannot carry them, so encode_tensor refuses before allocating
    with pytest.raises(CapacityError):
        codec.encode_tensor(SceneGraph(np.zeros((70_000, 1)), ((0, 1, 1),)), ontology)
    with pytest.raises(CapacityError):
        codec.encode_tensor(_random_graph(1, 3, 1), SimpleNamespace(num_relations=300))


def _serialized(g, ontology):
    c = codec.compress(codec.encode_tensor(g, ontology))
    return codec.serialize(c, g.features, ontology)


def test_full_pipeline_round_trip(ontology):
    for seed in range(30):
        g = _random_graph(seed + 2000, 8, 8)
        payload = _serialized(g, ontology)
        back, feats = codec.parse(payload, ontology)
        triplets, warnings = codec.decompress(back, ontology.num_relations)
        out = codec.regenerate(triplets, feats)
        assert warnings == []
        np.testing.assert_array_equal(out.edges, g.edges)
        np.testing.assert_array_equal(out.features,
                                      g.features.astype(np.float32))


# -- one encoder call for a pass ------------------------------------------------

def _assert_encodes_as_the_stages(frames, ontology):
    buffer, lengths, _ = codec.encode_frames(frames, ontology)
    staged = [_serialized(f, ontology) for f in frames]
    assert buffer.dtype == np.uint8 and lengths.dtype == np.int64
    assert lengths.tolist() == [len(p) for p in staged]
    assert buffer.tobytes() == b"".join(staged)


def _crafted_frames():
    gen = SplitMix64(19)

    def features(n):
        return [[gen.uniform(-40, 40) for _ in range(4)] for _ in range(n)]

    return {
        "no_edges": SceneGraph(np.ones((3, 4)), ()),
        "one_node": SceneGraph(np.ones((1, 4)), ()),
        "one_node_self_edge": SceneGraph(np.ones((1, 4)), ((0, 5, 0),)),
        "all_relations": SceneGraph(
            np.ones((3, 4)), tuple(sorted([(0, r, 1) for r in range(1, 9)] + [(2, 3, 0)]))),
        # N's high octet is 0 at 255 nodes and 1 at 256
        "n_255": SceneGraph(features(255), ((0, 1, 254), (100, 3, 200), (254, 8, 0))),
        "n_256": SceneGraph(features(256), ((0, 2, 255), (255, 2, 0), (255, 7, 255))),
        "special_values": SceneGraph(
            [[np.nan, np.inf, -np.inf, -0.0], [1e-45, 3.4e38, -1.5, 2.0 ** -140]],
            ((1, 4, 0),)),
    }


@pytest.mark.parametrize("case", sorted(_crafted_frames()))
def test_encode_frames_writes_what_the_stages_write_for_one_frame(ontology, case):
    _assert_encodes_as_the_stages([_crafted_frames()[case]], ontology)


def test_encode_frames_writes_what_the_stages_write_for_crafted_passes(ontology):
    frames = list(_crafted_frames().values())
    _assert_encodes_as_the_stages(frames, ontology)
    _assert_encodes_as_the_stages(frames[::-1] + frames, ontology)
    # another digest and |R| in the header
    nine = replace(ontology, relations=ontology.relations + (Relation(9, "overtaking"),))
    _assert_encodes_as_the_stages(frames, nine)


def test_encode_frames_writes_what_the_stages_write_for_the_corpora(ontology, corpus_frames):
    _assert_encodes_as_the_stages(corpus_frames, ontology)
    dense = generate(ScenarioSpec(seed=5, num_sequences=4, vehicles_range=(24, 30),
                                  lane_count=5), ontology)
    _assert_encodes_as_the_stages([f for seq in dense for f in seq.frames], ontology)


def test_encode_frames_of_no_frames(ontology):
    buffer, lengths, _ = codec.encode_frames([], ontology)
    assert buffer.size == 0 and lengths.size == 0


def _staged_error(frame, ontology):
    with pytest.raises(GbsedError) as e:
        _serialized(frame, ontology)
    return type(e.value), str(e.value)


# frames of 4 features that the staged encode refuses, each for a reason
# checked at another point of encode_tensor or serialize
REFUSED = {
    "no_nodes": SceneGraph(np.zeros((0, 4)), ()),
    "no_nodes_one_edge": SceneGraph(np.zeros((0, 4)), ((0, 1, 0),)),
    "relation_0": SceneGraph(np.zeros((2, 4)), ((0, 0, 1),)),
    "relation_9": SceneGraph(np.zeros((2, 4)), ((0, 9, 1),)),
    "node_outside_then_relation_9": SceneGraph(np.zeros((2, 4)), ((0, 1, 5), (0, 9, 1))),
    "relation_9_then_node_outside": SceneGraph(np.zeros((4, 4)), ((0, 9, 1), (3, 1, 4))),
    "negative_node": SceneGraph(np.zeros((2, 4)), ((-1, 1, 0),)),
    "too_many_nodes": SceneGraph(np.zeros((_MAX_NODES + 1, 4)), ()),
}


def test_encode_frames_refuses_the_first_frame_the_stages_refuse(ontology):
    good = [_random_graph(s, 5, 8) for s in range(3)]
    for a, b in itertools.permutations(sorted(REFUSED), 2):
        expect = _staged_error(REFUSED[a], ontology)
        frames = [good[0], REFUSED[a], good[1], REFUSED[b], good[2]]
        with pytest.raises(GbsedError) as e:
            codec.encode_frames(frames, ontology)
        assert (type(e.value), str(e.value)) == expect, (a, b)
    # features of another width than the ontology's: refused after the edges
    for frame in (SceneGraph(np.zeros((2, 5)), ()), SceneGraph(np.zeros((2, 5)), ((0, 1, 2),))):
        with pytest.raises(GbsedError) as e:
            codec.encode_frames([frame, _random_graph(4, 2, 8, d=5)], ontology)
        assert (type(e.value), str(e.value)) == _staged_error(frame, ontology)


def test_encode_frames_runs_the_stages_on_its_refused_graphs_only(ontology, monkeypatch):
    calls = []
    original = codec.encode_tensor

    def spy(graph, ontology):
        calls.append(graph)
        return original(graph, ontology)

    monkeypatch.setattr(codec, "encode_tensor", spy)
    good = [_random_graph(s, 5, 8) for s in range(5)]
    _, _, stacked = codec.encode_frames(good, ontology)
    assert calls == []
    for got, expect in zip(stacked, stack_graphs(good), strict=True):
        assert got.dtype == expect.dtype
        np.testing.assert_array_equal(got, expect)
    # one refused graph, at index 3: the stages run on it alone
    frames = good[:3] + [REFUSED["relation_9"]] + good[4:]
    with pytest.raises(OntologyMismatch):
        codec.encode_frames(frames, ontology)
    assert list(map(id, calls)) == [id(frames[3])]
    # a 5-feature graph at index 2 does not stack: the stages run on every
    # graph in order and raise at it
    calls.clear()
    frames = good[:2] + [_random_graph(5, 3, 8, d=5)] + good[3:]
    with pytest.raises(ShapeError, match=r"\(3, 5\) != \(3, 4\)"):
        codec.encode_frames(frames, ontology)
    assert list(map(id, calls)) == list(map(id, frames[:3]))
