import csv
import dataclasses
import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gbsed
from gbsed import channel, codec, scenarios, sweep
from gbsed.channel import BSC, UNPROTECTED, LinkConfig, frames_required, transmit
from gbsed.cli import build_parser, config_from_args, main
from gbsed.codec import HEADER_LEN
from gbsed.errors import FormatError, GbsedError, ShapeError, SpecError
from gbsed.metrics import auc, classification_metrics, semantic_fidelity
from gbsed.ontology import default_ontology
from gbsed.scenarios import ScenarioSpec, generate
from gbsed.scene_graph import SceneGraph
from gbsed.task import GraphSequence, near_ego, task_consistency, verdict_consistency
from reference_link import reference_transmit

ONT = default_ontology()


@pytest.fixture(scope="module")
def small_corpus():
    return generate(ScenarioSpec(seed=7, num_sequences=10, frames_per_sequence=5), ONT)


# -- sweep engine -------------------------------------------------------------

def test_encode_decode_frame_round_trip(small_corpus):
    frame = small_corpus[0].frames[0]
    payload = sweep.encode_frame(frame, ONT)
    back = sweep.decode_frame(payload, ONT)
    np.testing.assert_array_equal(back.edges, frame.edges)


# frozen digests of three 2,000-trial sweeps of the default corpus at seed 0:
# any change that alters the sweep's CSV bytes must update them deliberately
SWEEP_SHA256 = [
    (dict(snr_points=(0.0, 10.0, 16.0, 20.0, math.inf)),
     "2742f76e7c649bfc360c671ee70d78706e7c70149080af93946c6629ef613409"),
    (dict(snr_points=(10.0, 20.0), header_protection=UNPROTECTED),
     "39c3b61eeaff66fe984e3d6aeb1959cb107d1f8c913b1208b14f5d3ef671dafa"),
    (dict(channel_kind=BSC, bsc_flip_prob=0.002, header_protection=UNPROTECTED),
     "e7faf7dbe64fb1856ceeb888ba6d3978069d298b88c0fa01d95d438a4d90f059"),
]


@pytest.mark.parametrize("fields, digest", SWEEP_SHA256,
                         ids=["awgn_protected", "awgn_unprotected", "bsc_unprotected"])
def test_sweep_csv_golden_hash(default_corpus, fields, digest):
    cfg = sweep.SweepConfig(trials_per_point=2000, base_seed=0, **fields)
    text = sweep.rows_to_csv(sweep.run_sweep(default_corpus, ONT, cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_decode_frame_garbage_is_none():
    assert sweep.decode_frame(b"garbage", ONT) is None
    assert sweep.decode_frame(b"", ONT) is None


# edgeless (K = 0) frames of 8, 16 and 32 KB and 1 MB payloads: a header
# field must not drive an allocation that the payload does not bound, as a
# dense (|R|, N, N) tensor of |R|·N² octets would
@pytest.mark.parametrize("n", [500, 1_000, 2_000, 0xFFFF])
def test_decode_frame_memory_is_bounded_by_the_payload(n):
    payload = sweep.encode_frame(SceneGraph(np.zeros((n, ONT.num_attributes)), ()), ONT)
    tracemalloc.start()
    try:
        graph = sweep.decode_frame(payload, ONT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.num_nodes == n and graph.edges.shape == (0, 3)
    assert peak <= 8 * len(payload), (peak, len(payload))


# two header bit flips that keep the length 21 + K·N² + 4·N·d: the feature
# width must still match the ontology's, or the frame parses and is
# scored with too few or misaligned feature columns
@pytest.mark.parametrize("n, edges, d_flip, k_flip", [
    (4, ((0, 1, 1), (1, 2, 0)), 4, 4),              # d 4 -> 0, K 2 -> 6
    (8, ((0, 1, 1), (2, 3, 4), (5, 6, 7)), 2, 1),   # d 4 -> 6, K 3 -> 2
])
def test_header_of_another_feature_width_is_unparseable(n, edges, d_flip, k_flip):
    frame = SceneGraph(np.arange(4.0 * n).reshape(n, 4), edges)
    payload = bytearray(sweep.encode_frame(frame, ONT))
    payload[16] ^= d_flip  # low octet of d
    payload[18] ^= k_flip  # K
    payload = bytes(payload)
    with pytest.raises(FormatError) as e:
        codec.parse(payload, ONT)
    assert e.value.offset == 15
    assert sweep.decode_frame(payload, ONT) is None
    lay = sweep._lay_out([GraphSequence((frame,))], ONT)
    received = np.frombuffer(payload, dtype=np.uint8)
    fidelity, any_near, near_frame, near_row = sweep._score_pass(lay, received[None], ONT)
    assert fidelity.tolist() == [0.0] and any_near.tolist() == [False]
    assert near_frame.size == near_row.size == 0


def test_changed_header_that_parses_is_decoded_frame_by_frame():
    # 8 nodes and no matrix arrive as 4 nodes and 4 matrices: 149 octets
    # either way, so the frame parses. Its matrices are read from the
    # features of rows 0-3 and its features from rows 4-7. The first octet
    # of row 0's bev_x and bev_y (0x01000000 = 2**-125) makes an is_near
    # matrix with nodes 1 and 2 near the ego; received node 1 is sent row 5,
    # a vehicle. Received nodes 0 and 3, sent rows 4 and 7, copy rows 0 and
    # 3: 2 of 8 entities are recovered.
    tiny = 2.0 ** -125
    features = np.zeros((8, 4))
    features[0] = features[4] = (0.0, tiny, tiny, 0.0)
    features[5] = (0.0, 40.0, 40.0, 1.0)
    features[6] = (2.0, 40.0, 40.0, 1.0)
    frame = SceneGraph(features, ())
    payload = bytearray(sweep.encode_frame(frame, ONT))
    payload[14], payload[18] = 4, 4  # N 8 -> 4, K 0 -> 4
    graph = sweep.decode_frame(bytes(payload), ONT)
    assert graph.num_nodes == 4 and graph.edges.tolist() == [[1, 1, 0], [2, 1, 0]]
    received = np.frombuffer(bytes(payload), dtype=np.uint8)
    lay = sweep._lay_out([GraphSequence((frame,))], ONT)
    fidelity, any_near, near_frame, near_row = sweep._score_pass(lay, received[None], ONT)
    assert fidelity.tolist() == [semantic_fidelity(frame, graph, ONT).fidelity] == [2 / 8]
    assert [a.tolist() for a in near_ego([graph], ONT)] == [[True], [0], [1]]
    assert any_near.tolist() == [True]
    assert near_frame.tolist() == [0] and near_row.tolist() == [1]
    # a batch of two receptions, row 0 intact and row 1 the changed one:
    # what row 1 decodes lands on its frame, frame 1, not on frame 0
    lay = sweep._lay_out([GraphSequence((frame,))], ONT, trials=2)
    assert lay.rows == 2
    intact = np.frombuffer(sweep.encode_frame(frame, ONT), dtype=np.uint8)
    fidelity, any_near, near_frame, near_row = sweep._score_pass(
        lay, np.stack([intact, received]), ONT)
    assert fidelity.tolist() == [1.0, 2 / 8]
    assert any_near.tolist() == [False, True]
    assert near_frame.tolist() == [1] and near_row.tolist() == [1]


def test_decompress_and_the_sweep_share_the_relation_rule(small_corpus, monkeypatch):
    # a change of the relation rule (such as minimum-distance decoding) made
    # in codec.relation_ids reaches both decoders
    callers = []
    original = codec.relation_ids

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(codec, "relation_ids", spy)
    frame = small_corpus[0].frames[0]
    assert sweep.decode_frame(sweep.encode_frame(frame, ONT), ONT) == frame
    sweep.run_sweep(small_corpus, ONT, sweep.SweepConfig(snr_points=(10.0,),
                                                         trials_per_point=1))
    assert callers == ["decompress", "_score_pass"]


def test_the_sweep_and_headers_parse_share_the_header_fields(small_corpus, monkeypatch):
    # where N, d and K sit in a header is codec's to know: a change of the
    # header layout made in codec.header_fields reaches both readers
    callers = []
    original = codec.header_fields

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(codec, "header_fields", spy)
    sweep.run_sweep(small_corpus, ONT, sweep.SweepConfig(snr_points=(10.0,),
                                                         trials_per_point=1))
    assert callers == ["_lay_out", "headers_parse"]


def test_frame_without_nodes_is_refused():
    # parse refuses node count 0, so encode_frame does too; the sweep would
    # otherwise score 0 of 0 entities
    empty = SceneGraph(np.zeros((0, 4)), ())
    with pytest.raises(ShapeError):
        sweep.encode_frame(empty, ONT)
    cfg = sweep.SweepConfig(snr_points=(math.inf,), trials_per_point=1)
    with pytest.raises(GbsedError):
        sweep.run_sweep([GraphSequence((empty,))], ONT, cfg)


@pytest.mark.parametrize("edge", [(-1, 1, 0), (0, 1, 2)])
def test_edge_with_a_node_outside_the_frame_is_refused(edge):
    # node -1 would be written as node 1, and node 2 of 2 nodes would index
    # past the tensor
    frame = SceneGraph(np.zeros((2, 4)), (edge,))
    with pytest.raises(ShapeError):
        sweep.encode_frame(frame, ONT)
    cfg = sweep.SweepConfig(snr_points=(math.inf,), trials_per_point=1)
    with pytest.raises(ShapeError):
        sweep.run_sweep([GraphSequence((frame,))], ONT, cfg)


@pytest.mark.parametrize("edge", [(0, 1.5, 1), (0, None, 1), (0, "1", 1), (0, 1, 1, 5)],
                         ids=["float", "none", "str", "four"])
def test_a_triplet_that_is_not_three_integers_reaches_no_encoder(edge):
    # the pass encoder would write (0, 1.5, 1) and (0, 1, 1, 5) as (0, 1, 1)
    # and the staged one would raise IndexError, ValueError or TypeError: the
    # graph refuses the triplet with a ShapeError when it is built, so no
    # encoder or sweep is handed it
    with pytest.raises(ShapeError, match=r"not an \(E, 3\) int64 array"):
        SceneGraph(np.zeros((2, 4)), (edge,))


def test_numpy_integer_triplets_encode_as_python_ints():
    rows = np.arange(12.0).reshape(3, 4)
    ints = SceneGraph(rows, ((0, 1, 1), (2, 5, 0)))
    numpy_ints = SceneGraph(rows, ((np.int64(0), np.uint8(1), np.int32(1)),
                                   (np.uint16(2), np.int64(5), np.int8(0))))
    assert sweep.encode_frame(numpy_ints, ONT) == sweep.encode_frame(ints, ONT)
    np.testing.assert_array_equal(codec.encode_tensor(numpy_ints, ONT),
                                  codec.encode_tensor(ints, ONT))
    cfg = sweep.SweepConfig(snr_points=(0.0, 20.0), trials_per_point=2)
    assert sweep.rows_to_csv(sweep.run_sweep([GraphSequence((numpy_ints, ints))], ONT, cfg)) \
        == sweep.rows_to_csv(sweep.run_sweep([GraphSequence((ints, ints))], ONT, cfg))


def _staged_error(frame):
    with pytest.raises(GbsedError) as e:
        codec.serialize(codec.compress(codec.encode_tensor(frame, ONT)), frame.features, ONT)
    return type(e.value), str(e.value)


# frames the staged encode refuses, at different points of its checks; a
# frame of 5 features makes a pass of mixed widths
REFUSED = {
    "no_nodes": SceneGraph(np.zeros((0, 4)), ()),
    "relation_9": SceneGraph(np.zeros((2, 4)), ((0, 9, 1),)),
    "node_outside": SceneGraph(np.zeros((2, 4)), ((0, 1, 2),)),
    "width_5": SceneGraph(np.zeros((2, 5)), ()),
    "width_5_node_outside": SceneGraph(np.zeros((2, 5)), ((1, 3, 7),)),
}


def test_a_pass_raises_the_staged_error_of_its_first_refused_frame(tmp_path, capsys,
                                                                   monkeypatch):
    good = [f for seq in generate(ScenarioSpec(seed=3, num_sequences=3,
                                               frames_per_sequence=1), ONT) for f in seq.frames]
    cfg = sweep.SweepConfig(snr_points=(math.inf,), trials_per_point=1)
    for name, frame in REFUSED.items():
        with pytest.raises(GbsedError) as e:
            sweep.encode_frame(frame, ONT)
        assert (type(e.value), str(e.value)) == _staged_error(frame), name
    for a, b in itertools.permutations(sorted(REFUSED), 2):
        expect = _staged_error(REFUSED[a])
        frames = [good[0], REFUSED[a], good[1], REFUSED[b], good[2]]
        with pytest.raises(GbsedError) as e:
            sweep.run_sweep([GraphSequence((f,)) for f in frames], ONT, cfg)
        assert (type(e.value), str(e.value)) == expect, (a, b)
        # gbsed encode writes no payload and exits 3 with the same message
        out = tmp_path / f"{a}-{b}"
        monkeypatch.setattr(scenarios, "read_scenes",
                            lambda path, ontology: [GraphSequence(tuple(frames))])
        assert main(["encode", "--scenes", "corpus.scenes", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {expect[1]}\n", (a, b)
        assert os.listdir(out) == []


def test_a_sweep_sends_each_scoring_batch_in_one_call(default_corpus, monkeypatch):
    # the default corpus's last 100 frames, one pass at each of the 11 SNR
    # points: 6 receptions fit in a scoring batch, so the 11 go in 2 sends,
    # each of the batch's rows on its own point's link
    calls = []
    original = sweep.send

    def spy(plan, seeds, links, out):
        calls.append(([link.snr_db for link in links], seeds.shape, out.shape))
        return original(plan, seeds, links, out)

    part = default_corpus[-10:]
    cfg = sweep.SweepConfig(trials_per_point=100)
    expect = sweep.rows_to_csv(sweep.run_sweep(part, ONT, cfg))
    monkeypatch.setattr(sweep, "send", spy)
    assert sweep.rows_to_csv(sweep.run_sweep(part, ONT, cfg)) == expect
    size = sum(len(sweep.encode_frame(f, ONT)) for seq in part for f in seq.frames)
    assert [len(points) for points, _, _ in calls] == [6, 5]
    assert [p for points, _, _ in calls for p in points] == list(cfg.snr_points)
    assert [shape for _, shape, _ in calls] == [(6, 100), (5, 100)]
    assert [shape for _, _, shape in calls] == [(6, size), (5, size)]


def test_a_sweep_encodes_its_pass_in_one_call(small_corpus, monkeypatch):
    callers = []
    original = codec.encode_frames

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    def staged(*args):
        pytest.fail("the sweep encoded a frame through the staged path")

    monkeypatch.setattr(codec, "encode_frames", spy)
    for name in ("encode_tensor", "compress", "serialize"):
        monkeypatch.setattr(codec, name, staged)
    cfg = sweep.SweepConfig(snr_points=(0.0, 10.0, 20.0), trials_per_point=120)
    sweep.run_sweep(small_corpus, ONT, cfg)
    assert callers == ["_lay_out"]


def test_cli_encode_writes_the_payloads_of_encode_frame(tmp_path, capsys):
    scenes = _gen(tmp_path)
    out = tmp_path / "payloads"
    assert main(["encode", "--scenes", str(scenes), "--out", str(out)]) == 0
    seqs = scenarios.read_scenes(str(scenes), ONT)
    expect = {f"seq{s:04d}_f{k:03d}.gbsd": sweep.encode_frame(frame, ONT)
              for s, seq in enumerate(seqs) for k, frame in enumerate(seq.frames)}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == expect
    total = sum(map(len, expect.values()))
    assert f"{len(expect)} frames encoded, {total} octets total" in capsys.readouterr().out


def test_noiseless_sweep_row(small_corpus):
    cfg = sweep.SweepConfig(snr_points=(math.inf,), trials_per_point=1)
    (row,) = sweep.run_sweep(small_corpus, ONT, cfg)
    assert row["ber"] == 0.0
    assert row["fidelity"] == 1.0
    assert row["consistency"] == 1.0
    assert row["accuracy"] == 1.0


def test_sweep_deterministic(small_corpus):
    cfg = sweep.SweepConfig(snr_points=(6.0, 12.0), trials_per_point=50, base_seed=3)
    a = sweep.rows_to_csv(sweep.run_sweep(small_corpus, ONT, cfg))
    b = sweep.rows_to_csv(sweep.run_sweep(small_corpus, ONT, cfg))
    assert a == b


def test_fidelity_sums_frame_by_frame_left_to_right(small_corpus, monkeypatch):
    # the sweep adds every frame's fidelity to a running total in frame
    # order, pass after pass, as a loop over the frames would; np.sum's
    # pairwise rounding gives other bits for these values, and so other CSV
    # bytes
    values = 1.0 / np.arange(3.0, 53.0)
    score = sweep._score_pass
    # the values again for every reception of a batch, one a row
    monkeypatch.setattr(sweep, "_score_pass",
                        lambda lay, received, ontology: (np.tile(values, len(received)),
                                                         *score(lay, received, ontology)[1:]))
    cfg = sweep.SweepConfig(snr_points=(6.0,), trials_per_point=100, base_seed=3)
    (row,) = sweep.run_sweep(small_corpus, ONT, cfg)
    total = 0.0
    for v in values.tolist() * 2:
        total += v
    assert row["fidelity"] == total / 100
    assert np.sum(np.concatenate([values, values])) != total


# -- batches of receptions ----------------------------------------------------
# run_sweep scores its receptions, one (SNR point, pass) a row, in batches
# of at most _SCORE_OCTETS received octets

BATCH_CASES = {
    "awgn": sweep.SweepConfig(snr_points=(0.0, 6.0, 12.0, 18.0), trials_per_point=90,
                              base_seed=6),
    "awgn_unprotected": sweep.SweepConfig(snr_points=(0.0, 4.0, 8.0, 12.0), trials_per_point=90,
                                          base_seed=7, header_protection=UNPROTECTED),
    "bsc_unprotected": sweep.SweepConfig(snr_points=(0.0, 2.0, 4.0, 6.0), trials_per_point=90,
                                         base_seed=8, channel_kind=BSC, bsc_flip_prob=0.01,
                                         header_protection=UNPROTECTED),
}


def _pass_octets(sequences):
    return sum(len(sweep.encode_frame(f, ONT)) for seq in sequences for f in seq.frames)


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batching_does_not_change_a_byte(small_corpus, case, monkeypatch):
    # 4 points of 2 passes each: batches of one reception, of all eight,
    # and of three, where the passes of points 1 and 2 fall into different
    # batches and the last batch has two rows
    cfg = BATCH_CASES[case]
    rows, text = [], []
    for budget in (1, sweep._SCORE_OCTETS, 3 * _pass_octets(small_corpus)):
        monkeypatch.setattr(sweep, "_SCORE_OCTETS", budget)
        rows.append(sweep._lay_out(small_corpus, ONT, 4, cfg.trials_per_point).rows)
        text.append(sweep.rows_to_csv(sweep.run_sweep(small_corpus, ONT, cfg)))
    assert rows == [1, 8, 3]
    assert text[0] == text[1] == text[2]


def test_a_sweep_scores_its_receptions_in_batches(default_corpus, small_corpus, monkeypatch):
    rows = []
    score = sweep._score_pass

    def spy(lay, received, ontology):
        rows.append(len(received))
        return score(lay, received, ontology)

    monkeypatch.setattr(sweep, "_score_pass", spy)
    # the last 100-frame slice of the default corpus, as perfbench sweeps
    # it: a pass of about 22 KB, so a batch holds 6 of the 11 points' passes
    chunk = default_corpus[90:]
    assert 5 * _pass_octets(chunk) < sweep._SCORE_OCTETS < 7 * _pass_octets(chunk)
    sweep.run_sweep(chunk, ONT, sweep.SweepConfig(trials_per_point=100))
    assert rows == [6, 5]
    # a pass above the budget: one reception a call, until two fit
    cfg = sweep.SweepConfig(snr_points=(0.0, 10.0), trials_per_point=100)
    for budget, calls in ((_pass_octets(small_corpus) - 1, [1] * 4),
                          (2 * _pass_octets(small_corpus) - 1, [1] * 4),
                          (2 * _pass_octets(small_corpus), [2] * 2)):
        rows.clear()
        monkeypatch.setattr(sweep, "_SCORE_OCTETS", budget)
        sweep.run_sweep(small_corpus, ONT, cfg)
        assert rows == calls


def _ranges(starts, counts):
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for every i."""
    counts = np.asarray(counts, dtype=np.int64)
    return (np.repeat(starts - (np.cumsum(counts) - counts), counts)
            + np.arange(counts.sum(), dtype=np.int64))


def _layout_from_the_graphs(frames, rows):
    """The index arrays of rows copies of a pass, as _lay_out derived them
    from the scene graphs before it read the sent headers: N from the graph
    and K by compress's rule, one matrix per relation that has an edge."""
    def per_frame(values):
        return np.tile(np.array(values, dtype=np.int64), rows)

    n = per_frame([f.num_nodes for f in frames])
    k = per_frame([len({rel for _, rel, _ in f.edges}) for f in frames])
    m = per_frame([len(f.edges) for f in frames])
    lengths = per_frame([len(sweep.encode_frame(f, ONT)) for f in frames])
    matrix_len = k * n * n
    parts = np.stack([np.full_like(n, HEADER_LEN), matrix_len,
                      lengths - HEADER_LEN - matrix_len], axis=1).reshape(-1)
    frame_ids = np.arange(rows * len(frames))
    node_frame = np.repeat(frame_ids, n)
    node_row = _ranges(np.zeros_like(n), n)
    edges = np.array([(rel, j * f.num_nodes + dst) for f in frames for j, rel, dst in f.edges],
                     dtype=np.int64).reshape(-1, 2)
    return {
        "matrix_octets": np.repeat(np.tile([False, True, False], n.size), parts),
        "feature_octets": np.repeat(np.tile([False, False, True], n.size), parts),
        "matrix_start": (np.repeat(np.cumsum(matrix_len) - matrix_len, k)
                         + _ranges(np.zeros_like(k), k) * np.repeat(n * n, k)),
        "matrix_frame": np.repeat(frame_ids, k),
        "node_frame": node_frame,
        "node_row": node_row,
        "node_cell": node_row * n[node_frame],
        "edge_frame": np.repeat(frame_ids, m),
        "edge_rel": np.tile(edges[:, 0], rows),
        "edge_cell": np.tile(edges[:, 1], rows),
        "entities": n + m,
    }


LAYOUT_CASES = {
    "default_slice": lambda corpus: corpus[90:],
    "dense": lambda corpus: _dense_corpus(),
    "no_edges": lambda corpus: [GraphSequence((SceneGraph(np.ones((3, 4)), ()),))],
    "one_node": lambda corpus: [GraphSequence((SceneGraph(np.ones((1, 4)), ()),))],
    "all_relations": lambda corpus: [GraphSequence((SceneGraph(
        np.ones((3, 4)), tuple(sorted([(0, r, 1) for r in range(1, 9)] + [(2, 3, 0)]))),))],
}


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_layout_from_the_headers_matches_the_graphs(default_corpus, case, rows, monkeypatch):
    corpus = LAYOUT_CASES[case](default_corpus)
    monkeypatch.setattr(sweep, "_SCORE_OCTETS", 1 << 30)
    lay = sweep._lay_out(corpus, ONT, points=rows)
    assert lay.rows == rows
    frames = [f for seq in corpus for f in seq.frames]
    expect = _layout_from_the_graphs(frames, rows)
    for name, want in expect.items():
        got = getattr(lay, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


# -- the per-frame reference --------------------------------------------------
# The sweep computed frame by frame: every trial goes through the float64
# reference link (reference_link.py, built from the channel's primitives,
# not from send), decode_frame and semantic_fidelity, and the received
# sequences through task_consistency. run_sweep, which batches whole corpus
# passes, must write the same CSV bytes.

def _fallback_frame():
    return SceneGraph([(1.0, 0.0, 0.0, 0.0)], ())


def _reference_point(point_index, snr_db, sequences, payloads, cfg):
    repeats = -(-cfg.trials_per_point // len(payloads))
    bits_total = errors_total = n_frames = trial = 0
    fidelity_sum = 0.0
    recv_all, sent_all = [], []
    for _ in range(repeats):
        frame_cursor = 0
        for seq in sequences:
            recv_frames = []
            for frame in seq.frames:
                payload = payloads[frame_cursor]
                link = LinkConfig(snr_db=snr_db, channel_kind=cfg.channel_kind,
                                  bsc_flip_prob=cfg.bsc_flip_prob,
                                  seed=cfg.base_seed ^ point_index ^ trial,
                                  header_protection=cfg.header_protection)
                received, bit_errors = reference_transmit(payload, link)
                bits_total += 8 * len(payload)
                errors_total += bit_errors
                decoded = sweep.decode_frame(received, ONT)
                fidelity_sum += semantic_fidelity(frame, decoded, ONT).fidelity
                recv_frames.append(decoded if decoded is not None else _fallback_frame())
                n_frames += 1
                frame_cursor += 1
                trial += 1
            recv_all.append(GraphSequence(tuple(recv_frames)))
            sent_all.append(seq)
    counts, consistency, scores, labels = task_consistency(sent_all, recv_all, ONT)
    cls = classification_metrics(counts)
    try:
        auc_val = auc(scores, labels)
    except GbsedError:
        auc_val = float("nan")
    return {
        "snr_db": snr_db,
        "ber": errors_total / bits_total if bits_total else 0.0,
        "fidelity": fidelity_sum / n_frames,
        "consistency": consistency,
        "accuracy": cls.accuracy,
        "precision": cls.precision,
        "recall": cls.recall,
        "f1": cls.f1,
        "mcc": cls.mcc,
        "auc": auc_val,
        "mean_payload_octets": sum(len(p) for p in payloads) / len(payloads),
        "frames_per_payload": sum(frames_required(len(p))
                                  for p in payloads) / len(payloads),
    }


def _reference_sweep(sequences, cfg):
    payloads = [sweep.encode_frame(f, ONT) for seq in sequences for f in seq.frames]
    return [_reference_point(i, s, sequences, payloads, cfg)
            for i, s in enumerate(cfg.snr_points)]


def _dense_corpus():
    # 45-49 nodes: on AWGN every frame draws 27,704-34,320 splitmix64 outputs
    return generate(ScenarioSpec(seed=5, num_sequences=2, frames_per_sequence=3,
                                 vehicles_range=(40, 48), lane_count=5), ONT)


EQUIVALENCE_CASES = {
    "awgn": (sweep.SweepConfig(snr_points=(0.0, 6.0, 12.0, 20.0, math.inf),
                               trials_per_point=50, base_seed=4), False),
    "awgn_unprotected": (sweep.SweepConfig(snr_points=(0.0,), trials_per_point=50,
                                           header_protection=UNPROTECTED), False),
    "bsc_0": (sweep.SweepConfig(snr_points=(0.0,), trials_per_point=50,
                                channel_kind=BSC), False),
    "bsc_002": (sweep.SweepConfig(snr_points=(0.0,), trials_per_point=50, base_seed=9,
                                  channel_kind=BSC, bsc_flip_prob=0.02), False),
    "bsc_02_unprotected": (sweep.SweepConfig(snr_points=(0.0,), trials_per_point=50,
                                             channel_kind=BSC, bsc_flip_prob=0.2,
                                             header_protection=UNPROTECTED), False),
    "several_passes": (sweep.SweepConfig(snr_points=(4.0, 10.0), trials_per_point=121,
                                         base_seed=17), False),
    "dense": (sweep.SweepConfig(snr_points=(8.0, 16.0), trials_per_point=6,
                                base_seed=2), True),
    "seed_above_2_63": (sweep.SweepConfig(snr_points=(2.0, 14.0), trials_per_point=50,
                                          base_seed=(1 << 63) + 12345), False),
}


# a block budget below every dense frame's draws: each is a block of its own
_DENSE_BLOCK_DRAWS = 1 << 14


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_sweep_matches_per_frame_reference(small_corpus, case):
    cfg, dense = EQUIVALENCE_CASES[case]
    corpus = _dense_corpus() if dense else small_corpus
    expect = sweep.rows_to_csv(_reference_sweep(corpus, cfg))
    assert sweep.rows_to_csv(sweep.run_sweep(corpus, ONT, cfg)) == expect


def test_sweep_matches_per_frame_reference_with_frames_longer_than_a_block(small_corpus,
                                                                          monkeypatch):
    monkeypatch.setattr(channel, "_BLOCK_DRAWS", _DENSE_BLOCK_DRAWS)
    test_sweep_matches_per_frame_reference(small_corpus, "dense")


def test_equivalence_cases_cover_pads_and_blocks(small_corpus, monkeypatch):
    def body_bits(corpus):
        return [8 * (len(sweep.encode_frame(f, ONT)) - HEADER_LEN)
                for seq in corpus for f in seq.frames]

    def dense_blocks():
        payloads = [sweep.encode_frame(f, ONT) for seq in _dense_corpus() for f in seq.frames]
        buffer = np.frombuffer(b"".join(payloads), dtype=np.uint8)
        cfg = EQUIVALENCE_CASES["dense"][0]
        return channel.plan_link(buffer, [len(p) for p in payloads], cfg.channel_kind,
                                 cfg.header_protection).blocks

    # 64-QAM closes each body with 0, 2 or 4 zero bits
    assert {-b % 6 for b in body_bits(small_corpus)} == {0, 2, 4}
    # the dense case sends blocks of several frames at the default budget,
    # and every frame as a block larger than the budget below it
    assert max(blk.counts.size for blk in dense_blocks()) > 1
    monkeypatch.setattr(channel, "_BLOCK_DRAWS", _DENSE_BLOCK_DRAWS)
    assert min(int(blk.counts.sum()) for blk in dense_blocks()) > _DENSE_BLOCK_DRAWS
    # on the BSC at p = 0.2 most headers arrive changed: the per-frame path runs
    cfg = EQUIVALENCE_CASES["bsc_02_unprotected"][0]
    payloads = [sweep.encode_frame(f, ONT) for seq in small_corpus for f in seq.frames]
    changed = sum(
        transmit(p, LinkConfig(channel_kind=BSC, bsc_flip_prob=cfg.bsc_flip_prob, seed=t,
                               header_protection=UNPROTECTED))[0][:HEADER_LEN]
        != p[:HEADER_LEN]
        for t, p in enumerate(payloads))
    assert changed > len(payloads) // 2


def _point_row(snr_db, ber, fidelity, truth, pred_risky, pred_score, sizes):
    """One SNR point's result row, scored on its own: the rule the sweep
    ran once per point before it scored all its points in one call."""
    (counts,), (consistency,) = verdict_consistency(truth, pred_risky[None])
    cls = classification_metrics(counts)
    try:
        auc_val = auc(pred_score, truth)
    except GbsedError:
        auc_val = float("nan")
    return {"snr_db": snr_db, "ber": ber, "fidelity": fidelity,
            "consistency": float(consistency),
            "accuracy": cls.accuracy, "precision": cls.precision, "recall": cls.recall,
            "f1": cls.f1, "mcc": cls.mcc, "auc": auc_val, **sizes}


def _verdicts(seed, points, size, distinct):
    gen = np.random.default_rng(seed)
    return (gen.random((points, size)) < 0.4,
            gen.integers(0, distinct, (points, size)) / distinct)


# (sent verdicts, received verdicts and scores) of 4 points over 12 sequences
POINT_CASES = {
    "tied_scores": lambda: (np.arange(12) % 3 == 0, *_verdicts(1, 4, 12, 3)),
    "nan_score": lambda: (np.arange(12) % 3 == 0, _verdicts(2, 4, 12, 5)[0],
                          np.where(np.arange(48).reshape(4, 12) == 17, np.nan,
                                   _verdicts(2, 4, 12, 5)[1])),
    "single_class_truth": lambda: (np.zeros(12, dtype=bool), *_verdicts(3, 4, 12, 4)),
    "all_risky_predictions": lambda: (np.arange(12) % 4 == 1, np.ones((4, 12), dtype=bool),
                                      _verdicts(4, 4, 12, 6)[1]),
    "distinct_scores": lambda: (np.arange(12) % 2 == 0, *_verdicts(5, 4, 12, 1000)),
}


@pytest.mark.parametrize("case", sorted(POINT_CASES))
def test_point_rows_equal_the_rows_scored_point_by_point(case):
    truth, pred_risky, pred_score = POINT_CASES[case]()
    snr_points = (0.0, 4.0, 8.0, math.inf)
    ber, fidelity = [0.1, 0.01, 1e-3, 0.0], [0.2, 0.5, 0.7, 1.0]
    sizes = {"mean_payload_octets": 234.5, "frames_per_payload": 1.0}
    rows = sweep._point_rows(snr_points, ber, fidelity, truth, pred_risky, pred_score, sizes)
    expect = [_point_row(*point, truth, r, s, sizes)
              for point, r, s in zip(zip(snr_points, ber, fidelity), pred_risky, pred_score)]
    assert sweep.rows_to_csv(rows) == sweep.rows_to_csv(expect)
    assert [{k: type(v) for k, v in row.items()} for row in rows] == [
        {k: type(v) for k, v in row.items()} for row in expect]
    if case in ("nan_score", "single_class_truth"):
        assert math.isnan(rows[1]["auc"]) and math.isnan(expect[1]["auc"])


def test_csv_schema(small_corpus):
    cfg = sweep.SweepConfig(snr_points=(math.inf,), trials_per_point=1)
    text = sweep.rows_to_csv(sweep.run_sweep(small_corpus, ONT, cfg))
    header = text.splitlines()[0]
    assert header == ("snr_db,ber,fidelity,consistency,accuracy,precision,"
                      "recall,f1,mcc,auc,mean_payload_octets,frames_per_payload")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1 and rows[0]["snr_db"] == "inf"


def test_bsc_sweep(small_corpus):
    cfg = sweep.SweepConfig(snr_points=(0.0,), trials_per_point=20,
                            channel_kind=BSC, bsc_flip_prob=0.02)
    (row,) = sweep.run_sweep(small_corpus, ONT, cfg)
    assert row["ber"] == pytest.approx(0.02, abs=0.01)


def test_unprotected_header_degrades(small_corpus):
    protected = sweep.SweepConfig(snr_points=(0.0,), trials_per_point=50)
    unprotected = sweep.SweepConfig(snr_points=(0.0,), trials_per_point=50,
                                    header_protection=UNPROTECTED)
    (p,) = sweep.run_sweep(small_corpus, ONT, protected)
    (u,) = sweep.run_sweep(small_corpus, ONT, unprotected)
    assert u["fidelity"] < p["fidelity"]


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        sweep.SweepConfig(snr_points=())
    with pytest.raises(ValueError):
        sweep.SweepConfig(trials_per_point=0)
    assert sweep.SweepConfig(trials_per_point=np.int64(3)).trials_per_point == 3
    with pytest.raises(ValueError):
        sweep.run_sweep([], ONT, sweep.SweepConfig())
    # a trial count that is no integer is refused when the config is built,
    # not as a TypeError from run_sweep
    for trials in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="not an integer"):
            sweep.SweepConfig(trials_per_point=trials)
    # so is a seed that is no integer, which run_sweep met as a TypeError;
    # a numpy integer is kept, as an int
    for seed in (1.5, 3.0, np.float64(3), "3", None):
        with pytest.raises(ValueError, match="not an integer"):
            sweep.SweepConfig(base_seed=seed)
    assert type(sweep.SweepConfig(base_seed=np.int64(-3)).base_seed) is int
    # every point's link is checked when the config is built
    for bad in (dict(channel_kind="foo"), dict(header_protection="foo"),
                dict(bsc_flip_prob=0.7), dict(snr_points=(0.0, math.nan)),
                dict(snr_points=(-math.inf,))):
        with pytest.raises(ValueError):
            sweep.SweepConfig(**bad)
    # a float field that is no number, or points that are no sequence, was a
    # bare TypeError; now a ValueError naming the field
    for bad, name in ((dict(snr_points=("10",)), "snr_db"), (dict(snr_points=(None,)), "snr_db"),
                      (dict(snr_points=10.0), "snr_points"), (dict(snr_points=None), "snr_points"),
                      (dict(channel_kind=BSC, bsc_flip_prob="0.1"), "bsc_flip_prob")):
        with pytest.raises(ValueError, match=name):
            sweep.SweepConfig(**bad)
    # the points are kept as given, as a tuple: the CSV writes them as they are
    points = sweep.SweepConfig(snr_points=[10, 20.0]).snr_points
    assert points == (10, 20.0) and type(points[0]) is int


def test_flip_prob_needs_the_bsc(tmp_path):
    # the AWGN link ignores a flip probability: such a sweep once wrote the
    # CSV of the sweep without it
    with pytest.raises(ValueError, match="bsc_flip_prob 0.1 needs channel_kind 'bsc'"):
        sweep.SweepConfig(snr_points=(10.0,), bsc_flip_prob=0.1)
    sweep.SweepConfig(snr_points=(10.0,), channel_kind=BSC, bsc_flip_prob=0.1)
    sweep.SweepConfig(snr_points=(10.0,), bsc_flip_prob=0.0)
    scenes = _gen(tmp_path)
    args = ["sweep", "--scenes", str(scenes), "--out", str(tmp_path / "r.csv"),
            "--snr", "10", "--trials", "5", "--flip-prob", "0.1"]
    assert main(args) == 2
    assert main(args + ["--channel", BSC]) == 0


# -- CLI ----------------------------------------------------------------------

def _gen(tmp_path, **kw):
    scenes = tmp_path / "c.scenes"
    args = ["gen", "--seed", "5", "--sequences", "6", "--frames", "4",
            "--out", str(scenes)]
    for k, v in kw.items():
        args += [f"--{k}", str(v)]
    assert main(args) == 0
    return scenes


def test_cli_gen_deterministic(tmp_path):
    a = _gen(tmp_path)
    b = tmp_path / "again.scenes"
    assert main(["gen", "--seed", "5", "--sequences", "6", "--frames", "4",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_encode(tmp_path, capsys):
    scenes = _gen(tmp_path)
    out = tmp_path / "payloads"
    assert main(["encode", "--scenes", str(scenes), "--out", str(out)]) == 0
    files = sorted(out.iterdir())
    assert len(files) == 24  # 6 sequences x 4 frames
    assert all(f.suffix == ".gbsd" for f in files)
    assert "compression ratio" in capsys.readouterr().out


def test_cli_encode_empty(tmp_path, capsys):
    scenes = tmp_path / "empty.scenes"
    scenes.write_text("")
    assert main(["encode", "--scenes", str(scenes), "--out", str(tmp_path / "o")]) == 0
    assert "0 frames" in capsys.readouterr().out


def test_cli_sweep_and_report(tmp_path, capsys):
    scenes = _gen(tmp_path)
    out = tmp_path / "r.csv"
    assert main(["sweep", "--scenes", str(scenes), "--out", str(out),
                 "--snr", "noiseless,10", "--trials", "10"]) == 0
    text = out.read_text()
    assert text.startswith("snr_db,")
    assert len(text.splitlines()) == 3
    capsys.readouterr()
    assert main(["report", "--csv", str(out)]) == 0
    rendered = capsys.readouterr().out
    assert "CR" in rendered and "Reduction (%)" in rendered


def test_cli_report_empty(tmp_path, capsys):
    empty = tmp_path / "e.csv"
    empty.write_text("snr_db,ber\n")
    assert main(["report", "--csv", str(empty)]) == 0
    assert "no rows" in capsys.readouterr().out


def test_cli_names_the_malformed_scenes_line(tmp_path, capsys):
    bad = tmp_path / "bad.scenes"
    bad.write_text("seq 0 frame 0 | 0:0:0.0:0.0:10.0 |\nseq 0 frame 1 | x |\n")
    for command in ("encode", "sweep"):
        assert main([command, "--scenes", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "error: line 2: bad node record 'x'\n", command


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["bogus"]) == 2                       # usage
    assert main([]) == 2
    assert main(["encode", "--scenes", str(tmp_path / "missing.scenes"),
                 "--out", str(tmp_path / "o")]) == 3  # data error
    bad = tmp_path / "bad.scenes"
    bad.write_text("not a scene line\n")
    assert main(["encode", "--scenes", str(bad), "--out", str(tmp_path / "o")]) == 3
    sweep_args = ["sweep", "--scenes", str(_gen(tmp_path)), "--out", str(tmp_path / "r.csv")]
    for value in (["--trials", "0"], ["--trials", "x"], ["--flip-prob", "0.7"],
                  ["--flip-prob", "-0.1"], ["--snr", ""], ["--snr", "abc"],
                  ["--snr", "nan"], ["--snr=-inf"], ["--snr=-3100"], ["--snr=0,-inf"]):
        assert main(sweep_args + value) == 2, value  # usage
    assert main(["sweep", "--scenes", str(bad), "--out", str(tmp_path / "r.csv")]) == 3
    huge = tmp_path / "huge.scenes"  # a class beyond float range
    huge.write_text(f"seq 0 frame 0 | 0:{'9' * 400}:0.0:0.0:10.0 |\n")
    assert main(["encode", "--scenes", str(huge), "--out", str(tmp_path / "o")]) == 3
    assert main(["sweep", "--scenes", str(huge), "--out", str(tmp_path / "r.csv")]) == 3
    gen_args = ["gen", "--sequences", "2", "--out", str(tmp_path / "g.scenes")]
    for value in (["--vehicles", "x"], ["--vehicles", "2"], ["--vehicles", "8,2"],
                  ["--vehicles", "0,2"], ["--frames", "0"], ["--lanes", "0"],
                  ["--risky-fraction", "1.5"], ["--risky-fraction", "-0.1"],
                  ["--sequences", "-1"], ["--sequences", "x"]):
        assert main(gen_args + value) == 2, value  # usage
    assert main(gen_args + ["--vehicles", "1,40"]) == 3  # beyond the lanes' capacity
    assert main(gen_args + ["--vehicles", "3,3", "--risky-fraction", "1"]) == 0
    assert main(gen_args + ["--sequences", "0"]) == 0
    # the configs alone check a number: each value above that parses as one
    # is refused with its config's own message
    capsys.readouterr()
    refused = [
        (["--trials", "0"], dict(trials_per_point=0)),
        (["--flip-prob", "0.7"], dict(bsc_flip_prob=0.7)),
        (["--flip-prob", "-0.1"], dict(bsc_flip_prob=-0.1)),
        (["--snr", ""], dict(snr_points=())),
        (["--snr", "nan"], dict(snr_points=(math.nan,))),
        (["--snr=-inf"], dict(snr_points=(-math.inf,))),
        (["--snr=-3100"], dict(snr_points=(-3100.0,))),
        (["--snr=0,-inf"], dict(snr_points=(0.0, -math.inf))),
        (["--flip-prob", "0.1"], dict(bsc_flip_prob=0.1)),  # on the AWGN link
    ]
    refused = [(sweep_args + value, sweep.SweepConfig, fields) for value, fields in refused]
    refused += [(gen_args + value, ScenarioSpec, fields) for value, fields in (
        (["--vehicles", "2"], dict(vehicles_range=(2,))),
        (["--vehicles", "8,2"], dict(vehicles_range=(8, 2))),
        (["--vehicles", "0,2"], dict(vehicles_range=(0, 2))),
        (["--frames", "0"], dict(frames_per_sequence=0)),
        (["--lanes", "0"], dict(lane_count=0)),
        (["--risky-fraction", "1.5"], dict(risky_fraction=1.5)),
        (["--risky-fraction", "-0.1"], dict(risky_fraction=-0.1)),
        (["--sequences", "-1"], dict(num_sequences=-1)),
    )]
    for args, config, fields in refused:
        with pytest.raises((SpecError, ValueError)) as refusal:
            config(**fields)
        assert main(args) == 2, args
        assert capsys.readouterr().err == f"error: {refusal.value}\n", args
    # a path that is a directory is a data error
    assert main(["encode", "--scenes", str(tmp_path), "--out", str(tmp_path / "o")]) == 3
    assert main(["gen", "--out", str(tmp_path)]) == 3
    # the ontology is the code's: --ontology is an unknown option
    (tmp_path / "o.ontology").write_text("relation 1 is_near\n")
    scenes = str(_gen(tmp_path))
    for args in (["gen", "--out", str(tmp_path / "o.scenes")],
                 ["encode", "--scenes", scenes, "--out", str(tmp_path / "p")],
                 ["sweep", "--scenes", scenes, "--out", str(tmp_path / "r.csv")]):
        assert main(args + ["--ontology", str(tmp_path / "o.ontology")]) == 2, args[0]
    assert not (tmp_path / "o.scenes").exists() and not (tmp_path / "p").exists()
    capsys.readouterr()
    # a CSV with rows but without a column the report shows
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("snr_db,ber\n0.0,0.1\n")
    assert main(["report", "--csv", str(csv_path)]) == 3
    err = capsys.readouterr().err
    assert "fidelity" in err and "mean_payload_octets" in err and "snr_db" not in err
    # a row with fewer cells than the header
    csv_path.write_text(",".join(sweep.CSV_COLUMNS) + "\n0.0,0.1\n")
    assert main(["report", "--csv", str(csv_path)]) == 3
    assert "row 1 " in capsys.readouterr().err
    csv_path.write_text("snr_db,ber\n")
    assert main(["report", "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().out == "no rows\n"


def test_cli_defaults_are_the_config_defaults():
    parser = build_parser()
    gen = parser.parse_args(["gen", "--out", "x"])
    for f in dataclasses.fields(ScenarioSpec):
        assert getattr(gen, f.name) == getattr(ScenarioSpec(), f.name), f.name
    run = parser.parse_args(["sweep", "--scenes", "x", "--out", "y"])
    for f in dataclasses.fields(sweep.SweepConfig):
        assert getattr(run, f.name) == getattr(sweep.SweepConfig(), f.name), f.name
    assert config_from_args(ScenarioSpec, gen) == ScenarioSpec()
    assert config_from_args(sweep.SweepConfig, run) == sweep.SweepConfig()


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing the package and its CLI
    # must not pull it in
    code = ("import sys, gbsed, gbsed.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(gbsed.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_decoding_a_repaired_matrix_does_not_load_numpy_ma():
    # np.unique imports numpy.ma (13 ms, 1.5 MB) on its first call; the
    # relation rule decodes without it
    code = ("import sys\n"
            "from gbsed import codec, sweep\n"
            "from gbsed.ontology import default_ontology\n"
            "from gbsed.scene_graph import SceneGraph\n"
            "ont = default_ontology()\n"
            "graph = SceneGraph([[0.0] * 4] * 3, ((0, 3, 1), (1, 3, 0), (1, 3, 2)))\n"
            "payload = bytearray(sweep.encode_frame(graph, ont))\n"
            "payload[codec.HEADER_LEN] = 5  # cell (0, 0): ids 3 and 5 mixed\n"
            "print(sweep.decode_frame(bytes(payload), ont).edges.tolist())\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(gbsed.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == [
        "[[0, 3, 0], [0, 3, 1], [1, 3, 0], [1, 3, 2]]", "False"]


def test_cli_help_exits_zero():
    assert main(["--help"]) == 0
