import hashlib

import numpy as np
import pytest

from gbsed.errors import ParseError, SpecError
from gbsed.ontology import default_ontology
from gbsed import scene_graph
from gbsed.scene_graph import infer_relations
from gbsed.scenarios import (
    ScenarioSpec,
    generate,
    read_scenes,
    scenes_from_text,
    scenes_to_text,
    write_scenes,
)
from gbsed.task import RISKY, SAFE, assess_risk

ONT = default_ontology()

# frozen digest of the default corpus (seed 42); any generator change that
# alters output bytes must update this deliberately
GOLDEN_SHA256 = "ae0b30cb5208cabbe56570efd074a6842fa97437b3263809df6fb06ed75972f6"


def test_default_corpus_golden_hash(default_corpus):
    text = scenes_to_text(default_corpus)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


# frozen digest of a dense corpus (perfbench's awgn_dense shape at seed 5:
# 20 sequences of 25-31 nodes on 5 lanes), where most node pairs and most
# pairs near a predicate threshold are
DENSE_SHA256 = "041e136643c0ae6f5d7be37a1bee977fa2109a6872e41986375c1fd67a0935fa"


def test_dense_corpus_golden_hash():
    corpus = generate(ScenarioSpec(seed=5, num_sequences=20, vehicles_range=(24, 30),
                                   lane_count=5), ONT)
    text = scenes_to_text(corpus)
    assert hashlib.sha256(text.encode()).hexdigest() == DENSE_SHA256


def test_every_batch_size_generates_the_same_corpus(monkeypatch):
    # a pair budget of 1 makes every frame a batch of its own
    spec = ScenarioSpec(seed=9, num_sequences=12, vehicles_range=(1, 14))
    batched = generate(spec, ONT)
    monkeypatch.setattr(scene_graph, "_PAIR_BUDGET", 1)
    one_by_one = generate(spec, ONT)
    assert one_by_one == batched
    assert scenes_to_text(one_by_one) == scenes_to_text(batched)


def test_generation_deterministic(default_corpus):
    again = generate(ScenarioSpec(seed=42), ONT)
    assert scenes_to_text(again) == scenes_to_text(default_corpus)


def test_labels_match_risk_oracle(default_corpus):
    for seq in default_corpus:
        assert assess_risk(seq, ONT).decision == seq.label


def test_risky_fraction_extremes():
    all_safe = generate(ScenarioSpec(seed=1, num_sequences=20, risky_fraction=0.0), ONT)
    assert all(s.label == SAFE for s in all_safe)
    all_risky = generate(ScenarioSpec(seed=1, num_sequences=20, risky_fraction=1.0), ONT)
    assert all(s.label == RISKY for s in all_risky)
    for s in all_safe + all_risky:
        assert assess_risk(s, ONT).decision == s.label


def test_edges_equal_relation_inference(default_corpus):
    for seq in default_corpus[:10]:
        for frame in seq.frames:
            triplets, _ = infer_relations(frame.features, ONT, [len(frame.features)])
            np.testing.assert_array_equal(frame.edges, triplets)


def test_ego_at_origin(default_corpus):
    for seq in default_corpus[:10]:
        for frame in seq.frames:
            assert frame.features[0, 1:3].tolist() == [0.0, 0.0]


def test_vehicle_count_range(default_corpus):
    for seq in default_corpus:
        n = seq.frames[0].num_nodes
        assert 3 <= n <= 9  # ego + 2..8 vehicles


def test_infeasible_specs_rejected():
    with pytest.raises(SpecError):
        generate(ScenarioSpec(vehicles_range=(0, 3)), ONT)
    with pytest.raises(SpecError):
        generate(ScenarioSpec(risky_fraction=1.5), ONT)
    with pytest.raises(SpecError):
        generate(ScenarioSpec(frames_per_sequence=0), ONT)
    with pytest.raises(SpecError):
        generate(ScenarioSpec(vehicles_range=(2, 100), lane_count=1), ONT)


@pytest.mark.parametrize("fields", [
    dict(seed=2.5), dict(seed="3"), dict(seed=None), dict(num_sequences=2.5),
    dict(frames_per_sequence=2.5), dict(lane_count=2.5), dict(vehicles_range=(2, 8.5)),
    dict(vehicles_range=(2.0, 8)), dict(vehicles_range=(2,)), dict(vehicles_range=(2, 3, 4)),
    dict(vehicles_range=5), dict(num_sequences=-1), dict(lane_count=0),
    dict(vehicles_range=(8, 2)), dict(risky_fraction="0.3"), dict(risky_fraction=None),
    dict(risky_fraction=float("nan")), dict(risky_fraction=1.5),
])
def test_bad_spec_fields_refused_when_the_spec_is_built(fields):
    # once a TypeError, a ValueError from unpacking or an OverflowError deep
    # in generate; now a SpecError naming the field, before any generation
    name = next(iter(fields))
    with pytest.raises(SpecError, match=name):
        ScenarioSpec(**fields)


def test_numpy_integer_spec_fields_are_stored_as_ints():
    spec = ScenarioSpec(seed=np.int64(3), num_sequences=np.int32(4),
                        frames_per_sequence=np.uint8(5), lane_count=np.int64(2),
                        vehicles_range=(np.int64(2), np.int16(6)))
    same = ScenarioSpec(seed=3, num_sequences=4, frames_per_sequence=5, lane_count=2,
                        vehicles_range=(2, 6))
    assert spec == same
    ints = (spec.seed, spec.num_sequences, spec.frames_per_sequence, spec.lane_count,
            *spec.vehicles_range)
    assert all(type(v) is int for v in ints)
    # a numpy seed overflowed in generate; it now gives the int seed's corpus
    assert scenes_to_text(generate(spec, ONT)) == scenes_to_text(generate(same, ONT))


# -- .scenes format -----------------------------------------------------------

def test_round_trip_equality(default_corpus, tmp_path):
    path = tmp_path / "corpus.scenes"
    write_scenes(default_corpus, path)
    back = read_scenes(path, ONT)
    assert back == default_corpus


def test_text_round_trip_exact(default_corpus):
    text = scenes_to_text(default_corpus)
    assert scenes_to_text(scenes_from_text(text, ONT)) == text


def test_empty_corpus_round_trip():
    assert scenes_to_text([]) == ""
    assert scenes_from_text("", ONT) == []


def test_comments_ignored():
    text = "# banner\nseq 0 frame 0 | 0:0:0.000000:0.000000:10.000000 |\n"
    seqs = scenes_from_text(text, ONT)
    assert len(seqs) == 1 and seqs[0].frames[0].num_nodes == 1


def test_label_lines_parsed():
    text = ("seq 0 label risky\n"
            "seq 0 frame 0 | 0:0:0.000000:0.000000:10.000000 |\n")
    seqs = scenes_from_text(text, ONT)
    assert seqs[0].label == RISKY


MALFORMED = [
    ("seq 0 frame 0 | 0:0:0:0:0 | 0:0:1", 1,      # relation id 0
     "relation id 0 outside 1..8"),
    ("seq 0 frame 0 | 0:0:0:0:0 | 0:9:1", 1,      # relation id out of range
     "relation id 9 outside 1..8"),
    ("seq 0 frame 0 | 0:0:0:0:0 | 0:1:0", 1,      # self-loop
     "edge (0, 1, 0) references invalid nodes"),
    ("seq 0 frame 0 | 0:0:0:0:0 | 0:1:5", 1,      # dst out of range
     "edge (0, 1, 5) references invalid nodes"),
    ("seq 0 frame 0 | 0:0:0:0:10 1:0:0:30:10 | -1:1:0", 1,  # negative src
     "edge (-1, 1, 0) references invalid nodes"),
    ("seq 0 frame 0 | 0:0:0:0:10 1:0:0:30:10 | 1:1:-2", 1,  # negative dst
     "edge (1, 1, -2) references invalid nodes"),
    ("seq 0 frame 0 | 1:0:0:0:0 |", 1,            # node index out of order
     "node index 1 out of order"),
    ("seq 0 frame 0 | 0:0:0:0 |", 1,              # short node record
     "bad node record '0:0:0:0'"),
    ("seq 0 frame 0 | 0:0:x:0:0 |", 1,            # non-numeric field
     "bad node record '0:0:x:0:0'"),
    (f"seq 0 frame 0 | 0:{'9' * 400}:0:0:0 |", 1,  # class beyond float range
     f"bad node record '0:{'9' * 400}:0:0:0'"),
    ("seq 0 frame 0 ||", 1,                       # empty node field
     "frame with no nodes"),
    ("seq 0 frame 0 | |", 1,                      # frame with no nodes
     "frame with no nodes"),
    ("seq 0 frame 0", 1,                          # truncated line
     "unrecognized line 'seq 0 frame 0'"),
    ("seq 0 label maybe", 1,                      # unknown label
     "bad label line 'seq 0 label maybe'"),
    ("seq x label safe", 1,                       # bad label sequence id
     "bad label line 'seq x label safe'"),
    ("seq 0 label safe\nseq 0 label risky", 2,    # second label for a sequence
     "second label for sequence 0"),
    ("seq zero frame 0 | 0:0:0:0:0 |", 1,         # bad ids
     "bad seq/frame ids in 'seq zero frame 0 | 0:0:0:0:0 |'"),
    ("seq 5 label risky\nseq 0 frame 0 | 0:0:0:0:0 |", 1,   # label of no frame sequence
     "sequence 5 is not one of the frame sequences 0..0"),
    ("seq 0 frame 0 | 0:0:0:0:0 |\nseq 0 label safe\nseq 2 label safe", 3,
     "sequence 2 is not one of the frame sequences 0..0"),
    ("seq 7 frame 0 | 0:0:0:0:0 |\nseq 3 frame 0 | 0:0:0:0:0 |", 1,  # ids not 0..S-1
     "sequence 7 is not one of the frame sequences 0..1"),
    ("seq 0 frame 0 | 0:0:0:0:0 |\nseq 2 frame 0 | 0:0:0:0:0 |", 2,
     "sequence 2 is not one of the frame sequences 0..1"),
    ("seq -1 frame 0 | 0:0:0:0:0 |", 1,
     "sequence -1 is not one of the frame sequences 0..0"),
    ("nonsense", 1,
     "unrecognized line 'nonsense'"),
    ("seq 0 frame 0 | 0:0:0:0:0 |\nseq 0 frame 0 | 0:0:0:0:0 |", 2,  # repeated frame
     "second frame 0 for sequence 0"),
    ("seq 0 frame 0 | 0:0:0:0:0 |\nseq 0 frame 2 | 0:0:0:0:0 |", 2,  # missing frame
     "sequence 0 frames [0, 2] not contiguous"),
    ("seq 0 frame 0 | 0:0:0.0:0.0:10.0 1:0:0.0:5.0:10.0 | 1:1:0 1:1:0", 1,  # repeated triplet
     "triplet (1, 1, 0) is listed more than once"),
    ("seq 0 frame 0 | 0:0:0:0:0 1:0:0:5:0 |\n"
     "seq 0 frame 1 | 0:0:0:0:0 1:0:0:5:0 | 0:1:1 1:1:0 0:1:1", 2,
     "triplet (0, 1, 1) is listed more than once"),
]


# each case is named by its text and line
@pytest.mark.parametrize("bad, lineno, message", MALFORMED,
                         ids=[f"{bad}-{lineno}" for bad, lineno, _ in MALFORMED])
def test_malformed_lines(bad, lineno, message):
    with pytest.raises(ParseError) as e:
        scenes_from_text(bad + "\n", ONT)
    assert (e.value.line_number, str(e.value)) == (lineno, message)


def test_line_number_points_at_fault():
    text = ("seq 0 frame 0 | 0:0:0.0:0.0:10.0 |\n"
            "seq 0 frame 1 | 0:0:0.0:0.0:10.0 | 0:99:0\n")
    with pytest.raises(ParseError) as e:
        scenes_from_text(text, ONT)
    assert e.value.line_number == 2


def test_noncontiguous_frames_rejected():
    # a gap is reported at the line of the first frame past it, in frame
    # order; a frame number below 0 is out of place itself
    frame = "seq 0 frame {} | 0:0:0.0:0.0:10.0 |\n"
    for numbers, lineno in (((0, 2), 2), ((3, 0, 5), 1), ((1, 0, 3, 4), 3), ((0, -1), 2)):
        with pytest.raises(ParseError, match="not contiguous") as e:
            scenes_from_text("".join(frame.format(k) for k in numbers), ONT)
        assert e.value.line_number == lineno


def test_features_survive_text_precision(default_corpus):
    # all generated values are multiples of 1/64, exact in %.6f
    text = scenes_to_text(default_corpus[:5])
    back = scenes_from_text(text, ONT)
    for orig, parsed in zip(default_corpus[:5], back):
        for f_orig, f_back in zip(orig.frames, parsed.frames):
            assert f_orig.features.tolist() == f_back.features.tolist()
