import hashlib

import pytest

from gbsed.errors import ParseError, SpecError
from gbsed.ontology import default_ontology, emit_ontology, load_ontology
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
            assert frame.edges == infer_relations(frame.features, ONT, [len(frame.features)])[0]


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


@pytest.mark.parametrize("bad, lineno", [
    ("seq 0 frame 0 | 0:0:0:0:0 | 0:0:1", 1),      # relation id 0
    ("seq 0 frame 0 | 0:0:0:0:0 | 0:9:1", 1),      # relation id out of range
    ("seq 0 frame 0 | 0:0:0:0:0 | 0:1:0", 1),      # self-loop
    ("seq 0 frame 0 | 0:0:0:0:0 | 0:1:5", 1),      # dst out of range
    ("seq 0 frame 0 | 0:0:0:0:10 1:0:0:30:10 | -1:1:0", 1),  # negative src
    ("seq 0 frame 0 | 0:0:0:0:10 1:0:0:30:10 | 1:1:-2", 1),  # negative dst
    ("seq 0 frame 0 | 1:0:0:0:0 |", 1),            # node index out of order
    ("seq 0 frame 0 | 0:0:0:0 |", 1),              # short node record
    ("seq 0 frame 0 | 0:0:x:0:0 |", 1),            # non-numeric field
    (f"seq 0 frame 0 | 0:{'9' * 400}:0:0:0 |", 1),  # class beyond float range
    ("seq 0 frame 0 ||", 1),                       # wrong field count
    ("seq 0 frame 0 | |", 1),                      # frame with no nodes
    ("seq 0 frame 0", 1),                          # truncated line
    ("seq 0 label maybe", 1),                      # unknown label
    ("seq x label safe", 1),                       # bad label sequence id
    ("seq 0 label safe\nseq 0 label risky", 2),    # second label for a sequence
    ("seq zero frame 0 | 0:0:0:0:0 |", 1),         # bad ids
    ("seq 5 label risky\nseq 0 frame 0 | 0:0:0:0:0 |", 1),   # label of no frame sequence
    ("seq 0 frame 0 | 0:0:0:0:0 |\nseq 0 label safe\nseq 2 label safe", 3),
    ("seq 7 frame 0 | 0:0:0:0:0 |\nseq 3 frame 0 | 0:0:0:0:0 |", 1),  # ids not 0..S-1
    ("seq 0 frame 0 | 0:0:0:0:0 |\nseq 2 frame 0 | 0:0:0:0:0 |", 2),
    ("seq -1 frame 0 | 0:0:0:0:0 |", 1),
    ("nonsense", 1),
])
def test_malformed_lines(bad, lineno):
    with pytest.raises(ParseError) as e:
        scenes_from_text(bad + "\n", ONT)
    assert e.value.line_number == lineno


def test_line_number_points_at_fault():
    text = ("seq 0 frame 0 | 0:0:0.0:0.0:10.0 |\n"
            "seq 0 frame 1 | 0:0:0.0:0.0:10.0 | 0:99:0\n")
    with pytest.raises(ParseError) as e:
        scenes_from_text(text, ONT)
    assert e.value.line_number == 2


def test_noncontiguous_frames_rejected():
    text = ("seq 0 frame 0 | 0:0:0.0:0.0:10.0 |\n"
            "seq 0 frame 2 | 0:0:0.0:0.0:10.0 |\n")
    with pytest.raises(ParseError):
        scenes_from_text(text, ONT)


def test_wrong_attribute_count_ontology_rejected():
    tiny = load_ontology("relation 1 is_near\nattribute 0 class categorical\n")
    with pytest.raises(ParseError):
        scenes_from_text("seq 0 frame 0 | 0:0:0:0:0 |\n", tiny)


def test_generate_refuses_the_ontologies_reading_refuses():
    tiny = load_ontology("relation 1 is_near\nattribute 0 class categorical\n")
    renumbered = load_ontology(
        emit_ontology(ONT).replace("relation 1 is_near", "relation 1 very_near")
                          .replace("relation 2 very_near", "relation 2 is_near"))
    for bad in (tiny, renumbered):
        with pytest.raises(ParseError):
            generate(ScenarioSpec(num_sequences=1), bad)


def test_features_survive_text_precision(default_corpus):
    # all generated values are multiples of 1/64, exact in %.6f
    text = scenes_to_text(default_corpus[:5])
    back = scenes_from_text(text, ONT)
    for orig, parsed in zip(default_corpus[:5], back):
        for f_orig, f_back in zip(orig.frames, parsed.frames):
            assert f_orig.features.tolist() == f_back.features.tolist()
