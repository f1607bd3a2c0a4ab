import pytest

from gbsed.errors import DegenerateInput, ShapeError
from gbsed.metrics import auc
from gbsed.ontology import default_ontology
from gbsed.scene_graph import CLASS_LANE, CLASS_VEHICLE, SceneGraph
from gbsed.task import (
    RISKY,
    SAFE,
    GraphSequence,
    RiskParams,
    RiskVerdict,
    assess_risk,
    task_consistency,
)

ONT = default_ontology()


def _frame(near_class=None):
    """Two-node frame; if near_class is set, node 1 is is_near the ego."""
    features = ((float(CLASS_VEHICLE), 0.0, 0.0, 10.0),
                (float(near_class if near_class is not None else CLASS_VEHICLE),
                 0.0, 50.0, 10.0))
    edges = ((1, 1, 0),) if near_class is not None else ()
    return SceneGraph(features, edges)


def _seq(pattern, label=None):
    """pattern: string of '.', 'v' (vehicle near), 'l' (lane near)."""
    frames = tuple(
        _frame({"v": CLASS_VEHICLE, "l": CLASS_LANE}.get(c)) for c in pattern
    )
    return GraphSequence(frames, label)


def test_no_near_triplets_is_safe():
    v = assess_risk(_seq("....."), ONT)
    assert v == RiskVerdict(SAFE, 0.0)


def test_two_consecutive_near_frames_is_risky():
    v = assess_risk(_seq(".vv.."), ONT)
    assert v.decision == RISKY
    assert v.score == pytest.approx(0.4)


def test_nonconsecutive_near_frames_stay_safe():
    v = assess_risk(_seq("v.v.v"), ONT)
    assert v.decision == SAFE
    assert v.score == pytest.approx(0.6)


def test_single_frame_cannot_fire_window():
    v = assess_risk(_seq("v"), ONT)
    assert v.decision == SAFE and v.score == 1.0


def test_lane_class_near_counts_for_score_not_decision():
    v = assess_risk(_seq("llll"), ONT)
    assert v.decision == SAFE and v.score == 1.0


def test_window_parameter():
    params = RiskParams(consecutive_frames=3)
    assert assess_risk(_seq("vv..."), ONT, params).decision == SAFE
    assert assess_risk(_seq("vvv.."), ONT, params).decision == RISKY


def test_empty_sequence_rejected():
    with pytest.raises(DegenerateInput):
        assess_risk(GraphSequence(()), ONT)


def test_attribute_noise_without_edge_change_is_invisible():
    base = _seq(".vv")
    noisy_frames = []
    for frame in base.frames:
        noisy_frames.append(SceneGraph(frame.features + (0.0, 3.0, -1.5, 0.7), frame.edges))
    assert assess_risk(GraphSequence(tuple(noisy_frames)), ONT) == \
        assess_risk(base, ONT)


def test_deleting_near_edges_never_creates_risk():
    seq = _seq("vvvv")
    assert assess_risk(seq, ONT).decision == RISKY
    stripped = GraphSequence(tuple(SceneGraph(f.features, ()) for f in seq.frames))
    assert assess_risk(stripped, ONT).decision == SAFE


def test_non_finite_class_treated_as_unknown():
    features = ((0.0, 0.0, 0.0, 10.0),
                (float("nan"), 0.0, 5.0, 10.0))
    frame = SceneGraph(features, ((1, 1, 0),))
    v = assess_risk(GraphSequence((frame, frame)), ONT)
    assert v.decision == SAFE and v.score == 1.0


def test_consistency_identity():
    seqs = [_seq(".vv.."), _seq("....."), _seq("vvv..")]
    counts, rate, scored = task_consistency(seqs, seqs, ONT)
    assert rate == 1.0
    assert counts.fp == counts.fn == 0
    assert counts.tp == 2 and counts.tn == 1


def test_consistency_counts_flips():
    sent = [_seq(".vv..")] * 50 + [_seq(".....")] * 50
    received = list(sent)
    received[0] = _seq(".....")   # risky -> safe: one fn
    counts, rate, _ = task_consistency(sent, received, ONT)
    assert rate == pytest.approx(0.99)
    assert counts.fn == 1 and counts.fp == 0


def test_consistency_recount_oracle():
    from gbsed.rng import SplitMix64
    gen = SplitMix64(77)
    alphabet = ".vl"
    sent, received = [], []
    for _ in range(200):
        sent.append(_seq("".join(gen.choice(alphabet) for _ in range(6))))
        received.append(_seq("".join(gen.choice(alphabet) for _ in range(6))))
    counts, rate, scored = task_consistency(sent, received, ONT)
    tp = fp = tn = fn = 0
    agree = 0
    for s, r in zip(sent, received):
        t = assess_risk(s, ONT).decision == RISKY
        p = assess_risk(r, ONT).decision == RISKY
        agree += t == p
        tp += t and p
        fn += t and not p
        fp += (not t) and p
        tn += (not t) and not p
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)
    assert rate == pytest.approx(agree / 200)
    # the scored list feeds AUC directly
    assert 0.0 <= auc(scored) <= 1.0


def test_consistency_length_mismatch():
    with pytest.raises(ShapeError):
        task_consistency([_seq("v")], [], ONT)
