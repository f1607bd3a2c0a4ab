import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbsed import sweep, task
from gbsed.errors import DegenerateInput, ShapeError
from gbsed.metrics import auc
from gbsed.ontology import default_ontology
from gbsed.scene_graph import CLASS_LANE, CLASS_VEHICLE, SceneGraph
from gbsed.task import (
    RISKY,
    SAFE,
    GraphSequence,
    RiskVerdict,
    assess_risk,
    risk_verdicts,
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


def test_empty_sequence_rejected():
    # a sequence is refused when it is built, so the risk rule and the sweep
    # are never handed one without frames
    for frames in ((), []):
        with pytest.raises(DegenerateInput, match="^empty graph sequence$"):
            GraphSequence(frames)


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
    counts, rate, _, _ = task_consistency(seqs, seqs, ONT)
    assert rate == 1.0
    assert counts.fp == counts.fn == 0
    assert counts.tp == 2 and counts.tn == 1


def test_consistency_counts_flips():
    sent = [_seq(".vv..")] * 50 + [_seq(".....")] * 50
    received = list(sent)
    received[0] = _seq(".....")   # risky -> safe: one fn
    counts, rate, _, _ = task_consistency(sent, received, ONT)
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
    counts, rate, scores, labels = task_consistency(sent, received, ONT)
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
    # the score and label arrays feed AUC directly
    assert 0.0 <= auc(scores, labels) <= 1.0


def test_consistency_length_mismatch():
    with pytest.raises(ShapeError):
        task_consistency([_seq("v")], [], ONT)


# -- the array rule against the loop ------------------------------------------

def _reference_near_ego(frame):
    """(any is_near-to-ego, vehicle-class node indices is_near the ego)."""
    any_near = False
    vehicles = set()
    for src, rel, dst in frame.edges:
        if rel == ONT.relation_id("is_near") and dst == 0:
            any_near = True
            raw_cls = float(frame.features[src, ONT.attribute_index("class")])
            # corrupted features may be non-finite; treat as unknown class
            cls = int(round(raw_cls)) if math.isfinite(raw_cls) else -1
            if cls == CLASS_VEHICLE:
                vehicles.add(src)
    return any_near, vehicles


def _reference_verdict(frames):
    """The risk rule as a loop over the frames: a vehicle node's streak
    grows while it stays near the ego and is gone in the first frame it is
    not."""
    near_frames = 0
    runs = {}  # node index -> current consecutive-frame streak
    risky = False
    for any_near, vehicles in map(_reference_near_ego, frames):
        if any_near:
            near_frames += 1
        runs = {v: runs.get(v, 0) + 1 for v in vehicles}
        if runs and max(runs.values()) >= task.CONSECUTIVE_FRAMES:
            risky = True
    return RiskVerdict(RISKY if risky else SAFE, near_frames / len(frames))


_TO_EGO = (None, ONT.relation_id("is_near"), ONT.relation_id("very_near"))
_CLASSES = (float(CLASS_VEHICLE), float(CLASS_LANE), 0.4, -0.4, 1.0,
            math.nan, math.inf, -math.inf)
# a frame: one (class, relation to the ego or None) per node, node 0 the ego
_frames = st.lists(st.lists(st.tuples(st.sampled_from(_CLASSES), st.sampled_from(_TO_EGO)),
                            min_size=1, max_size=4),
                   min_size=1, max_size=6)
_V, _N = (float(CLASS_VEHICLE), None), (float(CLASS_VEHICLE), _TO_EGO[1])


def _near_frame(nodes):
    features = [(cls, 0.0, 0.0, 0.0) for cls, _ in nodes]
    edges = tuple((j, rel, 0) for j, (_, rel) in enumerate(nodes) if rel is not None)
    return SceneGraph(features, edges)


@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=60, deadline=None)
@given(st.lists(_frames, min_size=1, max_size=5))
# node 1 near in the last frame of one sequence and the first of the next
@example([[[_V, _V], [_V, _N]], [[_V, _N], [_V, _V]]])
@example([[[_V, _N], [_V, _N], [_V, _N]], [[_V, _N]]])
# a node of non-finite class is near, but it is no vehicle
@example([[[_V, (math.nan, _TO_EGO[1])]] * 3, [[_V, (math.inf, _TO_EGO[1])]] * 3])
def test_risk_verdicts_match_the_loop(m, sequences):
    seqs = [GraphSequence(tuple(_near_frame(nodes) for nodes in frames))
            for frames in sequences]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(task, "CONSECUTIVE_FRAMES", m)
        expect = [_reference_verdict(s.frames) for s in seqs]
        assert [assess_risk(s, ONT) for s in seqs] == expect
        # the sweep's sent verdicts, and its received ones over a noiseless link
        lay = sweep._lay_out(seqs, ONT)
        assert lay.risky.tolist() == [v.decision == RISKY for v in expect]
        _, *near = sweep._score_pass(lay, lay.buffer.copy()[None], ONT)
        risky, score = risk_verdicts(lay.frame_seq, *near)
        assert risky.tolist() == [v.decision == RISKY for v in expect]
        assert score.tolist() == [v.score for v in expect]


def test_risk_verdicts_keep_runs_inside_their_sequence():
    # vehicle row 1 is near in frames 1 and 2, the last of sequence 0 and
    # the first of sequence 1; row 2 is near in frames 2 and 4
    frame_seq = np.array([0, 0, 1, 1, 1])
    any_near = np.array([False, True, True, False, True])
    risky, score = risk_verdicts(frame_seq, any_near, np.array([1, 2, 2, 4]),
                                 np.array([1, 1, 2, 2]))
    assert risky.tolist() == [False, False]
    assert score.tolist() == [1 / 2, 2 / 3]
