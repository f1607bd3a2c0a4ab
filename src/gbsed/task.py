"""Deterministic rule-based risk assessment over scene-graph sequences,
and task-consistency evaluation between transmitted and received sequences.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInput, ShapeError
from .metrics import ConfusionCounts
from .scene_graph import CLASS_VEHICLE, stack_graphs

RISKY = "risky"
SAFE = "safe"

# m: a sequence is risky once one vehicle stays is_near the ego this many frames
CONSECUTIVE_FRAMES = 2


@dataclass(frozen=True)
class GraphSequence:
    frames: tuple  # scene graphs in frame order, at least one
    label: Optional[str] = None

    def __post_init__(self):
        if not self.frames:
            raise DegenerateInput("empty graph sequence")


@dataclass(frozen=True)
class RiskVerdict:
    decision: str
    score: float


def near_ego_nodes(near, features, node_frame, node_row, num_frames, ontology):
    """risk_verdicts' per-frame arrays from a mask of the nodes is_near the
    ego, with the features, the frame and the row in its frame of every
    node: any_near and the (frame, row) pairs of the vehicle-class ones."""
    cls = features[:, ontology.attribute_index("class")]
    vehicle = near & (np.rint(cls) == CLASS_VEHICLE)  # a non-finite class is no vehicle
    any_near = np.bincount(node_frame[near], minlength=num_frames) > 0
    return any_near, node_frame[vehicle], node_row[vehicle]


def near_ego(frames, ontology):
    """near_ego_nodes' arrays for a list of scene graphs."""
    return near_ego_stacked(*stack_graphs(frames), ontology)


def near_ego_stacked(features, sizes, triplets, edge_counts, ontology):
    """near_ego_nodes' arrays for frames stacked as ``stack_graphs`` stacks
    them."""
    first = np.cumsum(sizes) - sizes
    node_frame = np.repeat(np.arange(sizes.size), sizes)
    src, rel, dst = triplets.T
    source = first[np.repeat(np.arange(sizes.size), edge_counts)] + src
    near = np.zeros(sizes.sum(), dtype=bool)
    near[source[(rel == ontology.relation_id("is_near")) & (dst == 0)]] = True
    return near_ego_nodes(near, features, node_frame,
                          np.arange(sizes.sum()) - first[node_frame], sizes.size, ontology)


def assess_risk(sequence, ontology):
    """Risky iff the same vehicle-class node stays is_near the ego for m
    consecutive frames; score is the fraction of frames with an
    is_near-to-ego triplet."""
    risky, score = risk_verdicts(np.zeros(len(sequence.frames), dtype=np.int64),
                                 *near_ego(sequence.frames, ontology))
    return RiskVerdict(RISKY if risky[0] else SAFE, float(score[0]))


def risk_verdicts(frame_seq, any_near, near_frame, near_row):
    """assess_risk's rule over many sequences at once.

    ``frame_seq`` is the sequence of every frame: 0, 1, ... in frame order,
    each sequence a run of consecutive frames. ``any_near`` marks the frames
    with an is_near-to-ego triplet, and (``near_frame``, ``near_row``) are
    the (frame, node row) pairs, each once, of the vehicle-class nodes
    is_near the ego. Returns the risky flag and the score of every sequence
    as a bool and a float64 array.
    """
    lengths = np.bincount(frame_seq)
    score = np.bincount(frame_seq[any_near], minlength=lengths.size) / lengths
    seq = frame_seq[near_frame]
    order = np.lexsort((near_frame, near_row, seq))
    seq, row, frame = seq[order], near_row[order], near_frame[order]
    # a vehicle's run reaches m frames where the pair m - 1 places back in
    # this order is the same vehicle of the same sequence, m - 1 frames back
    back = CONSECUTIVE_FRAMES - 1
    last = max(seq.size - back, 0)
    reached = ((seq[back:] == seq[:last]) & (row[back:] == row[:last])
               & (frame[back:] - frame[:last] == back))
    risky = np.zeros(lengths.size, dtype=bool)
    risky[seq[back:][reached]] = True
    return risky, score


def task_consistency(sent_seqs, received_seqs, ontology):
    """Compare risk verdicts before and after transmission.

    Treats the sent verdict as ground truth and the received verdict as the
    prediction. Returns (ConfusionCounts, consistency_rate, scores, labels)
    where the received scores and the sent risky flags, arrays over the
    sequences, feed metrics.auc.
    """
    if len(sent_seqs) != len(received_seqs):
        raise ShapeError(f"{len(sent_seqs)} sent vs {len(received_seqs)} received sequences")
    truth = np.array([assess_risk(s, ontology).decision == RISKY for s in sent_seqs], dtype=bool)
    preds = [assess_risk(r, ontology) for r in received_seqs]
    pred = np.array([[p.decision == RISKY for p in preds]], dtype=bool)
    (counts,), (consistency,) = verdict_consistency(truth, pred)
    return counts, float(consistency), np.array([p.score for p in preds], dtype=np.float64), truth


def verdict_consistency(truth, pred):
    """task_consistency's counts and consistency, one a row of ``pred``:
    ``truth`` holds the sent risky flags of the sequences and ``pred`` the
    received ones, a row a reception. Returns a list of ConfusionCounts and
    an array of consistency rates."""
    size = truth.shape[-1]
    tp = np.count_nonzero(truth & pred, axis=-1)
    fp = np.count_nonzero(~truth & pred, axis=-1)
    fn = np.count_nonzero(truth & ~pred, axis=-1)
    tn = size - tp - fp - fn
    consistency = (tp + tn) / size if size else np.ones(tp.shape)
    return [ConfusionCounts(*c) for c in zip(*(x.tolist() for x in (tp, fp, tn, fn)))], consistency
