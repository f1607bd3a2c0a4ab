"""Deterministic rule-based risk assessment over scene-graph sequences,
and task-consistency evaluation between transmitted and received sequences.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import DegenerateInput, ShapeError
from .metrics import ConfusionCounts
from .scene_graph import CLASS_VEHICLE

RISKY = "risky"
SAFE = "safe"


@dataclass(frozen=True)
class GraphSequence:
    frames: tuple
    label: Optional[str] = None


@dataclass(frozen=True)
class RiskParams:
    consecutive_frames: int = 2
    vehicle_classes: frozenset = field(default_factory=lambda: frozenset({CLASS_VEHICLE}))


@dataclass(frozen=True)
class RiskVerdict:
    decision: str
    score: float


def frame_near_ego(frame, ontology, params=RiskParams()):
    """(any is_near-to-ego, vehicle-class node indices is_near the ego)."""
    near_id = ontology.relation_id("is_near")
    class_idx = ontology.attribute_index("class")
    any_near = False
    vehicles = set()
    for src, rel, dst in frame.edges:
        if rel == near_id and dst == 0:
            any_near = True
            raw_cls = float(frame.features[src, class_idx])
            # corrupted features may be non-finite; treat as unknown class
            cls = int(round(raw_cls)) if math.isfinite(raw_cls) else -1
            if cls in params.vehicle_classes:
                vehicles.add(src)
    return any_near, vehicles


def assess_risk(sequence, ontology, params=RiskParams()):
    """Risky iff the same vehicle-class node stays is_near the ego for m
    consecutive frames; score is the fraction of frames with an
    is_near-to-ego triplet."""
    if not sequence.frames:
        raise DegenerateInput("empty graph sequence")
    return verdict_from_near([frame_near_ego(f, ontology, params) for f in sequence.frames],
                             params)


def verdict_from_near(near, params=RiskParams()):
    """assess_risk's verdict from each frame's frame_near_ego pair."""
    near_frames = 0
    runs = {}  # node index -> current consecutive-frame streak
    risky = False
    for any_near, vehicles in near:
        if any_near:
            near_frames += 1
        runs = {v: runs.get(v, 0) + 1 for v in vehicles}
        if runs and max(runs.values()) >= params.consecutive_frames:
            risky = True
    decision = RISKY if risky else SAFE
    return RiskVerdict(decision, near_frames / len(near))


def task_consistency(sent_seqs, received_seqs, ontology, params=RiskParams()):
    """Compare risk verdicts before and after transmission.

    Treats the sent verdict as ground truth and the received verdict as the
    prediction. Returns (ConfusionCounts, consistency_rate, scored_labels)
    where scored_labels feeds metrics.auc (received score vs sent decision).
    """
    if len(sent_seqs) != len(received_seqs):
        raise ShapeError(f"{len(sent_seqs)} sent vs {len(received_seqs)} received sequences")
    truths, preds = [], []
    for sent, received in zip(sent_seqs, received_seqs):
        truths.append(assess_risk(sent, ontology, params))
        preds.append(assess_risk(received, ontology, params))
    return verdict_consistency(truths, preds)


def verdict_consistency(truths, preds):
    """task_consistency's result from paired sent and received verdicts."""
    tp = fp = tn = fn = 0
    agree = 0
    scored = []
    for truth, pred in zip(truths, preds):
        if truth.decision == pred.decision:
            agree += 1
        if truth.decision == RISKY:
            if pred.decision == RISKY:
                tp += 1
            else:
                fn += 1
        else:
            if pred.decision == RISKY:
                fp += 1
            else:
                tn += 1
        scored.append((pred.score, 1 if truth.decision == RISKY else 0))
    counts = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
    return counts, agree / len(truths) if truths else 1.0, scored
