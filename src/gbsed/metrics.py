"""Evaluation metrics: semantic fidelity, compression ratio, and the
binary-classification suite (accuracy, precision, recall, F1, MCC, AUC).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .ontology import ontology_digest  # noqa: F401  (perfbench's ontology.digest probe)


# a received continuous attribute matches within these
POSITION_TOLERANCE = 0.1  # meters
SPEED_TOLERANCE = 0.1     # m/s


@dataclass(frozen=True)
class FidelityReport:
    nodes_total: int
    nodes_recovered: int
    edges_total: int
    edges_recovered: int

    @property
    def fidelity(self):
        total = self.nodes_total + self.edges_total
        if total == 0:
            return 1.0
        return (self.nodes_recovered + self.edges_recovered) / total


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class ClassificationMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    mcc: float
    degenerate: bool = False


def nodes_match(sent, received, ontology):
    """semantic_fidelity's node test, one node per row.

    ``sent`` and ``received`` hold feature values with one column per
    attribute index; True where every attribute of the row matches: a
    categorical value rounds to the sent one, a continuous one lies within
    its tolerance, and a non-finite value, sent or received, never matches.
    """
    ok = np.ones(len(sent), dtype=bool)
    with np.errstate(invalid="ignore"):
        for attr in ontology.attributes:
            s = sent[:, attr.index]
            r = received[:, attr.index]
            if attr.kind == "categorical":
                ok &= np.isfinite(r) & (np.rint(s) == np.rint(r))
            else:
                limit = SPEED_TOLERANCE if attr.kind == "speed-mps" else POSITION_TOLERANCE
                ok &= np.isfinite(r) & (np.abs(s - r) <= limit)
    return ok


def semantic_fidelity(sent, received, ontology):
    """Fraction of transmitted semantic entities (nodes + triplets)
    recovered at the receiver.

    ``received=None`` means the payload failed to parse: fidelity 0.
    Node correspondence is by index; an edge counts iff the exact triplet
    is present (a graph lists each triplet once).
    """
    nodes_total = sent.num_nodes
    edges_total = len(sent.edges)
    if received is None:
        return FidelityReport(nodes_total, 0, edges_total, 0)
    m = min(nodes_total, received.num_nodes)
    nodes_recovered = int(np.count_nonzero(
        nodes_match(sent.features[:m], received.features[:m], ontology)))
    edges_recovered = len(set(map(tuple, sent.edges.tolist()))
                          .intersection(map(tuple, received.edges.tolist())))
    return FidelityReport(nodes_total, nodes_recovered, edges_total, edges_recovered)


def compression_ratio(raw_octets, encoded_octets):
    """Returns (cr, reduction_percent)."""
    if raw_octets <= 0 or encoded_octets <= 0:
        raise DegenerateInput(f"sizes must be positive, got {raw_octets}, {encoded_octets}")
    cr = raw_octets / encoded_octets
    reduction = 100.0 * (1.0 - encoded_octets / raw_octets)
    return cr, reduction


def raw_frame_octets(width, height):
    """Raw 24-bit RGB frame size in octets."""
    if width <= 0 or height <= 0:
        raise DegenerateInput("dimensions must be positive")
    return width * height * 3


def _safe_div(num, den):
    return num / den if den != 0 else 0.0


def f1_from_precision_recall(precision, recall):
    return _safe_div(2.0 * precision * recall, precision + recall)


def classification_metrics(c):
    """Standard binary metrics from confusion counts.

    Degenerate denominators yield 0.0 and set the ``degenerate`` flag
    instead of raising, so batch sweeps never abort.
    """
    if c.total < 1:
        raise DegenerateInput("empty confusion counts")
    tp, fp, tn, fn = c.tp, c.fp, c.tn, c.fn
    accuracy = (tp + tn) / c.total
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    f1 = f1_from_precision_recall(precision, recall)
    mcc_den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / mcc_den if mcc_den != 0 else 0.0
    degenerate = 0 in (tp + fp, tp + fn, tn + fp, tn + fn)
    return ClassificationMetrics(accuracy, precision, recall, f1, mcc, degenerate)


def auc(scores, labels):
    """Area under the ROC curve along the last axis: the Mann-Whitney
    statistic U / (P·N), where U counts the (positive, negative) pairs that
    the positive wins by score, a tie one half.

    ``scores`` holds a row of scores or an array of rows, and ``labels``
    the binary labels (0/1 or bool) of a row, or of each row. Returns a
    float for one row and an array for rows, NaN for a row with a NaN score."""
    scores = np.asarray(scores, dtype=float)
    labels = np.broadcast_to(labels, scores.shape)
    negative = labels == 0
    if not (negative | (labels == 1)).all():
        raise ValueError("AUC labels must be 0 or 1")
    n_neg = np.count_nonzero(negative, axis=-1)
    n_pos = scores.shape[-1] - n_neg
    if not (np.all(n_pos) and np.all(n_neg)):
        raise DegenerateInput("AUC needs at least one positive and one negative label")
    nan = np.isnan(scores).any(axis=-1)
    # a quick sort first, so that the stable sorts below sort sorted rows;
    # ``at`` makes orders along the last axis flat indices, cheap to gather
    at = np.arange(0, scores.size, max(scores.shape[-1], 1)).reshape(scores.shape[:-1] + (1,))
    order = np.argsort(scores, axis=-1) + at
    scores, negative = scores.ravel()[order], negative.ravel()[order]
    # 2U: the negatives below each positive, with tied ones sorted after it and
    # then before it; at the negatives, the running count of them sums to N(N + 1)/2
    twice_u = -n_neg * (n_neg + 1)
    for ties_last in (negative, ~negative):
        neg = negative.ravel()[np.lexsort((ties_last, scores), axis=-1) + at]
        twice_u += np.cumsum(neg, axis=-1).sum(axis=-1)
    value = np.where(nan, math.nan, twice_u / 2.0 / (n_pos * n_neg))
    return float(value) if value.ndim == 0 else value
