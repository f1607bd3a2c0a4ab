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
    is present.
    """
    nodes_total = sent.num_nodes
    edges_total = len(sent.edges)
    if received is None:
        return FidelityReport(nodes_total, 0, edges_total, 0)
    m = min(nodes_total, received.num_nodes)
    nodes_recovered = int(np.count_nonzero(
        nodes_match(sent.features[:m], received.features[:m], ontology)))
    recv_edges = set(received.edges)
    edges_recovered = sum(1 for e in sent.edges if e in recv_edges)
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


def average_ranks(values):
    """1-based ranks of values along the last axis, tied values sharing the
    mean of their ranks (``scipy.stats.rankdata``'s default); a row with a
    NaN ranks all NaN."""
    values = np.asarray(values, dtype=float)
    size = values.shape[-1]
    order = np.argsort(values, axis=-1, kind="mergesort")
    ordered = np.take_along_axis(values, order, axis=-1)
    # tie groups of the sorted values: a group starts at position i where
    # bounds[..., i] and ends at i where bounds[..., i + 1]
    bounds = np.ones(values.shape[:-1] + (size + 1,), dtype=bool)
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=bounds[..., 1:-1])
    at = np.arange(size)
    first = np.maximum.accumulate(np.where(bounds[..., :-1], at, 0), axis=-1)
    last = np.flip(np.minimum.accumulate(np.flip(np.where(bounds[..., 1:], at, size), -1),
                                         axis=-1), -1)
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, 0.5 * (first + last + 2), axis=-1)
    ranks[np.isnan(values).any(axis=-1)] = math.nan
    return ranks


def auc(scores, labels):
    """Rank-based (Mann-Whitney) area under the ROC curve, along the last
    axis.

    ``scores`` holds a row of scores or an array of rows, and ``labels``
    the binary labels (0/1 or bool) of a row, or of each row; ties count
    one half. Returns a float for one row and an array for rows, NaN for a
    row with a NaN score.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.broadcast_to(labels, scores.shape)
    positive = labels == 1
    n_pos = np.count_nonzero(positive, axis=-1)
    n_neg = np.count_nonzero(labels == 0, axis=-1)
    if not (np.all(n_pos) and np.all(n_neg)):
        raise DegenerateInput("AUC needs at least one positive and one negative label")
    # ranks are halves, so their sum is exact in any order
    rank_sum_pos = np.sum(average_ranks(scores), axis=-1, where=positive)
    value = (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(value) if value.ndim == 0 else value
