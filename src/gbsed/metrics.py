"""Evaluation metrics: semantic fidelity, compression ratio, and the
binary-classification suite (accuracy, precision, recall, F1, MCC, AUC).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, OntologyMismatch
from .ontology import ontology_digest


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


def _node_matches(sent_row, recv_row, ontology):
    for attr in ontology.attributes:
        s = sent_row[attr.index]
        r = recv_row[attr.index]
        if attr.kind == "categorical":
            if not (math.isfinite(r) and round(s) == round(r)):
                return False
        else:
            limit = SPEED_TOLERANCE if attr.kind == "speed-mps" else POSITION_TOLERANCE
            if not (math.isfinite(r) and abs(s - r) <= limit):
                return False
    return True


def nodes_match(sent, received, ontology):
    """Array form of semantic_fidelity's node test, one node per row.

    ``sent`` and ``received`` hold feature values with one column per
    attribute index; True where every attribute of the row matches.
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


def semantic_fidelity(sent, received, ontology, received_ontology=None):
    """Fraction of transmitted semantic entities (nodes + triplets)
    recovered at the receiver.

    ``received=None`` means the payload failed to parse: fidelity 0.
    Node correspondence is by index; an edge counts iff the exact triplet
    is present.
    """
    if received_ontology is not None and \
            ontology_digest(received_ontology) != ontology_digest(ontology):
        raise OntologyMismatch("sent and received graphs use different ontologies")
    nodes_total = sent.num_nodes
    edges_total = len(sent.edges)
    if received is None:
        return FidelityReport(nodes_total, 0, edges_total, 0)
    recv_rows = received.features.tolist()
    nodes_recovered = 0
    for i, row in enumerate(sent.features.tolist()):
        if i < len(recv_rows) and _node_matches(row, recv_rows[i], ontology):
            nodes_recovered += 1
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
    """1-based ranks of values, tied values sharing the mean of their ranks
    (``scipy.stats.rankdata``'s default); all NaN if any value is NaN."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        return np.full(values.shape, math.nan)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    # tie groups of the sorted values: first and last 0-based position
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    group = np.cumsum(new) - 1
    first = np.flatnonzero(new)
    last = np.append(first[1:], values.size) - 1
    ranks = np.empty(values.size)
    ranks[order] = 0.5 * (first + last + 2)[group]
    return ranks


def auc(scored_labels):
    """Rank-based (Mann-Whitney) area under the ROC curve.

    ``scored_labels`` is a sequence of (score, label) with binary labels;
    ties count one half.
    """
    scores = np.array([s for s, _ in scored_labels], dtype=float)
    labels = np.array([int(l) for _, l in scored_labels])
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInput("AUC needs at least one positive and one negative label")
    ranks = average_ranks(scores)
    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
