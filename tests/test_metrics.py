import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from gbsed.errors import DegenerateInput
from gbsed.metrics import (
    POSITION_TOLERANCE,
    SPEED_TOLERANCE,
    ConfusionCounts,
    auc,
    classification_metrics,
    compression_ratio,
    f1_from_precision_recall,
    nodes_match,
    raw_frame_octets,
    semantic_fidelity,
)
from gbsed.rng import SplitMix64
from gbsed.scene_graph import SceneGraph


def _graph(features, edges):
    return SceneGraph(features, tuple(sorted(edges)))


# -- semantic fidelity --------------------------------------------------------

def test_identity_fidelity(ontology):
    g = _graph([(0, 0, 0, 10), (0, 0, 5, 10)], [(0, 1, 1), (1, 1, 0)])
    assert semantic_fidelity(g, g, ontology).fidelity == 1.0


def test_partial_edge_loss(ontology):
    feats = [(0, float(i), 0, 10) for i in range(6)]
    edges = [(0, 1, 1), (1, 1, 0), (0, 2, 1), (1, 2, 0)]
    sent = _graph(feats, edges)
    received = _graph(feats, edges[:3])
    r = semantic_fidelity(sent, received, ontology)
    assert r.fidelity == pytest.approx((6 + 3) / (6 + 4))


def test_parse_failure_is_zero(ontology):
    g = _graph([(0, 0, 0, 10)], [])
    r = semantic_fidelity(g, None, ontology)
    assert r.fidelity == 0.0 and r.nodes_recovered == 0


def _reference_node_matches(sent_row, recv_row, ontology):
    """The per-node loop semantic_fidelity ran before it called nodes_match,
    except that a non-finite sent class is lost where ``round`` raised."""
    for index, (_, kind) in enumerate(ontology.attributes):
        s = sent_row[index]
        r = recv_row[index]
        if kind == "categorical":
            if not (math.isfinite(s) and math.isfinite(r) and round(s) == round(r)):
                return False
        else:
            limit = SPEED_TOLERANCE if kind == "speed-mps" else POSITION_TOLERANCE
            if not (math.isfinite(r) and abs(s - r) <= limit):
                return False
    return True


def test_nodes_match_agrees_with_semantic_fidelity(ontology):
    sent = (0.0, 1.0, 2.0, 10.0)
    received = [sent, (0.5, 1.0, 2.0, 10.0), (-0.5, 1.0, 2.0, 10.0),
                (1.5, 1.0, 2.0, 10.0), (0.0, 1.1, 2.0, 10.0), (0.0, 1.0, 2.0, 10.1),
                (0.0, 1.0, 2.0, 10.0 + 2 ** -20), (math.nan, 1.0, 2.0, 10.0),
                (0.0, math.inf, 2.0, 10.0), (0.0, 1.0, -math.inf, 10.0),
                (0.0, 1.0, 2.0, math.nan), (-1e300, 1.0, 2.0, 10.0)]
    pairs = [(sent, r) for r in received]
    for cls in (math.nan, math.inf, -math.inf):  # a non-finite sent class
        bad = (cls, 1.0, 2.0, 10.0)
        pairs += [(bad, sent), (bad, bad)]
    expect = [_reference_node_matches(s, r, ontology) for s, r in pairs]
    got = nodes_match(np.array([s for s, _ in pairs]), np.array([r for _, r in pairs]),
                      ontology)
    assert got.tolist() == expect
    assert [semantic_fidelity(_graph([s], []), _graph([r], []), ontology).nodes_recovered == 1
            for s, r in pairs] == expect
    assert any(expect) and not all(expect)


def test_non_finite_sent_class_is_lost(ontology):
    # against a finite received class, round() raised ValueError (NaN) or
    # OverflowError (inf) on such a class
    received = _graph([(0.0, 0.0, 0.0, 10.0), (2.0, 1.0, 2.0, 10.0)], [(0, 1, 1)])
    for cls in (math.nan, math.inf, -math.inf):
        sent = _graph([(0.0, 0.0, 0.0, 10.0), (cls, 1.0, 2.0, 10.0)], [(0, 1, 1)])
        for recv in (received, sent):
            report = semantic_fidelity(sent, recv, ontology)
            assert (report.nodes_recovered, report.edges_recovered) == (1, 1)
            assert report.fidelity == 2 / 3


def test_fidelity_compares_the_shared_rows(ontology):
    # nodes correspond by index; the longer graph's extra rows are lost
    rows = [(0.0, float(i), 0.0, 10.0) for i in range(4)]
    shorter = _graph(rows[:2], [])
    assert semantic_fidelity(_graph(rows, []), shorter, ontology).nodes_recovered == 2
    assert semantic_fidelity(shorter, _graph(rows, []), ontology).nodes_recovered == 2


def test_node_tolerances(ontology):
    sent = _graph([(0, 1.0, 2.0, 10.0)], [])
    within = _graph([(0, 1.05, 2.0, 10.09)], [])
    off_pos = _graph([(0, 1.2, 2.0, 10.0)], [])
    off_speed = _graph([(0, 1.0, 2.0, 10.2)], [])
    off_class = _graph([(1, 1.0, 2.0, 10.0)], [])
    assert semantic_fidelity(sent, within, ontology).nodes_recovered == 1
    assert semantic_fidelity(sent, off_pos, ontology).nodes_recovered == 0
    assert semantic_fidelity(sent, off_speed, ontology).nodes_recovered == 0
    assert semantic_fidelity(sent, off_class, ontology).nodes_recovered == 0


def test_non_finite_received_feature(ontology):
    sent = _graph([(0, 1.0, 2.0, 10.0)], [])
    received = _graph([(0, float("nan"), 2.0, 10.0)], [])
    assert semantic_fidelity(sent, received, ontology).nodes_recovered == 0


def test_fidelity_monotone_under_edge_deletion(ontology):
    feats = [(0, float(i) * 3, 0, 10) for i in range(5)]
    edges = [(0, 1, 1), (1, 1, 0), (1, 1, 2), (2, 1, 1), (0, 3, 4)]
    sent = _graph(feats, edges)
    last = 1.1
    for k in range(len(edges), -1, -1):
        f = semantic_fidelity(sent, _graph(feats, edges[:k]), ontology).fidelity
        assert f <= last
        last = f


# -- compression ratio --------------------------------------------------------

def test_table_ratio_values():
    cr, reduction = compression_ratio(13.0e9, 5.37e6)
    assert abs(cr - 2425) / 2425 < 0.002
    assert reduction >= 99.9


def test_ratio_identity_row():
    cr, reduction = compression_ratio(1000, 1000)
    assert cr == 1.0 and reduction == 0.0


def test_ratio_jpeg_row():
    _, reduction = compression_ratio(13.0e9, 5.29e9)
    assert reduction == pytest.approx(59.3, abs=0.1)


def test_ratio_degenerate():
    with pytest.raises(DegenerateInput):
        compression_ratio(10, 0)


def test_raw_frame_octets():
    assert raw_frame_octets(1280, 720) == 2_764_800
    assert raw_frame_octets(1, 1) == 3
    # 5060 frames ~ 13.99e9 octets (~13.0 GiB, binary prefix)
    total = 5060 * raw_frame_octets(1280, 720)
    assert total / 2**30 == pytest.approx(13.03, abs=0.01)
    with pytest.raises(DegenerateInput):
        raw_frame_octets(0, 5)


# -- classification metrics ---------------------------------------------------

def test_f1_verbatim_value():
    assert f1_from_precision_recall(0.769, 0.909) == pytest.approx(0.833, abs=0.001)


def test_perfect_classifier():
    m = classification_metrics(ConfusionCounts(tp=10, tn=10))
    assert (m.accuracy, m.precision, m.recall, m.f1, m.mcc) == (1, 1, 1, 1, 1)
    assert not m.degenerate


def test_known_confusion_counts():
    m = classification_metrics(ConfusionCounts(tp=20, fp=6, tn=170, fn=2))
    assert m.precision == pytest.approx(0.769, abs=0.001)
    assert m.recall == pytest.approx(0.909, abs=0.001)
    assert m.f1 == pytest.approx(0.833, abs=0.001)


def test_degenerate_counts_flagged():
    m = classification_metrics(ConfusionCounts(tn=10))
    assert m.precision == 0.0 and m.degenerate
    with pytest.raises(DegenerateInput):
        classification_metrics(ConfusionCounts())


def _mcc_oracle(tp, fp, tn, fn):
    den = math.sqrt(tp + fp) * math.sqrt(tp + fn) * math.sqrt(tn + fp) * math.sqrt(tn + fn)
    return (tp * tn - fp * fn) / den if den else 0.0


def test_mcc_against_oracle_and_inversion():
    gen = SplitMix64(4)
    for _ in range(100):
        tp, fp, tn, fn = (gen.randint(1, 50) for _ in range(4))
        m = classification_metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        assert m.mcc == pytest.approx(_mcc_oracle(tp, fp, tn, fn), abs=1e-9)
        assert -1.0 - 1e-12 <= m.mcc <= 1.0 + 1e-12
        flipped = classification_metrics(ConfusionCounts(tp=fn, fp=tn, tn=fp, fn=tp))
        assert flipped.mcc == pytest.approx(-m.mcc, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_f1_between_min_and_max(p, r):
    f1 = f1_from_precision_recall(p, r)
    assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


# -- AUC ----------------------------------------------------------------------

def _columns(scored):
    """(score, label) pairs as the score and label arrays auc takes."""
    return (np.array([s for s, _ in scored], dtype=float),
            np.array([l for _, l in scored], dtype=int))


def _auc_oracle(scored):
    pos = [s for s, l in scored if l == 1]
    neg = [s for s, l in scored if l == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auc_perfect_separation():
    scored = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
    assert auc(*_columns(scored)) == 1.0


def test_auc_all_ties():
    assert auc(*_columns([(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)])) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(DegenerateInput):
        auc(*_columns([(0.5, 1), (0.7, 1)]))


def test_auc_against_pair_oracle():
    gen = SplitMix64(3)
    scored = [(round(gen.random(), 2), gen.randint(0, 1)) for _ in range(50)]
    if not any(l == 0 for _, l in scored) or not any(l == 1 for _, l in scored):
        scored += [(0.5, 0), (0.5, 1)]
    assert auc(*_columns(scored)) == pytest.approx(_auc_oracle(scored), abs=1e-12)


def test_auc_label_symmetry():
    gen = SplitMix64(8)
    scored = [(gen.random(), gen.randint(0, 1)) for _ in range(40)]
    scored += [(0.5, 0), (0.5, 1)]
    negated = [(-s, l) for s, l in scored]
    assert auc(*_columns(scored)) == pytest.approx(1.0 - auc(*_columns(negated)), abs=1e-12)


def test_auc_nan_score_gives_nan():
    assert math.isnan(auc(*_columns([(0.2, 0), (math.nan, 1), (0.9, 1)])))


# rows of scores of one width: ties among few distinct values, NaN, and
# mostly distinct floats
_rows = st.integers(0, 12).flatmap(lambda width: st.lists(
    st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, -3.0, math.inf, -math.inf, math.nan])
             | st.floats(allow_nan=False, width=32), min_size=width, max_size=width),
    min_size=1, max_size=4))


@settings(max_examples=80, deadline=None)
@given(_rows, st.integers(0, 2 ** 32 - 1))
def test_auc_of_rows_is_each_rows_auc(rows, seed):
    values = np.array(rows, dtype=float).reshape(len(rows), -1)
    gen = np.random.default_rng(seed)
    shared = gen.integers(0, 2, values.shape[1])
    own = gen.integers(0, 2, values.shape)
    for labels in (shared, own):
        each = []
        for row, row_labels in zip(values, np.broadcast_to(labels, values.shape)):
            try:
                each.append(auc(row, row_labels))
            except DegenerateInput:
                each.append(None)
        if None in each:
            with pytest.raises(DegenerateInput):
                auc(values, labels)
            continue
        got = auc(values, labels)
        assert got.shape == (len(rows),)
        assert np.array(each).tobytes() == got.tobytes()
        assert all(type(a) is float for a in each)


def test_auc_refuses_labels_other_than_0_and_1():
    # a label 2 would take a rank but count in neither class: AUC 2.0
    for labels in ([0, 1, 2], [0, 1, -1], [0.0, 1.0, 0.5], [0.0, 1.0, math.nan]):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            auc([0.5, 0.9, 0.1], labels)
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        auc([[0.5, 0.9, 0.1], [0.5, 0.9, 0.1]], [[0, 1, 0], [2, 1, 0]])
    for labels in ([0, 1, 0], [False, True, False], [0.0, 1.0, 0.0]):
        assert auc([0.5, 0.9, 0.1], labels) == 1.0


def test_auc_of_no_rows_is_empty():
    for width in (0, 3):
        got = auc(np.zeros((0, width)), np.arange(width) % 2)
        assert got.shape == (0,) and got.dtype == np.float64


def _rank_sum_auc(values, labels):
    """AUC by the rank-sum form of U, from scipy's average ranks, for each
    row of ``values``: (rank sum of the positives - P(P + 1)/2) / (P·N), NaN
    for a row with a NaN; None where a row lacks a class."""
    expect = []
    for row, row_labels in zip(values, np.broadcast_to(labels, values.shape)):
        positive = row_labels == 1
        n_pos = np.count_nonzero(positive)
        n_neg = row.size - n_pos
        if not (n_pos and n_neg):
            return None
        rank_sum = np.sum(rankdata(row), where=positive)
        expect.append((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return np.array(expect, dtype=np.float64)


_FEW = (0.0, -0.0, 0.5, 1.0, 2.5, -3.0, math.inf, -math.inf)


def _rows_of(values):
    return st.integers(0, 30).flatmap(lambda width: st.lists(
        st.lists(values, min_size=width, max_size=width), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(_rows_of(st.sampled_from(_FEW)) | _rows_of(st.floats(allow_nan=False, width=32))
       | _rows_of(st.sampled_from(_FEW + (math.nan,))),
       st.integers(0, 2 ** 32 - 1))
def test_auc_is_the_rank_sum_statistic(rows, seed):
    # rows of ties among few distinct values, of mostly distinct floats, and
    # with NaN; the labels shared by the rows, or each row's own
    values = np.array(rows, dtype=float).reshape(len(rows), -1)
    gen = np.random.default_rng(seed)
    for labels in (gen.integers(0, 2, values.shape[1]), gen.integers(0, 2, values.shape),
                   gen.integers(0, 2, values.shape).astype(bool)):
        expect = _rank_sum_auc(values, labels)
        if expect is None:
            with pytest.raises(DegenerateInput):
                auc(values, labels)
        else:
            assert auc(values, labels).tobytes() == expect.tobytes()


def test_auc_of_wide_rows_is_the_rank_sum_statistic():
    gen = np.random.default_rng(5)
    values = np.stack([gen.integers(0, 50, 10_000) / 50, gen.random(10_000),
                       gen.choice(_FEW, 10_000)])
    for labels in (gen.integers(0, 2, 10_000), gen.integers(0, 2, values.shape)):
        assert auc(values, labels).tobytes() == _rank_sum_auc(values, labels).tobytes()
