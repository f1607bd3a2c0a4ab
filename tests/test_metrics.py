import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from gbsed.errors import DegenerateInput, OntologyMismatch
from gbsed.metrics import (
    ConfusionCounts,
    auc,
    average_ranks,
    classification_metrics,
    compression_ratio,
    f1_from_precision_recall,
    nodes_match,
    raw_frame_octets,
    semantic_fidelity,
)
from gbsed.ontology import load_ontology
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


def test_nodes_match_agrees_with_semantic_fidelity(ontology):
    sent = (0.0, 1.0, 2.0, 10.0)
    received = [sent, (0.5, 1.0, 2.0, 10.0), (-0.5, 1.0, 2.0, 10.0),
                (1.5, 1.0, 2.0, 10.0), (0.0, 1.1, 2.0, 10.0), (0.0, 1.0, 2.0, 10.1),
                (0.0, 1.0, 2.0, 10.0 + 2 ** -20), (math.nan, 1.0, 2.0, 10.0),
                (0.0, math.inf, 2.0, 10.0), (0.0, 1.0, -math.inf, 10.0),
                (0.0, 1.0, 2.0, math.nan), (-1e300, 1.0, 2.0, 10.0)]
    expect = [semantic_fidelity(_graph([sent], []), _graph([r], []), ontology)
              .nodes_recovered == 1 for r in received]
    got = nodes_match(np.array([sent] * len(received)), np.array(received), ontology)
    assert got.tolist() == expect
    assert any(expect) and not all(expect)


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


def test_ontology_mismatch_guard(ontology):
    other = load_ontology("relation 1 x\nattribute 0 class categorical\n")
    g = _graph([(0, 0, 0, 10)], [])
    with pytest.raises(OntologyMismatch):
        semantic_fidelity(g, g, ontology, received_ontology=other)


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

def _auc_oracle(scored):
    pos = [s for s, l in scored if l == 1]
    neg = [s for s, l in scored if l == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auc_perfect_separation():
    scored = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
    assert auc(scored) == 1.0


def test_auc_all_ties():
    assert auc([(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(DegenerateInput):
        auc([(0.5, 1), (0.7, 1)])


def test_auc_against_pair_oracle():
    gen = SplitMix64(3)
    scored = [(round(gen.random(), 2), gen.randint(0, 1)) for _ in range(50)]
    if not any(l == 0 for _, l in scored) or not any(l == 1 for _, l in scored):
        scored += [(0.5, 0), (0.5, 1)]
    assert auc(scored) == pytest.approx(_auc_oracle(scored), abs=1e-12)


def test_auc_label_symmetry():
    gen = SplitMix64(8)
    scored = [(gen.random(), gen.randint(0, 1)) for _ in range(40)]
    scored += [(0.5, 0), (0.5, 1)]
    negated = [(-s, l) for s, l in scored]
    assert auc(scored) == pytest.approx(1.0 - auc(negated), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, -3.0, math.inf, -math.inf]),
                max_size=30)
       | st.lists(st.floats(allow_nan=False, width=32), max_size=30))
def test_average_ranks_match_scipy(values):
    # ties among few distinct values, and mostly distinct floats
    assert average_ranks(values).tobytes() == rankdata(values).astype(float).tobytes()


def test_average_ranks_edge_cases_match_scipy():
    for values in ([], [7.0], [2.0, 1.0], [1.0, 1.0, 1.0], [3.0, math.nan, 1.0], [math.nan]):
        np.testing.assert_array_equal(average_ranks(values), rankdata(values))


def test_auc_nan_score_gives_nan():
    assert math.isnan(auc([(0.2, 0), (math.nan, 1), (0.9, 1)]))
