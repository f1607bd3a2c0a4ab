import math

import numpy as np
import pytest

from gbsed.errors import HorizonError, ShapeError
from gbsed.rng import SplitMix64
from gbsed.scenarios import ScenarioSpec, generate, scenes_from_text, scenes_to_text
from gbsed.scene_graph import (
    CLASS_LANE,
    CLASS_VEHICLE,
    DetectedObject,
    Homography,
    SceneGraph,
    build_scene_graph,
    graph_from_bev,
    infer_relations,
    ipm_project,
)


# -- independent re-implementation of every relation predicate, used as the
#    oracle against infer_relations ------------------------------------------

def oracle_relations(records):
    """records: list of (class, x, y, speed); returns sorted triplet set."""
    rid = {"is_near": 1, "very_near": 2, "to_left_of": 3, "to_right_of": 4,
           "in_front_of": 5, "behind": 6, "is_in": 7, "approaching": 8}
    # literal thresholds, not scene_graph's constants, so that the oracle
    # checks their values: D_NEAR 10, D_VERY 4, LANE_WIDTH 3.5, L_SIDE 20,
    # L_FRONT 30, V_MARGIN 0.5 and CLASS_LANE 2
    half = 3.5 / 2.0
    out = set()
    n = len(records)
    for i in range(n):
        ci, xi, yi, vi = records[i]
        for j in range(n):
            if j == i:
                continue
            cj, xj, yj, vj = records[j]
            dx, dy = xj - xi, yj - yi
            d = math.hypot(dx, dy)
            if d <= 10.0:
                out.add((i, rid["is_near"], j))
                if vj > vi + 0.5:
                    out.add((j, rid["approaching"], i))
            if d <= 4.0:
                out.add((i, rid["very_near"], j))
            if abs(dy) <= 20.0:
                if dx <= -half:
                    out.add((j, rid["to_left_of"], i))
                if dx >= half:
                    out.add((j, rid["to_right_of"], i))
            if abs(dx) <= half:
                if 0 < dy <= 30.0:
                    out.add((j, rid["in_front_of"], i))
                if 0 < -dy <= 30.0:
                    out.add((j, rid["behind"], i))
            if round(cj) == 2 and abs(xi - xj) <= half:
                out.add((i, rid["is_in"], j))
    return tuple(sorted(out))


def _random_records(seed, n, with_lanes=True):
    gen = SplitMix64(seed)
    records = [(CLASS_VEHICLE, 0.0, 0.0, 10.0)]
    for _ in range(n - 1):
        cls = CLASS_LANE if with_lanes and gen.random() < 0.2 else CLASS_VEHICLE
        records.append((cls, gen.uniform(-15, 15), gen.uniform(-40, 40),
                        gen.uniform(0, 20)))
    return records


# -- IPM projection -----------------------------------------------------------

def test_ipm_identity():
    assert ipm_project((10, 20, 30, 40), Homography.identity()) == (20.0, 40.0)


def test_ipm_scaling():
    h = Homography(np.diag([2.0, 2.0, 1.0]))
    assert ipm_project((10, 20, 30, 40), h) == (40.0, 80.0)


def test_ipm_horizon_error():
    # bottom-center (100, 0) -> w = 0.01*100 - 1 = 0
    h = Homography([[1, 0, 0], [0, 1, 0], [0.01, 0.5, -1]])
    with pytest.raises(HorizonError):
        ipm_project((90, -10, 110, 0), h)


def test_ipm_inverse_round_trip():
    gen = SplitMix64(17)
    h = Homography([[1.2, 0.1, -3.0], [0.0, 0.9, 5.0], [0.001, 0.002, 1.0]])
    hinv = h.inverse()
    for _ in range(50):
        u, v = gen.uniform(0, 1280), gen.uniform(400, 720)
        x, y = ipm_project((u - 1, v - 1, u + 1, v), h)
        back = hinv.h @ (x, y, 1.0)
        assert abs(back[0] / back[2] - u) < 1e-6
        assert abs(back[1] / back[2] - v) < 1e-6


def test_singular_homography_rejected():
    with pytest.raises(ShapeError):
        Homography(np.zeros((3, 3)))


def test_homography_from_text():
    h = Homography.from_text("1 0 0  0 1 0  0 0 1")
    np.testing.assert_array_equal(h.h, np.eye(3))
    with pytest.raises(ShapeError):
        Homography.from_text("1 2 3")


def test_degenerate_bbox_rejected():
    with pytest.raises(ShapeError):
        DetectedObject(0, (5, 5, 5, 10))


# -- relation inference -------------------------------------------------------

def test_is_near_symmetric_pair(ontology):
    g = graph_from_bev([(CLASS_VEHICLE, 0, 0, 10), (CLASS_VEHICLE, 0, 5, 10)], ontology)
    near = ontology.relation_id("is_near")
    assert (0, near, 1) in g.edges and (1, near, 0) in g.edges


def test_to_left_of_sector(ontology):
    g = graph_from_bev([(CLASS_VEHICLE, 0, 0, 10), (CLASS_VEHICLE, -3, 10, 10)], ontology)
    assert (1, ontology.relation_id("to_left_of"), 0) in g.edges


def test_hand_evaluated_two_vehicle_scene(ontology):
    # one vehicle 5 m ahead in-lane, same speed
    g = graph_from_bev([(CLASS_VEHICLE, 0, 0, 10), (CLASS_VEHICLE, 0, 5, 10)], ontology)
    rid = ontology.relation_id
    assert set(g.edges) == {
        (0, rid("is_near"), 1), (1, rid("is_near"), 0),
        (1, rid("in_front_of"), 0), (0, rid("behind"), 1),
    }


def test_is_in_lane_node(ontology):
    g = graph_from_bev([(CLASS_VEHICLE, 0, 0, 10), (CLASS_LANE, 1.0, 0, 0)], ontology)
    assert (0, ontology.relation_id("is_in"), 1) in g.edges
    assert (1, ontology.relation_id("is_in"), 0) not in g.edges


def test_approaching_needs_speed_margin(ontology):
    rid = ontology.relation_id("approaching")
    fast = graph_from_bev([(CLASS_VEHICLE, 0, 0, 10), (CLASS_VEHICLE, 0, 5, 11)], ontology)
    slow = graph_from_bev([(CLASS_VEHICLE, 0, 0, 10), (CLASS_VEHICLE, 0, 5, 10.5)], ontology)
    assert (1, rid, 0) in fast.edges
    assert (1, rid, 0) not in slow.edges  # margin is strict


def test_oracle_equivalence_random_scenes(ontology):
    for seed in range(40):
        records = _random_records(seed, 12)
        g = graph_from_bev(records, ontology)
        assert g.edges == oracle_relations(records), f"seed {seed}"


def test_translation_invariance(ontology):
    records = _random_records(7, 10, with_lanes=False)
    shifted = [(c, x + 123.25, y - 55.5, v) for c, x, y, v in records]
    base = graph_from_bev(records, ontology).edges
    moved = graph_from_bev(shifted, ontology).edges
    assert base == moved


def test_symmetric_relations_property(ontology):
    near = ontology.relation_id("is_near")
    very = ontology.relation_id("very_near")
    for seed in range(10):
        g = graph_from_bev(_random_records(seed + 100, 9), ontology)
        for src, rel, dst in g.edges:
            if rel in (near, very):
                assert (dst, rel, src) in g.edges


def test_edges_sorted_and_unique(ontology):
    g = graph_from_bev(_random_records(5, 11), ontology)
    assert list(g.edges) == sorted(set(g.edges))


def test_single_ego_graph(ontology):
    g = graph_from_bev([(CLASS_VEHICLE, 0, 0, 10)], ontology)
    assert g.num_nodes == 1 and g.edges == ()


def test_empty_records_rejected(ontology):
    with pytest.raises(ShapeError):
        graph_from_bev([], ontology)


def test_build_scene_graph_from_detections(ontology):
    objs = [DetectedObject(CLASS_VEHICLE, (630, 700, 650, 720), 10.0),
            DetectedObject(CLASS_VEHICLE, (630, 690, 650, 715), 10.0)]
    g = build_scene_graph(objs, Homography.identity(), ontology)
    assert g.num_nodes == 2
    assert g.features[0].tolist() == [float(CLASS_VEHICLE), 640.0, 720.0, 10.0]


def test_build_deterministic(ontology):
    records = _random_records(31, 8)
    a = graph_from_bev(records, ontology)
    b = graph_from_bev(records, ontology)
    assert a == b


def test_features_layout(ontology):
    g = graph_from_bev([(CLASS_VEHICLE, 1.5, -2.0, 10), (CLASS_LANE, 0, 0, 0)], ontology)
    f = g.features
    assert f.shape == (2, 4)
    np.testing.assert_array_equal(f[0], [CLASS_VEHICLE, 1.5, -2.0, 10.0])


def test_horizon_error_names_object(ontology):
    h = Homography([[1, 0, 0], [0, 1, 0], [0.01, 0.5, -1]])
    objs = [DetectedObject(CLASS_VEHICLE, (0, 0, 10, 10)),
            DetectedObject(CLASS_VEHICLE, (90, -10, 110, 0))]
    with pytest.raises(HorizonError, match="object 1"):
        build_scene_graph(objs, h, ontology)


# -- value semantics ----------------------------------------------------------

def test_graphs_equal_across_a_scenes_round_trip(ontology):
    sent = generate(ScenarioSpec(seed=7, num_sequences=4), ontology)
    back = scenes_from_text(scenes_to_text(sent), ontology)
    assert back == sent
    assert all(a == b for s, r in zip(sent, back) for a, b in zip(s.frames, r.frames))


def test_graphs_differ_in_one_feature_or_one_edge():
    g = SceneGraph([(0.0, 0.0, 0.0, 10.0), (0.0, 1.0, 5.0, 10.0)], ((1, 1, 0),))
    assert g == SceneGraph(g.features.copy(), ((1, 1, 0),))
    assert g != SceneGraph(g.features + [[0, 0, 0, 0], [0, 0, 0, 2.0 ** -20]], g.edges)
    assert g != SceneGraph(g.features, ((0, 1, 1),))
    assert g != SceneGraph(g.features, ((0, 1, 1), (1, 1, 0)))
    assert g != SceneGraph(g.features[:1], ())
    assert g != (g.features, g.edges)


def test_graph_with_a_nan_feature_equals_itself():
    g = SceneGraph([(math.nan, 0.0, 5.0, 10.0)], ())
    assert g == g
    assert g == SceneGraph([(math.nan, 0.0, 5.0, 10.0)], ())


def test_features_must_be_a_matrix():
    with pytest.raises(ShapeError):
        SceneGraph(np.zeros(4), ())
    with pytest.raises(ShapeError):
        SceneGraph(np.zeros((1, 2, 2)), ())


def test_features_are_read_only_float64_and_owned(ontology):
    rows = np.array([[0.0, 1.0, 2.0, 3.0]], dtype=np.float32)
    g = SceneGraph(rows, ())
    assert g.features.dtype == np.float64 and g.features.flags.c_contiguous
    with pytest.raises(ValueError):
        g.features[0, 0] = 1.0
    rows[0, 0] = 9.0
    assert g.features[0, 0] == 0.0
    assert not graph_from_bev([(CLASS_VEHICLE, 0, 0, 10)], ontology).features.flags.writeable
