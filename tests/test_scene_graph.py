import math

import numpy as np
import pytest

from gbsed.errors import ShapeError
from gbsed.rng import SplitMix64
from gbsed.scenarios import ScenarioSpec, generate, scenes_from_text, scenes_to_text
from gbsed.scene_graph import (
    CLASS_LANE,
    CLASS_VEHICLE,
    D_NEAR,
    D_VERY,
    L_FRONT,
    L_SIDE,
    LANE_WIDTH,
    V_MARGIN,
    SceneGraph,
    graphs_from_bev,
    infer_relations,
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


def reference_relations(features, ontology):
    """The per-pair loop that infer_relations replaced: its ``** 0.5`` is
    libm pow, and its class is ``int(round(...))``."""
    rid = {r.name: r.id for r in ontology.relations}
    xi = ontology.attribute_index("bev_x")
    yi = ontology.attribute_index("bev_y")
    ci = ontology.attribute_index("class")
    si = ontology.attribute_index("speed")
    half_w = LANE_WIDTH / 2.0

    edges = set()
    rows = np.asarray(features, dtype=np.float64).tolist()
    n = len(rows)
    for i in range(n):
        x_i, y_i = rows[i][xi], rows[i][yi]
        for j in range(n):
            if i == j:
                continue
            x_j, y_j = rows[j][xi], rows[j][yi]
            dx = x_j - x_i
            dy = y_j - y_i
            dist = (dx * dx + dy * dy) ** 0.5
            if dist <= D_NEAR:
                edges.add((i, rid["is_near"], j))
            if dist <= D_VERY:
                edges.add((i, rid["very_near"], j))
            if dx <= -half_w and abs(dy) <= L_SIDE:
                edges.add((j, rid["to_left_of"], i))
            if dx >= half_w and abs(dy) <= L_SIDE:
                edges.add((j, rid["to_right_of"], i))
            if dy > 0 and abs(dx) <= half_w and dy <= L_FRONT:
                edges.add((j, rid["in_front_of"], i))
            if dy < 0 and abs(dx) <= half_w and -dy <= L_FRONT:
                edges.add((j, rid["behind"], i))
            cls_j = int(round(rows[j][ci]))
            if cls_j == CLASS_LANE and abs(x_i - x_j) <= half_w:
                edges.add((i, rid["is_in"], j))
            if dist <= D_NEAR and rows[j][si] > rows[i][si] + V_MARGIN:
                edges.add((j, rid["approaching"], i))
    return tuple(sorted(edges))


def _tuples(edges):
    """A graph's (E, 3) triplets as a tuple of (src, rel, dst) tuples, the
    oracles' form."""
    return tuple(map(tuple, edges.tolist()))


def _random_records(seed, n, with_lanes=True):
    gen = SplitMix64(seed)
    records = [(CLASS_VEHICLE, 0.0, 0.0, 10.0)]
    for _ in range(n - 1):
        cls = CLASS_LANE if with_lanes and gen.random() < 0.2 else CLASS_VEHICLE
        records.append((cls, gen.uniform(-15, 15), gen.uniform(-40, 40),
                        gen.uniform(0, 20)))
    return records


# -- relation inference -------------------------------------------------------

def test_is_near_symmetric_pair(ontology):
    g = graphs_from_bev([[(CLASS_VEHICLE, 0, 0, 10), (CLASS_VEHICLE, 0, 5, 10)]], ontology)[0]
    near = ontology.relation_id("is_near")
    assert (0, near, 1) in _tuples(g.edges) and (1, near, 0) in _tuples(g.edges)


def test_to_left_of_sector(ontology):
    g = graphs_from_bev([[(CLASS_VEHICLE, 0, 0, 10), (CLASS_VEHICLE, -3, 10, 10)]], ontology)[0]
    assert (1, ontology.relation_id("to_left_of"), 0) in _tuples(g.edges)


def test_hand_evaluated_two_vehicle_scene(ontology):
    # one vehicle 5 m ahead in-lane, same speed
    g = graphs_from_bev([[(CLASS_VEHICLE, 0, 0, 10), (CLASS_VEHICLE, 0, 5, 10)]], ontology)[0]
    rid = ontology.relation_id
    assert set(_tuples(g.edges)) == {
        (0, rid("is_near"), 1), (1, rid("is_near"), 0),
        (1, rid("in_front_of"), 0), (0, rid("behind"), 1),
    }


def test_is_in_lane_node(ontology):
    g = graphs_from_bev([[(CLASS_VEHICLE, 0, 0, 10), (CLASS_LANE, 1.0, 0, 0)]], ontology)[0]
    assert (0, ontology.relation_id("is_in"), 1) in _tuples(g.edges)
    assert (1, ontology.relation_id("is_in"), 0) not in _tuples(g.edges)


def test_approaching_needs_speed_margin(ontology):
    rid = ontology.relation_id("approaching")
    fast = graphs_from_bev([[(CLASS_VEHICLE, 0, 0, 10), (CLASS_VEHICLE, 0, 5, 11)]], ontology)[0]
    slow = graphs_from_bev([[(CLASS_VEHICLE, 0, 0, 10), (CLASS_VEHICLE, 0, 5, 10.5)]], ontology)[0]
    assert (1, rid, 0) in _tuples(fast.edges)
    assert (1, rid, 0) not in _tuples(slow.edges)  # margin is strict


def test_oracle_equivalence_random_scenes(ontology):
    for seed in range(40):
        records = _random_records(seed, 12)
        g = graphs_from_bev([records], ontology)[0]
        assert _tuples(g.edges) == oracle_relations(records), f"seed {seed}"


def test_infer_relations_match_the_loop(ontology):
    for seed in range(40):
        features = np.array(_random_records(seed + 200, 1 + seed % 14), dtype=np.float64)
        triplets, counts = infer_relations(features, ontology, [len(features)])
        assert _tuples(triplets) == reference_relations(features, ontology)
        assert counts.tolist() == [len(triplets)]
    dense = generate(ScenarioSpec(seed=5, num_sequences=3, vehicles_range=(24, 30),
                                  lane_count=5), ontology)
    for seq in generate(ScenarioSpec(seed=11, num_sequences=20), ontology) + dense:
        for frame in seq.frames:
            assert _tuples(frame.edges) == reference_relations(frame.features, ontology)


_Q = 1.0 / 64.0  # the generator's quantum: features are multiples of it


def _around(v):
    """v and its neighbours one quantum either side."""
    return (v - _Q, v, v + _Q)


def test_predicates_at_their_thresholds(ontology):
    # a second node placed on and one quantum either side of every
    # threshold, relative to an ego at the origin with speed 10
    half = LANE_WIDTH / 2.0
    xs = {0.0, 3.0, -3.0, 6.0, -8.0, *_around(half), *_around(-half)}
    ys = {0.0, 5.0, -5.0, 8.0, -6.0, 25.0, *_around(D_NEAR), *_around(-D_NEAR),
          *_around(D_VERY), *_around(-D_VERY), *_around(L_SIDE), *_around(-L_SIDE),
          *_around(L_FRONT), *_around(-L_FRONT)}
    speeds = {10.0, *_around(10.0 + V_MARGIN), *_around(10.0 - V_MARGIN)}
    frames = [[(CLASS_VEHICLE, 0.0, 0.0, 10.0), (cls, x, y, v)]
              for cls in (CLASS_VEHICLE, CLASS_LANE) for x in sorted(xs)
              for y in sorted(ys) for v in sorted(speeds)]
    # D_NEAR on a diagonal too: (6, 8) is 10 m away
    frames += [[(CLASS_VEHICLE, 0.0, 0.0, 10.0), (CLASS_VEHICLE, x, y, 11.0)]
               for x, y in ((6.0, 8.0), (-6.0, -8.0), (6.0, 8.0 + _Q), (6.0 - _Q, -8.0))]
    seen = set()
    for records, graph in zip(frames, graphs_from_bev(frames, ontology)):
        assert _tuples(graph.edges) == oracle_relations(records), records
        seen.update(graph.edges[:, 1].tolist())
    assert seen == set(range(1, 9))  # every predicate fired on some placement


def test_a_batch_of_mixed_sizes_matches_frame_by_frame(ontology):
    frames = [_random_records(61, 12), _random_records(62, 1), _random_records(63, 2),
              _random_records(64, 12), _random_records(65, 12), _random_records(66, 1)]
    features = [np.array(records, dtype=np.float64) for records in frames]
    triplets, counts = infer_relations(np.concatenate(features), ontology,
                                       [len(f) for f in features])
    assert triplets.dtype == counts.dtype == np.int64 and triplets.shape == (counts.sum(), 3)
    batch = [_tuples(t) for t in np.split(triplets, np.cumsum(counts)[:-1])]
    assert batch == [_tuples(infer_relations(f, ontology, [len(f)])[0]) for f in features]
    assert batch == [oracle_relations(records) for records in frames]
    assert [_tuples(g.edges) for g in graphs_from_bev(frames, ontology)] == batch
    triplets, counts = infer_relations(np.zeros((0, 4)), ontology, [])
    assert triplets.shape == (0, 3) and counts.shape == (0,)


@pytest.mark.parametrize("cls", [math.nan, math.inf, -math.inf])
def test_a_non_finite_class_is_no_lane(ontology, cls):
    # a lane at 1 m lateral would give (0, is_in, 1); a node of no finite
    # class decides like a vehicle
    features = np.array([(CLASS_VEHICLE, 0, 0, 10), (cls, 1.0, 0, 0),
                         (CLASS_LANE, -1.0, 3, 0)], dtype=np.float64)
    as_vehicle = features.copy()
    as_vehicle[1, 0] = CLASS_VEHICLE
    edges = _tuples(infer_relations(features, ontology, [len(features)])[0])
    assert edges == _tuples(infer_relations(as_vehicle, ontology, [len(as_vehicle)])[0])
    assert edges == reference_relations(as_vehicle, ontology)
    assert (0, ontology.relation_id("is_in"), 2) in edges


def test_non_finite_coordinates_decide_as_the_loop(ontology):
    # inf - inf and overflowing squares fail every comparison, silently
    features = np.array([(CLASS_VEHICLE, 0, 0, 10), (CLASS_VEHICLE, math.inf, 5, 10),
                         (CLASS_LANE, math.inf, -5, 0), (CLASS_VEHICLE, 1e200, math.nan, 1),
                         (CLASS_VEHICLE, -1e200, 2, 12)], dtype=np.float64)
    edges, _ = infer_relations(features, ontology, [len(features)])
    assert _tuples(edges) == reference_relations(features, ontology)


def test_translation_invariance(ontology):
    records = _random_records(7, 10, with_lanes=False)
    shifted = [(c, x + 123.25, y - 55.5, v) for c, x, y, v in records]
    base = graphs_from_bev([records], ontology)[0].edges
    moved = graphs_from_bev([shifted], ontology)[0].edges
    np.testing.assert_array_equal(base, moved)


def test_symmetric_relations_property(ontology):
    near = ontology.relation_id("is_near")
    very = ontology.relation_id("very_near")
    for seed in range(10):
        g = graphs_from_bev([_random_records(seed + 100, 9)], ontology)[0]
        for src, rel, dst in g.edges:
            if rel in (near, very):
                assert (dst, rel, src) in _tuples(g.edges)


def test_edges_sorted_and_unique(ontology):
    g = graphs_from_bev([_random_records(5, 11)], ontology)[0]
    edges = _tuples(g.edges)
    assert list(edges) == sorted(set(edges))


def test_single_ego_graph(ontology):
    g = graphs_from_bev([[(CLASS_VEHICLE, 0, 0, 10)]], ontology)[0]
    assert g.num_nodes == 1 and g.edges.shape == (0, 3)


def test_empty_records_rejected(ontology):
    with pytest.raises(ShapeError):
        graphs_from_bev([[]], ontology)


def test_build_deterministic(ontology):
    records = _random_records(31, 8)
    a = graphs_from_bev([records], ontology)[0]
    b = graphs_from_bev([records], ontology)[0]
    assert a == b


def test_features_layout(ontology):
    g = graphs_from_bev([[(CLASS_VEHICLE, 1.5, -2.0, 10), (CLASS_LANE, 0, 0, 0)]], ontology)[0]
    f = g.features
    assert f.shape == (2, 4)
    np.testing.assert_array_equal(f[0], [CLASS_VEHICLE, 1.5, -2.0, 10.0])


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
    assert not graphs_from_bev([[(CLASS_VEHICLE, 0, 0, 10)]], ontology)[0].features.flags.writeable


def test_a_triplet_listed_twice_is_refused():
    # the codec sends a triplet once, so a second copy would count twice as
    # sent and as recovered in semantic_fidelity and in the sweep
    with pytest.raises(ShapeError, match=r"\(0, 1, 1\)"):
        SceneGraph(np.zeros((2, 4)), ((0, 1, 1), (0, 1, 1)))
    with pytest.raises(ShapeError, match=r"\(2, 5, 0\)"):
        SceneGraph(np.zeros((3, 4)), ((2, 5, 0), (0, 1, 1), (2, 5, 0)))
    assert SceneGraph(np.zeros((2, 4)), ((0, 1, 1), (0, 2, 1), (1, 1, 0))).edges.tolist() == [
        [0, 1, 1], [0, 2, 1], [1, 1, 0]]


# triplets that are not integer rows of three, or that do not fit int64
NOT_INT64_TRIPLETS = {
    "float": ((0, 1.5, 1),),
    "none": ((0, None, 1),),
    "str": ((0, "1", 1),),
    "four": ((0, 1, 1, 5),),
    "two": ((0, 1),),
    "int": ((0, 2, 1), 7),
    "mixed_lengths": ((0, 2, 1), (0, 1)),
    "value_2_63": ((0, 1 << 63, 1),),
    "uint64_2_63": np.array([[0, 1 << 63, 1]], dtype=np.uint64),
    "relation_2_64": ((0, 1 << 64, 1),),
    "node_2_64": ((1 << 64, 1, 0),),
}


@pytest.mark.parametrize("edges", NOT_INT64_TRIPLETS.values(), ids=NOT_INT64_TRIPLETS.keys())
def test_a_triplet_that_is_not_three_integers_is_refused(edges):
    # the encoders would read 1.5 as 1 and drop a fourth entry, and astype
    # would wrap a uint64 of 2^63 or more: the graph refuses them when built
    with pytest.raises(ShapeError, match="triplet"):
        SceneGraph(np.zeros((2, 4)), edges)


def test_edges_are_a_read_only_int64_array_and_owned(ontology):
    rows = np.array([[1, 1, 0], [0, 2, 1]], dtype=np.uint8)
    g = SceneGraph(np.zeros((2, 4)), rows)
    assert g.edges.dtype == np.int64 and g.edges.shape == (2, 3) and g.edges.flags.c_contiguous
    with pytest.raises(ValueError):
        g.edges[0, 0] = 1
    rows[0, 0] = 5
    assert g.edges.tolist() == [[1, 1, 0], [0, 2, 1]]
    # a row may be any sequence of integers; uint64 values below 2^63 fit
    assert SceneGraph(np.zeros((2, 4)), ((0, 2, 1), [0, 1, 1])) \
        == SceneGraph(np.zeros((2, 4)), np.array([[0, 2, 1], [0, 1, 1]], dtype=np.uint64))
    empty = SceneGraph(np.zeros((1, 4)), ())
    assert empty.edges.dtype == np.int64 and empty.edges.shape == (0, 3)
    corpus = generate(ScenarioSpec(seed=3, num_sequences=2), ontology)
    read = scenes_from_text(scenes_to_text(corpus), ontology)
    for graph in [f for seq in corpus + read for f in seq.frames] + [g, empty]:
        assert graph.edges.dtype == np.int64 and graph.edges.ndim == 2
        assert graph.edges.shape[1] == 3 and not graph.edges.flags.writeable
