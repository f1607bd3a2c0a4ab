"""Scene-graph data model and construction.

A scene graph is a directed multi-relational graph over road entities:
an (N, d) feature matrix whose row i is node i's feature vector, ordered
by the ontology's attribute schema, and (src, relation_id, dst) triplets.
Node 0 is the ego vehicle by convention.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

# class vocabulary used by the generator and the risk rule
CLASS_VEHICLE = 0
CLASS_LANE = 2

# relation predicate thresholds, meters and m/s (inclusive)
D_NEAR = 10.0      # is_near, approaching
D_VERY = 4.0       # very_near
LANE_WIDTH = 3.5   # lateral band of the same lane: half a width either side
L_SIDE = 20.0      # longitudinal reach of to_left_of / to_right_of
L_FRONT = 30.0     # longitudinal reach of in_front_of / behind
V_MARGIN = 0.5     # approaching: faster than the other node by more than this

# the attributes of graph_from_bev's records, in record order, and the
# relations infer_relations emits, in id order from 1
ATTRIBUTES = ("class", "bev_x", "bev_y", "speed")
RELATIONS = ("is_near", "very_near", "to_left_of", "to_right_of", "in_front_of",
             "behind", "is_in", "approaching")


@dataclass(frozen=True, eq=False)
class SceneGraph:
    features: np.ndarray  # (N, d) float64, row i is node i; C-contiguous, read-only
    edges: tuple  # sorted (src, rel, dst) triplets

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64, order="C")
        if feats.ndim != 2:
            raise ShapeError(f"features of shape {feats.shape} are not an (N, d) matrix")
        feats.flags.writeable = False
        object.__setattr__(self, "features", feats)

    # a generated __eq__ would compare the matrices' truth values, which
    # raises; NaN features equal NaN so that a graph equals itself
    def __eq__(self, other):
        if not isinstance(other, SceneGraph):
            return NotImplemented
        return (self.edges == other.edges
                and np.array_equal(self.features, other.features, equal_nan=True))

    @property
    def num_nodes(self):
        return len(self.features)


def infer_relations(features, ontology):
    """Evaluate the geometric relation predicates over every ordered node
    pair of an (N, d) feature matrix.

    Coordinates are bird's-eye view: x lateral (right-positive), y
    longitudinal (forward-positive). All thresholds inclusive. Returns
    triplets sorted by (src, rel, dst).
    """
    rid = {r.name: r.id for r in ontology.relations}
    xi = ontology.attribute_index("bev_x")
    yi = ontology.attribute_index("bev_y")
    ci = ontology.attribute_index("class")
    si = ontology.attribute_index("speed")
    half_w = LANE_WIDTH / 2.0

    edges = set()
    rows = features.tolist()
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


def graph_from_bev(records, ontology):
    """Build a SceneGraph from (class_id, bev_x, bev_y, speed) records.

    Record 0 is the ego. The records' columns are the feature columns: the
    ontology is one that ``scenarios.check_ontology`` accepts.
    """
    if not records:
        raise ShapeError("at least the ego record is required")
    features = np.array([(int(cls), x, y, speed) for cls, x, y, speed in records],
                        dtype=np.float64)
    return SceneGraph(features, infer_relations(features, ontology))
