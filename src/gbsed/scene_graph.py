"""Scene-graph data model and construction.

A scene graph is a directed multi-relational graph over road entities:
an (N, d) feature matrix whose row i is node i's feature vector, ordered
by the ontology's attribute schema, and (src, relation_id, dst) triplets.
Node 0 is the ego vehicle by convention.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import HorizonError, ShapeError

# class vocabulary used by the generator and the risk rule
CLASS_VEHICLE = 0
CLASS_LANE = 2


@dataclass(frozen=True)
class DetectedObject:
    class_id: int
    bbox: tuple  # (u1, v1, u2, v2) pixel coordinates
    speed: float = 0.0

    def __post_init__(self):
        u1, v1, u2, v2 = self.bbox
        if not (u1 < u2 and v1 < v2):
            raise ShapeError(f"degenerate bbox {self.bbox}")


class Homography:
    """3x3 invertible projective map from image plane to ground plane."""

    def __init__(self, h):
        m = np.asarray(h, dtype=float).reshape(3, 3)
        if abs(np.linalg.det(m)) <= 1e-12:
            raise ShapeError("homography is singular")
        self.h = m

    @classmethod
    def identity(cls):
        return cls(np.eye(3))

    @classmethod
    def from_text(cls, text):
        vals = [float(tok) for tok in text.split()]
        if len(vals) != 9:
            raise ShapeError(f"expected 9 values, got {len(vals)}")
        return cls(vals)

    def inverse(self):
        return Homography(np.linalg.inv(self.h))


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


@dataclass(frozen=True)
class RelationParams:
    d_near: float = 10.0
    d_very: float = 4.0
    lane_width: float = 3.5
    l_side: float = 20.0
    l_front: float = 30.0
    v_margin: float = 0.5
    lane_classes: frozenset = field(default_factory=lambda: frozenset({CLASS_LANE}))


def ipm_project(bbox, homography):
    """Project a bounding box's bottom-center pixel to ground-plane meters."""
    u1, v1, u2, v2 = bbox
    u = (u1 + u2) / 2.0
    v = v2
    x, y, w = homography.h @ (u, v, 1.0)
    if abs(w) < 1e-9:
        raise HorizonError(f"bottom-center ({u}, {v}) maps to w={w}")
    return (x / w, y / w)


def infer_relations(features, ontology, params=RelationParams()):
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
    half_w = params.lane_width / 2.0

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
            if dist <= params.d_near:
                edges.add((i, rid["is_near"], j))
            if dist <= params.d_very:
                edges.add((i, rid["very_near"], j))
            if dx <= -half_w and abs(dy) <= params.l_side:
                edges.add((j, rid["to_left_of"], i))
            if dx >= half_w and abs(dy) <= params.l_side:
                edges.add((j, rid["to_right_of"], i))
            if dy > 0 and abs(dx) <= half_w and dy <= params.l_front:
                edges.add((j, rid["in_front_of"], i))
            if dy < 0 and abs(dx) <= half_w and -dy <= params.l_front:
                edges.add((j, rid["behind"], i))
            cls_j = int(round(rows[j][ci]))
            if cls_j in params.lane_classes and abs(x_i - x_j) <= half_w:
                edges.add((i, rid["is_in"], j))
            if dist <= params.d_near and rows[j][si] > rows[i][si] + params.v_margin:
                edges.add((j, rid["approaching"], i))
    return tuple(sorted(edges))


def graph_from_bev(records, ontology, params=RelationParams()):
    """Build a SceneGraph from (class_id, bev_x, bev_y, speed) records.

    Record 0 is the ego. Feature columns follow the ontology attribute
    order; attributes outside the known four are zero-filled.
    """
    if not records:
        raise ShapeError("at least the ego record is required")
    known = ("class", "bev_x", "bev_y", "speed")
    values = np.array([(int(cls), x, y, speed) for cls, x, y, speed in records],
                      dtype=np.float64)
    features = np.zeros((len(records), ontology.num_attributes))
    for k, attr in enumerate(ontology.attributes):
        if attr.name in known:
            features[:, k] = values[:, known.index(attr.name)]
    return SceneGraph(features, infer_relations(features, ontology, params))


def build_scene_graph(objects, homography, ontology, params=RelationParams()):
    """IPM-project detected objects and build the relational scene graph."""
    if not objects:
        raise ShapeError("object list is empty; the ego must be present")
    records = []
    for k, obj in enumerate(objects):
        try:
            x, y = ipm_project(obj.bbox, homography)
        except HorizonError as e:
            raise HorizonError(f"object {k}: {e}") from e
        records.append((obj.class_id, x, y, obj.speed))
    return graph_from_bev(records, ontology, params)
