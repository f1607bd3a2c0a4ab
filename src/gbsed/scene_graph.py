"""Scene-graph data model and construction.

A scene graph is a directed multi-relational graph over road entities:
an (N, d) feature matrix whose row i is node i's feature vector, ordered
by the ontology's attribute schema, and (src, relation_id, dst) triplets.
Node 0 is the ego vehicle by convention.
"""

from dataclasses import dataclass
from itertools import chain

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
    edges: tuple  # sorted (src, rel, dst) triplets, each once

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64, order="C")
        if feats.ndim != 2:
            raise ShapeError(f"features of shape {feats.shape} are not an (N, d) matrix")
        feats.flags.writeable = False
        object.__setattr__(self, "features", feats)
        # the array encoder would read a value 1.5 as 1 and drop a fourth; a
        # triplet listed twice would count twice as sent and as recovered,
        # though the codec sends it once
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 3
                    and all(isinstance(v, (int, np.integer)) for v in e)):
                raise ShapeError(f"triplet {e!r} is not three integers")
        if len(set(self.edges)) != len(self.edges):
            twice = next(e for i, e in enumerate(self.edges) if e in self.edges[:i])
            raise ShapeError(f"triplet {twice} is listed more than once")

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


def stack_graphs(graphs):
    """Scene graphs as the arrays that ``codec.encode_frames`` encodes and
    returns and ``task.near_ego_stacked`` takes: their feature matrices
    stacked in order, their node counts, their (src, rel, dst) triplets
    stacked as an (edges, 3) int64 array, and their edge counts. Graphs
    whose matrices differ in width raise ValueError, and a triplet value
    beyond int64 OverflowError."""
    edge_counts = np.array([len(g.edges) for g in graphs], dtype=np.int64)
    triplets = np.fromiter(chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
                           dtype=np.int64, count=3 * int(edge_counts.sum())).reshape(-1, 3)
    features = np.concatenate([g.features for g in graphs]) if graphs else np.zeros((0, 0))
    return (features, np.array([g.num_nodes for g in graphs], dtype=np.int64), triplets,
            edge_counts)


# the most ordered node pairs, self pairs included, that graphs_from_bev
# hands one infer_relations call (128 kB per float64 pair array); a frame
# with more is a batch of its own
_PAIR_BUDGET = 1 << 14


def infer_relations(features, ontology, sizes):
    """Evaluate the geometric relation predicates over every ordered node
    pair of each frame of a batch.

    ``features`` stacks the frames' (n, d) feature matrices in order and
    ``sizes`` holds their node counts; returns one tuple of (src, rel, dst)
    triplets per frame, sorted, with node indices local to the frame.

    Coordinates are bird's-eye view: x lateral (right-positive), y
    longitudinal (forward-positive). All thresholds inclusive. A node whose
    class is not finite is no lane. The frames of one node count are
    evaluated together as (frames, src, relation, dst) boolean arrays, so
    ``np.nonzero`` yields each frame's triplets in order.

    Distances are ``np.sqrt``, which may differ by one ulp from a loop's
    ``** 0.5`` (libm ``pow``). Generated features are multiples of 1/64,
    so their squared distances are exact multiples of 2^-12: one that is
    not 100 or 16 lies far more than an ulp of a root away from D_NEAR or
    D_VERY, and 100 and 16 have exact roots, so both decide alike.
    """
    features = np.asarray(features, dtype=np.float64)
    sizes = np.array(sizes, dtype=np.int64)
    if sizes.sum() != len(features):
        raise ShapeError(f"frames of {sizes.sum()} nodes in all do not stack "
                         f"into {len(features)} feature rows")
    ids = [ontology.relation_id(r) for r in RELATIONS]
    # the predicates' slots in relation-id order; np.argsort would map
    # numpy's int64 sort code, 128 kB of RSS that nothing else touches
    order = sorted(range(len(ids)), key=ids.__getitem__)
    ids = np.array(ids)[order]
    cols = [ontology.attribute_index(a) for a in ATTRIBUTES]
    starts = np.cumsum(sizes) - sizes
    edges = [()] * sizes.size
    for n in sorted(set(sizes.tolist()) - {0, 1}):  # np.unique imports numpy.ma
        frames = np.flatnonzero(sizes == n)
        block = features[starts[frames, None] + np.arange(n)]  # (frames, n, d)
        found = _predicates(*(block[..., c] for c in cols))[:, :, order]
        f, src, rel, dst = np.nonzero(found)
        triplets = list(zip(src.tolist(), ids[rel].tolist(), dst.tolist()))
        ends = np.cumsum(np.bincount(f, minlength=frames.size)).tolist()
        for k, a, b in zip(frames.tolist(), [0] + ends, ends):
            edges[k] = tuple(triplets[a:b])
    return edges


def _predicates(cls, x, y, speed):
    """(frames, n, 8, n) flags of (src, relation, dst), the relations in
    RELATIONS order, from (frames, n) node columns."""
    half_w = LANE_WIDTH / 2.0
    # non-finite features fail every comparison, as Python floats do
    with np.errstate(invalid="ignore", over="ignore"):
        dx = x[:, :, None] - x[:, None, :]  # src minus dst
        dy = y[:, :, None] - y[:, None, :]
        dist = np.sqrt(dx * dx + dy * dy)
    side = np.abs(dy) <= L_SIDE
    lane = np.abs(dx) <= half_w
    found = np.empty(dx.shape[:2] + (len(RELATIONS),) + dx.shape[2:], dtype=bool)
    found[:, :, 0] = dist <= D_NEAR
    found[:, :, 1] = dist <= D_VERY
    found[:, :, 2] = (dx <= -half_w) & side
    found[:, :, 3] = (dx >= half_w) & side
    found[:, :, 4] = (dy > 0) & lane & (dy <= L_FRONT)
    found[:, :, 5] = (dy < 0) & lane & (-dy <= L_FRONT)
    found[:, :, 6] = lane & (np.rint(cls) == CLASS_LANE)[:, None, :]
    found[:, :, 7] = found[:, :, 0] & (speed[:, :, None] > speed[:, None, :] + V_MARGIN)
    diagonal = np.arange(dx.shape[1])
    found[:, diagonal, :, diagonal] = False
    return found


def graphs_from_bev(frames, ontology):
    """Build one SceneGraph per frame of an iterable of frames of (class_id,
    bev_x, bev_y, speed) records. The frames are read as they come, and
    each batch of them under the pair budget has its relations inferred in
    one ``infer_relations`` call.

    Record 0 of a frame is its ego. The records' columns are the feature
    columns: the ontology is one that ``scenarios.check_ontology`` accepts.
    """
    graphs, batch, pairs = [], [], 0
    for records in frames:
        if not records:
            raise ShapeError("at least the ego record is required")
        if batch and pairs + len(records) ** 2 > _PAIR_BUDGET:
            graphs += _graphs(batch, ontology)
            batch, pairs = [], 0
        # each frame becomes its matrix as it comes: holding a batch's
        # records, thousands of small tuples, left the peak RSS of a
        # set-up and sweep 0.3 MB higher
        batch.append(np.array([(int(cls), x, y, speed) for cls, x, y, speed in records],
                              dtype=np.float64))
        pairs += len(records) ** 2
    return graphs + (_graphs(batch, ontology) if batch else [])


def _graphs(batch, ontology):
    edges = infer_relations(np.concatenate(batch), ontology, [len(f) for f in batch])
    return [SceneGraph(features, e) for features, e in zip(batch, edges)]


def graph_from_bev(records, ontology):
    """``graphs_from_bev`` of one frame."""
    return graphs_from_bev([records], ontology)[0]
