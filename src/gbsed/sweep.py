"""End-to-end experiment engine: encode every frame, push the payloads
through the configured channel at each SNR point, decode, and evaluate
fidelity plus downstream risk-task metrics.

An SNR point is computed one corpus pass at a time. The pass is encoded
once per sweep into one octet buffer with the offsets of every header,
matrix and feature row, and the link is planned once for that buffer
(``plan_link``). Each pass then goes through the link in one ``send``
call, which does only the work that depends on the seeds and the noise
level, and is scored straight from the received octets with a few numpy
calls. A frame whose header arrived changed is decoded on its own with
``decode_frame``, the only path on which a payload can fail to parse.
The single-frame path (``encode_frame``, ``transmit``, ``decode_frame``,
``semantic_fidelity``, ``task_consistency``) gives the same numbers frame
by frame; the tests check the sweep against that loop run over a float64
reference link built from the channel's primitives.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import codec
from .channel import (
    AWGN64QAM,
    PROTECTED,
    LinkConfig,
    frames_required,
    plan_link,
    send,
    transmit,  # noqa: F401  (single-frame path, kept beside encode/decode_frame)
)
from .errors import GbsedError
from .metrics import classification_metrics, auc as auc_metric, nodes_match, semantic_fidelity
from .scene_graph import CLASS_VEHICLE
from .task import (
    assess_risk,
    frame_near_ego,
    task_consistency,  # noqa: F401  (single-frame path)
    verdict_consistency,
    verdict_from_near,
)

CSV_COLUMNS = (
    "snr_db", "ber", "fidelity", "consistency", "accuracy", "precision",
    "recall", "f1", "mcc", "auc", "mean_payload_octets", "frames_per_payload",
)

DEFAULT_SNR_POINTS = tuple(float(s) for s in range(0, 21, 2))

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SweepConfig:
    snr_points: tuple = DEFAULT_SNR_POINTS
    trials_per_point: int = 1000
    base_seed: int = 0
    channel_kind: str = AWGN64QAM
    bsc_flip_prob: float = 0.0
    header_protection: str = PROTECTED

    def __post_init__(self):
        if not self.snr_points:
            raise ValueError("snr_points is empty")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        for snr_db in self.snr_points:
            self._link(snr_db)  # raises ValueError for a bad point or link

    def _link(self, snr_db):
        return LinkConfig(snr_db=snr_db, channel_kind=self.channel_kind,
                          bsc_flip_prob=self.bsc_flip_prob,
                          header_protection=self.header_protection)


def encode_frame(graph, ontology):
    """Scene graph -> wire payload octets."""
    retained = codec.compress(codec.encode_tensor(graph, ontology))
    return codec.serialize(retained, graph.features, ontology)


def decode_frame(payload, ontology):
    """Wire payload -> scene graph, or None if the payload fails to parse."""
    try:
        retained, feats = codec.parse(payload, ontology)
        tensor, _ = codec.decompress(retained, ontology.num_relations)
        return codec.regenerate(tensor, feats)
    except GbsedError:
        return None


def _ranges(starts, counts):
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for every i."""
    counts = np.asarray(counts, dtype=np.int64)
    return (np.repeat(starts - (np.cumsum(counts) - counts), counts)
            + np.arange(counts.sum(), dtype=np.int64))


@dataclass(frozen=True)
class _Pass:
    """One corpus pass, encoded once and laid out as flat arrays.

    Frames are numbered in corpus order; retained matrices, nodes and sent
    triplets are numbered across the pass in frame order. A matrix cell
    (j, k) of an N-node frame is ``j * N + k``.
    """
    frames: tuple               # sent scene graphs
    sequences: tuple            # (first frame, end frame) of every sequence
    verdicts: tuple             # sent risk verdict of every sequence
    buffer: np.ndarray          # every payload, back to back
    lengths: np.ndarray         # payload octets per frame
    starts: np.ndarray          # buffer offset of every payload
    header_at: np.ndarray       # (frames, HEADER_LEN) buffer offsets of the headers
    matrix_octets: np.ndarray   # buffer mask of the retained-matrix octets
    feature_octets: np.ndarray  # buffer mask of the feature octets
    matrix_start: np.ndarray    # matrix -> its first octet among the matrix octets
    matrix_frame: np.ndarray    # matrix -> frame
    node_frame: np.ndarray      # node -> frame
    node_row: np.ndarray        # node -> its index in its frame
    node_cell: np.ndarray       # node j -> cell (j, 0): the edge j -> ego
    sent_features: np.ndarray   # (nodes, attributes) sent feature values, node order
    edge_frame: np.ndarray      # triplet -> frame
    edge_rel: np.ndarray        # triplet -> relation id
    edge_cell: np.ndarray       # triplet (j, r, k) -> cell (j, k)
    entities: np.ndarray        # nodes + triplets of every frame


def _lay_out(sequences, ontology):
    frames = tuple(f for seq in sequences for f in seq.frames)
    payloads = [encode_frame(f, ontology) for f in frames]
    bounds = np.cumsum([0] + [len(seq.frames) for seq in sequences]).tolist()
    lengths = np.array([len(p) for p in payloads], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    n = np.array([f.num_nodes for f in frames], dtype=np.int64)
    # compress keeps one matrix per relation that has an edge
    k = np.array([len({rel for _, rel, _ in f.edges}) for f in frames], dtype=np.int64)
    matrix_len = k * n * n
    feature_lo = starts + codec.HEADER_LEN + matrix_len
    matrix_octets = np.zeros(lengths.sum(), dtype=bool)
    matrix_octets[_ranges(starts + codec.HEADER_LEN, matrix_len)] = True
    feature_octets = np.zeros(lengths.sum(), dtype=bool)
    feature_octets[_ranges(feature_lo, starts + lengths - feature_lo)] = True
    frame_ids = np.arange(len(frames))
    matrix_frame = np.repeat(frame_ids, k)
    node_frame = np.repeat(frame_ids, n)
    node_row = _ranges(np.zeros_like(n), n)
    edges = np.array([(f, rel, j * frames[f].num_nodes + dst)
                      for f in range(len(frames)) for j, rel, dst in frames[f].edges],
                     dtype=np.int64).reshape(-1, 3)
    return _Pass(
        frames=frames,
        sequences=tuple(zip(bounds[:-1], bounds[1:])),
        verdicts=tuple(assess_risk(seq, ontology) for seq in sequences),
        buffer=np.frombuffer(b"".join(payloads), dtype=np.uint8),
        lengths=lengths,
        starts=starts,
        header_at=starts[:, None] + np.arange(codec.HEADER_LEN),
        matrix_octets=matrix_octets,
        feature_octets=feature_octets,
        matrix_start=(np.repeat(np.cumsum(matrix_len) - matrix_len, k)
                      + _ranges(np.zeros_like(k), k) * np.repeat(n * n, k)),
        matrix_frame=matrix_frame,
        node_frame=node_frame,
        node_row=node_row,
        node_cell=node_row * n[node_frame],
        sent_features=np.concatenate([f.features for f in frames]),
        edge_frame=edges[:, 0],
        edge_rel=edges[:, 1],
        edge_cell=edges[:, 2],
        entities=n + np.bincount(edges[:, 0], minlength=len(frames)),
    )


def _score_pass(lay, received, ontology):
    """Fidelity and frame_near_ego pair of every frame of one received pass."""
    num_frames = len(lay.frames)
    num_rel = ontology.num_relations
    octets = received[lay.matrix_octets]
    # decompress's relation id: the most frequent in-range value, ties to the
    # smallest id; a matrix with no in-range value is dropped
    at = np.flatnonzero((octets >= 1) & (octets <= num_rel))
    matrix = np.searchsorted(lay.matrix_start, at, side="right") - 1
    hist = np.bincount(matrix * num_rel + octets[at] - 1,
                       minlength=lay.matrix_frame.size * num_rel).reshape(-1, num_rel)
    rel = hist.argmax(axis=1) + 1
    resolved = np.flatnonzero(hist.max(axis=1, initial=0) > 0)
    # the matrix each (frame, relation) decodes from: of duplicates, the last
    chosen = np.full(num_frames * (num_rel + 1), -1, dtype=np.int64)
    np.maximum.at(chosen, lay.matrix_frame[resolved] * (num_rel + 1) + rel[resolved], resolved)

    def has_edge(frame, rel_id, cell):
        # decompress keeps a cell of the chosen matrix iff its value is in range
        m = chosen[frame * (num_rel + 1) + rel_id]
        found = m >= 0
        v = octets[lay.matrix_start[m[found]] + cell[found]]
        found[found] = (v >= 1) & (v <= num_rel)
        return found

    edge_hits = np.bincount(
        lay.edge_frame[has_edge(lay.edge_frame, lay.edge_rel, lay.edge_cell)],
        minlength=num_frames)
    values = received[lay.feature_octets].view(">f4").reshape(-1, ontology.num_attributes)
    with np.errstate(invalid="ignore"):  # a received signalling NaN
        recv_features = values.astype(np.float64)
    node_hits = np.bincount(lay.node_frame[nodes_match(lay.sent_features, recv_features,
                                                       ontology)], minlength=num_frames)
    fidelity = (node_hits + edge_hits) / lay.entities

    near = has_edge(lay.node_frame, ontology.relation_id("is_near"), lay.node_cell)
    cls = recv_features[:, ontology.attribute_index("class")]
    vehicle = near & np.isfinite(cls) & (np.rint(cls) == CLASS_VEHICLE)
    vehicles = {}
    for node in np.flatnonzero(vehicle).tolist():
        vehicles.setdefault(int(lay.node_frame[node]), set()).add(int(lay.node_row[node]))
    any_near = np.bincount(lay.node_frame[near], minlength=num_frames) > 0
    near_ego = [(a, vehicles.get(f, ())) for f, a in enumerate(any_near.tolist())]

    # a changed header can fail to parse: those frames are decoded one by one,
    # and an unparseable frame stands in as a bare ego with nothing near
    changed = (received[lay.header_at] != lay.buffer[lay.header_at]).any(axis=1)
    for f in np.flatnonzero(changed).tolist():
        lo = lay.starts[f]
        graph = decode_frame(received[lo:lo + lay.lengths[f]].tobytes(), ontology)
        fidelity[f] = semantic_fidelity(lay.frames[f], graph, ontology).fidelity
        near_ego[f] = (frame_near_ego(graph, ontology) if graph is not None
                       else (False, ()))
    return fidelity, near_ego


def _run_point(point_index, snr_db, lay, plan, ontology, cfg, sizes):
    link = cfg._link(snr_db)
    num_frames = len(lay.frames)
    passes = -(-cfg.trials_per_point // num_frames)
    point_seed = np.uint64((cfg.base_seed ^ point_index) & _MASK64)
    errors_total = 0
    fidelity_sum = 0.0
    preds = []
    for p in range(passes):
        # trial t sends frame t mod F with seed base_seed ^ point_index ^ t
        seeds = point_seed ^ np.arange(p * num_frames, (p + 1) * num_frames, dtype=np.uint64)
        received, errors = send(plan, seeds, link)
        errors_total += errors
        fidelity, near_ego = _score_pass(lay, received, ontology)
        for v in fidelity.tolist():  # frame by frame: the sum's rounding is part of the output
            fidelity_sum += v
        preds += [verdict_from_near(near_ego[a:b]) for a, b in lay.sequences]
    counts, consistency, scored = verdict_consistency(lay.verdicts * passes, preds)
    cls = classification_metrics(counts)
    try:
        auc_val = auc_metric(scored)
    except GbsedError:
        auc_val = float("nan")
    bits_total = 8 * int(lay.lengths.sum()) * passes
    return {
        "snr_db": snr_db,
        "ber": errors_total / bits_total if bits_total else 0.0,
        "fidelity": fidelity_sum / (num_frames * passes),
        "consistency": consistency,
        "accuracy": cls.accuracy,
        "precision": cls.precision,
        "recall": cls.recall,
        "f1": cls.f1,
        "mcc": cls.mcc,
        "auc": auc_val,
        **sizes,
    }


def run_sweep(sequences, ontology, cfg):
    """One result row per SNR point; deterministic given cfg.base_seed.

    trials_per_point is rounded up to a whole number of corpus passes so
    every sequence is always transmitted in full.
    """
    if not sequences:
        raise ValueError("empty corpus")
    lay = _lay_out(sequences, ontology)
    plan = plan_link(lay.buffer, lay.lengths, cfg.channel_kind, cfg.header_protection)
    lengths = lay.lengths.tolist()
    sizes = {
        "mean_payload_octets": sum(lengths) / len(lengths),
        "frames_per_payload": sum(frames_required(x) for x in lengths) / len(lengths),
    }
    return [_run_point(i, s, lay, plan, ontology, cfg, sizes)
            for i, s in enumerate(cfg.snr_points)]


def rows_to_csv(rows):
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _format_cell(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return repr(v)
    return str(v)
