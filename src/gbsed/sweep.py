"""End-to-end experiment engine: encode every frame, push the payloads
through the configured channel at each SNR point, decode, and evaluate
fidelity plus downstream risk-task metrics.

A sweep receives the corpus pass once per SNR point and pass. The pass is
encoded once per sweep into one octet buffer, with one
``codec.encode_frames`` call over its scene graphs (as ``encode_frame`` and
``gbsed encode`` encode), and the link is planned once for that buffer
(``plan_link``), for as many receptions as a batch holds. A batch holds
at most ``_SCORE_OCTETS`` received octets and at least one reception. It
is received in one ``send`` call, which does only the work that depends
on the seeds and the noise levels and writes each reception, on its own
SNR point's link, straight into its row of the batch. The batch is
scored straight from the received octets with a few numpy calls, over
offsets laid out once per sweep from the N, d and K of the sent headers
(``codec.header_fields``); each SNR point keeps its own sums, verdicts and
error count. A frame whose header arrived changed scores as a fallback (a
bare ego: fidelity 0, nothing near) unless ``codec.headers_parse`` finds
that it parses; only those frames are decoded on their own with
``decode_frame``. Each decision has one array rule that both paths call:
``codec.relation_ids`` decodes every matrix's relation id (``decompress``
calls it for one frame), ``metrics.nodes_match`` tests every node
(``semantic_fidelity`` calls it for one frame), and ``risk_verdicts``
decides every sequence's risk verdict, sent and received. The result
rows of all the SNR points are scored in one call (``_point_rows``):
``verdict_consistency`` counts and ``metrics.auc`` scores one row a point.
The single-frame path (``encode_frame``, ``transmit``, ``decode_frame``,
``semantic_fidelity``, ``task_consistency``) gives the same numbers frame
by frame; the tests check the sweep against that loop run over a float64
reference link built from the channel's primitives.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import codec
from .channel import (
    AWGN64QAM,
    BSC,
    PROTECTED,
    LinkConfig,
    frames_required,
    plan_link,
    send,
    transmit,  # noqa: F401  (single-frame path, kept beside encode/decode_frame)
)
from .errors import GbsedError, integer
from .metrics import classification_metrics, auc as auc_metric, nodes_match, semantic_fidelity
from .task import (
    near_ego,
    near_ego_nodes,
    near_ego_stacked,
    risk_verdicts,
    task_consistency,  # noqa: F401  (single-frame path)
    verdict_consistency,
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
        try:
            object.__setattr__(self, "snr_points", tuple(self.snr_points))
        except TypeError:
            raise ValueError(f"snr_points {self.snr_points!r} is not a sequence") from None
        if not self.snr_points:
            raise ValueError("snr_points is empty")
        object.__setattr__(self, "trials_per_point",
                           integer("trials_per_point", self.trials_per_point, at_least=1))
        object.__setattr__(self, "base_seed", integer("base_seed", self.base_seed))
        self.links  # raises ValueError for a bad point or link
        if self.bsc_flip_prob and self.channel_kind != BSC:  # the AWGN link ignores it
            raise ValueError(f"bsc_flip_prob {self.bsc_flip_prob} needs channel_kind {BSC!r}")

    @cached_property
    def links(self):
        """Each SNR point's LinkConfig, in order, built once."""
        return tuple(LinkConfig(snr_db=snr_db, channel_kind=self.channel_kind,
                                bsc_flip_prob=self.bsc_flip_prob,
                                header_protection=self.header_protection)
                     for snr_db in self.snr_points)


def encode_frame(graph, ontology):
    """Scene graph -> wire payload octets."""
    return codec.encode_frames([graph], ontology)[0].tobytes()


def decode_frame(payload, ontology):
    """Wire payload -> scene graph, or None if the payload fails to parse."""
    try:
        retained, feats = codec.parse(payload, ontology)
        triplets, _ = codec.decompress(retained, ontology.num_relations)
        return codec.regenerate(triplets, feats)
    except GbsedError:
        return None


# a sweep's receptions are scored in batches of at most this many received
# octets, and of at least one reception
_SCORE_OCTETS = 1 << 17


@dataclass(frozen=True)
class _Pass:
    """One corpus pass, encoded once and laid out as flat arrays for a
    batch of ``rows`` receptions of it, one a row.

    Frames are numbered in corpus order, and frame f of row j is frame
    j·F + f of the batch; sequences, retained matrices, nodes and sent
    triplets are numbered across the batch in frame order. A batch offset
    is one into the batch read as one flat array. A matrix cell (j, k) of
    an N-node frame is ``j * N + k``.
    """
    frames: tuple               # sent scene graphs of the pass
    risky: np.ndarray           # sent risk verdict of every sequence of the pass
    buffer: np.ndarray          # every payload of the pass, back to back
    passes: int                 # receptions of the pass per SNR point
    rows: int                   # most receptions a batch holds
    frame_seq: np.ndarray       # frame -> its sequence
    lengths: np.ndarray         # payload octets per frame
    starts: np.ndarray          # batch offset of every payload
    matrix_octets: np.ndarray   # batch mask of the retained-matrix octets
    feature_octets: np.ndarray  # batch mask of the feature octets
    header_at: np.ndarray       # (frames, HEADER_LEN) batch offsets of the headers
    headers: np.ndarray         # (frames, HEADER_LEN) sent header octets
    matrix_start: np.ndarray    # matrix -> its first octet among the batch's matrix octets
    matrix_frame: np.ndarray    # matrix -> frame
    node_frame: np.ndarray      # node -> frame
    node_row: np.ndarray        # node -> its index in its frame
    node_cell: np.ndarray       # node j -> cell (j, 0): the edge j -> ego
    sent_features: np.ndarray   # (nodes, attributes) sent feature values, node order
    edge_frame: np.ndarray      # triplet -> frame
    edge_rel: np.ndarray        # triplet -> relation id
    edge_cell: np.ndarray       # triplet (j, r, k) -> cell (j, k)
    entities: np.ndarray        # nodes + triplets of every frame


def _lay_out(sequences, ontology, points=1, trials=1):
    """Lay out the corpus pass for a sweep of ``points`` SNR points of
    ``trials`` trials each: as many of its receptions in a batch as fit in
    ``_SCORE_OCTETS``, and at least one."""
    frames = tuple(f for seq in sequences for f in seq.frames)
    seq_len = [len(seq.frames) for seq in sequences]
    buffer, lengths, stacked = codec.encode_frames(frames, ontology)
    features, _, triplets, m = stacked
    passes = -(-trials // len(frames))
    rows = min(points * passes, max(1, _SCORE_OCTETS // buffer.size))

    # the batch is rows copies of the pass, back to back
    lengths = np.tile(lengths, rows)
    starts = np.cumsum(lengths) - lengths
    header_at = starts[:, None] + np.arange(codec.HEADER_LEN)
    headers = np.tile(buffer[header_at[:len(frames)]], (rows, 1))
    n, d, k = codec.header_fields(headers)
    part = codec.payload_parts(n, d, k)
    matrix_cells = np.repeat(n * n, k)  # back to back among the matrix octets
    frame_seq = np.repeat(np.arange(rows * len(sequences)), np.tile(seq_len, rows))
    frame_ids = np.arange(rows * len(frames))
    node_frame = np.repeat(frame_ids, n)
    node_row = np.arange(node_frame.size) - np.repeat(np.cumsum(n) - n, n)
    m = np.tile(m, rows)
    edge_frame = np.repeat(frame_ids, m)
    src, rel, dst = np.tile(triplets.T, rows)
    return _Pass(
        frames=frames,
        risky=risk_verdicts(frame_seq[:len(frames)], *near_ego_stacked(*stacked, ontology))[0],
        buffer=buffer,
        passes=passes,
        rows=rows,
        frame_seq=frame_seq,
        lengths=lengths,
        starts=starts,
        matrix_octets=part == 1,
        feature_octets=part == 2,
        header_at=header_at,
        headers=headers,
        matrix_start=np.cumsum(matrix_cells) - matrix_cells,
        matrix_frame=np.repeat(frame_ids, k),
        node_frame=node_frame,
        node_row=node_row,
        node_cell=node_row * n[node_frame],
        sent_features=np.tile(features, (rows, 1)),
        edge_frame=edge_frame,
        edge_rel=rel,
        edge_cell=src * n[edge_frame] + dst,
        entities=n + m,
    )


def _score_pass(lay, received, ontology):
    """Fidelity of every frame of a batch of received passes, a
    (receptions, buffer octets) array with at most ``lay.rows`` rows, and
    risk_verdicts' per-frame arrays: any_near and the (frame, row) pairs of
    near vehicles. Frame f of row j is frame j·F + f."""
    rows = len(received)

    def head(a):
        # a's entries for the first rows rows of a batch
        return a[:len(a) // lay.rows * rows]

    num_frames = rows * len(lay.frames)
    num_rel = ontology.num_relations
    flat = received.reshape(-1)
    matrix_start, node_frame = head(lay.matrix_start), head(lay.node_frame)
    octets = flat[head(lay.matrix_octets)]
    _, chosen = codec.relation_ids(octets, matrix_start, head(lay.matrix_frame), num_frames,
                                   num_rel)

    def has_edge(frame, rel_id, cell):
        # decompress keeps a cell of the chosen matrix iff its value is in range
        m = chosen[frame * (num_rel + 1) + rel_id]
        found = m >= 0
        found[found] = codec.in_range(octets[matrix_start[m[found]] + cell[found]], num_rel)
        return found

    edge_frame = head(lay.edge_frame)
    edge_hits = np.bincount(
        edge_frame[has_edge(edge_frame, head(lay.edge_rel), head(lay.edge_cell))],
        minlength=num_frames)
    values = flat[head(lay.feature_octets)].view(codec.FEATURE)
    with np.errstate(invalid="ignore"):  # a received signalling NaN
        recv_features = values.astype(np.float64).reshape(-1, ontology.num_attributes)
    node_hits = np.bincount(node_frame[nodes_match(head(lay.sent_features), recv_features,
                                                   ontology)], minlength=num_frames)
    fidelity = (node_hits + edge_hits) / head(lay.entities)

    # a frame whose header arrived changed is scored on its own: one that
    # cannot parse stands in as a bare ego with nothing near, one that can
    # is decoded with decode_frame
    header, sent = flat[head(lay.header_at)], head(lay.headers)
    changed = (header != sent).any(axis=1)
    near = (has_edge(node_frame, ontology.relation_id("is_near"), head(lay.node_cell))
            & ~changed[node_frame])
    any_near, near_frame, near_row = near_ego_nodes(near, recv_features, node_frame,
                                                    head(lay.node_row), num_frames, ontology)
    fidelity[changed] = 0.0
    decoded = np.flatnonzero(changed)
    decoded = decoded[codec.headers_parse(header[decoded], sent[decoded],
                                          lay.lengths[decoded])]
    near_frame, near_row = [near_frame], [near_row]
    for f in decoded.tolist():
        lo = lay.starts[f]
        graph = decode_frame(flat[lo:lo + lay.lengths[f]].tobytes(), ontology)
        fidelity[f] = semantic_fidelity(lay.frames[f % len(lay.frames)], graph,
                                        ontology).fidelity
        if graph is not None:
            (any_near[f],), _, vehicles = near_ego([graph], ontology)
            near_frame.append(np.full(vehicles.size, f))
            near_row.append(vehicles)
    return fidelity, any_near, np.concatenate(near_frame), np.concatenate(near_row)


def _point_rows(snr_points, ber, fidelity, truth, pred_risky, pred_score, sizes):
    """The result rows of the SNR points, from their BERs and mean
    fidelities, the sent verdicts, and each point's received verdicts and
    scores: one (points, sequences) row a point, its passes in pass order."""
    counts, consistency = verdict_consistency(truth, pred_risky)
    try:
        auc_val = auc_metric(pred_score, truth).tolist()
    except GbsedError:
        auc_val = [float("nan")] * len(snr_points)
    rows = []
    for i, snr_db in enumerate(snr_points):
        cls = classification_metrics(counts[i])
        rows.append({
            "snr_db": snr_db,
            "ber": ber[i],
            "fidelity": fidelity[i],
            "consistency": float(consistency[i]),
            "accuracy": cls.accuracy,
            "precision": cls.precision,
            "recall": cls.recall,
            "f1": cls.f1,
            "mcc": cls.mcc,
            "auc": auc_val[i],
            **sizes,
        })
    return rows


def run_sweep(sequences, ontology, cfg):
    """One result row per SNR point; deterministic given cfg.base_seed.

    trials_per_point is rounded up to a whole number of corpus passes so
    every sequence is always transmitted in full.
    """
    if not sequences:
        raise ValueError("empty corpus")
    points = len(cfg.snr_points)
    lay = _lay_out(sequences, ontology, points, cfg.trials_per_point)
    num_frames = len(lay.frames)
    lengths = lay.lengths[:num_frames]
    plan = plan_link(lay.buffer, lengths, cfg.channel_kind, cfg.header_protection, lay.rows)
    # reception (i, p) is pass p of SNR point i; trial t of point i sends
    # frame t mod F with seed base_seed ^ i ^ t
    receptions = [(i, p) for i in range(points) for p in range(lay.passes)]
    errors = [0] * points
    fidelity_sum = [0.0] * points
    pred_risky = np.empty((points, lay.passes, lay.risky.size), dtype=bool)
    pred_score = np.empty(pred_risky.shape)
    batch = np.empty((lay.rows, lay.buffer.size), dtype=np.uint8)
    for lo in range(0, len(receptions), lay.rows):
        todo = receptions[lo:lo + lay.rows]
        rows = len(todo)
        keys = np.array([(cfg.base_seed ^ i) & _MASK64 for i, _ in todo], dtype=np.uint64)
        first = np.array([p * num_frames for _, p in todo], dtype=np.uint64)
        seeds = keys[:, None] ^ (first[:, None] + np.arange(num_frames, dtype=np.uint64))
        row_errors = send(plan, seeds, [cfg.links[i] for i, _ in todo], batch[:rows])
        for (i, _), e in zip(todo, row_errors.tolist()):
            errors[i] += e
        fid, *near = _score_pass(lay, batch[:rows], ontology)
        risky, score = risk_verdicts(lay.frame_seq[:rows * num_frames], *near)
        for (i, p), f, r, s in zip(todo, fid.reshape(rows, -1), risky.reshape(rows, -1),
                                   score.reshape(rows, -1)):
            # frame by frame, left to right, pass after pass: the sum's
            # rounding is part of the output
            running = np.add.accumulate(np.concatenate([[fidelity_sum[i]], f]))
            fidelity_sum[i] = float(running[-1])
            pred_risky[i, p] = r
            pred_score[i, p] = s
    sizes = {
        "mean_payload_octets": int(lengths.sum()) / num_frames,
        "frames_per_payload": int(frames_required(lengths).sum()) / num_frames,
    }
    bits = 8 * int(lengths.sum()) * lay.passes
    return _point_rows(cfg.snr_points, [e / bits if bits else 0.0 for e in errors],
                       [f / (num_frames * lay.passes) for f in fidelity_sum],
                       np.tile(lay.risky, lay.passes), pred_risky.reshape(points, -1),
                       pred_score.reshape(points, -1), sizes)


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
