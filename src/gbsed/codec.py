"""Adjacency-tensor codec and bit-exact wire format.

Encoding stacks one self-describing NxN matrix per relation (entries are 0
or the relation id) into a (|R|, N, N) uint8 array. Compression keeps the
(K, N, N) nonzero slices; decompression recovers each received matrix's
relation id from its nonzero entries (``relation_ids``, the sweep's too) and
reads the kept matrices straight into sorted (src, rel, dst) triplets;
regeneration turns them plus the feature matrix into a scene graph.

``encode_frames`` writes what ``serialize(compress(encode_tensor(g)))``
writes for every scene graph g of a pass in one call, from the graphs'
stacked arrays (``scene_graph.stack_graphs``); the sweep, the CLI and
``sweep.encode_frame`` encode through it. It runs those stages only on the
graphs they refuse, in order, so a pass raises their error for the first
of them. ``payload_parts`` tells the header, matrix and feature octets of
back-to-back payloads apart, for the encoder and for the sweep's layout.

Wire layout (big-endian, 21-octet header):

    magic 'GBSD' | version u8 | ontology digest u64 | N u16 | d u16 |
    |R| u8 | K u8 | flags u16 (reserved 0)

followed by K matrices of N*N octets each (row-major, values in {0, r})
and the feature matrix as N*d IEEE-754 binary32 values (``FEATURE``).
``header_fields`` reads N, d and K from an array of headers, at the octets
where ``encode_frames`` writes N and K; ``parse`` unpacks one header whole.
"""

import struct

import numpy as np

from .errors import (
    CapacityError,
    FormatError,
    OntologyMismatch,
    ShapeError,
    TruncationError,
)
from .ontology import ontology_digest
from .scene_graph import SceneGraph, stack_graphs

MAGIC = b"GBSD"
VERSION = 1
HEADER_LEN = 21
_HEADER = struct.Struct(">4sBQHHBBH")
FEATURE = np.dtype(">f4")


# the largest N, d (16-bit header fields) and |R|, K (8-bit fields)
_MAX_U16 = 0xFFFF
_MAX_U8 = 0xFF

# header octets of the u16 N, the u16 d, the u8 |R| and the u8 K
_N_AT, _D_AT, _R_AT, _K_AT = 13, 15, 17, 18

# header octets of the fields parse accepts in one value only: magic,
# version, digest, d, |R| and flags
_FIXED_OCTETS = np.r_[0:_N_AT, _D_AT:_K_AT, _K_AT + 1:HEADER_LEN]


def encode_tensor(graph, ontology):
    """Stack the edges into the (|R|, N, N) uint8 tensor; slice r-1 holds {0, r}."""
    n = graph.num_nodes
    num_rel = ontology.num_relations
    # refuse what serialize would refuse before allocating |R|·N^2 octets
    if n > _MAX_U16:
        raise CapacityError(f"n={n} exceeds the 16-bit field")
    if num_rel > _MAX_U8:
        raise CapacityError(f"|R|={num_rel} exceeds the 8-bit field")
    tensor = np.zeros((num_rel, n, n), dtype=np.uint8)
    for src, rel, dst in graph.edges:
        if not 1 <= rel <= num_rel:
            raise OntologyMismatch(f"edge relation id {rel} outside 1..{num_rel}")
        if not (0 <= src < n and 0 <= dst < n):
            raise ShapeError(f"edge ({src}, {rel}, {dst}) has a node outside 0..{n - 1}")
        tensor[rel - 1, src, dst] = rel
    return tensor


def compress(tensor):
    """The (K, N, N) slices that are not all zero: a copy, in relation order."""
    return tensor[tensor.any(axis=(1, 2))]


def in_range(values, num_relations):
    """Where received cell values are relation ids 1..|R|: the cells that
    vote on a matrix's id and that the decoded matrix keeps as edges."""
    return (values >= 1) & (values <= num_relations)


def relation_ids(octets, matrix_start, matrix_frame, num_frames, num_relations):
    """Decode the relation id of every received matrix, and pick the matrix
    each (frame, relation) decodes from.

    ``octets`` holds the matrices' cells back to back, matrix m from
    ``matrix_start[m]`` (ascending) on, and ``matrix_frame[m]`` is its
    frame in 0..num_frames-1. A matrix's id is its most frequent in-range
    value, ties toward the smallest id, and 0 (dropped) when no value is in
    range. Returns the ids and ``chosen``: ``chosen[f * (|R| + 1) + r]`` is
    the last matrix of frame f with id r, or -1.
    """
    width = num_relations + 1
    at = np.flatnonzero(in_range(octets, num_relations))
    matrix = np.searchsorted(matrix_start, at, side="right") - 1
    # column 0 counts nothing, so a row without in-range values argmaxes to 0
    hist = np.bincount(matrix * width + octets[at], minlength=matrix_frame.size * width)
    rel = hist.reshape(matrix_frame.size, width).argmax(axis=1)
    resolved = np.flatnonzero(rel)
    chosen = np.full(num_frames * width, -1, dtype=np.int64)
    np.maximum.at(chosen, matrix_frame[resolved] * width + rel[resolved], resolved)
    return rel, chosen


def decompress(retained, num_relations):
    """Decode the (K, N, N) received matrices to (src, rel, dst) triplets.

    Returns the sorted (E, 3) int64 triplets and a list of warnings. Each
    matrix takes the id ``relation_ids`` decodes (of equal ids the last is
    kept); its in-range cells, residue of another id included, are the
    relation's edges, and out-of-range cells are corruption artifacts.
    """
    k, n = retained.shape[:2]
    rel, chosen = relation_ids(retained.reshape(-1), np.arange(k) * (n * n),
                               np.zeros(k, dtype=np.int64), 1, num_relations)
    # chosen lists the kept matrices by relation: cells read as (src, kept, dst) come sorted
    kept = chosen[chosen >= 0]
    src, slot, dst = np.nonzero(in_range(retained[kept], num_relations).transpose(1, 0, 2))
    triplets = np.stack([src, rel[kept][slot], dst], axis=1, dtype=np.int64)
    rel = rel.tolist()
    warnings = []
    for m, (mat, r) in enumerate(zip(retained, rel)):
        values = np.flatnonzero(np.bincount(mat[mat > 0])).tolist()
        if not values:
            warnings.append("matrix dropped: no nonzero entry")
        elif not r:
            warnings.append(f"matrix dropped: no in-range nonzero value among {values}")
        elif values != [r]:
            warnings.append(f"matrix repaired to relation {r} (values {values})")
        if r and r in rel[:m]:
            warnings.append(f"duplicate matrix for relation {r}; later one kept")
    return triplets, warnings


def regenerate(triplets, features):
    """Rebuild a SceneGraph from sorted (E, 3) integer triplets and a feature matrix."""
    feats = np.asarray(features)
    triplets = np.asarray(triplets)
    nodes = triplets[:, ::2] if triplets.ndim == 2 and triplets.shape[1] == 3 else None
    if (feats.ndim != 2 or nodes is None or triplets.dtype.kind not in "iu"
            or not ((nodes >= 0) & (nodes < len(feats))).all()):
        raise ShapeError(f"triplets {triplets.dtype}{triplets.shape} vs features {feats.shape}")
    # SceneGraph converts the features to float64 once; a received signalling
    # NaN raises the invalid flag there
    with np.errstate(invalid="ignore"):
        return SceneGraph(feats, tuple(map(tuple, triplets.tolist())))


def payload_length(n, d, k):
    return HEADER_LEN + k * n * n + FEATURE.itemsize * n * d


def serialize(retained, features, ontology):
    """Emit the byte-exact wire form of (K, N, N) retained matrices + features."""
    mats = np.ascontiguousarray(retained, dtype=np.uint8)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ShapeError(f"retained matrices of shape {mats.shape} are not (K, N, N)")
    k, n = mats.shape[:2]
    if n == 0:
        raise ShapeError("a frame needs at least one node")
    d = ontology.num_attributes
    feats = np.asarray(features, dtype=np.float32)
    if feats.shape != (n, d):
        raise ShapeError(f"feature matrix shape {feats.shape} != ({n}, {d})")
    num_rel = ontology.num_relations
    if n > _MAX_U16 or d > _MAX_U16:
        raise CapacityError(f"n={n} d={d} exceed 16-bit fields")
    if num_rel > _MAX_U8 or k > _MAX_U8:
        raise CapacityError(f"|R|={num_rel} K={k} exceed 8-bit fields")
    header = _HEADER.pack(MAGIC, VERSION, ontology_digest(ontology), n, d, num_rel, k, 0)
    return b"".join((header, mats.tobytes(), feats.astype(FEATURE).tobytes()))


def payload_parts(n, d, k):
    """The part of every octet of back-to-back payloads of these N, d and
    K: 0 in a header, 1 in the matrices and 2 in the features."""
    parts = np.stack([np.full_like(n, HEADER_LEN), k * n * n, FEATURE.itemsize * n * d],
                     axis=1).reshape(-1)
    return np.repeat(np.tile(np.arange(3, dtype=np.uint8), n.size), parts)


def encode_frames(graphs, ontology):
    """The payloads ``serialize(compress(encode_tensor(g)))`` writes for
    every scene graph g of a pass, back to back, in one call.

    Returns the uint8 buffer, the int64 payload lengths and the graphs'
    arrays as ``scene_graph.stack_graphs`` stacks them. The graphs those
    stages refuse are flagged from the arrays, and the stages run on the
    flagged graphs in order, so a pass raises what they raise for its first
    refused graph.
    """
    num_rel, d = ontology.num_relations, ontology.num_attributes
    try:
        stacked = stack_graphs(graphs)
    except (ValueError, OverflowError):
        # graphs that do not stack (mixed feature widths, or a triplet value
        # beyond int64) include one the stages refuse: all are flagged
        refused = np.ones(len(graphs), dtype=bool)
    else:
        features, sizes, triplets, edge_counts = stacked
        edge_frame = np.repeat(np.arange(sizes.size), edge_counts)
        n = sizes[edge_frame]
        src, rel, dst = triplets.T
        refused = (sizes == 0) | (sizes > _MAX_U16)
        refused[edge_frame[(rel < 1) | (rel > num_rel) | (np.minimum(src, dst) < 0)
                           | (np.maximum(src, dst) >= n)]] = True
        if num_rel > _MAX_U8 or features.shape[1] != d or d > _MAX_U16:
            refused[:] = True
    # the first refused graph raises here, and a pass that does not stack has one
    for f in np.flatnonzero(refused).tolist():
        serialize(compress(encode_tensor(graphs[f], ontology)), graphs[f].features, ontology)
    # a frame keeps one matrix per relation that has an edge, in relation
    # order; (frame, relation) pairs are indexed flat
    pair = edge_frame * num_rel + rel - 1
    present = np.zeros((sizes.size, num_rel), dtype=bool)
    present.reshape(-1)[pair] = True
    k = np.count_nonzero(present, axis=1)
    slot = np.cumsum(present, axis=1).reshape(-1)[pair] - 1
    lengths = payload_length(sizes, d, k)
    starts = np.cumsum(lengths) - lengths
    part = payload_parts(sizes, d, k)
    buffer = np.zeros(part.size, dtype=np.uint8)
    header = _HEADER.pack(MAGIC, VERSION, ontology_digest(ontology), 0, d, num_rel, 0, 0)
    headers = np.tile(np.frombuffer(header, dtype=np.uint8), (sizes.size, 1))
    headers[:, _N_AT] = sizes >> 8
    headers[:, _N_AT + 1] = sizes & 0xFF
    headers[:, _K_AT] = k
    buffer[part == 0] = headers.reshape(-1)
    buffer[starts[edge_frame] + HEADER_LEN + slot * n * n + src * n + dst] = rel
    buffer[part == 2] = features.astype(np.float32).astype(FEATURE).view(np.uint8).reshape(-1)
    return buffer, lengths, stacked


def header_fields(headers):
    """N, d and K of each row of a (frames, HEADER_LEN) uint8 array, as int64."""
    n = headers[:, _N_AT].astype(np.int64) << 8 | headers[:, _N_AT + 1]
    d = headers[:, _D_AT].astype(np.int64) << 8 | headers[:, _D_AT + 1]
    return n, d, headers[:, _K_AT].astype(np.int64)


def headers_parse(headers, sent, lengths):
    """Whether parse accepts each payload, from its header alone.

    ``headers`` and ``sent`` are (frames, HEADER_LEN) uint8 arrays: row i of
    ``sent`` is a header that serialize wrote, and row i of ``headers`` is
    the header of a ``lengths[i]``-octet payload under the same ontology.
    """
    n, d, k = header_fields(headers)
    return ((headers[:, _FIXED_OCTETS] == sent[:, _FIXED_OCTETS]).all(axis=1) & (n != 0)
            & (k <= headers[:, _R_AT]) & (payload_length(n, d, k) == lengths))


def parse(payload, ontology):
    """Inverse of serialize; total over arbitrary octet sequences.

    Returns the (K, N, N) uint8 retained matrices and the (N, d) float32
    features. Raises typed errors carrying the byte offset of the fault.
    """
    if len(payload) < HEADER_LEN:
        raise TruncationError(f"payload ends at {len(payload)} inside the header",
                              offset=len(payload))
    magic, version, digest, n, d, num_rel, k, flags = _HEADER.unpack_from(payload, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    if digest != ontology_digest(ontology):
        raise OntologyMismatch(f"payload digest {digest:#018x} does not match ontology",
                               offset=5)
    if n == 0:
        raise FormatError("node count 0", offset=_N_AT)
    if d != ontology.num_attributes:
        raise FormatError(f"feature width {d} != ontology {ontology.num_attributes}",
                          offset=_D_AT)
    if num_rel != ontology.num_relations:
        raise FormatError(f"relation count {num_rel} != ontology {ontology.num_relations}",
                          offset=_R_AT)
    if k > num_rel:
        raise FormatError(f"retained count {k} exceeds |R|={num_rel}", offset=_K_AT)
    if flags != 0:
        raise FormatError(f"reserved flags {flags:#06x} nonzero", offset=19)
    expected = payload_length(n, d, k)
    if len(payload) < expected:
        raise TruncationError(
            f"payload length {len(payload)} < expected {expected}", offset=len(payload))
    if len(payload) > expected:
        raise FormatError(f"{len(payload) - expected} trailing octets", offset=expected)
    retained = np.frombuffer(payload, dtype=np.uint8, count=k * n * n, offset=HEADER_LEN)
    retained = retained.reshape(k, n, n).copy()
    feats = np.frombuffer(payload, dtype=FEATURE, count=n * d, offset=HEADER_LEN + k * n * n)
    feats = feats.astype(np.float32).reshape(n, d)
    return retained, feats
