"""Adjacency-tensor codec and bit-exact wire format.

Encoding stacks one self-describing NxN matrix per relation (entries are 0
or the relation id). Compression drops all-zero slices; decompression
recovers each received matrix's relation id from its nonzero entries and
rebuilds a binary tensor; regeneration turns the tensor plus the feature
matrix back into a scene graph.

Wire layout (big-endian, 21-octet header):

    magic 'GBSD' | version u8 | ontology digest u64 | N u16 | d u16 |
    |R| u8 | K u8 | flags u16 (reserved 0)

followed by K matrices of N*N octets each (row-major, values in {0, r})
and the feature matrix as N*d IEEE-754 binary32 values.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    FormatError,
    OntologyMismatch,
    ShapeError,
    TruncationError,
)
from .ontology import ontology_digest
from .scene_graph import SceneGraph

MAGIC = b"GBSD"
VERSION = 1
HEADER_LEN = 21
_HEADER = struct.Struct(">4sBQHHBBH")


@dataclass(frozen=True)
class AdjacencyTensor:
    n: int
    num_relations: int
    slices: np.ndarray  # (|R|, N, N) uint8, slice r-1 holds values {0, r}


@dataclass(frozen=True)
class CompressedTensor:
    n: int
    num_relations: int
    retained: tuple  # NxN uint8 matrices, relation id implicit in entries


@dataclass(frozen=True)
class BinaryTensor:
    n: int
    num_relations: int
    slices: np.ndarray  # (|R|, N, N) uint8 in {0, 1}


# the largest N, d (16-bit header fields) and |R|, K (8-bit fields)
_MAX_U16 = 0xFFFF
_MAX_U8 = 0xFF


def encode_tensor(graph, ontology):
    """Stack the graph's edges into the self-describing adjacency tensor."""
    n = graph.num_nodes
    num_rel = ontology.num_relations
    # refuse what serialize would refuse before allocating |R|·N^2 octets
    if n > _MAX_U16:
        raise CapacityError(f"n={n} exceeds the 16-bit field")
    if num_rel > _MAX_U8:
        raise CapacityError(f"|R|={num_rel} exceeds the 8-bit field")
    slices = np.zeros((num_rel, n, n), dtype=np.uint8)
    for src, rel, dst in graph.edges:
        if not 1 <= rel <= num_rel:
            raise OntologyMismatch(f"edge relation id {rel} outside 1..{num_rel}")
        slices[rel - 1, src, dst] = rel
    return AdjacencyTensor(n, num_rel, slices)


def compress(tensor):
    """Drop all-zero relation slices, in one reduction over the tensor."""
    slices = tensor.slices
    kept = slices[slices.any(axis=(1, 2))]  # a copy, in relation order
    return CompressedTensor(tensor.n, tensor.num_relations, tuple(kept))


def _resolve_relation(mat, num_relations):
    """Recover a matrix's relation id. Returns (rel_id or None, warning or None)."""
    values = mat[mat > 0]
    if values.size == 0:
        return None, "matrix dropped: no nonzero entry"
    uniq = np.unique(values)
    if uniq.size == 1 and 1 <= int(uniq[0]) <= num_relations:
        return int(uniq[0]), None
    in_range = values[(values >= 1) & (values <= num_relations)]
    if in_range.size == 0:
        return None, f"matrix dropped: no in-range nonzero value among {uniq.tolist()}"
    counts = np.bincount(in_range.astype(np.int64), minlength=num_relations + 1)
    rel = int(np.flatnonzero(counts == counts.max())[0])  # ties toward smallest id
    return rel, f"matrix repaired to relation {rel} (values {uniq.tolist()})"


def decompress(compressed):
    """Rebuild the binary adjacency tensor from received matrices.

    Returns (BinaryTensor, warnings). A corrupted matrix is assigned the
    most frequent in-range nonzero value (ties toward the smallest id) or
    dropped if none survives.
    """
    n = compressed.n
    num_rel = compressed.num_relations
    slices = np.zeros((num_rel, n, n), dtype=np.uint8)
    occupied = set()
    warnings = []
    for mat in compressed.retained:
        mat = np.asarray(mat, dtype=np.uint8)
        rel, warning = _resolve_relation(mat, num_rel)
        if warning is not None:
            warnings.append(warning)
        if rel is None:
            continue
        if rel in occupied:
            warnings.append(f"duplicate matrix for relation {rel}; later one kept")
        occupied.add(rel)
        # out-of-range entries are corruption artifacts and are discarded;
        # in-range residue survives and is erased by the binarization below
        slices[rel - 1] = np.where(mat <= num_rel, mat, 0)
    slices = (slices > 0).astype(np.uint8)
    return BinaryTensor(n, num_rel, slices), warnings


def regenerate(tensor, features, ontology):
    """Rebuild a SceneGraph from a binary tensor and feature matrix."""
    with np.errstate(invalid="ignore"):
        feats = np.asarray(features, dtype=float)
    if feats.ndim != 2 or feats.shape[0] != tensor.n:
        raise ShapeError(f"feature matrix shape {feats.shape} does not match n={tensor.n}")
    edges = []
    for r in range(tensor.num_relations):
        src_idx, dst_idx = np.nonzero(tensor.slices[r])
        edges.extend((int(j), r + 1, int(k)) for j, k in zip(src_idx, dst_idx))
    return SceneGraph(feats, tuple(sorted(edges)))


def payload_length(n, d, k):
    return HEADER_LEN + k * n * n + 4 * n * d


def serialize(compressed, features, ontology):
    """Emit the byte-exact wire form of a compressed tensor + feature matrix."""
    n = compressed.n
    feats = np.asarray(features, dtype=np.float32)
    if feats.ndim != 2 or feats.shape[0] != n:
        raise ShapeError(f"feature matrix shape {feats.shape} does not match n={n}")
    d = feats.shape[1]
    k = len(compressed.retained)
    if n > _MAX_U16 or d > _MAX_U16:
        raise CapacityError(f"n={n} d={d} exceed 16-bit fields")
    if compressed.num_relations > _MAX_U8 or k > _MAX_U8:
        raise CapacityError(f"|R|={compressed.num_relations} K={k} exceed 8-bit fields")
    parts = [
        _HEADER.pack(MAGIC, VERSION, ontology_digest(ontology), n, d,
                     compressed.num_relations, k, 0)
    ]
    for mat in compressed.retained:
        m = np.ascontiguousarray(mat, dtype=np.uint8)
        if m.shape != (n, n):
            raise ShapeError(f"retained matrix shape {m.shape} != ({n}, {n})")
        parts.append(m.tobytes())
    parts.append(feats.astype(">f4").tobytes())
    return b"".join(parts)


def parse(payload, ontology):
    """Inverse of serialize; total over arbitrary octet sequences.

    Returns (CompressedTensor, features). Raises typed errors carrying the
    byte offset of the fault.
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
        raise FormatError("node count 0", offset=13)
    if num_rel != ontology.num_relations:
        raise FormatError(f"relation count {num_rel} != ontology {ontology.num_relations}",
                          offset=17)
    if k > num_rel:
        raise FormatError(f"retained count {k} exceeds |R|={num_rel}", offset=18)
    if flags != 0:
        raise FormatError(f"reserved flags {flags:#06x} nonzero", offset=19)
    expected = payload_length(n, d, k)
    if len(payload) < expected:
        raise TruncationError(
            f"payload length {len(payload)} < expected {expected}", offset=len(payload))
    if len(payload) > expected:
        raise FormatError(f"{len(payload) - expected} trailing octets", offset=expected)
    off = HEADER_LEN
    retained = []
    for _ in range(k):
        mat = np.frombuffer(payload, dtype=np.uint8, count=n * n, offset=off).reshape(n, n)
        retained.append(mat.copy())
        off += n * n
    feats = np.frombuffer(payload, dtype=">f4", count=n * d, offset=off)
    feats = feats.astype(np.float32).reshape(n, d)
    return CompressedTensor(n, num_rel, tuple(retained)), feats
