"""Shared relation/attribute ontology.

Transmitter and receiver must load the same configuration document; an
8-octet digest of the canonical emission travels in every payload header so
a mismatch is caught before any matrix is interpreted.
"""

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import SchemaError

ATTRIBUTE_KINDS = ("categorical", "length-meters", "speed-mps")

_NAME_RE = re.compile(r"[a-z_][a-z0-9_]*\Z")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Relation:
    id: int
    name: str


@dataclass(frozen=True)
class Attribute:
    index: int
    name: str
    kind: str


@dataclass(frozen=True)
class RelationOntology:
    relations: tuple
    attributes: tuple

    @property
    def num_relations(self):
        return len(self.relations)

    @property
    def num_attributes(self):
        return len(self.attributes)

    def relation_id(self, name):
        for rel in self.relations:
            if rel.name == name:
                return rel.id
        raise KeyError(name)

    def relation_name(self, rel_id):
        return self.relations[rel_id - 1].name

    def attribute_index(self, name):
        for attr in self.attributes:
            if attr.name == name:
                return attr.index
        raise KeyError(name)

    @cached_property
    def digest(self):
        """FNV-1a-64 digest over the canonical emission, as an int in [0, 2^64)."""
        h = _FNV_OFFSET
        for b in emit_ontology(self).encode("utf-8"):
            h ^= b
            h = (h * _FNV_PRIME) & _MASK64
        return h


def _check_name(name, what):
    if not _NAME_RE.match(name):
        raise SchemaError(f"invalid {what} name {name!r}")


def _validate(relations, attributes):
    if not relations:
        raise SchemaError("ontology defines no relations")
    ids = [r.id for r in relations]
    if sorted(ids) != list(range(1, len(ids) + 1)):
        raise SchemaError(f"relation ids must be contiguous 1..{len(ids)}, got {sorted(ids)}")
    if len(ids) > 255:
        raise SchemaError("more than 255 relations cannot fit one octet")
    indices = [a.index for a in attributes]
    if sorted(indices) != list(range(len(indices))):
        raise SchemaError(f"attribute indices must be contiguous 0..{len(indices) - 1}")
    if len(indices) > 65535:
        raise SchemaError("more than 65535 attributes")
    names = [r.name for r in relations]
    if len(set(names)) != len(names):
        raise SchemaError("duplicate relation name")
    anames = [a.name for a in attributes]
    if len(set(anames)) != len(anames):
        raise SchemaError("duplicate attribute name")
    for n in names:
        _check_name(n, "relation")
    for a in attributes:
        _check_name(a.name, "attribute")
        if a.kind not in ATTRIBUTE_KINDS:
            raise SchemaError(f"unknown attribute kind {a.kind!r}")


def load_ontology(text):
    """Parse a configuration document into a validated RelationOntology.

    Blank lines and lines starting with ``#`` are ignored. Data lines are
    ``relation <id> <name>`` or ``attribute <index> <name> <kind>``; line
    order is irrelevant.
    """
    relations = []
    attributes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "relation" and len(parts) == 3:
            try:
                rid = int(parts[1])
            except ValueError:
                raise SchemaError(f"line {lineno}: bad relation id {parts[1]!r}") from None
            if any(r.id == rid for r in relations):
                raise SchemaError(f"line {lineno}: duplicate relation id {rid}")
            relations.append(Relation(rid, parts[2]))
        elif parts[0] == "attribute" and len(parts) == 4:
            try:
                idx = int(parts[1])
            except ValueError:
                raise SchemaError(f"line {lineno}: bad attribute index {parts[1]!r}") from None
            if any(a.index == idx for a in attributes):
                raise SchemaError(f"line {lineno}: duplicate attribute index {idx}")
            attributes.append(Attribute(idx, parts[2], parts[3]))
        else:
            raise SchemaError(f"line {lineno}: unrecognized directive {line!r}")
    relations.sort(key=lambda r: r.id)
    attributes.sort(key=lambda a: a.index)
    _validate(relations, attributes)
    return RelationOntology(tuple(relations), tuple(attributes))


def emit_ontology(o):
    """Canonical text emission: relations by id, then attributes by index."""
    lines = [f"relation {r.id} {r.name}" for r in o.relations]
    lines += [f"attribute {a.index} {a.name} {a.kind}" for a in o.attributes]
    return "\n".join(lines) + "\n"


def ontology_digest(o):
    """The ontology's digest, computed once per ontology object."""
    return o.digest


DEFAULT_ONTOLOGY_TEXT = """\
# default road-scene ontology: 8 relations, 4 node attributes
relation 1 is_near
relation 2 very_near
relation 3 to_left_of
relation 4 to_right_of
relation 5 in_front_of
relation 6 behind
relation 7 is_in
relation 8 approaching
attribute 0 class categorical
attribute 1 bev_x length-meters
attribute 2 bev_y length-meters
attribute 3 speed speed-mps
"""


def default_ontology():
    return load_ontology(DEFAULT_ONTOLOGY_TEXT)
