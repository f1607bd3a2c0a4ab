"""The relation/attribute ontology shared by transmitter and receiver: the
relations ``infer_relations`` emits and the node attributes of a ``.scenes``
record. Both ends are built from the same code; an 8-octet digest of its
canonical text travels in every payload header, so a payload from another
build's ontology is refused before any matrix is interpreted.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import OntologyMismatch
from .scene_graph import ATTRIBUTES, RELATIONS

# the kinds of the ATTRIBUTES, in order
_KINDS = ("categorical", "length-meters", "length-meters", "speed-mps")

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
        return _lookup({r.name: r.id for r in self.relations}, name, "relation")

    def relation_name(self, rel_id):
        return _lookup({r.id: r.name for r in self.relations}, rel_id, "relation of id")

    def attribute_index(self, name):
        return _lookup({a.name: a.index for a in self.attributes}, name, "attribute")

    @cached_property
    def digest(self):
        """FNV-1a-64 of the canonical text, an int in [0, 2^64): one line
        ``relation <id> <name>`` per relation, then ``attribute <index> <name> <kind>``."""
        lines = [f"relation {r.id} {r.name}" for r in self.relations]
        lines += [f"attribute {a.index} {a.name} {a.kind}" for a in self.attributes]
        h = _FNV_OFFSET
        for b in ("\n".join(lines) + "\n").encode("utf-8"):
            h ^= b
            h = (h * _FNV_PRIME) & _MASK64
        return h


def _lookup(table, key, what):
    """table[key]; a key the ontology lacks raises OntologyMismatch naming it."""
    if key not in table:
        raise OntologyMismatch(f"the ontology has no {what} {key!r}")
    return table[key]


def ontology_digest(o):
    """The ontology's digest, computed once per ontology object."""
    return o.digest


def default_ontology():
    """Relations 1..8 are ``RELATIONS`` and attributes 0..3 ``ATTRIBUTES``."""
    return RelationOntology(
        tuple(Relation(i, name) for i, name in enumerate(RELATIONS, start=1)),
        tuple(Attribute(i, name, kind) for i, (name, kind) in enumerate(zip(ATTRIBUTES, _KINDS))))
