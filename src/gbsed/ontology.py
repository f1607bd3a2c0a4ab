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
class RelationOntology:
    """Relation names in id order, ids from 1, and (name, kind) attribute
    pairs in index order, indices from 0: an id or index is a position, so
    none can contradict the codec's 1..|R| or a feature column."""
    relations: tuple
    attributes: tuple

    @property
    def num_relations(self):
        return len(self.relations)

    @property
    def num_attributes(self):
        return len(self.attributes)

    def relation_id(self, name):
        return _position(self.relations, name, "relation") + 1

    def attribute_index(self, name):
        return _position([a for a, _ in self.attributes], name, "attribute")

    @cached_property
    def digest(self):
        """FNV-1a-64 of the canonical text, an int in [0, 2^64): one line
        ``relation <id> <name>`` per relation, then ``attribute <index> <name> <kind>``."""
        lines = [f"relation {i} {name}" for i, name in enumerate(self.relations, start=1)]
        lines += [f"attribute {i} {name} {kind}" for i, (name, kind) in enumerate(self.attributes)]
        h = _FNV_OFFSET
        for b in ("\n".join(lines) + "\n").encode("utf-8"):
            h ^= b
            h = (h * _FNV_PRIME) & _MASK64
        return h


def _position(names, name, what):
    """The position of ``name``; one the ontology lacks raises OntologyMismatch."""
    if name not in names:
        raise OntologyMismatch(f"the ontology has no {what} {name!r}")
    return names.index(name)


def ontology_digest(o):
    """The ontology's digest, computed once per ontology object."""
    return o.digest


def default_ontology():
    """Relations 1..8 are ``RELATIONS`` and attributes 0..3 ``ATTRIBUTES``."""
    return RelationOntology(RELATIONS, tuple(zip(ATTRIBUTES, _KINDS)))
