from dataclasses import replace

import numpy as np
import pytest

from gbsed.errors import OntologyMismatch
from gbsed.ontology import RelationOntology, default_ontology, ontology_digest
from gbsed.scenarios import ScenarioSpec, generate
from gbsed.scene_graph import ATTRIBUTES, RELATIONS, SceneGraph
from gbsed.sweep import decode_frame, encode_frame

MINIMAL = RelationOntology(("is_near", "to_left_of"), (("class", "categorical"),))


def test_minimal_document():
    # the codec is general in |R| and d: lookups work on any ontology
    o = MINIMAL
    assert o.num_relations == 2
    assert o.num_attributes == 1
    assert o.relation_id("is_near") == 1
    assert o.relation_id("to_left_of") == 2
    assert o.attribute_index("class") == 0


def test_default_fixture():
    o = default_ontology()
    assert o.num_relations == 8
    assert o.num_attributes == 4
    assert o.relations == (
        "is_near", "very_near", "to_left_of", "to_right_of",
        "in_front_of", "behind", "is_in", "approaching",
    )
    assert o.attributes == (("class", "categorical"), ("bev_x", "length-meters"),
                            ("bev_y", "length-meters"), ("speed", "speed-mps"))
    # the ontology is the relation rules' relations and the records' columns,
    # and an id or index is a position
    assert o.relations == RELATIONS
    assert tuple(name for name, _ in o.attributes) == ATTRIBUTES
    assert [o.relation_id(name) for name in RELATIONS] == list(range(1, 9))
    assert [o.attribute_index(name) for name in ATTRIBUTES] == list(range(4))


def test_canonical_emission_shape():
    # the digest is FNV-1a-64 over the canonical text, relations by id, then
    # attributes by index, one a line
    text = "relation 1 is_near\nrelation 2 to_left_of\nattribute 0 class categorical\n"
    h = 0xCBF29CE484222325
    for b in text.encode():
        h = (h ^ b) * 0x100000001B3 % (1 << 64)
    assert ontology_digest(MINIMAL) == h


def test_digest_is_64_bit_and_stable():
    d = ontology_digest(default_ontology())
    assert 0 <= d < 1 << 64
    # frozen value: the wire header embeds this digest, so it must never drift
    assert d == 0xA0B62C4E16A0B7D7


def test_digest_is_cached_per_ontology():
    o = default_ontology()
    assert ontology_digest(o) == 0xA0B62C4E16A0B7D7
    assert vars(o)["digest"] == 0xA0B62C4E16A0B7D7  # computed once, then kept
    again = default_ontology()
    assert "digest" not in vars(again)
    assert ontology_digest(again) == ontology_digest(o)
    # the cached value is not a field: equality and hashing are unchanged
    assert again == o and hash(again) == hash(o)


def test_digest_sensitive_to_single_name_change():
    base = default_ontology()
    variants = []
    for i, name in enumerate(base.relations):
        renamed = base.relations[:i] + (name + "x",) + base.relations[i + 1:]
        variants.append(replace(base, relations=renamed))
    for i, (name, kind) in enumerate(base.attributes):
        for change in ((name + "x", kind), (name, kind + "x")):
            changed = base.attributes[:i] + (change,) + base.attributes[i + 1:]
            variants.append(replace(base, attributes=changed))
    for v in variants:
        assert ontology_digest(v) != ontology_digest(base)


@pytest.mark.parametrize("lookup, key, message", [
    ("relation_id", "very_near", "the ontology has no relation 'very_near'"),
    ("attribute_index", "speed", "the ontology has no attribute 'speed'"),
])
def test_a_missing_name_or_id_raises_ontology_mismatch(lookup, key, message):
    # once a bare KeyError
    with pytest.raises(OntologyMismatch) as e:
        getattr(MINIMAL, lookup)(key)
    assert str(e.value) == message


def test_ids_are_positions():
    # without very_near, approaching is relation 7 of 7: an id is its place,
    # so none can lie outside the codec's 1..|R|
    lacking = RelationOntology(tuple(r for r in RELATIONS if r != "very_near"),
                               default_ontology().attributes)
    assert lacking.relation_id("approaching") == 7 == lacking.num_relations
    graph = SceneGraph(np.zeros((2, 4)), ((1, 7, 0),))
    assert decode_frame(encode_frame(graph, lacking), lacking) == graph


def test_generating_with_an_ontology_that_lacks_a_relation_raises_ontology_mismatch():
    base = default_ontology()
    lacking = replace(base, relations=tuple(r for r in base.relations if r != "very_near"))
    with pytest.raises(OntologyMismatch, match="'very_near'"):
        generate(ScenarioSpec(num_sequences=1), lacking)
