from dataclasses import replace

import pytest

from gbsed.errors import OntologyMismatch
from gbsed.ontology import (
    Attribute,
    Relation,
    RelationOntology,
    default_ontology,
    ontology_digest,
)
from gbsed.scenarios import ScenarioSpec, generate
from gbsed.scene_graph import ATTRIBUTES, RELATIONS

MINIMAL = RelationOntology((Relation(1, "is_near"), Relation(2, "to_left_of")),
                           (Attribute(0, "class", "categorical"),))


def test_minimal_document():
    # the codec is general in |R| and d: lookups work on any ontology
    o = MINIMAL
    assert o.num_relations == 2
    assert o.num_attributes == 1
    assert o.relation_id("is_near") == 1
    assert o.relation_name(2) == "to_left_of"
    assert o.attribute_index("class") == 0


def test_default_fixture():
    o = default_ontology()
    assert o.num_relations == 8
    assert o.num_attributes == 4
    assert [r.name for r in o.relations] == [
        "is_near", "very_near", "to_left_of", "to_right_of",
        "in_front_of", "behind", "is_in", "approaching",
    ]
    assert [a.name for a in o.attributes] == ["class", "bev_x", "bev_y", "speed"]
    assert [a.kind for a in o.attributes] == [
        "categorical", "length-meters", "length-meters", "speed-mps",
    ]
    # the ontology is the relation rules' relations and the records' columns
    assert tuple(r.name for r in o.relations) == RELATIONS
    assert tuple(a.name for a in o.attributes) == ATTRIBUTES
    assert [r.id for r in o.relations] == list(range(1, 9))
    assert [a.index for a in o.attributes] == list(range(4))


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
    for i, r in enumerate(base.relations):
        renamed = base.relations[:i] + (replace(r, name=r.name + "x"),) + base.relations[i + 1:]
        variants.append(replace(base, relations=renamed))
    for i, a in enumerate(base.attributes):
        for change in (dict(name=a.name + "x"), dict(kind=a.kind + "x")):
            changed = base.attributes[:i] + (replace(a, **change),) + base.attributes[i + 1:]
            variants.append(replace(base, attributes=changed))
    for v in variants:
        assert ontology_digest(v) != ontology_digest(base)


@pytest.mark.parametrize("lookup, key, message", [
    ("relation_id", "very_near", "the ontology has no relation 'very_near'"),
    ("attribute_index", "speed", "the ontology has no attribute 'speed'"),
    ("relation_name", 0, "the ontology has no relation of id 0"),
    ("relation_name", 3, "the ontology has no relation of id 3"),
    ("relation_name", -1, "the ontology has no relation of id -1"),
])
def test_a_missing_name_or_id_raises_ontology_mismatch(lookup, key, message):
    # once a bare KeyError, or a negative index's wrong name, or IndexError
    with pytest.raises(OntologyMismatch) as e:
        getattr(MINIMAL, lookup)(key)
    assert str(e.value) == message


def test_relation_names_by_id_of_the_default_ontology():
    o = default_ontology()
    assert [o.relation_name(i) for i in range(1, 9)] == list(RELATIONS)
    for rel_id in (0, 9):  # 0 was "approaching" by a negative index, 9 an IndexError
        with pytest.raises(OntologyMismatch, match=f"id {rel_id}$"):
            o.relation_name(rel_id)


def test_generating_with_an_ontology_that_lacks_a_relation_raises_ontology_mismatch():
    base = default_ontology()
    lacking = replace(base, relations=tuple(r for r in base.relations if r.name != "very_near"))
    with pytest.raises(OntologyMismatch, match="'very_near'"):
        generate(ScenarioSpec(num_sequences=1), lacking)
