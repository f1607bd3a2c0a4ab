import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsed.errors import SchemaError
from gbsed.ontology import (
    DEFAULT_ONTOLOGY_TEXT,
    default_ontology,
    emit_ontology,
    load_ontology,
    ontology_digest,
)

MINIMAL = """\
relation 1 is_near
relation 2 to_left_of
attribute 0 class categorical
"""


def test_minimal_document():
    o = load_ontology(MINIMAL)
    assert o.num_relations == 2
    assert o.num_attributes == 1
    assert o.relation_id("is_near") == 1
    assert o.relation_name(2) == "to_left_of"


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


def test_gap_in_relation_ids_rejected():
    with pytest.raises(SchemaError):
        load_ontology("relation 1 a\nrelation 3 b\n")


@pytest.mark.parametrize("text", [
    "relation 1 a\nrelation 1 b\n",                       # duplicate id
    "relation 1 a\nrelation 2 a\n",                       # duplicate name
    "relation 1 a\nattribute 0 x categorical\nattribute 0 y categorical\n",
    "relation 1 a\nattribute 0 x speed\n",                # unknown kind
    "relation 1 a\nattribute 1 x categorical\n",          # index gap
    "relation 1 9bad\n",                                  # bad identifier
    "relation one a\n",                                   # non-integer id
    "relation 1\n",                                       # wrong arity
    "frobnicate 1 a\n",                                   # unknown directive
    "",                                                   # no relations at all
])
def test_malformed_documents_rejected(text):
    with pytest.raises(SchemaError):
        load_ontology(text)


def test_comments_and_blanks_ignored():
    o = load_ontology("# header\n\nrelation 1 a\n  \n# tail\n")
    assert o.num_relations == 1


def test_line_order_irrelevant():
    lines = [ln for ln in DEFAULT_ONTOLOGY_TEXT.splitlines() if ln and not ln.startswith("#")]
    assert load_ontology("\n".join(reversed(lines))) == default_ontology()


def test_emit_load_round_trip():
    o = default_ontology()
    assert load_ontology(emit_ontology(o)) == o
    assert ontology_digest(load_ontology(emit_ontology(o))) == ontology_digest(o)


def test_canonical_emission_shape():
    text = emit_ontology(load_ontology(MINIMAL))
    assert text == MINIMAL  # minimal doc is already canonical
    assert not text.endswith("\n\n")


def test_digest_is_64_bit_and_stable():
    d = ontology_digest(default_ontology())
    assert 0 <= d < 1 << 64
    # frozen value: the wire header embeds this digest, so it must never drift
    assert d == 0xA0B62C4E16A0B7D7


def test_digest_is_cached_per_ontology():
    o = default_ontology()
    assert ontology_digest(o) == 0xA0B62C4E16A0B7D7
    assert vars(o)["digest"] == 0xA0B62C4E16A0B7D7  # computed once, then kept
    again = load_ontology(emit_ontology(o))
    assert "digest" not in vars(again)
    assert ontology_digest(again) == ontology_digest(o)
    # the cached value is not a field: equality and hashing are unchanged
    assert again == o and hash(again) == hash(o)


def test_digest_sensitive_to_single_name_change():
    base = default_ontology()
    for i in range(base.num_relations):
        lines = emit_ontology(base).splitlines()
        lines[i] = lines[i] + "x"
        assert ontology_digest(load_ontology("\n".join(lines))) != ontology_digest(base)


_name = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(_name, min_size=1, max_size=10, unique=True),
    st.lists(st.tuples(_name, st.sampled_from(["categorical", "length-meters", "speed-mps"])),
             max_size=6, unique_by=lambda t: t[0]),
)
def test_round_trip_identity_property(rel_names, attrs):
    text = "\n".join(
        [f"relation {i + 1} {n}" for i, n in enumerate(rel_names)]
        + [f"attribute {i} {n} {k}" for i, (n, k) in enumerate(attrs)]
    )
    o = load_ontology(text)
    assert load_ontology(emit_ontology(o)) == o
