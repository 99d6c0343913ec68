from __future__ import annotations

import json

import pytest

from finwadge import DocumentError, chain, fan
from finwadge.documents import (
    PosetDocument,
    document_from_dict,
    document_to_dict,
    load_document,
    parse_partition,
    parse_subset,
    poset_to_dot,
    save_document,
)


def test_round_trip(tmp_path):
    doc = PosetDocument(chain(3), {"tops": chain(3).mask(["2"])})
    path = tmp_path / "c3.json"
    save_document(doc, path)
    back = load_document(path)
    assert back.space.labels == doc.space.labels
    assert back.space.leq == doc.space.leq
    assert back.sets["tops"] == doc.sets["tops"]


def test_fan_document_round_trip(tmp_path):
    built = fan(2)
    path = tmp_path / "fan2.json"
    save_document(built, path)
    back = load_document(path)
    assert back.space.leq == built.space.leq
    assert back.sets["A"] == built.sets["A"]
    assert sorted(back.sets) == ["A", "B", "D0", "D1", "D2"]


def test_document_field_errors():
    with pytest.raises(DocumentError, match="elements"):
        document_from_dict({"covers": []})
    with pytest.raises(DocumentError, match=r"covers\[0\]"):
        document_from_dict({"elements": ["a"], "covers": [["a"]]})
    with pytest.raises(DocumentError, match="sets"):
        document_from_dict({"elements": ["a"], "covers": [], "sets": {"s": "a"}})


def test_set_members_must_be_names():
    # ints and booleans are not read as element indices
    for members in ([0, True], ["a", 1], [None]):
        data = {"elements": ["a", "b"], "covers": [["a", "b"]], "sets": {"A": members}}
        with pytest.raises(DocumentError, match=r"^sets\['A'\] must be an array of element names$"):
            document_from_dict(data)


def test_json_error_carries_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(DocumentError, match="line 2"):
        load_document(path)


def test_parse_subset_forms():
    doc = PosetDocument(chain(3), {"named": chain(3).mask(["1"])})
    assert parse_subset(doc, '["0", "2"]').indices() == (0, 2)
    assert parse_subset(doc, "011").indices() == (1, 2)
    assert parse_subset(doc, "named").indices() == (1,)
    with pytest.raises(DocumentError):
        parse_subset(doc, "01")
    with pytest.raises(DocumentError):
        parse_subset(doc, "nonsense")


def test_parse_partition():
    L3 = chain(3)
    mu = parse_partition(L3, "012", 3)
    assert mu.colors == (0, 1, 2)
    with pytest.raises(DocumentError):
        parse_partition(L3, "013", 3)
    with pytest.raises(DocumentError):
        parse_partition(L3, "01", 3)


def test_dot_output_edges_point_upward():
    text = poset_to_dot(chain(2))
    assert '"0" -> "1";' in text
    assert text.startswith("digraph")


def test_document_dict_is_canonical():
    d = document_to_dict(fan(1))
    # serializable and stable
    assert json.dumps(d, sort_keys=True) == json.dumps(json.loads(json.dumps(d)), sort_keys=True)
    assert d["elements"][0] == "bot"
