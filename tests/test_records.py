"""The contracts of the plain record classes: the value records are equal
and hashed by their fields and cannot change; the changeable records that
are equal by their fields are not hashable; the slotted records take no
attribute beyond their fields."""

from __future__ import annotations

import copy
import pickle

import pytest

from jspkdm import (ClassUnit, CodeElement, CodeRelationship, CodeStatement, Diagnostic,
                    JspDocument, JspNode, NodeKind, ResolvedKind, ResolvedTarget,
                    StatementKind, UrlRef)

A, B = ClassUnit("jsp_a"), ClassUnit("jsp_b")

# Each value record: its fields, and a second value for each field.
VALUES = {
    UrlRef: ({"tag_kind": "a-href", "raw_url": "/b.jsp", "dynamic": False, "span": (0, 5)},
             {"tag_kind": "form", "raw_url": "/d.jsp", "dynamic": True, "span": (1, 5)}),
    Diagnostic: ({"category": "io", "message": "m", "location": None},
                 {"category": "parse", "message": "n", "location": "/a.jsp"}),
    ResolvedTarget: ({"kind": ResolvedKind.INTERNAL_PAGE, "page_path": "/a.jsp",
                      "class_name": None, "reason": None},
                     {"kind": ResolvedKind.UNRESOLVED, "page_path": None,
                      "class_name": "p.C", "reason": "empty"}),
    CodeRelationship: ({"from_class": A, "to_class": B, "kind": "a-href"},
                       {"from_class": B, "to_class": A, "kind": "form"}),
}


@pytest.mark.parametrize("record", list(VALUES), ids=lambda r: r.__name__)
def test_value_records_compare_by_value_and_cannot_change(record):
    fields, others = VALUES[record]
    value = record(**fields)
    same = record(*fields.values())  # the fields are also positional, in this order
    assert same == value and hash(same) == hash(value) and same is not value
    assert len({value, same}) == 1
    for name, other in others.items():
        changed = record(**dict(fields, **{name: other}))
        assert changed != value, name
    assert value != tuple(fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, others[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in fields] == list(fields.values())
    copied = copy.copy(value)
    assert type(copied) is record and copied == value
    # A pickled relationship's classes come back as new objects, so it is
    # compared by what it shows.
    assert repr(pickle.loads(pickle.dumps(value))) == repr(value)


@pytest.mark.parametrize("record", [
    UrlRef("a-href", "/b.jsp"),
    Diagnostic("io", "m"),
    ResolvedTarget(ResolvedKind.EXTERNAL),
    CodeRelationship(A, B, "a-href"),
    JspNode(NodeKind.SCRIPTLET),
    CodeStatement(StatementKind.INLINE_CODE, "int a;"),
    CodeElement("InlineCode", "InlineCode"),
], ids=lambda r: type(r).__name__)
def test_slotted_records_refuse_unknown_attributes(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record).startswith(type(record).__name__ + "(")


# Each record equal by its fields but changeable: its fields, and a second
# value for each field.
MUTABLE_VALUES = {
    JspNode: ({"kind": NodeKind.SCRIPTLET, "name": "", "attributes": (),
               "children": (), "span": (0, 9), "inner_span": (2, 7)},
              {"kind": NodeKind.EXPRESSION, "name": "x", "attributes": (("a", "1"),),
               "children": (JspNode(NodeKind.TEMPLATE_TEXT),), "span": (1, 9),
               "inner_span": None}),
    CodeStatement: ({"kind": StatementKind.INLINE_CODE, "text": "int a;",
                     "metadata": None, "origin_span": (0, 6)},
                    {"kind": StatementKind.TEMPLATE_EMIT, "text": "int b;",
                     "metadata": {"k": "v"}, "origin_span": (0, 7)}),
    JspDocument: ({"page_path": "/a.jsp", "nodes": [JspNode(NodeKind.TEMPLATE_TEXT)],
                   "source": "a"},
                  {"page_path": "/b.jsp", "nodes": [], "source": "b"}),
}


@pytest.mark.parametrize("record", list(MUTABLE_VALUES), ids=lambda r: r.__name__)
def test_mutable_records_compare_by_value_and_are_unhashable(record):
    fields, others = MUTABLE_VALUES[record]
    value = record(**fields)
    same = record(*fields.values())  # the fields are also positional, in this order
    assert same == value and not same != value and same is not value
    for name, other in others.items():
        changed = record(**dict(fields, **{name: other}))
        assert changed != value and not changed == value, name
    assert value != tuple(fields.values())
    with pytest.raises(TypeError):
        hash(value)
    assert not hasattr(value, "__dict__")  # slotted, JspDocument included
    assert [getattr(value, name) for name in fields] == list(fields.values())
    shown = ", ".join(f"{n}={v!r}" for n, v in fields.items())
    assert repr(value) == f"{record.__name__}({shown})"
