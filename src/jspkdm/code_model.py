"""KDM-subset code model: discovery, mutation and serialization.

The model keeps the few element kinds the recovery needs (class, method,
block, statement-level elements, class-to-class relationships). A
relationship is a ``(from class name, to class name, kind)`` string triple
in ``KdmModel.relationships``, and an element holds the indexes of its
relationships in that list, as the JSON form does. Discovery walks
translated servlet units; mutation injects call relationships found by the
dependency analysis; serialization writes a documented JSON form (with a
lossless round trip) and a simplified XMI dialect (see docs/MODEL_FORMATS.md).
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterable, Iterator
from io import BufferedIOBase
from json.encoder import encode_basestring_ascii

from ._records import fields_repr
from .jsp_parser import Span, normalize_page_path
from .servlet_translator import (
    DESTROY_METHOD,
    INIT_METHOD,
    SERVICE_METHOD,
    CodeStatement,
    ServletUnit,
    StatementKind,
)


class DuplicateClassName(ValueError):
    """Two units mangled to the same class name; signals a pipeline bug."""


class CodeElement:
    """A statement-level element. Slotted; ``relationships`` holds indexes
    into ``KdmModel.relationships`` and defaults to the shared ``()``: only
    injected "newCall" elements carry one."""

    __slots__ = ("name", "kind", "origin_span", "relationships")

    def __init__(self, name: str, kind: str, origin_span: Span | None = None,
                 relationships: tuple[int, ...] = ()):
        self.name = name
        self.kind = kind
        self.origin_span = origin_span
        self.relationships = relationships

    __repr__ = fields_repr


# The model's units and the model itself compare by identity. A list that is
# not given starts empty.


class BlockUnit:
    def __init__(self, elements: list[CodeElement] | None = None):
        self.elements = [] if elements is None else elements

    __repr__ = fields_repr


class MethodUnit:
    def __init__(self, name: str, block: BlockUnit | None = None):
        self.name = name
        self.block = BlockUnit() if block is None else block

    __repr__ = fields_repr


class ClassUnit:
    def __init__(self, name: str, source_page: str | None = None,
                 code_elements: list[MethodUnit] | None = None):
        self.name = name
        self.source_page = source_page
        self.code_elements = [] if code_elements is None else code_elements

    __repr__ = fields_repr

    def method(self, name: str) -> MethodUnit | None:
        for m in self.code_elements:
            if m.name == name:
                return m
        return None


class MutationReport:
    def __init__(self, status: str):
        self.status = status  # "added" | "duplicate"

    __repr__ = fields_repr


# The one package every class unit belongs to, in the model's order.
PACKAGE = "jsp"


class KdmModel:
    def __init__(self, name: str, class_units: list[ClassUnit] | None = None,
                 relationships: list[tuple[str, str, str]] | None = None):
        self.name = name
        self.class_units = [] if class_units is None else class_units
        self.relationships = [] if relationships is None else relationships

    __repr__ = fields_repr


# Each statement kind's string, read once. An element's name and kind are
# plain ``str``: the writers render them into heads they cache, and an
# f-string of a member reads differently across Python versions.
_KIND_TEXT = {kind: kind.value for kind in StatementKind}


def _block_from_statements(statements: list[CodeStatement]) -> BlockUnit:
    return BlockUnit([CodeElement(t := _KIND_TEXT[s.kind], t, s.origin_span)
                      for s in statements])


def discover_model(units: Iterable[ServletUnit], name: str = "webapp") -> KdmModel:
    """Build the code model from translated units: one class per page with
    the three life-cycle methods; ``_jspInit`` and ``_jspDestroy`` are empty,
    and ``_jspService``'s statements are mirrored at element granularity.

    ``units`` may be any iterable, a generator included; no unit is held
    past its own turn.
    """
    seen: set[str] = set()

    def class_of(unit: ServletUnit) -> ClassUnit:
        if unit.class_name in seen:
            raise DuplicateClassName(unit.class_name)
        seen.add(unit.class_name)
        return ClassUnit(
            name=unit.class_name,
            source_page=unit.source_page,
            code_elements=[
                MethodUnit(INIT_METHOD),
                MethodUnit(SERVICE_METHOD, _block_from_statements(unit.service_body)),
                MethodUnit(DESTROY_METHOD),
            ],
        )

    return KdmModel(name=name, class_units=list(map(class_of, units)))


class ModelIndex:
    """Lookup indexes over one model, for a batch of lookups and injections.

    Maps source pages to class units and holds the model's class units and
    relationship triples in sets, so that :func:`find_class_unit` and
    :func:`add_method_call` cost O(1) a call. The sets hold the model's own
    objects and no keys of their own, and the model does not keep the index:
    build one per batch, let it go after the batch, and change the model only
    through it meanwhile.
    """

    def __init__(self, model: KdmModel):
        self.model = model
        self.classes: dict[str | None, ClassUnit] = {}
        for cu in model.class_units:
            self.classes.setdefault(cu.source_page, cu)
        self.members = set(model.class_units)  # ClassUnit hashes by identity
        self.relationships = set(model.relationships)


def find_class_unit(index: ModelIndex, source_page: str) -> ClassUnit | None:
    """The class unit of a source page, tolerant of missing "/" prefixes."""
    return index.classes.get(normalize_page_path(source_page))


def add_method_call(index: ModelIndex, caller: ClassUnit, target: ClassUnit,
                    kind: str) -> MutationReport:
    """Record that ``caller``'s service method reaches ``target``.

    Appends the ``(caller name, target name, kind)`` triple to the model's
    relationships and a "newCall" element holding its index to the caller's
    service block. A repeated triple is reported as a duplicate and changes
    nothing. A class outside the model, or a caller without a service method,
    raises ``ValueError``.
    """
    if caller not in index.members or target not in index.members:
        raise ValueError("caller and target must belong to the model")
    service = caller.method(SERVICE_METHOD)
    if service is None:
        raise ValueError(f"caller {caller.name!r} has no {SERVICE_METHOD} method")
    rel = (caller.name, target.name, kind)
    if rel in index.relationships:
        return MutationReport("duplicate")
    relationships = index.model.relationships
    service.block.elements.append(CodeElement("newCall", "Call", None, (len(relationships),)))
    relationships.append(rel)
    index.relationships.add(rel)
    return MutationReport("added")


# -- serialization -------------------------------------------------------------

XMI_NS = "http://www.omg.org/XMI"
KDM_NS = "urn:jspkdm:code"


def _quoteattr(value: str) -> str:
    """``xml.sax.saxutils.quoteattr`` with chained ``str.replace``.

    Importing ``xml.sax`` also imports ``urllib.request`` and ``ssl``, which
    cost every run about a third of its start-up.
    """
    value = (value.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
             .replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;"))
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


# An element's head depends only on its (name, kind). Each writer keeps the
# last 256 it rendered, so a model whose element names are all distinct
# holds no head per element.


@functools.lru_cache(maxsize=256)
def _xmi_head(name: str, kind: str) -> str:
    return f'            <codeElement name={_quoteattr(name)} kind={_quoteattr(kind)}'


def _xmi_chunks(model: KdmModel) -> Iterator[str]:
    """The XMI document in pieces: the head, then one piece per class unit,
    then one per relationship; their concatenation is the document.

    An element's head, ``<codeElement name=… kind=…``, comes from
    :func:`_xmi_head`'s cache, and its span and relations are written after
    it.
    """
    yield (f'<?xml version="1.0" encoding="UTF-8"?>\n'
           f'<kdm:Segment xmlns:kdm={_quoteattr(KDM_NS)} xmlns:xmi={_quoteattr(XMI_NS)} '
           f'xmi:version="2.1" name={_quoteattr(model.name)}>\n'
           f'  <codeModel name={_quoteattr(model.name)}>\n'
           f'    <package name="{PACKAGE}">\n')
    for cu in model.class_units:
        attrs = f'xmi:id={_quoteattr(cu.name)} name={_quoteattr(cu.name)}'
        if cu.source_page is not None:
            attrs += f' sourcePage={_quoteattr(cu.source_page)}'
        lines = [f'      <classUnit {attrs}>']
        for method in cu.code_elements:
            mid = f"{cu.name}.{method.name}"
            lines.append(f'        <methodUnit xmi:id={_quoteattr(mid)} '
                         f'name={_quoteattr(method.name)}>')
            lines.append(f'          <blockUnit xmi:id={_quoteattr(mid + ".block")}>')
            for el in method.block.elements:
                line = _xmi_head(el.name, el.kind)
                span = el.origin_span
                if span is not None:
                    line = f'{line} spanStart="{span[0]}" spanEnd="{span[1]}"'
                if el.relationships:
                    refs = " ".join([f"rel.{i}" for i in el.relationships])
                    line += f' relations="{refs}"'
                lines.append(line + "/>")
            lines.append('          </blockUnit>')
            lines.append('        </methodUnit>')
        lines.append('      </classUnit>\n')
        yield "\n".join(lines)
    yield '    </package>\n'
    for i, (src, dst, kind) in enumerate(model.relationships):
        yield (f'    <codeRelationship xmi:id="rel.{i}" '
               f'from={_quoteattr(src)} to={_quoteattr(dst)} '
               f'kind={_quoteattr(kind)} label="newCall"/>\n')
    yield '  </codeModel>\n</kdm:Segment>\n'


def _json_array_chunks(items: Iterable[str], indent: str) -> Iterator[str]:
    """A JSON array of rendered items in pieces, one per item, laid out as
    ``json.dumps(indent=2)`` lays it out when the array's key sits at
    ``indent``."""
    sep = "\n" + indent + "  "
    first = True
    for item in items:
        yield ("[" if first else ",") + sep + item
        first = False
    yield "[]" if first else "\n" + indent + "]"


def _json_array(items: Iterable[str], indent: str) -> str:
    """:func:`_json_array_chunks` in one string."""
    return "".join(_json_array_chunks(items, indent))


@functools.lru_cache(maxsize=256)
def _json_head(name: str, kind: str) -> str:
    q = encode_basestring_ascii
    return (f'{{\n              "name": {q(name)},\n'
            f'              "kind": {q(kind)},\n'
            f'              "origin_span": ')


def _json_class(c: ClassUnit) -> str:
    q = encode_basestring_ascii
    methods = []
    for m in c.code_elements:
        elements = []
        for e in m.block.elements:
            head = _json_head(e.name, e.kind)
            span = e.origin_span
            rels = (_json_array(map(repr, e.relationships), " " * 14)
                    if e.relationships else "[]")
            if span is None:
                elements.append(f'{head}null,\n'
                                f'              "relationships": {rels}\n            }}')
            else:
                elements.append(f'{head}[\n                {span[0]!r},\n'
                                f'                {span[1]!r}\n              ],\n'
                                f'              "relationships": {rels}\n            }}')
        methods.append(
            f'{{\n          "name": {q(m.name)},\n'
            f'          "elements": {_json_array(elements, " " * 10)}\n        }}')
    source_page = "null" if c.source_page is None else q(c.source_page)
    return (f'{{\n      "name": {q(c.name)},\n'
            f'      "source_page": {source_page},\n'
            f'      "methods": {_json_array(methods, " " * 6)}\n    }}')


def _json_chunks(model: KdmModel) -> Iterator[str]:
    """The model's plain-data form (``tests/oracles.py``'s ``model_to_dict``)
    as ``json.dumps(indent=2)`` writes it, plus a newline, in pieces: the
    head, then one piece per class unit and one per relationship.

    Each object is one template carrying its depth's fixed indentation, and
    every string goes through the C-accelerated ``encode_basestring_ascii``
    that ``ensure_ascii=True`` uses. ``json.dumps`` with an indent runs the
    pure-Python encoder over a dict tree built first. An element object's
    head, its name, kind and ``"origin_span": ``, comes from
    :func:`_json_head`'s cache; its span, a pair, follows in one template,
    and an empty relationship list is ``[]``.
    """
    q = encode_basestring_ascii
    classes = _json_array([q(c.name) for c in model.class_units], " " * 6)
    yield (f'{{\n  "name": {q(model.name)},\n'
           f'  "packages": [\n    {{\n      "name": "{PACKAGE}",\n'
           f'      "classes": {classes}\n    }}\n  ],\n'
           f'  "class_units": ')
    yield from _json_array_chunks(map(_json_class, model.class_units), "  ")
    yield ',\n  "relationships": '
    yield from _json_array_chunks((
        f'{{\n      "from": {q(src)},\n'
        f'      "to": {q(dst)},\n'
        f'      "kind": {q(kind)},\n'
        f'      "label": "newCall"\n    }}'
        for src, dst, kind in model.relationships), "  ")
    yield "\n}\n"


_CHUNKS = {"json": _json_chunks, "xmi": _xmi_chunks}


def serialize_model(model: KdmModel, format: str = "json",
                    fh: BufferedIOBase | None = None) -> bytes | None:
    """Stable UTF-8 bytes for a model; insertion order everywhere.

    Given a binary file ``fh``, writes them there a class unit at a time and
    returns None, so the whole document is never held at once; otherwise
    returns them.
    """
    chunks = _CHUNKS.get(format)
    if chunks is None:
        raise ValueError(f"unknown serialization format: {format!r}")
    if fh is None:
        return b"".join([chunk.encode("utf-8") for chunk in chunks(model)])
    for chunk in chunks(model):
        fh.write(chunk.encode("utf-8"))
    return None


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a string, not {value!r}")
    return value


def _index(value, where: str) -> int:
    # bool is an int to Python but not an integer to the schema.
    if type(value) is not int or value < 0:
        raise ValueError(f"{where} must be a non-negative integer, not {value!r}")
    return value


def _name(value, names: set[str], where: str) -> str:
    """``value``, which must be one of ``names``."""
    if not isinstance(value, str) or value not in names:
        raise ValueError(f"{where} {value!r} names nothing")
    return value


def deserialize_model(data: bytes) -> KdmModel:
    """Rebuild a model from its JSON serialization.

    Names, spans and relationship indexes of the wrong type raise
    ``ValueError``: the writer emits them as they are, so a model read from
    such a file would serialize to invalid JSON. So do references to a class
    or relationship that the document does not hold, and any package list
    but the one "jsp" package holding every class unit in order, or any
    relationship label but "newCall": the writers emit only those.
    """
    doc = json.loads(data.decode("utf-8"))
    classes: list[ClassUnit] = []
    for cdoc in doc["class_units"]:
        methods = []
        for mdoc in cdoc["methods"]:
            elements = []
            for edoc in mdoc["elements"]:
                span = edoc["origin_span"]
                if span is not None:
                    if not isinstance(span, list) or len(span) != 2:
                        raise ValueError(f"origin_span must be two integers, not {span!r}")
                    span = tuple(_index(x, "origin_span") for x in span)
                elements.append(CodeElement(
                    _text(edoc["name"], "element name"), _text(edoc["kind"], "element kind"),
                    span, tuple([_index(i, "relationship index")
                                 for i in edoc["relationships"]])))
            methods.append(MethodUnit(_text(mdoc["name"], "method name"), BlockUnit(elements)))
        source_page = cdoc["source_page"]
        classes.append(ClassUnit(
            _text(cdoc["name"], "class name"),
            None if source_page is None else _text(source_page, "source_page"), methods))
    names = [c.name for c in classes]
    if doc["packages"] != [{"name": PACKAGE, "classes": names}]:
        raise ValueError(f'packages must be the one "{PACKAGE}" package '
                         f'holding every class unit in order')
    known = set(names)
    relationships = []
    for rdoc in doc["relationships"]:
        if rdoc["label"] != "newCall":
            raise ValueError(f'relationship label must be "newCall", not {rdoc["label"]!r}')
        relationships.append((_name(rdoc["from"], known, "relationship from"),
                              _name(rdoc["to"], known, "relationship to"),
                              _text(rdoc["kind"], "relationship kind")))
    unknown = next((i for c in classes for m in c.code_elements for e in m.block.elements
                    for i in e.relationships if i >= len(relationships)), None)
    if unknown is not None:
        raise ValueError(f"relationship index {unknown!r} names nothing")
    return KdmModel(name=_text(doc["name"], "model name"), class_units=classes,
                    relationships=relationships)
