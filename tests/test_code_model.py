"""Code model tests: discovery, mutation semantics, serialization."""

from __future__ import annotations

import io
import json
import random
import tracemalloc
import xml.etree.ElementTree as ET
from xml.sax.saxutils import quoteattr

import pytest

from jspkdm import (
    BlockUnit,
    ClassUnit,
    CodeElement,
    DuplicateClassName,
    KdmModel,
    MethodUnit,
    ModelIndex,
    StatementKind,
    add_method_call,
    deserialize_model,
    discover_model,
    find_class_unit,
    parse_jsp,
    serialize_model,
    translate_page,
)
from jspkdm.code_model import _quoteattr
from .genmodel import mixed_models, random_model
from .oracles import model_to_dict, model_to_xmi


def model_from_pages(pages: dict[str, str]) -> KdmModel:
    units = [translate_page(parse_jsp(text, path))
             for path, text in sorted(pages.items())]
    return discover_model(units)


def two_class_model() -> KdmModel:
    return model_from_pages({"/a.jsp": "<p>a</p>", "/b.jsp": "<p>b</p>"})


class TestDiscovery:
    def test_powers_unit(self, powers_page):
        unit = translate_page(parse_jsp(powers_page, "/powers.jsp"))
        model = discover_model([unit])
        assert len(model.class_units) == 1
        cu = model.class_units[0]
        assert [m.name for m in cu.code_elements] == [
            "_jspInit", "_jspService", "_jspDestroy"]
        service = cu.method("_jspService")
        assert len(service.block.elements) == len(unit.service_body)
        kinds = [e.kind for e in service.block.elements]
        assert kinds == [s.kind.value for s in unit.service_body]

    def test_empty_model(self):
        model = discover_model([])
        assert model.class_units == []
        assert model.relationships == []

    def test_two_units_distinct_names(self):
        model = two_class_model()
        names = [c.name for c in model.class_units]
        assert len(set(names)) == 2

    def test_elements_hold_plain_strings(self, powers_page):
        # The writers cache what they render from an element's name and kind,
        # and an f-string of a StatementKind member differs across Pythons.
        page = powers_page + (
            '<jsp:useBean id="b" class="org.example.B"/>'
            '<jsp:setProperty name="b" property="p" value="1"/>'
            '<jsp:getProperty name="b" property="p"/><c:if test="t">x</c:if>')
        unit = translate_page(parse_jsp(page, "/p.jsp"), {"c:if": "org.example.IfTag"})
        elements = [e for m in discover_model([unit]).class_units[0].code_elements
                    for e in m.block.elements]
        assert {e.kind for e in elements} == {kind.value for kind in StatementKind}
        assert all(type(e.name) is str and type(e.kind) is str for e in elements)

    def test_duplicate_class_name_raises(self, powers_page):
        unit = translate_page(parse_jsp(powers_page, "/powers.jsp"))
        with pytest.raises(DuplicateClassName):
            discover_model([unit, unit])


class TestFindClassUnit:
    def test_exact_match(self):
        model = two_class_model()
        cu = find_class_unit(ModelIndex(model), "/a.jsp")
        assert cu is not None and cu.source_page == "/a.jsp"

    def test_missing_page(self):
        assert find_class_unit(ModelIndex(two_class_model()), "/missing.jsp") is None

    def test_normalization(self):
        model = two_class_model()
        # oracle: prefix "/" and collapse "//" yields the canonical key
        for raw in ("a.jsp", "//a.jsp", "/a.jsp"):
            normalized = "/" + raw.lstrip("/")
            while "//" in normalized:
                normalized = normalized.replace("//", "/")
            assert normalized == "/a.jsp"
            assert (find_class_unit(ModelIndex(model), raw)
                    is find_class_unit(ModelIndex(model), "/a.jsp"))


class TestAddMethodCall:
    def test_fresh_call_adds_one_of_each(self):
        model = two_class_model()
        a, b = model.class_units
        block = a.method("_jspService").block
        n_elements = len(block.elements)
        report = add_method_call(ModelIndex(model), a, b, "jsp:include")
        assert report.status == "added"
        assert len(model.relationships) == 1
        assert len(block.elements) == n_elements + 1
        new = block.elements[-1]
        assert new.name == "newCall"
        assert new.relationships[0] is model.relationships[0]
        rel = model.relationships[0]
        assert rel.from_class is a and rel.to_class is b
        assert rel.kind == "jsp:include"

    def test_repeat_is_reported_duplicate(self):
        model = two_class_model()
        a, b = model.class_units
        add_method_call(ModelIndex(model), a, b, "jsp:include")
        before = len(model.relationships)
        block_len = len(a.method("_jspService").block.elements)
        report = add_method_call(ModelIndex(model), a, b, "jsp:include")
        assert report.status == "duplicate"
        assert len(model.relationships) == before
        assert len(a.method("_jspService").block.elements) == block_len

    def test_different_kind_is_a_new_relationship(self):
        model = two_class_model()
        a, b = model.class_units
        add_method_call(ModelIndex(model), a, b, "jsp:include")
        report = add_method_call(ModelIndex(model), a, b, "a-href")
        assert report.status == "added"
        assert len(model.relationships) == 2

    def test_self_reference_allowed(self):
        model = two_class_model()
        a = model.class_units[0]
        report = add_method_call(ModelIndex(model), a, a, "a-href")
        assert report.status == "added"
        rel = model.relationships[0]
        assert rel.from_class is rel.to_class is a

    def test_missing_service_method_mutates_nothing(self):
        orphan = ClassUnit(name="orphan", code_elements=[
            MethodUnit("_jspInit", BlockUnit())])
        target = ClassUnit(name="target", code_elements=[
            MethodUnit("_jspService", BlockUnit())])
        model = KdmModel(name="m", class_units=[orphan, target])
        with pytest.raises(ValueError, match="has no _jspService method"):
            add_method_call(ModelIndex(model), orphan, target, "form")
        assert model.relationships == []
        assert [m.block.elements for m in orphan.code_elements] == [[]]

    def test_foreign_class_rejected(self):
        model = two_class_model()
        stranger = ClassUnit(name="x")
        with pytest.raises(ValueError):
            add_method_call(ModelIndex(model), model.class_units[0], stranger, "form")

    def test_referential_integrity_after_random_mutations(self):
        rng = random.Random(99)
        pages = {f"/p{i}.jsp": f"<p>{i}</p>" for i in range(6)}
        model = model_from_pages(pages)
        for _ in range(200):
            a = rng.choice(model.class_units)
            b = rng.choice(model.class_units)
            before = len(model.relationships)
            report = add_method_call(ModelIndex(model), a, b,
                                     rng.choice(["a-href", "form"]))
            delta = len(model.relationships) - before
            assert delta in (0, 1)
            assert (report.status == "added") == (delta == 1)
        members = {id(c) for c in model.class_units}
        for rel in model.relationships:
            assert id(rel.from_class) in members
            assert id(rel.to_class) in members


class TestSerialization:
    def test_empty_model_json_round_trip(self):
        model = discover_model([], name="empty")
        data = serialize_model(model, "json")
        back = deserialize_model(data)
        assert model_to_dict(back) == model_to_dict(model)
        assert model_to_dict(back)["class_units"] == []
        assert model_to_dict(back)["relationships"] == []

    def test_one_class_round_trip(self, powers_page):
        unit = translate_page(parse_jsp(powers_page, "/powers.jsp"))
        model = discover_model([unit])
        back = deserialize_model(serialize_model(model, "json"))
        assert model_to_dict(back) == model_to_dict(model)

    def test_xmi_relationship_ids_resolve(self):
        model = two_class_model()
        a, b = model.class_units
        add_method_call(ModelIndex(model), a, b, "jsp:forward")
        root = ET.fromstring(serialize_model(model, "xmi"))
        xmi = "{http://www.omg.org/XMI}"
        class_ids = {el.attrib[xmi + "id"] for el in root.iter()
                     if el.tag == "classUnit"}
        rels = [el for el in root.iter() if el.tag == "codeRelationship"]
        assert len(rels) == 1
        assert rels[0].attrib["from"] in class_ids
        assert rels[0].attrib["to"] in class_ids
        assert rels[0].attrib["kind"] == "jsp:forward"

    def test_serialization_deterministic(self, powers_page):
        def build():
            unit = translate_page(parse_jsp(powers_page, "/powers.jsp"))
            model = discover_model([unit])
            return model
        m1, m2 = build(), build()
        assert serialize_model(m1, "json") == serialize_model(m2, "json")
        assert serialize_model(m1, "xmi") == serialize_model(m2, "xmi")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            serialize_model(discover_model([]), "yaml")

    # Valid JSON that breaks the schema's types: the writer would emit these
    # values as they are, as ``True``, ``inf`` or a bare number.
    SERVICE = ("class_units", 0, "methods", 1, "elements")

    @pytest.mark.parametrize("path, value", [
        (("name",), 7),
        (("packages", 0, "name"), None),
        (("class_units", 0, "name"), 1.5),
        (("class_units", 0, "source_page"), ["/a.jsp"]),
        (("class_units", 0, "methods", 0, "name"), False),
        ((*SERVICE, 0, "kind"), {}),
        ((*SERVICE, 0, "origin_span"), [True, 1]),
        ((*SERVICE, 0, "origin_span"), [0, 1e400]),
        ((*SERVICE, 0, "origin_span"), [0, -1]),
        ((*SERVICE, 0, "origin_span"), [0, 1, 2]),
        ((*SERVICE, 0, "origin_span"), "0-1"),
        ((*SERVICE, 1, "relationships"), [0.0]),
        ((*SERVICE, 1, "relationships"), [-1]),
        (("relationships", 0, "label"), 3),
        # References to what the document does not hold.
        (("relationships", 0, "to"), "B"),
        (("packages", 0, "classes"), ["B"]),
        ((*SERVICE, 1, "relationships"), [1]),
    ])
    def test_ill_typed_document_rejected(self, path, value):
        model = two_class_model()
        a, b = model.class_units
        add_method_call(ModelIndex(model), a, b, "a-href")
        doc = json.loads(serialize_model(model, "json"))
        service = doc["class_units"][0]["methods"][1]["elements"]
        assert service[0]["origin_span"] is not None and service[1]["relationships"] == [0]
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError):
            deserialize_model(json.dumps(doc).encode())

    # Documents the writers never emit: every class sits in the one "jsp"
    # package, in order, and every relationship is a "newCall".
    @pytest.mark.parametrize("edit", [
        lambda doc: doc["packages"].clear(),
        lambda doc: doc["packages"].append({"name": "jsp", "classes": []}),
        lambda doc: doc["packages"][0].update(name="web"),
        lambda doc: doc["packages"][0].update(extra=[]),
        lambda doc: doc["packages"][0]["classes"].reverse(),
        lambda doc: doc["packages"][0]["classes"].pop(),
        lambda doc: doc["relationships"][0].update(label="include"),
    ], ids=["none", "two", "renamed", "extra key", "reordered", "missing class",
            "label"])
    def test_other_packages_or_labels_rejected(self, edit):
        model = two_class_model()
        a, b = model.class_units
        add_method_call(ModelIndex(model), a, b, "a-href")
        doc = json.loads(serialize_model(model, "json"))
        assert deserialize_model(json.dumps(doc).encode()) is not None
        edit(doc)
        with pytest.raises(ValueError):
            deserialize_model(json.dumps(doc).encode())


class TestRandomModelRoundTrip:
    def test_json_round_trip_100_models(self):
        rng = random.Random(0x5EED)
        for _ in range(100):
            model = random_model(rng)
            data = serialize_model(model, "json")
            back = deserialize_model(data)
            assert model_to_dict(back) == model_to_dict(model)
            # byte-determinism on the rebuilt model too
            assert serialize_model(back, "json") == data

    def test_json_output_matches_published_schema(self):
        from pathlib import Path

        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (Path(__file__).resolve().parent.parent / "docs"
             / "model.schema.json").read_text())
        rng = random.Random(0xD0C)
        for _ in range(25):
            document = json.loads(serialize_model(random_model(rng), "json"))
            jsonschema.validate(document, schema)


def writer_models():
    """The 400 models the writer tests run on."""
    return mixed_models(400, 0x15011)


class TestWritersAgreeWithTheStdlib:
    def test_json_is_the_bytes_of_json_dumps_of_to_dict(self):
        shapes = set()
        for model in writer_models():
            doc = model_to_dict(model)
            expected = (json.dumps(doc, indent=2) + "\n").encode()
            assert serialize_model(model, "json") == expected
            shapes.update(key for key, hit in [
                ("no classes", not doc["class_units"]),
                ("no page", any(c["source_page"] is None for c in doc["class_units"])),
                ("no methods", any(not c["methods"] for c in doc["class_units"])),
                ("no elements", any(not m["elements"] for c in doc["class_units"]
                                    for m in c["methods"])),
                ("no span", b'"origin_span": null' in expected),
                ("several relationships", any(
                    len(e["relationships"]) > 1 for c in doc["class_units"]
                    for m in c["methods"] for e in m["elements"])),
                ("lone surrogate", b"\\ud800" in expected),
                ("line separator", b"\\u2028" in expected),
            ] if hit)
        assert len(shapes) == 8

    def test_xmi_is_the_bytes_of_the_reference(self):
        written = 0
        kind_names: dict[str, set[str]] = {}
        for model in writer_models():
            try:
                expected = model_to_xmi(model).encode()
            except UnicodeEncodeError:  # a lone surrogate has no XML form
                with pytest.raises(UnicodeEncodeError):
                    serialize_model(model, "xmi")
                continue
            assert serialize_model(model, "xmi") == expected
            written += 1
            for e in (e for c in model.class_units for m in c.code_elements
                      for e in m.block.elements):
                kind_names.setdefault(e.kind, set()).add(e.name)
        assert written > 100
        # One kind under several names: a head keyed on the kind alone fails.
        assert len(kind_names["TemplateEmit"]) > 1

    def test_writing_to_a_file_gives_the_returned_bytes(self):
        written = 0
        for model in writer_models():
            for fmt in ("json", "xmi"):
                fh = io.BytesIO()
                try:
                    expected = serialize_model(model, fmt)
                except UnicodeEncodeError:  # a lone surrogate has no XML form
                    with pytest.raises(UnicodeEncodeError):
                        serialize_model(model, fmt, fh)
                    continue
                assert serialize_model(model, fmt, fh) is None
                assert fh.getvalue() == expected
                written += 1
        assert written > 500

    def test_quoteattr_matches_saxutils(self):
        rng = random.Random(0x9A7)
        alphabet = "ab&<>\"'\n\r\t é\x00"
        for _ in range(10_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            assert _quoteattr(text) == quoteattr(text)


class TestWriterMemory:
    @staticmethod
    def assert_written_a_class_unit_at_a_time(model, tmp_path):
        for fmt in ("json", "xmi"):
            with open(tmp_path / f"model.{fmt}", "wb") as fh:
                tracemalloc.start()
                try:
                    serialize_model(model, fmt, fh)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                size = fh.tell()
            assert size > 2_000_000
            # The whole document as pieces, one string and its bytes: about 3x.
            assert peak < 0.25 * size, f"{fmt}: peak {peak / size:.2f}x the bytes written"

    def test_writing_a_large_model_holds_a_class_unit_at_a_time(self, tmp_path):
        rng = random.Random(0xF11E)
        classes = [
            ClassUnit(f"jsp_page{i}_002ejsp", f"/page{i}.jsp", [
                MethodUnit("_jspInit"),
                MethodUnit("_jspService", BlockUnit([
                    CodeElement(kind, kind, (j * 40, j * 40 + rng.randint(1, 39)))
                    for j, kind in enumerate(rng.choices(
                        ["TemplateEmit", "InlineCode", "ExpressionEmit"], k=60))])),
                MethodUnit("_jspDestroy")])
            for i in range(400)]
        model = KdmModel("big", classes)
        for a in classes[:100]:
            add_method_call(ModelIndex(model), a, rng.choice(classes), "a-href")
        self.assert_written_a_class_unit_at_a_time(model, tmp_path)

    def test_distinct_element_names_are_not_all_held(self, tmp_path):
        # The writers keep each element head they render, but not one per
        # element when no two elements share a name; the heads they do not
        # keep are written all the same.
        model = KdmModel("distinct", [
            ClassUnit(f"C{i}", f"/page{i}.jsp", [MethodUnit("_jspService", BlockUnit([
                CodeElement(f"element{i}_{j}", f"Kind{i}_{j}", (j, j + 1))
                for j in range(60)]))])
            for i in range(400)])
        self.assert_written_a_class_unit_at_a_time(model, tmp_path)
        assert (tmp_path / "model.xmi").read_bytes() == model_to_xmi(model).encode()
        assert (tmp_path / "model.json").read_bytes() == (
            json.dumps(model_to_dict(model), indent=2) + "\n").encode()
