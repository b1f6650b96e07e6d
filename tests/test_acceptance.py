"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance and runtime budget is pinned here.
"""

from __future__ import annotations

import json
import random
import re
import time
from contextlib import contextmanager
from collections import Counter

import pytest

from jspkdm import (
    BlockUnit,
    ClassUnit,
    KdmModel,
    MethodUnit,
    ModelIndex,
    NodeKind,
    ResolvedKind,
    StatementKind,
    add_method_call,
    deserialize_model,
    discover_model,
    extract_url_refs,
    parse_jsp,
    render_servlet_source,
    resolve_url,
    run_pipeline,
    scan_webapp,
    serialize_model,
    translate_page,
    write_outputs,
)
from jspkdm.jsp_parser import iter_nodes
from .conftest import ATTRIBUTE_OF, FIXTURE_MODEL_EDGES, TABLE2_PAIRS, build_fixture_webapp
from .genjsp import generate_page, random_page_path
from .genmodel import random_model
from .oracles import (
    check_span_coverage,
    emit_literals,
    model_to_dict,
    precedence_oracle,
    regex_table2_scan,
    strip_scripting_regions,
)
from .test_deployment_mapper import make_ref, random_pattern, random_url, table_of


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s")
    print(f"\nACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_powers_round_trip(powers_page):
    with criterion(1, "powers-of-2 translation round trip", 1.0):
        doc = parse_jsp(powers_page, "/powers.jsp")
        unit = translate_page(doc)
        expected = strip_scripting_regions(powers_page)
        emitted = "".join(s.text for s in unit.service_body
                          if s.kind is StatementKind.TEMPLATE_EMIT)
        assert emitted == expected  # byte-exact
        rendered = render_servlet_source(unit)
        assert len(re.findall(r"\bclass\s+\w+", rendered)) == 1
        assert "_jspService" in rendered
        assert "".join(emit_literals(rendered)) == expected


def test_criterion_2_table2_coverage(table2_page):
    with criterion(2, "ten dependency tag/attribute pairs extracted", 1.0):
        refs = extract_url_refs(parse_jsp(table2_page, "/t.jsp"))
        assert len(refs) == 10
        assert Counter((r.tag_kind, ATTRIBUTE_OF[r.tag_kind]) for r in refs) \
            == Counter(TABLE2_PAIRS)
        oracle = regex_table2_scan(table2_page)
        assert [(r.tag_kind, ATTRIBUTE_OF[r.tag_kind], r.raw_url) for r in refs] == oracle


def test_criterion_3_url_mapping_conformance():
    with criterion(3, "200 randomized resolutions agree with the oracle", 5.0):
        rng = random.Random(0xACCE55)
        agreements = 0
        for _ in range(200):
            patterns = []
            seen = set()
            for _ in range(rng.randint(0, 8)):
                p = random_pattern(rng)
                if p not in seen:
                    seen.add(p)
                    patterns.append((p, f"/t{len(patterns)}.jsp"))
            table = table_of(patterns)
            url = random_url(rng)
            expected = precedence_oracle(table.entries.items(), url)
            got = resolve_url(table, make_ref(url), "/index.jsp")
            if expected is None:
                assert got.kind is ResolvedKind.UNRESOLVED
            else:
                decl = expected[1]
                assert got.kind is ResolvedKind.INTERNAL_PAGE
                assert got.page_path == decl.jsp_file
            agreements += 1
        assert agreements == 200  # 100% agreement


def test_criterion_4_end_to_end_fixture(tmp_path):
    with criterion(4, "fixture webapp: hand-traced model, deterministic output", 5.0):
        root = build_fixture_webapp(tmp_path / "webapp")
        outputs = []
        for name in ("run1", "run2"):
            result = run_pipeline(scan_webapp(root))
            out = tmp_path / name
            write_outputs(result, out, ["xmi", "json", "dot"])
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]  # byte-identical consecutive runs
        assert set(outputs[0]) == {"model.xmi", "model.json", "deps.dot",
                                   "report.json"}

        page = {c.name: c.source_page for c in result.model.class_units}
        edges = {(page[src], page[dst], kind)
                 for src, dst, kind in result.model.relationships}
        assert edges == FIXTURE_MODEL_EDGES

        model_json = outputs[0]["model.json"].decode()
        model_xmi = outputs[0]["model.xmi"].decode()
        dot = outputs[0]["deps.dot"].decode()
        report = json.loads(outputs[0]["report.json"])
        for needle in ("uqam.ca", "dynamicTarget"):
            assert needle not in model_json and needle not in model_xmi
        assert "https://www.uqam.ca" in dot
        assert "unresolved: dynamic" in dot
        assert report["resolutions"]["external"] == 1
        assert report["resolutions"]["unresolved"] == 1
        assert report["external_refs"] == [
            ["/index.jsp", "https://www.uqam.ca", "a-href"]]
        assert report["unresolved_refs"] == [
            ["/detail.jsp", "${dynamicTarget}", "dynamic"]]


def test_criterion_5_call_injection_semantics():
    with criterion(5, "call injection: +1/duplicate/no-service semantics", 1.0):
        units = [translate_page(parse_jsp("<p>x</p>", path))
                 for path in ("/a.jsp", "/b.jsp")]
        model = discover_model(units)
        a, b = model.class_units
        block = a.method("_jspService").block
        elements_before = len(block.elements)
        report = add_method_call(ModelIndex(model), a, b, "jsp:include")
        assert report.status == "added"
        assert len(model.relationships) == 1
        new_elements = block.elements[elements_before:]
        assert len(new_elements) == 1 and new_elements[0].name == "newCall"

        repeat = add_method_call(ModelIndex(model), a, b, "jsp:include")
        assert repeat.status == "duplicate"
        assert len(model.relationships) == 1
        assert len(block.elements) == elements_before + 1

        orphan = ClassUnit("orphan", code_elements=[MethodUnit("_jspInit",
                                                               BlockUnit())])
        model2 = KdmModel("m", class_units=[orphan, a])
        snapshot = len(model2.relationships)
        with pytest.raises(ValueError):
            add_method_call(ModelIndex(model2), orphan, a, "form")
        assert len(model2.relationships) == snapshot
        assert len(orphan.code_elements[0].block.elements) == 0


def test_criterion_6_serialization():
    with criterion(6, "json round trip x100 and xmi reference integrity", 5.0):
        import xml.etree.ElementTree as ET

        rng = random.Random(0xD15C)
        for _ in range(100):
            model = random_model(rng)
            back = deserialize_model(serialize_model(model, "json"))
            assert model_to_dict(back) == model_to_dict(model)
            root = ET.fromstring(serialize_model(model, "xmi"))
            xmi_id = "{http://www.omg.org/XMI}id"
            class_ids = {el.attrib[xmi_id] for el in root.iter()
                         if el.tag == "classUnit"}
            rels = [el for el in root.iter() if el.tag == "codeRelationship"]
            assert len(rels) == len(model.relationships)
            for rel in rels:
                assert rel.attrib["from"] in class_ids
                assert rel.attrib["to"] in class_ids


def test_criterion_7_property_suites():
    with criterion(7, "randomized property suites (>=1000 cases)", 60.0):
        cases = 0

        # span coverage + kind counts + determinism over random pages
        rng = random.Random(0xAB1E)
        from .oracles import delimiter_scan
        for _ in range(350):
            source, expected = generate_page(rng)
            doc = parse_jsp(source, "/gen.jsp")
            check_span_coverage(doc)
            oracle = delimiter_scan(source)
            assert sum(n.kind is NodeKind.SCRIPTLET for n in iter_nodes(doc.nodes)) \
                == len(oracle["Scriptlet"]) == expected["Scriptlet"]
            assert parse_jsp(source, "/gen.jsp") == doc
            cases += 1

        # statement conservation + order preservation + template round trip
        rng = random.Random(0x7A57E)
        for _ in range(350):
            source, expected = generate_page(rng)
            doc = parse_jsp(source, "/gen.jsp")
            unit = translate_page(doc)
            emitted = "".join(s.text for s in unit.service_body
                              if s.kind is StatementKind.TEMPLATE_EMIT)
            assert emitted == strip_scripting_regions(source)
            starts = [s.origin_span[0] for s in unit.service_body]
            assert starts == sorted(starts) and len(set(starts)) == len(starts)
            inline = sum(1 for s in unit.service_body
                         if s.kind is StatementKind.INLINE_CODE)
            assert inline == expected["Scriptlet"]
            assert len(unit.declarations) == expected["Declaration"]
            cases += 1

        # normalization idempotence
        from jspkdm.deployment_mapper import normalize_url_path
        rng = random.Random(0x1DE)
        segments = ["a", "b.", "..", ".", "c.jsp", "", "x10", "y.."]
        for _ in range(250):
            raw = "/" + "/".join(rng.choice(segments)
                                 for _ in range(rng.randint(0, 6)))
            once, _, _ = normalize_url_path(raw)
            assert normalize_url_path(once) == (once, False, False)
            cases += 1

        # mangling uniqueness and determinism
        from jspkdm import mangle_class_name
        rng = random.Random(0x9A9)
        paths = set()
        while len(paths) < 150:
            paths.add(random_page_path(rng))
        names = {mangle_class_name(p) for p in paths}
        assert len(names) == len(paths)
        cases += len(paths)

        assert cases >= 1000
        print(f"\n  property cases executed: {cases}")
