"""Pipeline tests: scanning, the end-to-end fixture, DOT output, the CLI."""

from __future__ import annotations

import errno
import gc
import json
import os
import subprocess
import sys
import weakref
from itertools import groupby
from pathlib import Path
from xml.etree import ElementTree

import pytest

from jspkdm import (
    DependencyGraph,
    PipelineConfig,
    RootNotFound,
    emit_dot,
    run_pipeline,
    scan_webapp,
    serialize_model,
    write_outputs,
)
from jspkdm import pipeline, servlet_translator
from jspkdm.cli import main
from jspkdm.pipeline import NODE_CLASS, NODE_EXTERNAL, NODE_PAGE
from .conftest import (
    FIXTURE_CLASS_EDGES,
    FIXTURE_EXTERNAL_EDGES,
    FIXTURE_MODEL_EDGES,
    FIXTURE_UNRESOLVED,
    build_fixture_webapp,
)


def model_edge_set(model):
    return {(r.from_class.source_page, r.to_class.source_page, r.kind)
            for r in model.relationships}


def make_two_page_app(root: Path) -> Path:
    root.mkdir(parents=True)
    (root / "a.jsp").write_text('<jsp:forward page="/b"/>', encoding="utf-8")
    (root / "b.jsp").write_text("<html>b</html>", encoding="utf-8")
    (root / "WEB-INF").mkdir()
    (root / "WEB-INF" / "web.xml").write_text(
        """<web-app>
          <servlet><servlet-name>bee</servlet-name>
            <jsp-file>/b.jsp</jsp-file></servlet>
          <servlet-mapping><servlet-name>bee</servlet-name>
            <url-pattern>/b</url-pattern></servlet-mapping>
        </web-app>""", encoding="utf-8")
    return root


class TestScanWebApp:
    def test_fixture_inventory_sorted(self, tmp_path):
        root = make_two_page_app(tmp_path / "app")
        inventory = scan_webapp(root)
        assert inventory.jsp_pages == ["/a.jsp", "/b.jsp"]
        assert inventory.web_xml == "/WEB-INF/web.xml"

    def test_empty_directory(self, tmp_path):
        inventory = scan_webapp(tmp_path)
        assert inventory.jsp_pages == []
        assert inventory.java_sources == []
        assert inventory.web_xml is None

    def test_missing_root(self, tmp_path):
        with pytest.raises(RootNotFound):
            scan_webapp(tmp_path / "nope")

    def test_exclude_glob(self, tmp_path):
        root = tmp_path / "app"
        (root / "test").mkdir(parents=True)
        (root / "keep.jsp").write_text("x", encoding="utf-8")
        (root / "test" / "hidden.jsp").write_text("x", encoding="utf-8")
        full = scan_webapp(root)
        filtered = scan_webapp(root, exclude=["**/test/**"])
        # set-difference oracle against the unfiltered scan
        assert set(full.jsp_pages) - set(filtered.jsp_pages) == {"/test/hidden.jsp"}

    def test_include_glob(self, tmp_path):
        root = tmp_path / "app"
        root.mkdir()
        (root / "a.jsp").write_text("x", encoding="utf-8")
        (root / "b.jsp").write_text("x", encoding="utf-8")
        inventory = scan_webapp(root, include=["*a.jsp"])
        assert inventory.jsp_pages == ["/a.jsp"]


    def test_file_name_that_is_not_utf8_is_skipped(self, fixture_webapp, tmp_path):
        # os.walk hands such a name over with surrogate escapes, which no
        # artifact can carry; the scan skips it and says so.
        source_root = tmp_path / "java"
        source_root.mkdir()
        try:
            for directory, name in ((fixture_webapp, b"caf\xe9.jsp"),
                                    (source_root, b"Caf\xe9.java")):
                with open(os.path.join(os.fsencode(directory), name), "wb") as fh:
                    fh.write(b'<a href="/index.jsp">x</a>')
        except OSError:
            pytest.skip("the filesystem refuses file names that are not UTF-8")
        if "caf\udce9.jsp" not in os.listdir(fixture_webapp):
            pytest.skip("the filesystem rewrote the file name")
        out = tmp_path / "out"
        code = main(["analyze", str(fixture_webapp), "--out", str(out),
                     "--source-root", str(source_root)])
        assert code == 1
        for name in ("model.xmi", "model.json", "deps.dot", "report.json"):
            assert (out / name).is_file()
        report = json.loads((out / "report.json").read_text())
        assert report["pages"] == 5
        skipped = [d["location"] for d in report["diagnostics"]
                   if d["message"] == "file name is not valid UTF-8; skipped"]
        assert skipped == ["/caf\\xe9.jsp", source_root.as_posix() + "/Caf\\xe9.java"]

    def test_page_name_with_a_backslash_is_skipped(self, tmp_path):
        # A page named a\b.jsp would model as /a/b.jsp, the path of the real page.
        root = tmp_path / "app"
        (root / "a").mkdir(parents=True)
        (root / "a" / "b.jsp").write_text('<a href="/index.jsp">x</a>', encoding="utf-8")
        try:
            (root / "a\\b.jsp").write_text("<p>other</p>", encoding="utf-8")
        except OSError:
            pytest.skip("the filesystem refuses a backslash in a file name")
        if "a\\b.jsp" not in os.listdir(root):
            pytest.skip("the filesystem rewrote the file name")
        out = tmp_path / "out"
        assert main(["analyze", str(root), "--out", str(out)]) == 1
        for name in ("model.xmi", "model.json", "deps.dot", "report.json"):
            assert (out / name).is_file()
        report = json.loads((out / "report.json").read_text())
        assert (report["pages"], report["pages_parsed"]) == (1, 1)
        assert [(d["category"], d["message"], d["location"]) for d in report["diagnostics"]
                if d["category"] == "io"] == [
            ("io", "page name contains a backslash; skipped", "/a\\b.jsp")]
        model = json.loads((out / "model.json").read_text())
        assert [c["source_page"] for c in model["class_units"]] == ["/a/b.jsp"]

    @pytest.mark.parametrize("name, shown", [("a\x01b.jsp", "/a\\x01b.jsp"),
                                             ("a\ufffe.jsp", "/a\\ufffe.jsp")])
    def test_page_name_that_xml_cannot_carry_is_skipped(self, tmp_path, name, shown):
        # The page's path is an attribute of model.xmi, which XML 1.0 forbids
        # these characters in even as character references.
        root = tmp_path / "app"
        root.mkdir()
        (root / "index.jsp").write_text("<p>x</p>", encoding="utf-8")
        try:
            (root / name).write_text("<p>other</p>", encoding="utf-8")
        except OSError:
            pytest.skip("the filesystem refuses the file name")
        if name not in os.listdir(root):
            pytest.skip("the filesystem rewrote the file name")
        out = tmp_path / "out"
        assert main(["analyze", str(root), "--out", str(out)]) == 1
        for artifact in ("model.xmi", "model.json", "deps.dot", "report.json"):
            assert (out / artifact).is_file()
        ElementTree.parse(out / "model.xmi")
        report = json.loads((out / "report.json").read_text())
        assert [(d["category"], d["message"], d["location"])
                for d in report["diagnostics"]] == [
            ("io", "page name is not valid in XML; skipped", shown)]
        model = json.loads((out / "model.json").read_text())
        assert [c["source_page"] for c in model["class_units"]] == ["/index.jsp"]

    def test_root_name_that_xml_cannot_carry_names_the_model_readably(self, tmp_path):
        root = tmp_path / "r\x02oot"
        try:
            root.mkdir()
        except OSError:
            pytest.skip("the filesystem refuses the directory name")
        (root / "index.jsp").write_text("<p>x</p>", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["analyze", str(root), "--out", str(out)]) == 0
        segment = ElementTree.parse(out / "model.xmi").getroot()
        assert segment.get("name") == "r\\x02oot"

    def test_root_name_that_is_not_utf8_names_the_model_readably(self, tmp_path):
        root = os.path.join(os.fsencode(tmp_path), b"caf\xe9")
        try:
            os.mkdir(root)
        except OSError:
            pytest.skip("the filesystem refuses file names that are not UTF-8")
        with open(os.path.join(root, b"index.jsp"), "wb") as fh:
            fh.write(b"<p>x</p>")
        result = run_pipeline(scan_webapp(os.fsdecode(root)))
        assert result.model.name == "caf\\xe9"
        assert b'name="caf\\xe9"' in serialize_model(result.model, "xmi")


class TestRunPipeline:
    def test_two_page_forward(self, tmp_path):
        root = make_two_page_app(tmp_path / "app")
        result = run_pipeline(scan_webapp(root))
        graph = result.graph
        assert model_edge_set(result.model) == {("/a.jsp", "/b.jsp", "jsp:forward")}
        assert [e for e in graph.edges if graph.nodes[e[1]] == NODE_PAGE] == [
            ("/a.jsp", "/b.jsp", "jsp:forward")]

    def test_powers_only_no_dependencies(self, tmp_path, powers_page):
        root = tmp_path / "app"
        root.mkdir()
        (root / "powers.jsp").write_text(powers_page, encoding="utf-8")
        result = run_pipeline(scan_webapp(root))
        assert len(result.model.class_units) == 1
        assert result.model.relationships == []
        assert result.report["url_refs"] == 0

    def test_external_href_stays_out_of_model(self, tmp_path):
        root = tmp_path / "app"
        root.mkdir()
        (root / "a.jsp").write_text('<a href="https://www.uqam.ca">u</a>',
                                    encoding="utf-8")
        result = run_pipeline(scan_webapp(root))
        assert result.model.relationships == []
        assert result.graph.edges == {
            ("/a.jsp", "https://www.uqam.ca", "a-href")}
        assert result.graph.nodes["https://www.uqam.ca"] == NODE_EXTERNAL

    def test_network_path_href_is_external(self, tmp_path):
        # "//host/path" names another host, even with a default "/" servlet
        # that would take every path of this one.
        root = tmp_path / "app"
        (root / "WEB-INF").mkdir(parents=True)
        (root / "a.jsp").write_text('<a href="//cdn.example.com/lib.js">l</a>',
                                    encoding="utf-8")
        (root / "WEB-INF" / "web.xml").write_text(
            """<web-app>
              <servlet><servlet-name>d</servlet-name>
                <servlet-class>com.example.Default</servlet-class></servlet>
              <servlet-mapping><servlet-name>d</servlet-name>
                <url-pattern>/</url-pattern></servlet-mapping>
            </web-app>""", encoding="utf-8")
        result = run_pipeline(scan_webapp(root))
        assert result.report["external_refs"] == [
            ["/a.jsp", "//cdn.example.com/lib.js", "a-href"]]
        assert result.report["resolutions"]["internal_class"] == 0
        assert result.graph.edges == {("/a.jsp", "//cdn.example.com/lib.js", "a-href")}

    def test_fixture_webapp_hand_trace(self, fixture_webapp):
        result = run_pipeline(scan_webapp(fixture_webapp))
        assert model_edge_set(result.model) == FIXTURE_MODEL_EDGES
        graph = result.graph
        page_edges = {e for e in graph.edges if graph.nodes[e[1]] == NODE_PAGE}
        class_edges = {e for e in graph.edges if graph.nodes[e[1]] == NODE_CLASS}
        external_edges = {e for e in graph.edges
                          if graph.nodes[e[1]] == NODE_EXTERNAL}
        assert page_edges == FIXTURE_MODEL_EDGES
        assert class_edges == FIXTURE_CLASS_EDGES
        assert external_edges == FIXTURE_EXTERNAL_EDGES
        assert set(graph.unresolved) == FIXTURE_UNRESOLVED
        assert result.diagnostics == []

    def test_model_graph_consistency(self, fixture_webapp):
        result = run_pipeline(scan_webapp(fixture_webapp))
        graph = result.graph
        assert model_edge_set(result.model) == {
            e for e in graph.edges if graph.nodes[e[1]] == NODE_PAGE}

    def test_duplicate_refs_collapse(self, tmp_path):
        root = tmp_path / "app"
        root.mkdir()
        (root / "a.jsp").write_text(
            '<a href="/b.jsp">1</a><a href="/b.jsp">2</a>', encoding="utf-8")
        (root / "b.jsp").write_text("b", encoding="utf-8")
        result = run_pipeline(scan_webapp(root))
        assert len(result.model.relationships) == 1
        assert result.report["duplicate_refs"] == 1
        assert len(result.graph.edges) == 1

    def test_unreadable_link_leaves_its_page_modelled(self, tmp_path):
        # HTML is template text: a link the tag scanner cannot read costs a
        # diagnostic, not the page.
        root = make_two_page_app(tmp_path / "app")
        (root / "c.jsp").write_text('<a href="x>link <jsp:forward page=\'/b\'/>',
                                    encoding="utf-8")
        result = run_pipeline(scan_webapp(root))
        assert result.report["pages_failed"] == []
        assert {c.source_page for c in result.model.class_units} == {
            "/a.jsp", "/b.jsp", "/c.jsp"}
        assert [(d.category, d.location) for d in result.diagnostics] == [
            ("extraction", "/c.jsp@0")]
        assert ("/c.jsp", "/b.jsp", "jsp:forward") in model_edge_set(result.model)

    def test_parse_failure_is_isolated(self, fixture_webapp):
        clean = run_pipeline(scan_webapp(fixture_webapp))
        (fixture_webapp / "powers.jsp").write_text("<% broken", encoding="utf-8")
        result = run_pipeline(scan_webapp(fixture_webapp))
        assert result.report["pages_failed"] == ["/powers.jsp"]
        assert any(d.category == "parse" for d in result.diagnostics)
        page_names = {c.source_page for c in result.model.class_units}
        assert page_names == {"/index.jsp", "/header.jsp", "/detail.jsp",
                              "/error.jsp"}
        # the broken page's forward target now misses the model
        assert ("/detail.jsp", "${dynamicTarget}", "dynamic") in result.graph.unresolved
        assert ("/detail.jsp", "/powers", "target-page-not-in-model") \
            in result.graph.unresolved
        # every other page's entries are unchanged
        expected = {e for e in FIXTURE_MODEL_EDGES if e[1] != "/powers.jsp"}
        assert model_edge_set(result.model) == expected
        clean_others = {e for e in clean.graph.edges if "/powers" not in e[1]}
        kept_others = {e for e in result.graph.edges if "/powers" not in e[1]}
        assert clean_others == kept_others

    def test_deep_page_is_isolated(self, tmp_path):
        # 3000 nested actions exceed the recursion limit of the recursive
        # parser; that costs the page itself and nothing else.
        root = make_two_page_app(tmp_path / "app")
        clean = run_pipeline(scan_webapp(root))
        (root / "deep.jsp").write_text(
            '<c:if test="x">' * 3000 + '<a href="/b.jsp">b</a>', encoding="utf-8")
        result = run_pipeline(scan_webapp(root))
        assert result.report["pages"] == 3
        assert result.report["pages_failed"] == ["/deep.jsp"]
        assert [(d.category, d.location) for d in result.diagnostics] \
            == [("parse", "/deep.jsp")]
        assert result.diagnostics[0].message.startswith("RecursionError: ")
        assert serialize_model(result.model) == serialize_model(clean.model)
        assert emit_dot(result.graph) == emit_dot(clean.graph)

    def test_deep_page_message_ignores_the_callers_depth(self, tmp_path):
        # Python words a RecursionError by where the limit is hit, and that
        # moves with the frames above run_pipeline.
        root = tmp_path / "app"
        root.mkdir()
        (root / "deep.jsp").write_text('<c:if test="x">' * 3000, encoding="utf-8")
        inventory = scan_webapp(root)

        def run_under(frames: int):
            return run_under(frames - 1) if frames else run_pipeline(inventory)

        messages = {d.message for extra in range(8) for d in run_under(extra).diagnostics}
        assert messages == {"RecursionError: maximum recursion depth exceeded"}

    def test_failed_translation_keeps_its_earlier_diagnostics(self, tmp_path, monkeypatch):
        # The translator reports into the run's sink as it goes, so what it
        # found before a fault stays, ahead of the page's parse diagnostic.
        def fail(node, src, known_tag_handlers):
            raise RuntimeError(f"no handler for {node.name}")

        monkeypatch.setattr(servlet_translator, "_handler_call", fail)
        root = make_two_page_app(tmp_path / "app")
        (root / "bad.jsp").write_text('<jsp:useBean id="b" /><x:tag />', encoding="utf-8")
        result = run_pipeline(scan_webapp(root))
        assert result.report["pages_failed"] == ["/bad.jsp"]
        assert [(d.category, d.message, d.location) for d in result.diagnostics] == [
            ("translation", "jsp:useBean without class attribute", "/bad.jsp@0"),
            ("parse", "RuntimeError: no handler for x:tag", "/bad.jsp"),
        ]

    def test_no_page_outlives_its_iteration(self, fixture_webapp, tmp_path, monkeypatch):
        # Phase 1 holds one page's document and unit at a time: when the next
        # page is parsed or translated, every earlier one is already freed,
        # including those of pages that failed to parse or to translate.
        (fixture_webapp / "broken.jsp").write_text("<% nope", encoding="utf-8")
        (fixture_webapp / "faulty.jsp").write_text("<p>x</p><x:fail />", encoding="utf-8")
        handler_call = servlet_translator._handler_call

        def fail_on_x(node, src, known_tag_handlers):
            if node.name == "x:fail":
                raise RuntimeError("no handler")
            return handler_call(node, src, known_tag_handlers)

        monkeypatch.setattr(servlet_translator, "_handler_call", fail_on_x)
        docs: list[weakref.ref] = []
        units: list[weakref.ref] = []
        alive: list[tuple[str, int, int]] = []
        parse_jsp, translate_page = pipeline.parse_jsp, pipeline.translate_page

        def count_alive(call: str, earlier_docs: list) -> None:
            found = (sum(r() is not None for r in earlier_docs),
                     sum(r() is not None for r in units))
            if any(found):
                alive.append((call, *found))

        def parse(text, page):
            count_alive(f"parse {page}", docs)
            doc = parse_jsp(text, page)
            docs.append(weakref.ref(doc))
            return doc

        def translate(doc, *args):
            count_alive(f"translate {doc.page_path}", docs[:-1])
            unit = translate_page(doc, *args)
            units.append(weakref.ref(unit))
            return unit

        monkeypatch.setattr(pipeline, "parse_jsp", parse)
        monkeypatch.setattr(pipeline, "translate_page", translate)
        config = PipelineConfig(servlet_src_out=str(tmp_path / "servlets"))
        result = run_pipeline(scan_webapp(fixture_webapp), config)
        assert result.report["pages_failed"] == ["/broken.jsp", "/faulty.jsp"]
        assert (len(docs), len(units)) == (6, 5)
        assert alive == []

    def test_each_page_resolves_its_references_in_its_own_turn(self, fixture_webapp,
                                                               monkeypatch):
        # No reference outlives its page's turn: every resolution for a page
        # comes before the next page is parsed.
        calls: list[tuple[str, str]] = []
        parse_jsp, resolve_url = pipeline.parse_jsp, pipeline.resolve_url

        def parse(text, page):
            calls.append(("parse", page))
            return parse_jsp(text, page)

        def resolve(table, ref, source_page, *args):
            calls.append(("resolve", source_page))
            return resolve_url(table, ref, source_page, *args)

        monkeypatch.setattr(pipeline, "parse_jsp", parse)
        monkeypatch.setattr(pipeline, "resolve_url", resolve)
        run_pipeline(scan_webapp(fixture_webapp))
        turns: list[tuple[str, list[str]]] = []  # (page parsed, pages resolved after it)
        for call, page in calls:
            if call == "parse":
                turns.append((page, []))
            else:
                turns[-1][1].append(page)
        assert [resolved for _, resolved in turns if resolved] == [
            ["/detail.jsp"] * 2, ["/header.jsp"], ["/index.jsp"] * 5]
        assert all(resolved == [page] * len(resolved) for page, resolved in turns)

    def test_report_lists_scan_table_then_each_page_in_turn(self, tmp_path):
        # Each diagnostic is listed when it is found: the scan's, the
        # table's, then each page's, in inventory order.
        root = tmp_path / "app"
        (root / "WEB-INF").mkdir(parents=True)
        (root / "WEB-INF" / "web.xml").write_text(
            """<web-app><servlet-mapping><servlet-name>ghost</servlet-name>
              <url-pattern>/g</url-pattern></servlet-mapping></web-app>""",
            encoding="utf-8")
        (root / "a.jsp").write_text('<form action="../../x.jsp" method="delete">',
                                    encoding="utf-8")
        (root / "b.jsp").write_text("<% nope", encoding="utf-8")
        (root / "c.jsp").write_text('<a href="/../c.jsp">c</a>', encoding="utf-8")
        (root / "d\\e.jsp").write_text("x", encoding="utf-8")
        diagnostics = []
        result = run_pipeline(scan_webapp(root, diagnostics=diagnostics),
                              diagnostics=diagnostics)
        clamped = '".." escapes the context root; clamped'
        assert result.report["diagnostics"] == [
            {"category": "io", "message": "page name contains a backslash; skipped",
             "location": "/d\\e.jsp"},
            {"category": "mapping",
             "message": "url-pattern '/g' maps to undeclared servlet 'ghost'; dropped"},
            {"category": "extraction", "message": "unsupported form method 'delete'",
             "location": "/a.jsp@0"},
            {"category": "resolution", "message": clamped,
             "location": "/a.jsp:'../../x.jsp'"},
            {"category": "parse", "message": "/b.jsp@0: unterminated scriptlet",
             "location": "/b.jsp"},
            {"category": "resolution", "message": clamped, "location": "/c.jsp:'/../c.jsp'"},
        ]

    def test_each_page_lists_its_diagnostics_together_in_inventory_order(self,
                                                                           tmp_path):
        # Scan, table, translation, extraction, parse and resolution
        # diagnostics mixed: the table's come before any page's, and each
        # page's are contiguous, in inventory order, as each stage found them.
        root = tmp_path / "app"
        (root / "WEB-INF").mkdir(parents=True)
        (root / "WEB-INF" / "web.xml").write_text(
            """<web-app>
              <servlet><servlet-name>s</servlet-name><jsp-file>/e.jsp</jsp-file></servlet>
              <servlet-mapping><servlet-name>s</servlet-name>
                <url-pattern>/x/*</url-pattern><url-pattern>*.jsp</url-pattern>
                <url-pattern>bad</url-pattern></servlet-mapping>
              <servlet-mapping><servlet-name>ghost</servlet-name>
                <url-pattern>/g</url-pattern></servlet-mapping>
            </web-app>""", encoding="utf-8")
        (root / "a.jsp").write_text(
            '<jsp:useBean id="b"/><a>no link</a>\n'
            '<a href="/x/p.jsp">p</a><a href="../../q.jsp">q</a>', encoding="utf-8")
        (root / "b.jsp").write_text("<% nope", encoding="utf-8")
        (root / "c.jsp").write_text('<form action="/x/y.jsp." method="delete">f</form>',
                                    encoding="utf-8")
        (root / "d\\e.jsp").write_text("x", encoding="utf-8")
        (root / "e.jsp").write_text("plain", encoding="utf-8")
        diagnostics = []
        inventory = scan_webapp(root, diagnostics=diagnostics)
        result = run_pipeline(inventory, diagnostics=diagnostics)

        def page_of(d):
            location = (d.location or "").partition("@")[0].partition(":")[0]
            return location if location in inventory.jsp_pages else None

        pages = [page_of(d) for d in result.diagnostics]
        first_page = next(i for i, p in enumerate(pages) if p)
        assert [d.category for d in result.diagnostics[:first_page]] == [
            "io", "mapping", "mapping"]
        assert [p for p, _ in groupby(pages[first_page:])] == ["/a.jsp", "/b.jsp", "/c.jsp"]
        assert [(d.category, page) for d, page in zip(result.diagnostics, pages)
                if page] == [
            ("translation", "/a.jsp"), ("extraction", "/a.jsp"),
            ("resolution", "/a.jsp"), ("resolution", "/a.jsp"),
            ("parse", "/b.jsp"),
            ("extraction", "/c.jsp"), ("resolution", "/c.jsp"), ("resolution", "/c.jsp")]

    def test_report_totals_agree_with_the_model(self, fixture_webapp):
        (fixture_webapp / "broken.jsp").write_text("<% nope", encoding="utf-8")
        result = run_pipeline(scan_webapp(fixture_webapp))
        report, model = result.report, result.model
        assert report["pages_failed"] == ["/broken.jsp"]
        assert report["pages"] == report["pages_parsed"] + len(report["pages_failed"]) == 6
        assert report["url_refs"] == sum(report["resolutions"].values())
        assert report["relationships"] == len(model.relationships) == len(FIXTURE_MODEL_EDGES)
        statements = [e for c in model.class_units for m in c.code_elements
                      if m.name == "_jspService" for e in m.block.elements
                      if e.name != "newCall"]
        assert report["statements"] == len(statements) > 0

    def test_a_page_named_as_a_servlet_class_stays_a_page_node(self, tmp_path):
        # Whether a page's turn comes before or after the edge to the class
        # of the same name, the graph keeps the page.
        root = tmp_path / "app"
        (root / "WEB-INF").mkdir(parents=True)
        (root / "WEB-INF" / "web.xml").write_text(
            """<web-app>
              <servlet><servlet-name>go</servlet-name>
                <servlet-class>/b.jsp</servlet-class></servlet>
              <servlet-mapping><servlet-name>go</servlet-name>
                <url-pattern>/go</url-pattern></servlet-mapping>
            </web-app>""", encoding="utf-8")
        (root / "a.jsp").write_text('<a href="/go">go</a>', encoding="utf-8")
        (root / "b.jsp").write_text("b", encoding="utf-8")
        (root / "c.jsp").write_text('<a href="/go">go</a>', encoding="utf-8")
        result = run_pipeline(scan_webapp(root))
        dot = emit_dot(result.graph).splitlines()
        assert [line for line in dot if "/b.jsp" in line] == [
            '  "/b.jsp";',
            '  "/a.jsp" -> "/b.jsp" [label="a-href"];',
            '  "/c.jsp" -> "/b.jsp" [label="a-href"];',
        ]

    def test_ill_formed_web_xml_leaves_the_annotations_mapped(self, fixture_webapp):
        (fixture_webapp / "WEB-INF" / "web.xml").write_text("<web-app><servlet>",
                                                           encoding="utf-8")
        result = run_pipeline(scan_webapp(fixture_webapp))
        assert [(d.category, d.location) for d in result.diagnostics] == [
            ("web-xml", "/WEB-INF/web.xml")]
        assert ("/index.jsp", "com.example.SearchServlet", "form") in result.graph.edges
        assert result.report["resolutions"]["internal_class"] == 1

    def test_missing_source_root_is_reported(self, fixture_webapp, tmp_path):
        missing = tmp_path / "no-such-dir"
        result = run_pipeline(scan_webapp(fixture_webapp),
                              PipelineConfig(source_roots=[str(missing)]))
        assert [d.to_dict() for d in result.diagnostics] == [
            {"category": "io", "message": "source root not found",
             "location": str(missing)}]

    def test_page_that_is_not_utf8_fails_alone(self, fixture_webapp):
        (fixture_webapp / "latin1.jsp").write_bytes(b"<p>caf\xe9</p>")
        result = run_pipeline(scan_webapp(fixture_webapp))
        (diagnostic,) = result.diagnostics
        assert (diagnostic.category, diagnostic.location) == ("io", "/latin1.jsp")
        assert diagnostic.message.startswith("cannot read /latin1.jsp: ")
        assert result.report["pages_failed"] == ["/latin1.jsp"]
        assert result.report["pages_parsed"] == 5
        assert model_edge_set(result.model) == FIXTURE_MODEL_EDGES
        # Read with the encoding it was written in, it parses.
        result = run_pipeline(scan_webapp(fixture_webapp), PipelineConfig(encoding="latin-1"))
        assert result.diagnostics == [] and result.report["pages_parsed"] == 6

    def test_spans_of_a_crlf_page_index_the_file(self, tmp_path):
        root = tmp_path / "app"
        root.mkdir()
        (root / "b.jsp").write_bytes(b"b")
        (root / "a.jsp").write_bytes(
            b'<html>\r\n<% int a = 1; %>\r\n<%= a %>\r\n<jsp:useBean id="b"/>\r\n'
            b'<a name="top">x</a>\r\n<jsp:include page="/b.jsp"/>\r\n')
        text = (root / "a.jsp").read_bytes().decode("utf-8")
        out = tmp_path / "srcgen"
        result = run_pipeline(scan_webapp(root), PipelineConfig(servlet_src_out=str(out)))
        (service,) = [m for c in result.model.class_units if c.source_page == "/a.jsp"
                      for m in c.code_elements if m.name == "_jspService"]
        assert [text[e.origin_span[0]:e.origin_span[1]] for e in service.block.elements
                if e.origin_span is not None] == [
            "<html>\r\n", "<% int a = 1; %>", "\r\n", "<%= a %>",
            '\r\n<jsp:useBean id="b"/>\r\n<a name="top">x</a>\r\n'
            '<jsp:include page="/b.jsp"/>\r\n']
        offsets = {d.message: int(d.location.rpartition("@")[2])
                   for d in result.diagnostics}
        assert text.startswith("<jsp:useBean", offsets["jsp:useBean without class attribute"])
        assert text.startswith("<a ", offsets["<a> without href attribute"])
        # Template text keeps the page's line ends, as Jasper writes them.
        source = (out / "jsp_a_002ejsp.java").read_text(encoding="utf-8")
        assert 'out.print("<html>\\r\\n");' in source

    def test_java_source_with_lone_cr_line_ends_keeps_its_annotation(self, tmp_path):
        root = tmp_path / "app"
        (root / "WEB-INF" / "classes").mkdir(parents=True)
        (root / "a.jsp").write_text('<form action="/go">f</form>', encoding="utf-8")
        # Read with universal newlines, the line comment ends at its "\r".
        (root / "WEB-INF" / "classes" / "Go.java").write_bytes(
            b'package x; // go\r@WebServlet("/go")\rpublic class Go {}\r')
        result = run_pipeline(scan_webapp(root))
        assert ("/a.jsp", "x.Go", "form") in result.graph.edges

    def test_file_gone_after_the_scan_is_named_by_its_webapp_path(self, fixture_webapp,
                                                                  tmp_path):
        inventory = scan_webapp(fixture_webapp)
        java = "/WEB-INF/src/com/example/SearchServlet.java"
        for rel in ("/powers.jsp", java):
            (fixture_webapp / rel.lstrip("/")).unlink()
        result = run_pipeline(inventory)
        missing = os.strerror(errno.ENOENT)
        assert [d.to_dict() for d in result.diagnostics if d.category == "io"] == [
            {"category": "io", "message": f"cannot read {rel}: {missing}", "location": rel}
            for rel in (java, "/powers.jsp")]
        assert result.report["pages_failed"] == ["/powers.jsp"]
        assert str(tmp_path) not in json.dumps(result.report)

    def test_servlet_sources_written(self, fixture_webapp, tmp_path):
        out = tmp_path / "srcgen"
        config = PipelineConfig(servlet_src_out=str(out))
        run_pipeline(scan_webapp(fixture_webapp), config)
        files = sorted(p.name for p in out.glob("*.java"))
        assert "jsp_powers_002ejsp.java" in files
        assert len(files) == 5

    def test_context_path_stripping(self, tmp_path):
        root = make_two_page_app(tmp_path / "app")
        (root / "a.jsp").write_text('<jsp:forward page="/shop/b"/>',
                                    encoding="utf-8")
        result = run_pipeline(scan_webapp(root),
                              PipelineConfig(context_path="/shop"))
        assert model_edge_set(result.model) == {("/a.jsp", "/b.jsp", "jsp:forward")}

    def test_extra_source_root_scanned(self, tmp_path):
        root = tmp_path / "app"
        root.mkdir()
        (root / "a.jsp").write_text('<form action="/go">f</form>', encoding="utf-8")
        src = tmp_path / "src"
        src.mkdir()
        (src / "Go.java").write_text(
            'package x;\n@WebServlet("/go")\npublic class Go {}\n',
            encoding="utf-8")
        config = PipelineConfig(source_roots=[str(src)])
        result = run_pipeline(scan_webapp(root), config)
        assert ("/a.jsp", "x.Go", "form") in result.graph.edges


class TestEmitDot:
    def test_empty_graph(self):
        assert emit_dot(DependencyGraph()) == "digraph deps {\n}\n"

    def test_single_edge(self):
        graph = DependencyGraph()
        graph.add_edge("/a.jsp", "/b.jsp", "jsp:include", NODE_PAGE)
        dot = emit_dot(graph)
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert edge_lines == ['  "/a.jsp" -> "/b.jsp" [label="jsp:include"];']

    def test_edge_count_matches_graph(self, fixture_webapp):
        result = run_pipeline(scan_webapp(fixture_webapp))
        dot = emit_dot(result.graph)
        solid = [l for l in dot.splitlines() if "->" in l and "dashed" not in l]
        dashed = [l for l in dot.splitlines() if "->" in l and "dashed" in l]
        assert len(solid) == len(result.graph.edges)
        assert len(dashed) == len(result.graph.unresolved)

    def test_unresolved_rendered_dashed(self, fixture_webapp):
        result = run_pipeline(scan_webapp(fixture_webapp))
        dot = emit_dot(result.graph)
        assert '"unresolved: dynamic"' in dot

    def test_deterministic(self, fixture_webapp):
        r1 = run_pipeline(scan_webapp(fixture_webapp))
        r2 = run_pipeline(scan_webapp(fixture_webapp))
        assert emit_dot(r1.graph) == emit_dot(r2.graph)


class TestCli:
    def test_analyze_fixture(self, fixture_webapp, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["analyze", str(fixture_webapp), "--out", str(out)])
        assert code == 0
        for name in ("model.xmi", "model.json", "deps.dot", "report.json"):
            assert (out / name).is_file()
        report = json.loads((out / "report.json").read_text())
        assert report["pages"] == 5
        assert report["relationships"] == 4

    def test_format_subset(self, fixture_webapp, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", str(fixture_webapp), "--out", str(out),
                     "--format", "json"])
        assert code == 0
        assert (out / "model.json").is_file()
        assert not (out / "model.xmi").exists()
        assert not (out / "deps.dot").exists()
        assert (out / "report.json").is_file()

    def test_bad_root_is_exit_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "missing")]) == 2

    def test_diagnostics_exit_1_and_strict_exit_2(self, fixture_webapp, tmp_path):
        (fixture_webapp / "broken.jsp").write_text("<% nope", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["analyze", str(fixture_webapp), "--out", str(out)]) == 1
        assert main(["analyze", str(fixture_webapp), "--out", str(out),
                     "--strict"]) == 2

    def test_unknown_format_rejected(self, fixture_webapp, tmp_path):
        assert main(["analyze", str(fixture_webapp), "--out",
                     str(tmp_path / "o"), "--format", "pdf"]) == 2

    def test_config_file_with_cli_override(self, fixture_webapp, tmp_path):
        config_file = tmp_path / "conf.json"
        config_file.write_text(json.dumps({"formats": ["json"],
                                           "exclude": ["**/powers.jsp"]}),
                               encoding="utf-8")
        out = tmp_path / "out"
        code = main(["analyze", str(fixture_webapp), "--out", str(out),
                     "--config", str(config_file), "--format", "dot"])
        assert code == 0
        # --format overrides the config file; the exclude glob still applies
        assert (out / "deps.dot").is_file()
        assert not (out / "model.json").exists()
        assert not (out / "model.xmi").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["pages"] == 4
        # the excluded page's class is gone, so the forward lands unresolved
        assert report["resolutions"]["unresolved"] == 2

    @pytest.mark.parametrize("config", [
        ["formats", "json"],
        {"include": "/a.jsp"},
        {"source_root": [".."]},
        {"known_tag_handlers": ["c:x"]},
    ])
    def test_malformed_config_file_is_exit_2(self, fixture_webapp, tmp_path, capsys,
                                             config):
        config_file = tmp_path / "conf.json"
        config_file.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["analyze", str(fixture_webapp), "--out", str(out),
                     "--config", str(config_file)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("jspkdm: cannot load config: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", [
        (["--encoding", "nope"], {}),
        ([], {"encoding": "nope"}),
        (["--encoding", "rot13"], {}),  # a codec, but not a text encoding
    ])
    def test_unknown_encoding_is_exit_2(self, fixture_webapp, tmp_path, capsys,
                                        flags, config):
        config_file = tmp_path / "conf.json"
        config_file.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["analyze", str(fixture_webapp), "--out", str(out),
                     "--config", str(config_file), *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        encoding = flags[-1] if flags else config["encoding"]
        assert captured.err == f"jspkdm: unknown encoding: {encoding}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", [
        (["--context-path", "shop"], {}),
        ([], {"context_path": "shop"}),
    ], ids=["flag", "config"])
    def test_context_path_without_a_leading_slash_is_exit_2(
            self, fixture_webapp, tmp_path, capsys, flags, config):
        config_file = tmp_path / "conf.json"
        config_file.write_text(json.dumps(config), encoding="utf-8")
        out, servlets = tmp_path / "out", tmp_path / "servlets"
        code = main(["analyze", str(fixture_webapp), "--out", str(out),
                     "--servlet-src-out", str(servlets), "--config", str(config_file),
                     *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 'jspkdm: context path must start with "/": shop\n'
        assert not out.exists() and not servlets.exists()

    @pytest.mark.parametrize("flag, under, error", [
        ("--out", "out", errno.ENOTDIR),
        ("--servlet-src-out", "", errno.EEXIST),
    ], ids=["out", "servlet-src-out"])
    def test_output_that_cannot_be_written_is_exit_2(self, fixture_webapp, tmp_path,
                                                      capsys, flag, under, error):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        target = blocker / under if under else blocker
        code = main(["analyze", str(fixture_webapp), "--out", str(tmp_path / "o"),
                     flag, str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"jspkdm: cannot write {target}: {os.strerror(error)}\n"

    def test_servlet_src_out_that_cannot_be_made_stops_before_any_page(
            self, tmp_path, capsys, monkeypatch):
        # Every page fails to parse, so no source is written; the directory
        # is still made first, and refused.
        app = tmp_path / "app"
        app.mkdir()
        (app / "broken.jsp").write_text("<% nope", encoding="utf-8")
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        parsed, parse_jsp = [], pipeline.parse_jsp
        monkeypatch.setattr(pipeline, "parse_jsp",
                            lambda text, page: parsed.append(page) or parse_jsp(text, page))
        code = main(["analyze", str(app), "--out", str(tmp_path / "o"),
                     "--servlet-src-out", str(blocker)])
        assert code == 2
        assert parsed == []
        assert capsys.readouterr().err == (
            f"jspkdm: cannot write {blocker}: {os.strerror(errno.EEXIST)}\n")
        assert not (tmp_path / "o").exists()

    def test_servlet_src_out_flag(self, fixture_webapp, tmp_path):
        out_dir = tmp_path / "out"
        gen = tmp_path / "gen"
        main(["analyze", str(fixture_webapp), "--out", str(out_dir),
              "--servlet-src-out", str(gen)])
        assert sorted(gen.glob("*.java"))


class TestDeterminism:
    def test_two_runs_byte_identical(self, fixture_webapp, tmp_path):
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            result = run_pipeline(scan_webapp(fixture_webapp))
            write_outputs(result, out, ["xmi", "json", "dot"])
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1]


class TestCollector:
    """A run makes next to no cyclic garbage, so a caller may collect rarely
    or freeze the heap; no jspkdm entry point changes the thresholds."""

    def test_a_run_leaves_a_fixed_handful_of_cyclic_garbage(self, fixture_webapp, tmp_path):
        gc.collect()
        gc.disable()
        try:
            result = run_pipeline(scan_webapp(fixture_webapp))
            write_outputs(result, tmp_path / "out", ["xmi", "json", "dot"])
            found = gc.collect()
        finally:
            gc.enable()
        # 33 today, all from the json encoder that writes report.json; the
        # model and graph are still held, so their own cycles do not count.
        assert result.report["pages_parsed"] == 5
        assert found <= 40

    def test_thresholds_are_left_to_the_caller(self, fixture_webapp, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        probe = ("import gc; before = gc.get_threshold(); import jspkdm, jspkdm.cli; "
                 "print(gc.get_threshold() == before)")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "True"
        before = gc.get_threshold()
        write_outputs(run_pipeline(scan_webapp(fixture_webapp)), tmp_path / "lib",
                      ["xmi", "json", "dot"])
        assert main(["analyze", str(fixture_webapp), "--out", str(tmp_path / "cli")]) == 0
        assert gc.get_threshold() == before
