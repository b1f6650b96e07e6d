"""Mapper tests: descriptor parsing, annotation scanning, URL resolution."""

from __future__ import annotations

import random
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from jspkdm import (
    TAG_TABLE,
    ResolvedKind,
    ServletDecl,
    UrlRef,
    XmlSyntaxError,
    build_lookup_table,
    parse_web_xml,
    resolve_url,
    scan_webservlet_annotations,
)
from jspkdm.deployment_mapper import (
    SOURCE_ANNOTATION,
    SOURCE_WEB_XML,
    classify_pattern,
    java_qualified_class_name,
    normalize_url_path,
)
from .oracles import precedence_oracle, ranked_patterns

WEB_XML_POWERS = b"""<?xml version="1.0" encoding="UTF-8"?>
<web-app xmlns="http://java.sun.com/xml/ns/javaee">
  <display-name>demo</display-name>
  <servlet>
    <servlet-name>pow</servlet-name>
    <jsp-file>/powers.jsp</jsp-file>
  </servlet>
  <servlet-mapping>
    <servlet-name>pow</servlet-name>
    <url-pattern>/powers</url-pattern>
  </servlet-mapping>
</web-app>
"""


def make_ref(url: str, dynamic: bool = False) -> UrlRef:
    return UrlRef(tag_kind="a-href", raw_url=url, dynamic=dynamic)


def table_of(patterns: list[tuple[str, str | None]], context_path: str = ""):
    """Each pattern gets its own servlet: jsp-file when the target is a path,
    servlet-class otherwise."""
    decls = []
    mappings = []
    for i, (pattern, target) in enumerate(patterns):
        name = f"s{i}"
        if target is None or target.startswith("/"):
            decls.append(ServletDecl(name, jsp_file=target or f"/t{i}.jsp"))
        else:
            decls.append(ServletDecl(name, servlet_class=target))
        mappings.append((pattern, name))
    return build_lookup_table(decls, mappings, context_path)


class TestParseWebXml:
    def test_powers_declaration(self):
        diagnostics = []
        decls, mappings = parse_web_xml(WEB_XML_POWERS, diagnostics)
        assert len(decls) == 1
        assert decls[0].servlet_name == "pow"
        assert decls[0].jsp_file == "/powers.jsp"
        assert decls[0].servlet_class is None
        assert decls[0].source == SOURCE_WEB_XML
        assert mappings == [("/powers", "pow")]
        assert diagnostics == []

    def test_empty_web_app(self):
        decls, mappings = parse_web_xml(b"<web-app/>")
        assert decls == [] and mappings == []

    def test_two_url_patterns_one_servlet(self):
        content = b"""<web-app>
          <servlet><servlet-name>s</servlet-name>
            <servlet-class>a.B</servlet-class></servlet>
          <servlet-mapping><servlet-name>s</servlet-name>
            <url-pattern>/a</url-pattern><url-pattern>/b</url-pattern>
          </servlet-mapping></web-app>"""
        decls, mappings = parse_web_xml(content)
        # oracle: independent XML walk counting url-pattern elements
        root = ET.fromstring(content)
        oracle_count = sum(1 for el in root.iter() if el.tag == "url-pattern")
        assert oracle_count == 2
        assert len(mappings) == oracle_count
        assert {name for _, name in mappings} == {"s"}

    def test_missing_servlet_name_skipped_with_diagnostic(self):
        content = b"""<web-app><servlet>
          <servlet-class>a.B</servlet-class></servlet></web-app>"""
        diagnostics = []
        decls, _ = parse_web_xml(content, diagnostics)
        assert decls == []
        assert len(diagnostics) == 1

    def test_malformed_xml_raises(self):
        with pytest.raises(XmlSyntaxError):
            parse_web_xml(b"<web-app><servlet>")

    def test_servlet_with_both_targets_skipped(self):
        content = b"""<web-app><servlet>
          <servlet-name>s</servlet-name>
          <servlet-class>a.B</servlet-class>
          <jsp-file>/a.jsp</jsp-file></servlet></web-app>"""
        diagnostics = []
        decls, _ = parse_web_xml(content, diagnostics)
        assert decls == []
        assert len(diagnostics) == 1

    def test_namespaced_elements_matched_by_local_name(self):
        decls, mappings = parse_web_xml(WEB_XML_POWERS)
        assert decls and mappings  # the fixture uses a default namespace


class TestAnnotationScan:
    def test_single_value_form(self):
        entries = scan_webservlet_annotations('@WebServlet("/hello")\nclass C {}',
                                              "a.b.C")
        assert len(entries) == 1
        pattern, decl = entries[0]
        assert pattern == "/hello"
        assert decl.servlet_class == "a.b.C"
        assert decl.source == SOURCE_ANNOTATION

    def test_no_annotation(self):
        assert scan_webservlet_annotations("class C {}", "a.b.C") == []

    def test_url_patterns_list(self):
        source = '@WebServlet(urlPatterns = {"/a", "/b"}) class C {}'
        entries = scan_webservlet_annotations(source, "a.b.C")
        assert [p for p, _ in entries] == ["/a", "/b"]
        # token-scan oracle: string literals inside the annotation parens
        import re
        inner = re.search(r"@WebServlet\(([^)]*)\)", source).group(1)
        assert re.findall(r'"([^"]*)"', inner) == ["/a", "/b"]
        assert entries[0][1] is entries[1][1]  # one decl shared

    def test_value_list_form(self):
        entries = scan_webservlet_annotations(
            '@WebServlet(value = {"/x"}) class C {}', "p.C")
        assert [p for p, _ in entries] == ["/x"]

    def test_name_attribute_used_as_servlet_name(self):
        entries = scan_webservlet_annotations(
            '@WebServlet(name = "nice", urlPatterns = {"/n"}) class C {}', "p.C")
        assert entries[0][1].servlet_name == "nice"

    def test_commented_out_annotation_ignored(self):
        source = '// @WebServlet("/dead")\n/* @WebServlet("/gone") */\nclass C {}'
        assert scan_webservlet_annotations(source, "p.C") == []

    def test_annotation_without_patterns_is_a_diagnostic(self):
        diagnostics = []
        entries = scan_webservlet_annotations(
            '@WebServlet(name = "x") class C {}', "p.C", diagnostics)
        assert entries == []
        assert len(diagnostics) == 1

    def test_qualified_name_helper(self):
        source = "package com.example;\npublic final class Thing {}"
        assert java_qualified_class_name(source, "Fallback") == "com.example.Thing"
        assert java_qualified_class_name("int x;", "Fallback") == "Fallback"


class TestBuildLookupTable:
    def test_web_xml_wins_over_annotation(self):
        decls = [ServletDecl("ann", servlet_class="p.B", source=SOURCE_ANNOTATION),
                 ServletDecl("xml", jsp_file="/a.jsp", source=SOURCE_WEB_XML)]
        diagnostics = []
        table = build_lookup_table(decls, [("/x", "ann"), ("/x", "xml")],
                                   diagnostics=diagnostics)
        assert table.entries == {"/x": decls[1]}
        assert any("shadow" in d.message for d in diagnostics)

    def test_empty_inputs(self):
        table = build_lookup_table([], [])
        assert table.entries == {} and table.prefix_lengths == []

    def test_dangling_mapping_dropped(self):
        diagnostics = []
        table = build_lookup_table([], [("/x", "ghost")], diagnostics=diagnostics)
        assert table.entries == {}
        assert any("undeclared" in d.message for d in diagnostics)

    def test_same_source_collision_first_wins(self):
        decls = [ServletDecl("one", jsp_file="/1.jsp"),
                 ServletDecl("two", jsp_file="/2.jsp")]
        diagnostics = []
        table = build_lookup_table(decls, [("/x", "one"), ("/x", "two")],
                                   diagnostics=diagnostics)
        assert table.entries == {"/x": decls[0]}
        assert len(diagnostics) == 1

    def test_same_servlet_mapped_twice_to_one_pattern(self):
        decls, mappings = parse_web_xml(
            b"""<web-app><servlet><servlet-name>s</servlet-name>
                  <jsp-file>/s.jsp</jsp-file></servlet>
                <servlet-mapping><servlet-name>s</servlet-name>
                  <url-pattern>/x</url-pattern></servlet-mapping>
                <servlet-mapping><servlet-name>s</servlet-name>
                  <url-pattern>/x</url-pattern></servlet-mapping></web-app>""")
        diagnostics = []
        table = build_lookup_table(decls, mappings, diagnostics=diagnostics)
        assert [d.message for d in diagnostics] == [
            "pattern '/x' already mapped to 's'; 's' shadowed"]
        assert len(table.entries) == 1
        assert resolve_url(table, make_ref("/x"), "/i.jsp").page_path == "/s.jsp"

    def test_invalid_pattern_dropped(self):
        decls = [ServletDecl("s", jsp_file="/a.jsp")]
        diagnostics = []
        table = build_lookup_table(decls, [("x-no-slash", "s"), ("/ok", "s"),
                                           ("*.tar.gz", "s")],
                                   diagnostics=diagnostics)
        assert table.entries == {"/ok": decls[0]}
        assert len(diagnostics) == 2

    def test_pattern_shapes(self):
        assert classify_pattern("/x") == "exact"
        assert classify_pattern("/x/*") == "prefix"
        assert classify_pattern("/*") == "prefix"
        assert classify_pattern("*.jsp") == "extension"
        assert classify_pattern("/") == "default"
        assert classify_pattern("x") is None
        assert classify_pattern("/a/*/b") is None


class TestResolveUrl:
    def test_external_scheme(self):
        table = table_of([])
        target = resolve_url(table, make_ref("https://www.uqam.ca"), "/index.jsp")
        assert target.kind is ResolvedKind.EXTERNAL

    @pytest.mark.parametrize("tag_kind", sorted(kind for kind, _ in TAG_TABLE.values()))
    def test_network_path_is_external_only_in_a_and_form(self, tag_kind):
        # A browser reads "//host/path" as another host (RFC 3986 section
        # 4.2), and a backslash as "/" (WHATWG URL Standard); the other tags
        # take a context-relative server path, which the default "/" servlet
        # serves.
        table = table_of([("/", "com.example.Default")])
        for raw_url in ("//cdn.example.com/lib.js", "/\\cdn.example.com/lib.js",
                        "\\\\cdn.example.com/lib.js", "\\/cdn.example.com/lib.js"):
            ref = UrlRef(tag_kind=tag_kind, raw_url=raw_url)
            target = resolve_url(table, ref, "/index.jsp")
            if tag_kind in ("a-href", "form"):
                assert target.kind is ResolvedKind.EXTERNAL, raw_url
            else:
                assert target.class_name == "com.example.Default", raw_url

    @pytest.mark.parametrize("tag_kind", sorted(kind for kind, _ in TAG_TABLE.values()))
    def test_backslash_is_a_slash_only_in_a_and_form(self, tag_kind):
        # From /dir/index.jsp a browser requests \b as /b and a\b as /dir/a/b
        # (WHATWG URL Standard); the other tags keep the backslash in the
        # server path, where nothing maps it.
        table = table_of([("/b", "/b.jsp")])
        for raw_url, page in (("\\b", "/b.jsp"), ("a\\b", "/dir/a/b"),
                              ("\\b?q=\\x#\\y", "/b.jsp")):
            ref = UrlRef(tag_kind=tag_kind, raw_url=raw_url)
            target = resolve_url(table, ref, "/dir/index.jsp", known_pages={"/dir/a/b"})
            if tag_kind in ("a-href", "form"):
                assert target.kind is ResolvedKind.INTERNAL_PAGE, raw_url
                assert target.page_path == page, raw_url
            else:
                assert target.kind is ResolvedKind.UNRESOLVED, raw_url
                assert target.reason == "no-mapping", raw_url

    def test_exact_match_to_jsp_file(self):
        table = table_of([("/powers", "/powers.jsp")])
        target = resolve_url(table, make_ref("/powers"), "/index.jsp")
        assert target.kind is ResolvedKind.INTERNAL_PAGE
        assert target.page_path == "/powers.jsp"

    def test_servlet_class_target(self):
        table = table_of([("/do", "com.example.DoServlet")])
        target = resolve_url(table, make_ref("/do"), "/index.jsp")
        assert target.kind is ResolvedKind.INTERNAL_SERVLET_CLASS
        assert target.class_name == "com.example.DoServlet"

    def test_a_long_href_resolves_in_little_memory(self):
        # Only the prefixes as long as some prefix pattern's path are built:
        # building every "/a/.../*" prefix of this 80 KB path first peaked at
        # 1.6 GB with an empty table.
        href = "/a" * 40_000
        cases = [([], None, []),
                 ([("/*", "/all.jsp"), ("/a/a/*", "/p.jsp"), ("/b/*", "/b.jsp"),
                   ("/a/a/b/*", "/ab.jsp"), (href[:-2] + "/b/*", "/long.jsp")],
                  "/p.jsp", ["pattern '/a/a/*' wins over ['/*']"])]
        for patterns, page, messages in cases:
            table = table_of(patterns)
            diagnostics = []
            tracemalloc.start()
            try:
                target = resolve_url(table, make_ref(href), "/index.jsp",
                                     diagnostics=diagnostics)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert target.page_path == page
            assert [d.message for d in diagnostics] == messages
            assert peak < 5_000_000, f"peak {peak / 1e6:.1f} MB"

    def test_precedence_examples(self):
        table = table_of([("/a/*", "/x.jsp"), ("/a/b/*", "/y.jsp"),
                          ("*.jsp", "/z.jsp")])
        longest = resolve_url(table, make_ref("/a/b/c"), "/index.jsp")
        assert longest.page_path == "/y.jsp"
        extension = resolve_url(table, make_ref("/q.jsp"), "/index.jsp")
        assert extension.page_path == "/z.jsp"

    @pytest.mark.parametrize("url, servlet", [
        ("/foo/bar/index.html", "servlet1"),
        ("/foo/bar/index.bop", "servlet1"),
        ("/baz", "servlet2"),
        ("/baz/index.html", "servlet2"),
        ("/catalog", "servlet3"),
        ("/catalog/index.html", None),  # the default servlet, unmapped here
        ("/catalog/racecar.bop", "servlet4"),
        ("/index.bop", "servlet4"),
    ])
    def test_servlet_spec_mapping_example(self, url, servlet):
        """The example mapping set of the Servlet spec, §12.2."""
        table = table_of([("/foo/bar/*", "servlet1"), ("/baz/*", "servlet2"),
                          ("/catalog", "servlet3"), ("*.bop", "servlet4")])
        target = resolve_url(table, make_ref(url), "/index.jsp")
        if servlet is None:
            assert target.kind is ResolvedKind.UNRESOLVED
            assert target.reason == "no-mapping"
        else:
            assert target.kind is ResolvedKind.INTERNAL_SERVLET_CLASS
            assert target.class_name == servlet

    def test_dynamic_is_unresolved(self):
        table = table_of([("/x", "/x.jsp")])
        target = resolve_url(table, make_ref("${go}", dynamic=True), "/index.jsp")
        assert target.kind is ResolvedKind.UNRESOLVED
        assert target.reason == "dynamic"

    def test_relative_resolution(self):
        table = table_of([])
        target = resolve_url(table, make_ref("x.jsp"), "/dir/a.jsp",
                             known_pages={"/dir/x.jsp"})
        assert target.kind is ResolvedKind.INTERNAL_PAGE
        assert target.page_path == "/dir/x.jsp"

    def test_dotdot_clamped_at_root(self):
        table = table_of([])
        diagnostics = []
        target = resolve_url(table, make_ref("../../x.jsp"), "/a.jsp",
                             known_pages={"/x.jsp"}, diagnostics=diagnostics)
        assert target.page_path == "/x.jsp"
        assert any("clamped" in d.message for d in diagnostics)

    def test_trailing_dot_trimmed_with_diagnostic(self):
        table = table_of([])
        diagnostics = []
        target = resolve_url(table, make_ref("/myPage.jsp."), "/index.jsp",
                             known_pages={"/myPage.jsp"}, diagnostics=diagnostics)
        assert target.page_path == "/myPage.jsp"
        assert any("trailing dot" in d.message for d in diagnostics)

    def test_query_and_fragment_stripped(self):
        table = table_of([])
        target = resolve_url(table, make_ref("/p.jsp?id=3#top"), "/index.jsp",
                             known_pages={"/p.jsp"})
        assert target.page_path == "/p.jsp"

    def test_context_path_stripped(self):
        table = table_of([("/powers", "/powers.jsp")], context_path="/app")
        target = resolve_url(table, make_ref("/app/powers"), "/index.jsp")
        assert target.page_path == "/powers.jsp"

    def test_unresolved_reason_no_mapping(self):
        table = table_of([])
        target = resolve_url(table, make_ref("/nowhere"), "/index.jsp")
        assert target.kind is ResolvedKind.UNRESOLVED
        assert target.reason == "no-mapping"

    @pytest.mark.parametrize("url, page_path, message", [
        ("/a/*", "/prefix.jsp", "pattern '/a/*' wins over ['/*', '/']"),
        ("/*", "/all.jsp", "pattern '/*' wins over ['/']"),
        ("/", "/all.jsp", "pattern '/*' wins over ['/']"),
        ("/a*", "/all.jsp", "pattern '/*' wins over ['/']"),
        ("/b/*.jsp", "/all.jsp", "pattern '/*' wins over ['*.jsp', '/']"),
    ])
    def test_url_spelled_like_a_pattern(self, url, page_path, message):
        """Such a URL matches by the rules, never as an exact hit on the
        entry of its own spelling: "/a/*" must not hit "/a/*" twice."""
        table = table_of([("/a/*", "/prefix.jsp"), ("/*", "/all.jsp"),
                          ("/", "/root.jsp"), ("*.jsp", "/ext.jsp")])
        diagnostics = []
        target = resolve_url(table, make_ref(url), "/index.jsp", diagnostics=diagnostics)
        assert target.page_path == page_path
        assert [d.message for d in diagnostics] == [message]

    def test_implicit_page_only_when_known(self):
        table = table_of([])
        hit = resolve_url(table, make_ref("/real.jsp"), "/i.jsp",
                          known_pages={"/real.jsp"})
        miss = resolve_url(table, make_ref("/fake.jsp"), "/i.jsp",
                           known_pages={"/real.jsp"})
        assert hit.kind is ResolvedKind.INTERNAL_PAGE
        assert miss.kind is ResolvedKind.UNRESOLVED


class TestNormalization:
    def test_examples(self):
        assert normalize_url_path("/a/./b//c") == ("/a/b/c", False, False)
        assert normalize_url_path("/a/../b") == ("/b", False, False)
        assert normalize_url_path("/../x") == ("/x", True, False)
        assert normalize_url_path("/p.jsp.") == ("/p.jsp", False, True)

    def test_idempotence_randomized(self):
        rng = random.Random(321)
        segments = ["a", "b.", "..", ".", "c.jsp", "", "x10", "y.."]
        for _ in range(250):
            raw = "/" + "/".join(rng.choice(segments)
                                 for _ in range(rng.randint(0, 6)))
            once, _, _ = normalize_url_path(raw)
            twice, clamped, trimmed = normalize_url_path(once)
            assert twice == once
            assert not clamped and not trimmed


def random_pattern(rng: random.Random) -> str:
    kind = rng.randrange(4)
    segs = lambda: "/".join(rng.choice(["a", "b", "c", "dd"])
                            for _ in range(rng.randint(1, 3)))
    if kind == 0:
        return "/" + segs()
    if kind == 1:
        return "/" + segs() + "/*" if rng.random() < 0.8 else "/*"
    if kind == 2:
        return "*." + rng.choice(["jsp", "html", "do"])
    return "/"


def random_url(rng: random.Random) -> str:
    parts = [rng.choice(["a", "b", "c", "dd", "q"]) for _ in range(rng.randint(1, 4))]
    url = "/" + "/".join(parts)
    if rng.random() < 0.5:
        url += rng.choice([".jsp", ".html", ".do", ""])
    return url


class TestPrecedenceAgainstOracle:
    def test_randomized_agreement(self):
        rng = random.Random(0xFACE)
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
                pattern, decl = expected
                assert got.kind is ResolvedKind.INTERNAL_PAGE
                assert got.page_path == decl.jsp_file

    def test_10k_cases_agree_with_brute_force(self):
        """Winner and shadowed patterns, in precedence order, against the
        oracle's ranking of every entry. Dotted directory segments ("/a.do/x")
        must not match "*.do"; the URL "/" and the context root itself hit
        "/*" and the default "/"."""
        rng = random.Random(0xB0C7)
        segments = ["a", "b", "a.do", "x.jsp", "cc"]  # never the context "app"

        def path(max_segments: int) -> str:
            n = rng.randint(1, max_segments)
            return "/" + "/".join(rng.choice(segments) for _ in range(n))

        shapes = [lambda: path(3), lambda: path(2) + "/*", lambda: "/*",
                  lambda: "*." + rng.choice(["do", "jsp", "html"]), lambda: "/"]
        cases = shadowing = 0
        for _ in range(1000):
            patterns: list[tuple[str, str]] = []
            for _ in range(rng.randint(0, 10)):
                pattern = rng.choice(shapes)()
                if pattern not in {p for p, _ in patterns}:
                    patterns.append((pattern, f"/t{len(patterns)}.jsp"))
            context_path = rng.choice(["", "", "/app"])
            table = table_of(patterns, context_path)
            for _ in range(10):
                # ``url`` is what the table sees once the context path, if
                # the reference carries it, is stripped.
                url = rng.choice(["/", path(4), path(3) + rng.choice([".do", ".jsp"])])
                raw = url
                if context_path and rng.random() < 0.5:
                    raw = context_path if url == "/" else context_path + url
                diagnostics = []
                got = resolve_url(table, make_ref(raw), "/index.jsp",
                                  diagnostics=diagnostics)
                expected = precedence_oracle(table.entries.items(), url)
                cases += 1
                if expected is None:
                    assert got.kind is ResolvedKind.UNRESOLVED
                    assert diagnostics == []
                    continue
                winner, decl = expected
                assert got.kind is ResolvedKind.INTERNAL_PAGE
                assert got.page_path == decl.jsp_file
                shadowed = [p for p in ranked_patterns(table.entries.items(), url)
                            if p != winner]
                assert [d.message for d in diagnostics] == (
                    [f"pattern {winner!r} wins over {shadowed}"] if shadowed else [])
                shadowing += bool(shadowed)
        assert cases == 10_000
        assert shadowing > 1000
