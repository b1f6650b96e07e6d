"""Parser tests: kinds, spans, errors, the randomized span/count suites, the
tag scanner against its character-loop oracle, and template text read as
Jasper reads it."""

from __future__ import annotations

import gc
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from jspkdm import (
    DuplicateAttribute,
    JspNode,
    JspParseError,
    MalformedAttribute,
    NodeKind,
    StatementKind,
    UnterminatedScriptlet,
    extract_url_refs,
    jsp_parser,
    parse_jsp,
    render_servlet_source,
    translate_page,
)
from .fuzz_tag_scan import disagreements
from .genjsp import generate_page, generated_pages, parse_outcome, tag_soup
from .oracles import HtmlNodeParser, check_span_coverage, delimiter_scan


def kinds_of(doc):
    return [node.kind for node in doc.nodes]


def inner_text(doc, node):
    start, end = node.inner_span
    return doc.source[start:end]


class TestBasicKinds:
    def test_scriptlet_body_is_verbatim(self):
        doc = parse_jsp("<% for (int i=0; i<10; i++) %>", "/p.jsp")
        assert len(doc.nodes) == 1
        node = doc.nodes[0]
        assert node.kind is NodeKind.SCRIPTLET
        assert inner_text(doc, node) == " for (int i=0; i<10; i++) "
        assert node.children == ()

    def test_empty_file(self):
        doc = parse_jsp("", "/p.jsp")
        assert doc.nodes == []
        assert doc.source == ""

    def test_declaration_and_expression(self):
        doc = parse_jsp("<%! int i=0; %><%= i %>", "/p.jsp")
        assert kinds_of(doc) == [NodeKind.DECLARATION, NodeKind.EXPRESSION]
        assert inner_text(doc, doc.nodes[0]) == " int i=0; "
        assert inner_text(doc, doc.nodes[1]) == " i "

    def test_classic_directive(self):
        doc = parse_jsp('<%@ page import="java.util.*" %>', "/p.jsp")
        (node,) = doc.nodes
        assert node.kind is NodeKind.DIRECTIVE
        assert node.name == "page"
        assert node.attribute_value("import") == "java.util.*"

    def test_xml_syntax_directives(self):
        doc = parse_jsp('<jsp:directive.include file="/a.jspf" />'
                        '<jsp:directive.page errorPage="/e.jsp" />', "/p.jsp")
        assert [n.name for n in doc.nodes] == ["jsp:directive.include",
                                               "jsp:directive.page"]
        assert all(n.kind is NodeKind.DIRECTIVE for n in doc.nodes)

    def test_standard_actions(self):
        source = ('<jsp:include page="/a.jsp" flush="true" />'
                  '<jsp:forward page="/b.jsp" />'
                  '<jsp:useBean id="b" class="p.C" scope="session" />'
                  '<jsp:getProperty name="b" property="x" />'
                  '<jsp:setProperty name="b" property="x" value="1" />')
        doc = parse_jsp(source, "/p.jsp")
        assert all(n.kind is NodeKind.STANDARD_ACTION for n in doc.nodes)
        assert [n.name for n in doc.nodes] == [
            "jsp:include", "jsp:forward", "jsp:useBean",
            "jsp:getProperty", "jsp:setProperty"]

    def test_custom_action_and_html(self):
        doc = parse_jsp('<c:redirect url="/x.jsp" /><FORM ACTION="/y">', "/p.jsp")
        assert doc.nodes[0].kind is NodeKind.CUSTOM_ACTION
        assert doc.nodes[0].name == "c:redirect"
        assert doc.nodes[1].kind is NodeKind.TEMPLATE_TEXT
        assert doc.text_of(doc.nodes[1]) == '<FORM ACTION="/y">'

    def test_jsp_comment_vs_html_comment(self):
        doc = parse_jsp("<%-- hidden --%><!-- shown -->", "/p.jsp")
        assert doc.nodes[0].kind is NodeKind.COMMENT
        assert inner_text(doc, doc.nodes[0]) == " hidden "
        # the HTML comment is plain template text
        assert doc.nodes[1].kind is NodeKind.TEMPLATE_TEXT
        assert doc.text_of(doc.nodes[1]) == "<!-- shown -->"

    def test_bare_angle_brackets_are_text(self):
        doc = parse_jsp("a < b > c <3 <\n", "/p.jsp")
        assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT]
        assert doc.text_of(doc.nodes[0]) == "a < b > c <3 <\n"

    def test_unbalanced_html_is_not_an_error(self):
        source = "<table><tr><td>x</b></tr>"
        doc = parse_jsp(source, "/p.jsp")
        assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT]
        assert doc.text_of(doc.nodes[0]) == source

    def test_nested_custom_action(self):
        doc = parse_jsp('<c:if test="a">in<c:if test="b">deep</c:if></c:if>', "/p.jsp")
        (outer,) = doc.nodes
        assert outer.kind is NodeKind.CUSTOM_ACTION
        assert [c.kind for c in outer.children] == [NodeKind.TEMPLATE_TEXT,
                                                    NodeKind.CUSTOM_ACTION]
        assert doc.text_of(outer.children[1].children[0]) == "deep"

    def test_unclosed_custom_action_folds_flat(self):
        doc = parse_jsp('<c:if test="a">rest', "/p.jsp")
        assert [n.kind for n in doc.nodes] == [NodeKind.CUSTOM_ACTION,
                                               NodeKind.TEMPLATE_TEXT]
        assert doc.nodes[0].children == ()
        check_span_coverage(doc)

    def test_close_tag_ends_at_whitespace_and_gt(self):
        # As Jasper reads it, "</c:if" followed by anything else is no close
        # tag, so the scriptlet after it stays code.
        unit = translate_page(parse_jsp('<c:if test="t">x</c:if <% int i; %>>', "/p.jsp"))
        assert [(s.kind, s.text) for s in unit.service_body] == [
            (StatementKind.TEMPLATE_EMIT, '<c:if test="t">x</c:if '),
            (StatementKind.INLINE_CODE, " int i; "),
            (StatementKind.TEMPLATE_EMIT, ">")]
        doc = parse_jsp('<c:if test="t">x</c:if\n >y', "/p.jsp")
        assert [doc.text_of(n) for n in doc.nodes] == ['<c:if test="t">x</c:if\n >', "y"]

    def test_close_tag_that_closes_nothing_open_is_text(self):
        doc = parse_jsp('a</c:if><c:if test="t">b</c:when></c:if>c</x:y >', "/p.jsp")
        assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT, NodeKind.CUSTOM_ACTION,
                                 NodeKind.TEMPLATE_TEXT]
        assert [doc.text_of(n) for n in doc.nodes[1].children] == ["b</c:when>"]
        assert doc.text_of(doc.nodes[2]) == "c</x:y >"
        check_span_coverage(doc)

    def test_page_path_normalized(self):
        assert parse_jsp("", "powers.jsp").page_path == "/powers.jsp"
        assert parse_jsp("", "//a//b.jsp").page_path == "/a/b.jsp"


class TestAttributes:
    def test_quote_styles(self):
        doc = parse_jsp("<c:a a=\"one\" b='two' c=three>", "/p.jsp")
        node = doc.nodes[0]
        assert node.attribute_value("a") == "one"
        assert node.attribute_value("b") == "two"
        assert node.attribute_value("c") == "three"

    def test_boolean_attribute(self):
        doc = parse_jsp("<c:form novalidate>", "/p.jsp")
        assert doc.nodes[0].attribute_value("novalidate") == ""

    def test_expression_inside_quoted_value(self):
        doc = parse_jsp('<c:url value="<%= base %>/x.jsp">', "/p.jsp")
        assert doc.nodes[0].attribute_value("value") == "<%= base %>/x.jsp"

    def test_duplicate_attribute_is_an_error(self):
        with pytest.raises(DuplicateAttribute):
            parse_jsp('<c:form action="/a" ACTION="/b">', "/p.jsp")
        with pytest.raises(DuplicateAttribute):
            parse_jsp('<%@ page import="a" import="b" %>', "/p.jsp")

    def test_unclosed_quote_is_an_error(self):
        with pytest.raises(MalformedAttribute):
            parse_jsp('<c:form action="/a>', "/p.jsp")

    @pytest.mark.parametrize("source, error, offset", [
        # At the duplicate's name.
        ('<%@ page a="1" A="2" %>', DuplicateAttribute, 15),
        ('ab<%@page a="1"  b=2 B="3"%>', DuplicateAttribute, 21),
        # At the text that no attribute took, which holds the quote.
        ('<%@ page a "x" %>', MalformedAttribute, 8),
        ('ab<%@ page a="1" b "x" %>', MalformedAttribute, 16),
    ])
    def test_directive_error_is_at_its_offset_in_the_page(self, source, error, offset):
        with pytest.raises(error) as info:
            parse_jsp(source, "/p.jsp")
        assert info.value.offset == offset

    def test_unterminated_scriptlet_is_an_error(self):
        for source in ("<% int i = 0;", "<%= i", "<%! int i;", "<%-- gone"):
            with pytest.raises(UnterminatedScriptlet):
                parse_jsp(source, "/p.jsp")

    def test_unterminated_tag_at_eof_is_text(self):
        doc = parse_jsp("x <c:form action=/a", "/p.jsp")
        assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT]

    def test_unterminated_tags_after_an_eof_scan_are_text(self):
        for source in ("<a b <c d <e f= <g 'h' <i j=",
                       "<a b <c:c d <form f= <c:g 'h' <A j="):
            doc = parse_jsp(source, "/p.jsp")
            assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT]

    def test_duplicate_found_by_a_scan_reaching_an_eof_scan(self):
        # The "<a" scan reaches EOF; the "<c:y" scan inside its quoted value
        # then meets the last "a" again and must still raise.
        with pytest.raises(DuplicateAttribute) as info:
            parse_jsp("<a q='<c:y a ' a", "/p.jsp")
        assert info.value.offset == 6
        assert "duplicate attribute 'a'" in str(info.value)
        with pytest.raises(DuplicateAttribute, match="'a'"):
            parse_jsp("<c:p q='<c:r A ' a", "/p.jsp")

    def test_eof_after_equals_skips_the_duplicate_check(self):
        doc = parse_jsp("<c:x a a=", "/p.jsp")
        assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT]
        with pytest.raises(DuplicateAttribute):
            parse_jsp("<c:x a a", "/p.jsp")

    def test_unicode_whitespace_separates_attributes(self):
        doc = parse_jsp("<c:a a=1\u00a0b='2'\x0bc>", "/p.jsp")
        assert doc.nodes[0].attributes == (("a", "1"), ("b", "2"), ("c", ""))

    def test_empty_unquoted_value(self):
        doc = parse_jsp("<c:x a= /><c:f b=>", "/p.jsp")
        assert [(n.name, n.attributes) for n in doc.nodes] == [("c:x", (("a", ""),)),
                                                               ("c:f", (("b", ""),))]


class TestPowersPage:
    # Frozen from the delimiter-scan oracle over the fixture text.
    EXPECTED_SCRIPTLETS = 2
    EXPECTED_EXPRESSIONS = 3

    def test_kind_counts_match_oracle(self, powers_page):
        doc = parse_jsp(powers_page, "/powers.jsp")
        kinds = kinds_of(doc)
        assert kinds.count(NodeKind.SCRIPTLET) == self.EXPECTED_SCRIPTLETS
        assert kinds.count(NodeKind.EXPRESSION) == self.EXPECTED_EXPRESSIONS
        assert kinds.count(NodeKind.DECLARATION) == 0
        rest = set(kinds) - {NodeKind.SCRIPTLET, NodeKind.EXPRESSION}
        assert rest <= {NodeKind.TEMPLATE_TEXT}
        spans = delimiter_scan(powers_page)
        assert len(spans["Scriptlet"]) == self.EXPECTED_SCRIPTLETS
        assert len(spans["Expression"]) == self.EXPECTED_EXPRESSIONS

    def test_span_coverage(self, powers_page):
        check_span_coverage(parse_jsp(powers_page, "/powers.jsp"))


def elements_of(doc, kinds: set[NodeKind]) -> list[JspNode]:
    """The nodes of the given kinds, depth-first in document order."""
    return [n for n in jsp_parser.iter_nodes(doc.nodes) if n.kind in kinds]


class TestElementsOf:
    def test_scriptlets_in_source_order(self, powers_page):
        doc = parse_jsp(powers_page, "/powers.jsp")
        scriptlets = elements_of(doc, {NodeKind.SCRIPTLET})
        assert len(scriptlets) == 2
        assert scriptlets[0].span[0] < scriptlets[1].span[0]

    def test_empty_document(self):
        doc = parse_jsp("", "/p.jsp")
        assert elements_of(doc, set(NodeKind)) == []

    def test_finds_action_between_html_tags(self):
        doc = parse_jsp('<body><jsp:include page="/x.jsp" /></body>', "/p.jsp")
        found = elements_of(doc, {NodeKind.STANDARD_ACTION})
        assert [n.name for n in found] == ["jsp:include"]

    def test_iter_nodes_is_depth_first_in_document_order(self):
        doc = parse_jsp('<c:if test="a">1<c:if test="b">2</c:if>3</c:if>4', "/p.jsp")
        order = [n.name or doc.text_of(n) for n in jsp_parser.iter_nodes(doc.nodes)]
        assert order == ["c:if", "1", "c:if", "2", "3", "4"]

    def test_iter_nodes_survives_deep_trees(self):
        node = JspNode(NodeKind.CUSTOM_ACTION, "c:if")
        for _ in range(5000):
            node = JspNode(NodeKind.CUSTOM_ACTION, "c:if", children=(node,))
        assert sum(1 for _ in jsp_parser.iter_nodes([node])) == 5001

    def test_finds_nodes_nested_in_actions(self):
        doc = parse_jsp('<c:if test="a"><jsp:include page="/x.jsp" /></c:if>',
                        "/p.jsp")
        found = elements_of(doc, {NodeKind.STANDARD_ACTION})
        assert [n.name for n in found] == ["jsp:include"]


def tracked_objects_left_by(source: str):
    """The parsed page and the number of tracked objects it holds."""
    gc.collect()
    before = len(gc.get_objects())
    doc = parse_jsp(source, "/big.jsp")
    gc.collect()
    return doc, len(gc.get_objects()) - before


class TestAllocation:
    def test_a_node_costs_at_most_1_2_tracked_objects(self):
        # This page costs 1.07 tracked objects a node: one per node and a
        # children tuple per closed action. It is built from JSP elements,
        # which become nodes; HTML is template text. Attributes are tuples of
        # strings, which the collector untracks; as NamedTuple records they
        # kept two tracked objects each, 1.5 a node here. Nodes that each
        # carry two lists of their own, empty or not, cost 3.2.
        page = ('<x:a class="c"/>x</a><x:form/>y<c:if test="a">y<x:a/>z</a></c:if><% s %>'
                '<%= e %><%-- c --%><jsp:include page="/i.jsp" />'
                '<x:a href="/x.jsp"/>l</a><br>') * 2000
        doc, grown = tracked_objects_left_by(page)
        nodes = sum(1 for _ in jsp_parser.iter_nodes(doc.nodes))
        assert nodes == 28_000
        assert grown <= 1.2 * nodes, f"{grown} tracked objects for {nodes} nodes"


# Parses a link-free page of about 1 MB and prints how far the parse raised
# the process's peak resident set (VmHWM), in MB.
PEAK_GROWTH_CHILD = """
from jspkdm import parse_jsp

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

page = '<tr><td class="c">x</td></tr>\\n' * 35_000
before = peak_kb()
parse_jsp(page, "/rows.jsp")
print((peak_kb() - before) / 1024)
"""


def has_vmhwm() -> bool:
    try:
        with open("/proc/self/status") as fh:
            return any(line.startswith("VmHWM:") for line in fh)
    except OSError:
        return False


class TestPeakMemory:
    @pytest.mark.skipif(not has_vmhwm(), reason="no VmHWM in /proc/self/status")
    def test_a_link_free_megabyte_leaves_the_peak_flat(self):
        # The regex engine's backtrack state is not seen by tracemalloc, so
        # the peak is read in a child of its own. Searching for the next "<"
        # that opens a node grows it by about 0 MB; a regex that repeated a
        # group once per plain tag over this page grew it by 76.
        src = str(Path(jsp_parser.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", PEAK_GROWTH_CHILD], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert float(out) < 8, f"the parse raised the peak RSS by {float(out):.1f} MB"


class TestPlainMarkupIsTemplateText:
    # 7000 table rows (42,000 HTML tags) around one link.
    ROWS = '<tr><td class="c">x</td></tr>\n' * 3500
    PAGE = ROWS + '<a href="/x.jsp">link</a>' + ROWS

    def test_html_is_one_text_node_and_the_link_a_reference(self):
        doc = parse_jsp(self.PAGE, "/rows.jsp")
        assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT]
        check_span_coverage(doc)
        (ref,) = extract_url_refs(doc)
        assert (ref.tag_kind, ref.raw_url) == ("a-href", "/x.jsp")
        assert doc.source[ref.span[0]:ref.span[1]] == '<a href="/x.jsp">'

    def test_markup_costs_no_tracked_objects(self):
        # About 4 here: the document, its node list and one node. At one
        # node per tag, this page held 42,000 tracked objects.
        _, grown = tracked_objects_left_by(self.PAGE)
        assert grown <= 100, f"{grown} tracked objects"

    def test_scriptlets_inside_a_plain_tag_keep_the_braces_balanced(self):
        doc = parse_jsp("<option <% if (sel) { %>selected<% } %>>", "/p.jsp")
        unit = translate_page(doc)
        assert [s.text for s in unit.service_body
                if s.kind is StatementKind.INLINE_CODE] == [" if (sel) { ", " } "]
        code = re.sub(r'"(?:\\.|[^"\\])*"', '""', render_servlet_source(unit))
        assert code.count("{") == code.count("}")

    def test_expression_inside_a_plain_attribute_is_emitted(self):
        unit = translate_page(parse_jsp('<input value="<%= q %>">', "/p.jsp"))
        assert [s.kind for s in unit.service_body] == [
            StatementKind.TEMPLATE_EMIT, StatementKind.EXPRESSION_EMIT,
            StatementKind.TEMPLATE_EMIT]

    def test_tags_inside_a_plain_attribute_are_references(self):
        refs = extract_url_refs(parse_jsp('<img src="<c:url value=\'/logo.png\'/>">',
                                          "/p.jsp"))
        assert [(r.tag_kind, r.raw_url) for r in refs] == [("c:url", "/logo.png")]
        refs = extract_url_refs(parse_jsp("<div title=\"<a href='/x'>\">", "/p.jsp"))
        assert [(r.tag_kind, r.raw_url) for r in refs] == [("a-href", "/x")]

    def test_plain_tag_attributes_are_not_checked(self):
        for source in ("<td a=1 A=2>", '<td title="x>'):
            doc = parse_jsp(source, "/p.jsp")
            assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT]
            assert doc.text_of(doc.nodes[0]) == source

    def test_scripting_between_link_attributes_keeps_the_braces_balanced(self):
        # An a tag is template text too, so the scriptlets between its
        # attributes are code, and the extractor reads the tag over them.
        doc = parse_jsp('<a href="/x.jsp" <% if (c) { %>class="y"<% } %>>', "/p.jsp")
        unit = translate_page(doc)
        assert [s.text for s in unit.service_body
                if s.kind is StatementKind.INLINE_CODE] == [" if (c) { ", " } "]
        code = re.sub(r'"(?:\\.|[^"\\])*"', '""', render_servlet_source(unit))
        assert code.count("{") == code.count("}")
        assert [r.raw_url for r in extract_url_refs(doc)] == ["/x.jsp"]

    def test_expression_in_a_link_is_emitted(self):
        unit = translate_page(parse_jsp('<a href="<%= u %>">x</a>', "/p.jsp"))
        assert [(s.kind, s.text) for s in unit.service_body] == [
            (StatementKind.TEMPLATE_EMIT, '<a href="'),
            (StatementKind.EXPRESSION_EMIT, " u "),
            (StatementKind.TEMPLATE_EMIT, '">x</a>')]


class TestRandomizedProperties:
    CASES = 300

    def check_pages(self, scripted_attrs: bool) -> list[str]:
        rng = random.Random(0xC0DE)
        sources = []
        for _ in range(self.CASES):
            source, expected = generate_page(rng, scripted_attrs=scripted_attrs)
            doc = parse_jsp(source, "/gen.jsp")
            check_span_coverage(doc)
            # scripting spans equal the brute-force delimiter scan's
            oracle = delimiter_scan(source)
            for kind, name in ((NodeKind.SCRIPTLET, "Scriptlet"),
                               (NodeKind.DECLARATION, "Declaration"),
                               (NodeKind.EXPRESSION, "Expression"),
                               (NodeKind.COMMENT, "Comment")):
                spans = [node.span for node in elements_of(doc, {kind})]
                assert spans == oracle[name], (kind, source)
                assert len(spans) == expected[name], (kind, source)
            # determinism: same bytes, structurally identical documents
            again = parse_jsp(source, "/gen.jsp")
            assert again == doc
            sources.append(source)
        return sources

    def test_span_coverage_counts_and_determinism(self):
        self.check_pages(scripted_attrs=False)

    def test_scripting_inside_plain_tag_attributes(self):
        # As in Jasper, a plain tag is template text, so a scripting element
        # in one of its attribute values, quoted or not, is an element.
        sources = self.check_pages(scripted_attrs=True)
        scripted = sum(bool(re.search(r"""=["']?\w*<%""", source)) for source in sources)
        assert scripted > self.CASES // 4


OUTCOMES = {list, DuplicateAttribute, MalformedAttribute, UnterminatedScriptlet}
# What the extractor makes of an a or form tag: a reference of either kind,
# or a diagnostic: no URL, a bad form method, or a tag it cannot read.
HTML_REFS = {"a-href", "form"}
HTML_DIAGNOSTICS = {"without", "unsupported form method", "unclosed quote",
                    "duplicate attribute"}


def outcome_kinds(pages) -> set:
    return {got[0] if isinstance(got, tuple) else list for got in map(parse_outcome, pages)}


def html_tag_outcomes(pages) -> set:
    reached = set()
    for got in map(parse_outcome, pages):
        if isinstance(got, list):
            _, refs, diagnostics = got
            reached.update(ref.tag_kind for ref in refs if ref.tag_kind in HTML_REFS)
            reached.update(kind for d in diagnostics for kind in HTML_DIAGNOSTICS
                           if kind in d.message)
    return reached


class TestScannerAgreesWithOracle:
    """The tag scanner and its EOF memo parse and extract every page as the
    character-loop oracle, which scans each tag on its own, does; every
    outcome occurs, and the extractor reads a and form tags with it, so each
    path of the scanner is compared."""

    def test_10k_pages_agree_with_the_character_loop(self):
        pages = generated_pages()
        assert disagreements(pages) == []
        assert outcome_kinds(pages) == OUTCOMES
        assert html_tag_outcomes(pages) >= HTML_DIAGNOSTICS - {"unsupported form method"}

    def test_100k_tag_soup_pages_agree_with_the_character_loop(self):
        pages = tag_soup(100_000, seed=0x50_0B)
        assert disagreements(pages) == []
        assert outcome_kinds(pages[:2000]) == OUTCOMES
        assert html_tag_outcomes(pages[:20_000]) == HTML_REFS | HTML_DIAGNOSTICS



class TestParserAgreesWithReference:
    """The parser, one frame a nesting level, against ``oracles.HtmlNodeParser``,
    which nests through two methods and also reads the ``a`` and ``form``
    tags: where it reads none, both give the same nodes or the same error."""

    def test_20k_tag_soup_pages_parse_as_the_reference_does(self):
        bad, outcomes = [], []
        for page in tag_soup(20_000, seed=5):
            reference = HtmlNodeParser(page, "/gen.jsp")
            expected: list[JspNode] | tuple = []
            try:
                reference.parse_nodes(expected)
            except JspParseError as exc:
                expected = type(exc), str(exc)
            if reference.html_spans:
                continue
            outcomes.append(type(expected))
            try:
                got = parse_jsp(page, "/gen.jsp").nodes
            except JspParseError as exc:
                got = type(exc), str(exc)
            if got != expected:
                bad.append(page)
        assert bad == []
        # Pages that parse, and pages that fail.
        assert outcomes.count(list) > 13_000 and outcomes.count(tuple) > 800
