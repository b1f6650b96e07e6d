"""Extractor tests: the ten tag/attribute pairs, ordering, dynamic flags."""

from __future__ import annotations

from collections import Counter

from jspkdm import NodeKind, classify_tag, extract_url_refs, parse_jsp
from jspkdm.jsp_parser import JspNode
from .conftest import TABLE2_PAIRS
from .oracles import regex_table2_scan


def refs_of(source: str, diagnostics=None):
    return extract_url_refs(parse_jsp(source, "/p.jsp"), diagnostics)


class TestClassifyTag:
    def test_html_names_case_insensitive(self):
        node = JspNode(kind=NodeKind.HTML_ELEMENT, name="A")
        assert classify_tag(node) == ("a-href", "href")
        node = JspNode(kind=NodeKind.HTML_ELEMENT, name="FoRm")
        assert classify_tag(node) == ("form", "action")

    def test_jsp_forward(self):
        node = JspNode(kind=NodeKind.STANDARD_ACTION, name="jsp:forward")
        assert classify_tag(node) == ("jsp:forward", "page")

    def test_absent_from_table(self):
        assert classify_tag(JspNode(kind=NodeKind.CUSTOM_ACTION, name="c:import")) is None
        assert classify_tag(JspNode(kind=NodeKind.HTML_ELEMENT, name="/a")) is None
        # case-sensitive for prefixed names
        assert classify_tag(JspNode(kind=NodeKind.CUSTOM_ACTION, name="C:URL")) is None

    def test_directive_names(self):
        include = JspNode(kind=NodeKind.DIRECTIVE, name="include")
        assert classify_tag(include) == ("include-directive", "file")
        page = JspNode(kind=NodeKind.DIRECTIVE, name="page")
        assert classify_tag(page) == ("page-directive-errorPage", "errorPage")


class TestExtraction:
    def test_form_with_method(self):
        diagnostics = []
        (ref,) = refs_of('<form action="/myPage.jsp" method="get">', diagnostics)
        assert ref.tag_kind == "form"
        assert ref.attribute == "action"
        assert ref.raw_url == "/myPage.jsp"
        assert not ref.dynamic
        assert diagnostics == []

    def test_form_method_defaults_to_get(self):
        for source in ('<form action="/x">', '<form action="/x" method="">'):
            diagnostics = []
            (ref,) = refs_of(source, diagnostics)
            assert ref.raw_url == "/x"
            assert diagnostics == []

    def test_form_method_case_and_attr_case(self):
        diagnostics = []
        (ref,) = refs_of('<FORM ACTION="/x" METHOD="POST">', diagnostics)
        assert ref.raw_url == "/x"
        assert diagnostics == []

    def test_unsupported_form_method_is_a_diagnostic(self):
        diagnostics = []
        (ref,) = refs_of('<p><Form action="/x" Method="Delete">', diagnostics)
        assert ref.raw_url == "/x"
        assert [(d.category, d.message, d.location) for d in diagnostics] == [
            ("extraction", "unsupported form method 'Delete'", "/p.jsp@3")]

    def test_page_directive_without_error_page_yields_nothing(self):
        diagnostics = []
        assert refs_of('<%@ page import="java.util.*" %>', diagnostics) == []
        assert diagnostics == []

    def test_missing_designated_attribute_is_a_diagnostic(self):
        diagnostics = []
        assert refs_of('<jsp:include flush="true" />', diagnostics) == []
        assert len(diagnostics) == 1

    def test_dynamic_urls_flagged(self):
        refs = refs_of('<a href="${target}">x</a>'
                       '<c:url value="/fixed.css" />'
                       '<jsp:forward page="<%= p %>" />'
                       '<a href="<%= u %>"></a>'
                       '<a href="/static"></a>'
                       # Only the designated attribute's value counts.
                       '<a class="${c}" href="/x.jsp">'
                       '<A HREF="<%= u %>">')
        assert [r.dynamic for r in refs] == [True, False, True, True, False, False, True]

    def test_order_is_document_order(self, table2_page):
        refs = extract_url_refs(parse_jsp(table2_page, "/t.jsp"))
        starts = [r.span[0] for r in refs]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)

    def test_trailing_dot_url_preserved_verbatim(self):
        (ref,) = refs_of('<jsp:include page="/myPage.jsp." flush="true" />')
        assert ref.raw_url == "/myPage.jsp."

    def test_ref_inside_nested_action(self):
        (ref,) = refs_of('<c:if test="a"><jsp:forward page="/x.jsp" /></c:if>')
        assert ref.tag_kind == "jsp:forward"

    def test_source_page_recorded(self):
        doc = parse_jsp('<a href="/x">x</a>', "/dir/page.jsp")
        (ref,) = extract_url_refs(doc)
        assert ref.source_page == "/dir/page.jsp"


class TestTable2Coverage:
    def test_fixture_yields_exactly_ten(self, table2_page):
        refs = extract_url_refs(parse_jsp(table2_page, "/t.jsp"))
        assert len(refs) == 10
        assert Counter((r.tag_kind, r.attribute) for r in refs) == Counter(TABLE2_PAIRS)

    def test_regex_oracle_agrees(self, table2_page):
        refs = extract_url_refs(parse_jsp(table2_page, "/t.jsp"))
        oracle = regex_table2_scan(table2_page)
        assert [(r.tag_kind, r.attribute, r.raw_url) for r in refs] == oracle

    def test_oracle_agreement_on_static_corpus_pages(self, powers_page):
        # a page with no dependency tags at all
        refs = extract_url_refs(parse_jsp(powers_page, "/powers.jsp"))
        assert refs == []
        assert regex_table2_scan(powers_page) == []
