"""Extractor tests: the ten tag/attribute pairs, ordering, dynamic flags,
and the a and form tags read out of template text."""

from __future__ import annotations

from collections import Counter

from jspkdm import TAG_TABLE, NodeKind, classify_tag, extract_url_refs, parse_jsp
from jspkdm.jsp_parser import JspNode
from .conftest import ATTRIBUTE_OF, TABLE2_PAIRS
from .fuzz_extract import compare
from .genjsp import generated_pages, tag_soup
from .oracles import regex_table2_scan


def refs_of(source: str, diagnostics=None):
    return extract_url_refs(parse_jsp(source, "/p.jsp"), diagnostics)


class TestClassifyTag:
    def test_html_rows_are_keyed_by_template_text(self):
        # The parser makes no node of an HTML tag: the extractor finds the
        # HTML rows' tags in the template text runs.
        html_rows = {name for kind, name in TAG_TABLE if kind is NodeKind.TEMPLATE_TEXT}
        assert html_rows == {"a", "form"}
        assert classify_tag(JspNode(kind=NodeKind.TEMPLATE_TEXT)) is None

    def test_jsp_forward(self):
        node = JspNode(kind=NodeKind.STANDARD_ACTION, name="jsp:forward")
        assert classify_tag(node) == ("jsp:forward", "page")

    def test_absent_from_table(self):
        assert classify_tag(JspNode(kind=NodeKind.CUSTOM_ACTION, name="c:import")) is None
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
        assert ATTRIBUTE_OF[ref.tag_kind] == "action"
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

    def test_empty_a_or_form_url_names_the_page_itself(self):
        diagnostics = []
        assert refs_of('<a href="">top</a><FORM ACTION="" method="delete"></FORM>'
                       '<a href>x</a><jsp:include page="" /><a name="n"><form>',
                       diagnostics) == []
        # An absent URL, and an empty one on a server-side tag, stay diagnostics.
        assert [(d.message, d.location) for d in diagnostics] == [
            ("<jsp:include> without page attribute", "/p.jsp@70"),
            ("<a> without href attribute", "/p.jsp@93"),
            ("<form> without action attribute", "/p.jsp@105")]

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

    def test_span_locates_the_tag(self):
        source = 'x<a href="/x">x</a><jsp:include page="/y" />'
        refs = extract_url_refs(parse_jsp(source, "/dir/page.jsp"))
        assert [source[start:end] for start, end in (r.span for r in refs)] == [
            '<a href="/x">', '<jsp:include page="/y" />']

    def test_a_value_that_holds_a_jsp_element_is_dynamic(self):
        # The c:url inside the form action is a reference of its own, and the
        # action's value is only known at request time.
        refs = refs_of('<form action="<c:url value=\'/f.jsp\'/>">'
                       '<a href="/x<% if (c) { %>?y<% } %>">'
                       '<a href="/z</c:if>">')
        assert [(r.tag_kind, r.raw_url, r.dynamic) for r in refs] == [
            ("form", "<c:url value='/f.jsp'/>", True),
            ("c:url", "/f.jsp", False),
            ("a-href", "/x<% if (c) { %>?y<% } %>", True),
            ("a-href", "/z</c:if>", True)]
        assert [r.span[0] for r in refs] == [0, 14, 39, 75]


class TestHtmlTagsInTemplateText:
    def test_tag_and_attribute_names_match_in_any_case(self):
        diagnostics = []
        refs = refs_of('<A HREF="/a.jsp"><Form action="/f"></FORM></a><A name=x>',
                       diagnostics)
        assert [(r.tag_kind, r.raw_url, r.span) for r in refs] == [
            ("a-href", "/a.jsp", (0, 17)), ("form", "/f", (17, 35))]
        # The diagnostic names the tag as written.
        assert [(d.message, d.location) for d in diagnostics] == [
            ("<A> without href attribute", "/p.jsp@46")]

    def test_only_the_tag_name_opens_a_tag(self):
        for source in ('<abbr href="/x">', '<a-b href="/x">', '<formx action="/x">',
                       '<a.b href="/x">', '</a href="/x">', '<a: href="/x">', "x a href=/x"):
            assert refs_of(source) == [], source
        refs = refs_of('<a\nhref="/x"><a/><form\taction=/f/>')
        assert [r.raw_url for r in refs] == ["/x", "/f"]

    def test_a_tag_inside_a_tag_read_is_an_attribute_value(self):
        refs = refs_of("<a title=\"<a href='/in'>\" href=\"/out\"><a href=/next>")
        assert [r.raw_url for r in refs] == ["/out", "/next"]

    def test_a_tag_is_read_over_the_jsp_elements_in_it(self):
        refs = refs_of('<a href="<%= u %>" title="<c:out value=\'t\'/>"><a href=/n>')
        assert [(r.tag_kind, r.raw_url) for r in refs] == [("a-href", "<%= u %>"),
                                                           ("a-href", "/n")]
        assert refs[0].span == (0, 46)

    def test_a_tag_inside_a_jsp_element_is_not_read(self):
        source = ("<%-- <a href='/c'> --%><% String s = \"<a href='/s'>\"; %>"
                  "<c:if test=\"<a href='/t'>\"><a href=/in></c:if>")
        assert [r.raw_url for r in refs_of(source)] == ["/in"]

    def test_an_unreadable_tag_is_template_text_and_a_diagnostic(self):
        # Each tag the scanner cannot read is text, so the search for the
        # next tag goes on inside it.
        diagnostics = []
        refs = refs_of('<a href="x><form action=/a ACTION=/b><a href=/ok>', diagnostics)
        assert [(r.raw_url, r.span) for r in refs] == [("/ok", (37, 49))]
        assert [(d.category, d.message, d.location) for d in diagnostics] == [
            ("extraction", "<a> is template text: /p.jsp@8: unclosed quote", "/p.jsp@0"),
            ("extraction", "<form> is template text: /p.jsp@11: duplicate attribute "
             "'ACTION'", "/p.jsp@11")]

    def test_an_unterminated_tag_is_template_text(self):
        diagnostics = []
        assert refs_of('<p><a href="/x" <form action=/f', diagnostics) == []
        assert diagnostics == []

    def test_a_tag_inside_an_html_comment_is_not_read(self):
        diagnostics = []
        refs = refs_of('<!-- <a href="/old.jsp">old</a> <form> --><a href="/new.jsp">',
                       diagnostics)
        assert [r.raw_url for r in refs] == ["/new.jsp"]
        assert diagnostics == []  # the form without an action is commented out too
        # A comment with no end hides the rest of the page's HTML.
        assert [r.raw_url for r in refs_of('<a href="/a"><!-- <a href="/b">')] == ["/a"]

    def test_jsp_inside_an_html_comment_still_runs(self):
        # The comment spans the text runs around the elements: only the
        # "-->" after them ends it, and the JSP include inside it is read.
        source = ('<!-- <%= x %> <a href="/hid1"> <jsp:include page="/inc.jsp"/>'
                  ' <c:if test="t"><a href="/hid2"></c:if> --> <a href="/shown">')
        assert [(r.tag_kind, r.raw_url) for r in refs_of(source)] == [
            ("jsp:include", "/inc.jsp"), ("a-href", "/shown")]

    def test_a_comment_opener_inside_a_tag_read_opens_nothing(self):
        refs = refs_of('<a title="<!--" href="/x"><a href="/y">')
        assert [r.raw_url for r in refs] == ["/x", "/y"]

    def test_comments_end_as_html_ends_them(self):
        refs = refs_of('<!--><a href="/x"><!---><a href="/y"><!----><a href="/z">'
                       '<!-- <a href="/hid"> --!><a href="/w">')
        assert [r.raw_url for r in refs] == ["/x", "/y", "/z", "/w"]


class TestExtractionAgreesWithHtmlNodes:
    """The extractor, reading the a and form tags out of template text, gives
    the references and diagnostics of the reference whose parser made a node
    of each such tag, on every page where no JSP element lies inside one."""

    def test_10k_generated_pages_agree(self):
        bad, compared = compare(generated_pages())
        assert bad == []
        assert len(compared) > 9000

    def test_20k_tag_soup_pages_agree(self):
        bad, compared = compare(tag_soup(20_000, seed=0xE7))
        assert bad == []
        assert len(compared) > 18_000
        kinds = Counter(ref.tag_kind for got in compared if isinstance(got, list)
                        for ref in got[0])
        assert kinds["a-href"] > 500 and kinds["form"] > 500
        messages = " ".join(d.message for got in compared if isinstance(got, list)
                            for d in got[1])
        for part in ("without href", "without action", "unsupported form method",
                     "unclosed quote", "duplicate attribute"):
            assert part in messages, part


class TestTable2Coverage:
    def test_fixture_yields_exactly_ten(self, table2_page):
        refs = extract_url_refs(parse_jsp(table2_page, "/t.jsp"))
        assert len(refs) == 10
        assert Counter((r.tag_kind, ATTRIBUTE_OF[r.tag_kind]) for r in refs) \
            == Counter(TABLE2_PAIRS)

    def test_regex_oracle_agrees(self, table2_page):
        refs = extract_url_refs(parse_jsp(table2_page, "/t.jsp"))
        oracle = regex_table2_scan(table2_page)
        assert [(r.tag_kind, ATTRIBUTE_OF[r.tag_kind], r.raw_url) for r in refs] == oracle

    def test_oracle_agreement_on_static_corpus_pages(self, powers_page):
        # a page with no dependency tags at all
        refs = extract_url_refs(parse_jsp(powers_page, "/powers.jsp"))
        assert refs == []
        assert regex_table2_scan(powers_page) == []
