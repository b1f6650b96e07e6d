"""Parser tests: kinds, spans, errors, the randomized span/count suites, the
node-per-tag shape that the translation and extraction do not depend on, and
the text run that must skip only what the tag-by-tag path reads as text."""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from jspkdm import (
    TAG_TABLE,
    DuplicateAttribute,
    JspNode,
    JspParseError,
    MalformedAttribute,
    NodeKind,
    UnterminatedScriptlet,
    elements_of,
    extract_url_refs,
    jsp_parser,
    parse_jsp,
    translate_page,
)
from .fuzz_text_run import NO_TEXT_RUN, disagreements, parse_outcome, tag_soup
from .genjsp import generate_adversarial_page, generate_page
from .oracles import check_span_coverage, delimiter_scan, scan_tag_attrs_oracle


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
        assert doc.nodes[1].kind is NodeKind.HTML_ELEMENT
        assert doc.nodes[1].name == "FORM"

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

    def test_page_path_normalized(self):
        assert parse_jsp("", "powers.jsp").page_path == "/powers.jsp"
        assert parse_jsp("", "//a//b.jsp").page_path == "/a/b.jsp"

    def test_parse_file_with_encoding_override(self, tmp_path):
        from jspkdm import parse_jsp_file
        page = tmp_path / "latin.jsp"
        page.write_bytes("<p>café</p>".encode("latin-1"))
        doc = parse_jsp_file(page, "/latin.jsp", encoding="latin-1")
        assert "café" in doc.source
        with pytest.raises(UnicodeDecodeError):
            parse_jsp_file(page, "/latin.jsp")


class TestAttributes:
    def test_quote_styles(self):
        doc = parse_jsp("<a a=\"one\" b='two' c=three>", "/p.jsp")
        node = doc.nodes[0]
        assert node.attribute_value("a") == "one"
        assert node.attribute_value("b") == "two"
        assert node.attribute_value("c") == "three"

    def test_boolean_attribute(self):
        doc = parse_jsp("<form novalidate>", "/p.jsp")
        assert doc.nodes[0].attribute_value("novalidate") == ""

    def test_expression_inside_quoted_value(self):
        doc = parse_jsp('<a href="<%= base %>/x.jsp">', "/p.jsp")
        assert doc.nodes[0].attribute_value("href") == "<%= base %>/x.jsp"

    def test_duplicate_attribute_is_an_error(self):
        with pytest.raises(DuplicateAttribute):
            parse_jsp('<form action="/a" ACTION="/b">', "/p.jsp")
        with pytest.raises(DuplicateAttribute):
            parse_jsp('<%@ page import="a" import="b" %>', "/p.jsp")

    def test_unclosed_quote_is_an_error(self):
        with pytest.raises(MalformedAttribute):
            parse_jsp('<form action="/a>', "/p.jsp")

    def test_unterminated_scriptlet_is_an_error(self):
        for source in ("<% int i = 0;", "<%= i", "<%! int i;", "<%-- gone"):
            with pytest.raises(UnterminatedScriptlet):
                parse_jsp(source, "/p.jsp")

    def test_unterminated_tag_at_eof_is_text(self):
        doc = parse_jsp("x <form action=/a", "/p.jsp")
        assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT]

    def test_unterminated_tags_after_an_eof_scan_are_text(self):
        doc = parse_jsp("<a b <c d <e f= <g 'h' <i j=", "/p.jsp")
        assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT]

    def test_duplicate_found_by_a_scan_reaching_an_eof_scan(self):
        # The "<x" scan reaches EOF; the "<y" scan inside its quoted value
        # then meets the last "a" again and must still raise.
        with pytest.raises(DuplicateAttribute) as info:
            parse_jsp("<x q='<y a ' a", "/p.jsp")
        assert info.value.offset == 6
        assert "duplicate attribute 'a'" in str(info.value)
        with pytest.raises(DuplicateAttribute, match="'a'"):
            parse_jsp("<p q='<r A ' a", "/p.jsp")

    def test_eof_after_equals_skips_the_duplicate_check(self):
        doc = parse_jsp("<x a a=", "/p.jsp")
        assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT]
        with pytest.raises(DuplicateAttribute):
            parse_jsp("<x a a", "/p.jsp")

    def test_unicode_whitespace_separates_attributes(self):
        doc = parse_jsp("<a a=1\u00a0b='2'\x0bc>", "/p.jsp")
        assert doc.nodes[0].attributes == (("a", "1"), ("b", "2"), ("c", ""))

    def test_empty_unquoted_value(self):
        doc = parse_jsp("<c:x a= /><form b=>", "/p.jsp")
        assert [(n.name, n.attributes) for n in doc.nodes] == [("c:x", (("a", ""),)),
                                                               ("form", (("b", ""),))]


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
        assert rest <= {NodeKind.TEMPLATE_TEXT, NodeKind.HTML_ELEMENT}
        spans = delimiter_scan(powers_page)
        assert len(spans["Scriptlet"]) == self.EXPECTED_SCRIPTLETS
        assert len(spans["Expression"]) == self.EXPECTED_EXPRESSIONS

    def test_span_coverage(self, powers_page):
        check_span_coverage(parse_jsp(powers_page, "/powers.jsp"))


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
        # children tuple per closed action. It is built from tags that
        # become nodes; a plain HTML tag is template text. Attributes are
        # tuples of strings, which the collector untracks; as NamedTuple
        # records they kept two tracked objects each, 1.5 a node here. Nodes
        # that each carry two lists of their own, empty or not, cost 3.2.
        page = ('<a class="c">x</a><form>y<c:if test="a">y<a>z</a></c:if><% s %>'
                '<%= e %><%-- c --%><jsp:include page="/i.jsp" />'
                '<a href="/x.jsp">l</a><br>') * 2000
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
        # the peak is read in a child of its own. A run bounded to 256 tokens
        # grows it by about 0 MB; an unbounded repeat over this page, by 76.
        src = str(Path(jsp_parser.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", PEAK_GROWTH_CHILD], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert float(out) < 8, f"the parse raised the peak RSS by {float(out):.1f} MB"


class TestPlainMarkupIsTemplateText:
    # 7000 table rows (42,000 HTML tags) around one link.
    ROWS = '<tr><td class="c">x</td></tr>\n' * 3500
    PAGE = ROWS + '<a href="/x.jsp">link</a>' + ROWS

    def test_only_the_dependency_tag_becomes_a_node(self):
        doc = parse_jsp(self.PAGE, "/rows.jsp")
        assert len(doc.nodes) <= 3
        assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT, NodeKind.HTML_ELEMENT,
                                 NodeKind.TEMPLATE_TEXT]
        assert doc.nodes[1].attribute_value("href") == "/x.jsp"
        check_span_coverage(doc)

    def test_markup_costs_no_tracked_objects(self):
        # About 6 here: the document, its node list and three nodes. At one
        # node per tag, this page held 42,000 tracked objects.
        _, grown = tracked_objects_left_by(self.PAGE)
        assert grown <= 100, f"{grown} tracked objects"

    def test_a_plain_tag_is_still_scanned(self):
        doc = parse_jsp('<div title="<% x %>">t</div>', "/p.jsp")
        assert kinds_of(doc) == [NodeKind.TEMPLATE_TEXT]
        with pytest.raises(DuplicateAttribute):
            parse_jsp("<td a=1 A=2>", "/p.jsp")
        with pytest.raises(MalformedAttribute):
            parse_jsp('<td title="x>', "/p.jsp")

    def test_dependency_tags_match_case_insensitively(self):
        doc = parse_jsp('<A HREF="/a.jsp"><Form action="/f"></FORM></a>', "/p.jsp")
        assert [n.name for n in doc.nodes] == ["A", "Form", ""]
        assert doc.text_of(doc.nodes[2]) == "</FORM></a>"

    def test_html_node_names_are_the_extractors_html_tags(self):
        html_rows = {name for kind, name in TAG_TABLE if kind is NodeKind.HTML_ELEMENT}
        assert jsp_parser._HTML_NODE_NAMES == html_rows


class _EveryName:
    """An HTML-name set that holds every name: a node per HTML tag."""

    def __contains__(self, name: str) -> bool:
        return True


HANDLERS = {"c:if": "org.example.IfTag", "c:url": "org.example.UrlTag"}

# Tags spliced into generated pages, so both shapes meet the dependency
# tags and what the translation reports on.
SPLICED_BITS = ['<a href="/x.jsp">', "</a>", "<A HREF='${u}'>", "<a>",
                '<a href="<%= u %>" class=c>', '<form action="/f" method="delete">',
                '<FORM ACTION="/g" METHOD=post>', "<form>", "</form>", "<a href=",
                '<form action="/h', '<jsp:useBean id="b" />', '<jsp:getProperty name="b" />']


def both_steps(source: str, page_path: str = "/gen.jsp"):
    """The translation and extraction of a page, or its parse error."""
    try:
        doc = parse_jsp(source, page_path)
    except JspParseError as exc:
        return type(exc), str(exc), exc.offset
    translation, extraction = [], []
    unit = translate_page(doc, HANDLERS, translation)
    refs = extract_url_refs(doc, extraction)
    return unit, translation, refs, extraction


class TestNodePerTagShapeAgrees:
    CASES = 3000

    def test_both_shapes_translate_and_extract_alike(self, monkeypatch, fixture_webapp):
        rng = random.Random(0x7A6)
        pages = []
        for k in range(self.CASES):
            parts = [generate_adversarial_page(rng) if k % 2 else generate_page(rng)[0]
                     for _ in range(2)]
            for _ in range(rng.randint(0, 4)):
                parts.insert(rng.randrange(len(parts) + 1), rng.choice(SPLICED_BITS))
            pages.append(("/gen.jsp", "".join(parts)))
        pages += [("/" + p.relative_to(fixture_webapp).as_posix(), p.read_text("utf-8"))
                  for p in sorted(fixture_webapp.rglob("*.jsp"))]
        kept = [both_steps(source, path) for path, source in pages]
        # Every "<" takes the tag-by-tag path, where the set is looked up.
        monkeypatch.setattr(jsp_parser, "_TEXT_RUN_RE", NO_TEXT_RUN)
        monkeypatch.setattr(jsp_parser, "_HTML_NODE_NAMES", _EveryName())
        assert kinds_of(parse_jsp("<p>x</p>", "/p.jsp")) == [NodeKind.HTML_ELEMENT,
                                                             NodeKind.TEMPLATE_TEXT,
                                                             NodeKind.HTML_ELEMENT]
        for (path, source), got in zip(pages, kept):
            assert got == both_steps(source, path), source
        # Both outcomes, refs and diagnostics of each step occur.
        units = [got for got in kept if not isinstance(got[0], type)]
        assert len(units) < len(kept)
        assert all(any(got[i] for got in units) for i in (1, 2, 3))


class TestRandomizedProperties:
    CASES = 300

    def test_span_coverage_counts_and_determinism(self):
        rng = random.Random(0xC0DE)
        for _ in range(self.CASES):
            source, expected = generate_page(rng)
            doc = parse_jsp(source, "/gen.jsp")
            check_span_coverage(doc)
            # kind counts equal the brute-force delimiter scan
            oracle = delimiter_scan(source)
            for kind, name in ((NodeKind.SCRIPTLET, "Scriptlet"),
                               (NodeKind.DECLARATION, "Declaration"),
                               (NodeKind.EXPRESSION, "Expression"),
                               (NodeKind.COMMENT, "Comment")):
                got = len(elements_of(doc, {kind}))
                assert got == len(oracle[name]) == expected[name], (kind, source)
            # determinism: same bytes, structurally identical documents
            again = parse_jsp(source, "/gen.jsp")
            assert again == doc


def generated_pages(count: int = 10_000) -> list[str]:
    """Seeded ``genjsp`` pages, three in four of them adversarial."""
    rng = random.Random(0x5CA7)
    return [generate_adversarial_page(rng) if k % 4 else generate_page(rng)[0]
            for k in range(count)]


class TestScannerAgreesWithOracle:
    def test_10k_pages_agree_with_the_character_loop(self, monkeypatch):
        pages = generated_pages()
        fast = [parse_outcome(page) for page in pages]
        # The oracle side scans every tag, plain ones included.
        monkeypatch.setattr(jsp_parser, "_TEXT_RUN_RE", NO_TEXT_RUN)
        monkeypatch.setattr(
            jsp_parser._Parser, "_scan_tag_attrs",
            lambda parser, pos, tag_start: scan_tag_attrs_oracle(
                parser.source, pos, tag_start, parser.page_path))
        for page, got in zip(pages, fast):
            assert got == parse_outcome(page), page
        # Every outcome occurs, so each path of the scanner is compared.
        kinds = {got[0] if isinstance(got, tuple) else list for got in fast}
        assert kinds == {list, DuplicateAttribute, MalformedAttribute,
                         UnterminatedScriptlet}


class TestTextRunAgreesWithTagByTag:
    """The text-run regex skips only what the tag-by-tag path reads as
    template text, up to the same offset: with the regex patched to match
    only the empty string, every page parses to the same outcome."""

    def test_generated_pages(self):
        assert disagreements(generated_pages()) == []

    def test_100k_tag_soup_pages(self):
        pages = tag_soup(100_000, seed=0x50_0B)
        assert disagreements(pages) == []
        # Each outcome occurs, and about half the pages start with a tag that
        # the run skips.
        kinds = {got[0] if isinstance(got, tuple) else list
                 for got in map(parse_outcome, pages[:2000])}
        assert kinds == {list, DuplicateAttribute, MalformedAttribute,
                         UnterminatedScriptlet}
        skipped = sum("<" in page[:jsp_parser._TEXT_RUN_RE.match(page).end()]
                      for page in pages[:2000])
        assert skipped > 800

    def test_runs_longer_than_the_bound(self):
        # A row is six tokens; a run stops after 256 and the next one goes on.
        rows = '<tr><td class="c">x</td></tr>\n'
        tails = ['<a href="/x.jsp">l</a>', '<c:if test="t">y</c:if>', "</c:if>",
                 "<p x=1 X=2>", '<td title="x>', '<t a="v" ', "<% open", "<", ""]
        pages = [rows * count + tail for count in (42, 43, 100) for tail in tails]
        pages += ["<b>" * count + tail for count in (255, 256, 257, 512, 513)
                  for tail in tails]
        pages += [f'<c:if test="t">{rows * 100}<a href="/x.jsp">{rows * 100}</c:if>']
        assert jsp_parser._TEXT_RUN_RE.match(rows * 100).end() < len(rows * 100)
        assert disagreements(pages) == []

    def test_dependency_tags_end_a_run_in_any_case(self):
        for name in jsp_parser._HTML_NODE_NAMES:
            for tag in (name, name.upper(), name.title()):
                assert jsp_parser._TEXT_RUN_RE.match(f"<td><{tag} x=1>").end() == 4
