"""Translator tests: rule mapping, mangling, rendering, and round trips."""

from __future__ import annotations

import random
import re
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from jspkdm import (
    JspDocument,
    JspNode,
    JspParseError,
    NodeKind,
    StatementKind,
    mangle_class_name,
    parse_jsp,
    render_servlet_source,
    translate_page,
)
from jspkdm.jsp_parser import iter_nodes
from jspkdm.servlet_translator import escape_java_string
from .fuzz_translate import HANDLERS, MAX_NEST, disagreements, nests
from .genjsp import (generate_adversarial_page, generate_page, generated_pages,
                     random_page_path, tag_soup)
from .oracles import (
    emit_literals,
    strip_scripting_regions,
    translate_recursively,
    unescape_java,
)


def translate(source: str, known_tag_handlers=None, diagnostics=None):
    return translate_page(parse_jsp(source, "/p.jsp"), known_tag_handlers, diagnostics)


def emitted_text(unit) -> str:
    return "".join(s.text for s in unit.service_body
                   if s.kind is StatementKind.TEMPLATE_EMIT)


def service_lines(unit) -> list[str]:
    """The rendered lines of ``_jspService`` between its prologue and
    ``out.close();``, without their indentation."""
    lines = render_servlet_source(unit).splitlines()
    start = lines.index("        ServletOutputStream out = response.getOutputStream();")
    end = lines.index("        out.close();")
    return [line.strip() for line in lines[start + 1:end]]


class TestRuleMapping:
    def test_scriptlet_to_inline_code(self):
        unit = translate("<% for (int i=0; i<10; i++) %>")
        (stmt,) = unit.service_body
        assert stmt.kind is StatementKind.INLINE_CODE
        assert stmt.text == " for (int i=0; i<10; i++) "

    def test_declaration_goes_to_class_level(self):
        unit = translate("<%! int i=0; %>")
        assert unit.service_body == []
        (decl,) = unit.declarations
        assert decl.kind is StatementKind.INLINE_CODE
        assert decl.text == "int i=0;"

    def test_expression_emit(self):
        unit = translate("<%= i %>")
        (stmt,) = unit.service_body
        assert stmt.kind is StatementKind.EXPRESSION_EMIT
        assert stmt.text == " i "

    def test_use_bean_and_properties(self):
        source = ('<jsp:useBean id="myBeans" class="package.BeansClass" '
                  'scope="session" />'
                  '<jsp:getProperty name="myBeans" property="firstName" />')
        unit = translate(source)
        bean, getter = unit.service_body
        assert bean.kind is StatementKind.BEAN_INSTANTIATION
        assert bean.metadata["bean"] == "myBeans"
        assert bean.metadata["class"] == "package.BeansClass"
        assert getter.kind is StatementKind.PROPERTY_GET
        assert getter.metadata["bean"] == "myBeans"
        assert getter.metadata["method"] == "getFirstName"

    def test_set_property_wildcard_is_single_statement(self):
        unit = translate('<jsp:setProperty name="b" property="*" />')
        (stmt,) = unit.service_body
        assert stmt.kind is StatementKind.PROPERTY_SET
        assert stmt.metadata["property"] == "*"
        assert "method" not in stmt.metadata

    def test_use_bean_without_class_downgrades(self):
        diagnostics = []
        unit = translate('<jsp:useBean id="b" scope="page" />', diagnostics=diagnostics)
        (stmt,) = unit.service_body
        assert stmt.kind is StatementKind.TEMPLATE_EMIT
        assert stmt.text == '<jsp:useBean id="b" scope="page" />'
        assert [(d.category, d.location) for d in diagnostics] \
            == [("translation", "/p.jsp@0")]

    def test_include_is_emitted_verbatim(self):
        source = '<jsp:include page="/myPage.jsp." flush="true" />'
        unit = translate(source)
        (stmt,) = unit.service_body
        assert stmt.kind is StatementKind.TEMPLATE_EMIT
        assert stmt.text == source

    def test_directives_and_html_are_emitted(self):
        source = '<%@ page errorPage="/e.jsp" %><b>x</b><c:url value="/s.css" />'
        unit = translate(source)
        (stmt,) = unit.service_body  # one coalesced emit run
        assert stmt.kind is StatementKind.TEMPLATE_EMIT
        assert stmt.text == source

    def test_comment_never_reaches_output(self):
        unit = translate("a<%-- hidden --%>b")
        (stmt,) = unit.service_body
        assert stmt.text == "ab"

    def test_page_directive_imports_collected(self):
        unit = translate('<%@ page import="java.util.*, java.io.File" %>')
        assert unit.imports == ["java.util.*", "java.io.File"]

    def test_40000_imports_translate_in_linear_time(self):
        # Each import is looked up in a set; a scan of the list so far took
        # 3.6 s for 20,000 of them.
        names = [f"p{i % 30_000}.C" for i in range(40_000)]
        doc = parse_jsp(f'<%@ page import="{", ".join(names)}" %>', "/p.jsp")
        start = time.perf_counter()
        unit = translate_page(doc)
        elapsed = time.perf_counter() - start
        assert unit.imports == names[:30_000]
        assert elapsed < 1.0, f"40,000 imports took {elapsed:.2f} s"

    def test_xml_page_directive_imports_collected(self):
        source = ('<jsp:directive.page import="java.util.List, java.io.File"/>'
                  '<%@ page import="java.io.File" %><jsp:directive.include import="x.Y"/>')
        unit = translate(source)
        assert unit.imports == ["java.util.List", "java.io.File"]
        assert [(s.kind, s.text) for s in unit.service_body] == [
            (StatementKind.TEMPLATE_EMIT, source)]

    def test_known_tag_handler_call(self):
        handlers = {"c:redirect": "org.apache.taglibs.standard.tag.rt.core.RedirectTag"}
        unit = translate('<c:redirect url="/x.jsp" /><c:url value="/s.css" />',
                         handlers)
        call, emit = unit.service_body
        assert call.kind is StatementKind.TAG_HANDLER_CALL
        assert call.metadata["tag"] == "c:redirect"
        assert call.metadata["methods"][-2:] == ["doStartTag", "doEndTag"]
        assert emit.kind is StatementKind.TEMPLATE_EMIT

    def test_nested_action_children_are_translated(self):
        source = '<c:if test="a"><% guard(); %>text</c:if>'
        unit = translate(source)
        kinds = [s.kind for s in unit.service_body]
        assert kinds == [StatementKind.TEMPLATE_EMIT, StatementKind.INLINE_CODE,
                         StatementKind.TEMPLATE_EMIT]
        assert unit.service_body[0].text == '<c:if test="a">'
        assert unit.service_body[2].text == "text</c:if>"


class TestPowersRoundTrip:
    def test_template_round_trip(self, powers_page):
        unit = translate_page(parse_jsp(powers_page, "/powers.jsp"))
        assert emitted_text(unit) == strip_scripting_regions(powers_page)

    def test_statement_count_conservation(self, powers_page):
        doc = parse_jsp(powers_page, "/powers.jsp")
        unit = translate_page(doc)
        inline = [s for s in unit.service_body
                  if s.kind is StatementKind.INLINE_CODE]
        exprs = [s for s in unit.service_body
                 if s.kind is StatementKind.EXPRESSION_EMIT]
        kinds = [n.kind for n in iter_nodes(doc.nodes)]
        assert len(inline) == kinds.count(NodeKind.SCRIPTLET) == 2
        assert len(exprs) == kinds.count(NodeKind.EXPRESSION) == 3
        assert len(unit.declarations) == 0


class TestMangling:
    def test_stated_mapping(self):
        assert mangle_class_name("/powers.jsp") == "jsp_powers_002ejsp"
        assert mangle_class_name("/detail.jsp") == "jsp_detail_002ejsp"

    def test_slash_vs_underscore_do_not_collide(self):
        assert mangle_class_name("/a/b.jsp") != mangle_class_name("/a_b.jsp")

    def test_hex_after_slash_does_not_imitate_an_escape(self):
        # "." escapes to "_002e"; a literal "/002e..." must not produce it
        assert mangle_class_name("/a.jsp") != mangle_class_name("/a/002ejsp")

    def test_output_is_an_identifier(self):
        rng = random.Random(7)
        for _ in range(50):
            name = mangle_class_name(random_page_path(rng))
            assert re.fullmatch(r"[A-Za-z_]\w*", name)

    def test_exhaustive_injectivity_over_adversarial_alphabet(self):
        # every path over the characters that could fake an escape sequence
        from itertools import product
        alphabet = "/._a0e"
        paths = ["/" + "".join(tail)
                 for length in range(0, 5)
                 for tail in product(alphabet, repeat=length)]
        names = [mangle_class_name(p) for p in paths]
        assert len(set(names)) == len(paths)

    def test_hundred_random_paths_are_distinct(self):
        rng = random.Random(11)
        paths = set()
        while len(paths) < 100:
            paths.add(random_page_path(rng))
        names = {mangle_class_name(p) for p in paths}
        assert len(names) == 100

    def test_deterministic(self):
        assert mangle_class_name("/x/y.jsp") == mangle_class_name("/x/y.jsp")


class TestRendering:
    def test_empty_unit_skeleton(self):
        unit = translate("")
        source = render_servlet_source(unit)
        assert source.count("class ") == 1
        for method in ("_jspInit", "_jspService", "_jspDestroy"):
            assert method in source

    def test_powers_render(self, powers_page):
        unit = translate_page(parse_jsp(powers_page, "/powers.jsp"))
        source = render_servlet_source(unit)
        assert len(re.findall(r"\bclass\s+\w+", source)) == 1
        assert "_jspService" in source
        assert "".join(emit_literals(source)) == strip_scripting_regions(powers_page)

    def test_escape_round_trip(self):
        rng = random.Random(23)
        alphabet = 'ab"\\\n\r\t<>%$ '
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            assert unescape_java(escape_java_string(text)) == text

    def test_emit_literals_round_trip(self):
        source = 'He said "hi"\\no'
        unit = translate(source)
        rendered = render_servlet_source(unit)
        assert emit_literals(rendered) == [source]

    def test_render_deterministic(self, powers_page):
        unit = translate_page(parse_jsp(powers_page, "/powers.jsp"))
        assert render_servlet_source(unit) == render_servlet_source(unit)

    @pytest.mark.parametrize("action, line", [
        ('<jsp:useBean id="cart" class="shop.Cart" scope="session"/>',
         "shop.Cart cart = new shop.Cart();"),
        ('<jsp:getProperty name="cart" property="total"/>',
         "out.print(cart.getTotal());"),
        ('<jsp:setProperty name="cart" property="*"/>',
         '// jsp:setProperty property="*" on cart'),
        ('<jsp:setProperty name="cart" property="owner" value="<%= user.getName() %>"/>',
         "cart.setOwner(user.getName());"),
        ("<jsp:setProperty name=\"cart\" property=\"note\" value='say \"hi\"'/>",
         'cart.setNote("say \\"hi\\"");'),
        ('<jsp:setProperty name="cart" property="count" param="n"/>',
         'cart.setCount(request.getParameter("n"));'),
        ('<jsp:setProperty name="cart" property="size"/>',
         'cart.setSize(request.getParameter("size"));'),
        ("<jsp:setProperty name=\"cart\" property=\"count\" param='q\"r\\s'/>",
         'cart.setCount(request.getParameter("q\\"r\\\\s"));'),
        ('<c:redirect url="/x.jsp"/>',
         "// custom tag c:redirect -> org.example.RedirectTag "
         "(setAttribute/doStartTag/doEndTag)"),
    ])
    def test_action_renders_as(self, action, line):
        unit = translate(action, {"c:redirect": "org.example.RedirectTag"})
        assert service_lines(unit) == [line]

    @pytest.mark.parametrize("action, line, name", [
        ('<jsp:getProperty name="cart"/>',
         'out.print("<jsp:getProperty name=\\"cart\\"/>");', "jsp:getProperty"),
        ('<jsp:setProperty property="size"/>',
         'out.print("<jsp:setProperty property=\\"size\\"/>");', "jsp:setProperty"),
    ])
    def test_property_action_without_name_or_property_is_emitted(self, action, line, name):
        diagnostics = []
        unit = translate(action, diagnostics=diagnostics)
        assert service_lines(unit) == [line]
        assert [(d.category, d.message, d.location) for d in diagnostics] == [
            ("translation", f"{name} missing name/property attribute", "/p.jsp@0")]


class TestRandomizedProperties:
    CASES = 300

    def test_round_trip_order_and_conservation(self):
        rng = random.Random(0xBEEF)
        for _ in range(self.CASES):
            source, expected = generate_page(rng)
            doc = parse_jsp(source, "/gen.jsp")
            unit = translate_page(doc)
            # template round trip (no bean/handler statements generated)
            assert emitted_text(unit) == strip_scripting_regions(source)
            # order preservation: strictly increasing origin starts
            starts = [s.origin_span[0] for s in unit.service_body]
            assert starts == sorted(starts)
            assert len(set(starts)) == len(starts)
            # statement-count conservation
            inline = sum(1 for s in unit.service_body
                         if s.kind is StatementKind.INLINE_CODE)
            exprs = sum(1 for s in unit.service_body
                        if s.kind is StatementKind.EXPRESSION_EMIT)
            assert inline == expected["Scriptlet"]
            assert exprs == expected["Expression"]
            assert len(unit.declarations) == expected["Declaration"]
            # render -> re-parse: literals reproduce each emit text exactly
            rendered = render_servlet_source(unit)
            expected_literals = [s.text for s in unit.service_body
                                 if s.kind is StatementKind.TEMPLATE_EMIT]
            assert emit_literals(rendered) == expected_literals


class TestRunBuffer:
    """Template text is kept as source runs and sliced once per statement.
    The recursive reference keeps a text buffer instead: it slices each
    piece of text as it goes."""

    def test_statements_match_the_text_buffer(self):
        rng = random.Random(0x5EED)
        handlers = {"c:if": "org.example.IfTag", "c:url": "org.example.UrlTag"}
        checked = 0
        for i in range(2000):
            source = generate_page(rng)[0] if i % 2 else generate_adversarial_page(rng)
            try:
                doc = parse_jsp(source, "/gen.jsp")
            except JspParseError:
                continue
            known = handlers if i % 3 == 0 else None
            unit = translate_page(doc, known)
            reference = translate_recursively(doc, known)
            assert unit.service_body == reference.service_body
            assert unit.declarations == reference.declarations
            assert unit.imports == reference.imports
            checked += 1
        assert checked > 1200

    def test_flat_megabyte_page_translates_in_little_memory(self):
        rows = [f'<tr id="r{n}"><td class="c">cell {n}</td><td>text</td></tr>'
                f'<a href="/p{n}.jsp">link</a>\n' for n in range(12_000)]
        source = "<html><body>\n" + "".join(rows) + "</body></html>\n"
        assert len(source) > 1_000_000
        doc = parse_jsp(source, "/big.jsp")
        tracemalloc.start()
        try:
            unit = translate_page(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "".join(s.text for s in unit.service_body) == source
        # A (text, span) pair per node and a slice per tag cost about 16x.
        assert peak < 3 * len(source), f"peak {peak / len(source):.1f}x the page"


class TestOneLoopAgreesWithRecursion:
    """The translator's one loop gives the statements, declarations, imports
    and diagnostics of the recursive reference, page for page, with and
    without known tag handlers."""

    def test_10k_generated_pages_agree(self):
        assert disagreements(generated_pages()) == []

    def test_tag_soup_pages_agree_and_reach_every_rule(self):
        pages = tag_soup(20_000, seed=0x7A65)
        assert disagreements(pages) == []
        kinds, diagnostics, imports, declarations = set(), set(), set(), 0
        for page in pages[:5000]:
            try:
                doc = parse_jsp(page, "/gen.jsp")
            except JspParseError:
                continue
            found = []
            unit = translate_page(doc, HANDLERS, found)
            kinds.update(s.kind for s in unit.service_body)
            diagnostics.update(d.message for d in found)
            imports.update(unit.imports)
            declarations += len(unit.declarations)
        assert kinds == set(StatementKind)
        assert diagnostics == {"jsp:useBean without class attribute",
                               "jsp:getProperty missing name/property attribute",
                               "jsp:setProperty missing name/property attribute"}
        assert imports == {"java.util.List"}  # from the XML page directive
        assert declarations > 0

    def test_nests_up_to_300_levels_agree(self):
        depths = [*range(21), *range(40, MAX_NEST + 1, 20)]
        assert disagreements(nests(0x4E57, depths)) == []


def custom_tag_chain(tags: list[tuple[str, str]], known_tag_handlers=None):
    """The source and translation of a page of the closed custom tags
    ``tags``, each inside the last and each open tag followed by an "x". Its
    node chain is built by hand, not parsed."""
    source = "".join(open_tag + "x" for open_tag, _ in tags) \
        + "".join(close_tag for _, close_tag in reversed(tags))
    opened = []
    pos = 0
    for open_tag, _ in tags:
        opened.append((pos, pos + len(open_tag)))
        pos += len(open_tag) + 1
    node = None
    for (start, tag_end), (open_tag, close_tag) in zip(reversed(opened), reversed(tags)):
        text = JspNode(NodeKind.TEMPLATE_TEXT, span=(tag_end, tag_end + 1))
        close_start = pos
        pos += len(close_tag)
        node = JspNode(NodeKind.CUSTOM_ACTION, open_tag[1:-1], span=(start, pos),
                       inner_span=(tag_end, close_start),
                       children=(text,) if node is None else (text, node))
    doc = JspDocument("/deep.jsp", [node], source)
    return source, translate_page(doc, known_tag_handlers)


class TestDeepPages:
    """The translator holds one stack entry per open action, and no frame."""

    def test_490_level_nest_translates(self):
        depth = 490
        source = '<c:if test="t">x' * depth + "</c:if>" * depth
        # The parser still recurses, two frames a level: in a thread of its
        # own it starts from an empty stack, as under the command line.
        with ThreadPoolExecutor(1) as pool:
            doc = pool.submit(parse_jsp, source, "/deep.jsp").result(timeout=60)
        unit = translate_page(doc, {"c:if": "org.example.IfTag"})
        assert [(s.kind, s.origin_span) for s in unit.service_body[0::2]] == [
            (StatementKind.TAG_HANDLER_CALL, (16 * level, len(source) - 7 * level))
            for level in range(depth)]
        assert [(s.kind, s.text) for s in unit.service_body[1::2]] \
            == [(StatementKind.TEMPLATE_EMIT, "x")] * depth
        assert [s.text for s in translate_page(doc).service_body] == [source]

    def test_a_known_nest_holds_each_byte_once(self):
        # An action's statement text is its open tag. As the whole element,
        # the statements of this 400-level nest held 1.8 million characters.
        source = '<c:if test="t">x' * 400 + "</c:if>" * 400
        with ThreadPoolExecutor(1) as pool:
            doc = pool.submit(parse_jsp, source, "/deep.jsp").result(timeout=60)
        unit = translate_page(doc, {"c:if": "org.example.IfTag"})
        assert len(unit.service_body) == 800
        assert sum(len(s.text) for s in unit.service_body) <= len(source)
        assert unit.service_body[0].text == '<c:if test="t">'

    def test_5000_deep_node_chain_translates(self):
        outer, inner = 4990, 10
        tags = [("<x:y>", "</x:y>")] * outer + [("<c:if>", "</c:if>")] * inner
        source, unit = custom_tag_chain(tags)
        assert [s.text for s in unit.service_body] == [source]
        source, unit = custom_tag_chain(tags, {"c:if": "org.example.IfTag"})
        got = [(s.kind, s.text) for s in unit.service_body]
        calls = [(StatementKind.TAG_HANDLER_CALL, "<c:if>")] * inner
        assert got[0] == (StatementKind.TEMPLATE_EMIT, "<x:y>x" * outer)
        assert got[1::2] == calls
        assert got[2:-1:2] == [(StatementKind.TEMPLATE_EMIT, "x")] * (inner - 1)
        assert got[-1] == (StatementKind.TEMPLATE_EMIT, "x" + "</x:y>" * outer)
