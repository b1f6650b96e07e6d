"""Seeded random JSP page generator for the property suites.

Pages are built fragment by fragment with known expected counts, constrained
so the independent delimiter-scan oracle agrees with the parser: scripting
delimiters only inside the attribute values of plain HTML tags, which are
template text, no "%>" inside embedded Java, no quotes in generated Java
snippets.
"""

from __future__ import annotations

import random

from jspkdm import JspParseError, extract_url_refs, parse_jsp

WORDS = ["alpha", "beta", "gamma", "delta", "rows", "value", "total", "item",
         "page", "menu", "web", "zone", "list", "data", "42", "x1"]

JAVA_BITS = ["int i = 0;", "i++;", "total += i;", "if (i < 10) {", "}",
             "for (int k = 0; k < n; k++) {", "compute(i, k);",
             "long p = 1L << i;", "done = i >= limit;"]

HTML_TAGS = ["div", "p", "b", "td", "tr", "table", "span", "h2", "center"]

ATTR_NAMES = ["id", "width", "align", "title", "border", "lang"]


def _text(rng: random.Random) -> str:
    pieces = [rng.choice(WORDS) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.15:
        pieces.insert(rng.randrange(len(pieces) + 1), "< ")
    if rng.random() < 0.1:
        pieces.append("a > b")
    sep = rng.choice([" ", " ", "\n"])
    return sep.join(pieces) + rng.choice([" ", "\n", ""])


def _java(rng: random.Random) -> str:
    return " " + " ".join(rng.choice(JAVA_BITS)
                          for _ in range(rng.randint(1, 3))) + " "


def _attrs(rng: random.Random, dynamic_ok: bool = False) -> str:
    names = rng.sample(ATTR_NAMES, rng.randint(0, 3))
    parts = []
    for name in names:
        value = rng.choice(WORDS)
        if dynamic_ok and rng.random() < 0.3:
            value = "${" + value + "}"
        quote = rng.choice(['"', '"', "'", ""])
        if quote:
            parts.append(f' {name}={quote}{value}{quote}')
        else:
            parts.append(f" {name}={value}")
    return "".join(parts)


# (opener, closer, counts key) of the scripting elements and JSP comment.
SCRIPTING = [("<%", "%>", "Scriptlet"), ("<%=", "%>", "Expression"),
             ("<%!", "%>", "Declaration"), ("<%--", "--%>", "Comment")]


def _scripted_attr(rng: random.Random, counts: dict[str, int]) -> str:
    """An attribute whose value holds a scripting element or JSP comment,
    quoted or not; Jasper reads it as an element of its own."""
    opener, closer, kind = rng.choice(SCRIPTING)
    counts[kind] += 1
    body = (" " + rng.choice(WORDS) + " ") if kind == "Comment" else _java(rng)
    quote = rng.choice(['"', "'", ""])
    before = rng.choice(["", rng.choice(WORDS)])
    return f" {rng.choice(ATTR_NAMES)}={quote}{before}{opener}{body}{closer}{quote}"


def _html(rng: random.Random, counts: dict[str, int] | None = None) -> str:
    """A plain HTML tag; given ``counts``, an open tag may also carry a
    scripting element in an attribute value, counted there."""
    tag = rng.choice(HTML_TAGS)
    style = rng.random()
    if style < 0.4 or style >= 0.7:
        attrs = _attrs(rng)
        if counts is not None and rng.random() < 0.7:
            attrs += _scripted_attr(rng, counts)
        return f"<{tag}{attrs}>" if style < 0.4 else f"<{tag}{attrs} />"
    return f"</{tag}>"


def _emit_action(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return f'<jsp:include page="/{rng.choice(WORDS)}.jsp" flush="true" />'
    return f'<jsp:forward page="/{rng.choice(WORDS)}.jsp" />'


def _directive(rng: random.Random) -> str:
    return rng.choice([
        '<%@ page import="java.util.*" %>',
        '<%@ taglib prefix="c" uri="jstl/core" %>',
        '<%@ include file="/shared.jspf" %>',
    ])


def generate_page(rng: random.Random, *, allow_nesting: bool = True,
                  size: int | None = None, scripted_attrs: bool = False
                  ) -> tuple[str, dict[str, int]]:
    """A random page plus the expected scripting-region counts. With
    ``scripted_attrs``, plain tags may hold scripting elements in their
    attribute values."""
    counts = {"Scriptlet": 0, "Declaration": 0, "Expression": 0, "Comment": 0}
    parts: list[str] = []

    def fragment(depth: int) -> str:
        k = rng.randrange(12)
        if k == 0:
            counts["Scriptlet"] += 1
            return "<%" + _java(rng) + "%>"
        if k == 1:
            counts["Expression"] += 1
            return "<%=" + _java(rng) + "%>"
        if k == 2:
            counts["Declaration"] += 1
            return "<%!" + _java(rng) + "%>"
        if k == 3:
            counts["Comment"] += 1
            return "<%-- " + " ".join(rng.choice(WORDS) for _ in range(3)) + " --%>"
        if k == 4:
            return _directive(rng)
        if k == 5:
            return _emit_action(rng)
        if k == 6 and allow_nesting and depth < 2:
            inner = "".join(fragment(depth + 1) for _ in range(rng.randint(0, 3)))
            return f'<c:if test="cond">{inner}</c:if>'
        if k == 7:
            return f'<c:url value="/{rng.choice(WORDS)}.css" />'
        if k in (8, 9):
            return _html(rng, counts if scripted_attrs else None)
        return _text(rng)

    for _ in range(rng.randint(0, 14) if size is None else size):
        parts.append(fragment(0))
    return "".join(parts), counts


def random_page_path(rng: random.Random) -> str:
    segments = [rng.choice(WORDS + ["a_b", "x-y", "sub.dir", "001", "café"])
                for _ in range(rng.randint(1, 4))]
    return "/" + "/".join(segments) + rng.choice([".jsp", ".jspf", ".jsp"])


# Pieces of tag tails that stress the attribute tokenizer: stray characters,
# both quote kinds, non-ASCII whitespace, "=" at EOF, names that repeat in
# another case, and tags whose attributes are read (prefixed, "a", "form").
TAIL_BITS = ["<", "<", ">", "/", "/>", "=", '"', "'", "\x0b", "\u00a0", " ", "\n",
             "a", "A", " a", " A", " b", " B", "x=", " a='", ' b="', "' ", '" ',
             "<c:y", "<c:y a ", "<a q='<c:y a ' a", "<c:if", "</c:if>", "</c:if",
             "<c:if test='t'>", "<form w=1", "<td w=1", "=v", "/x", "${e}", "<%= e %>",
             "<%", "%>"]
OPEN_BITS = [bit for bit in TAIL_BITS if ">" not in bit]


def generate_adversarial_page(rng: random.Random) -> str:
    """Generated fragments interleaved with tag tails. The last tail usually
    has no ">", so the scans of the tags it opens run to EOF."""
    parts: list[str] = []
    for _ in range(rng.randint(0, 3)):
        parts.append(generate_page(rng, size=rng.randint(0, 4))[0])
        parts.extend(rng.choice(TAIL_BITS) for _ in range(rng.randint(0, 6)))
    last = TAIL_BITS if rng.random() < 0.2 else OPEN_BITS
    for k in range(rng.randint(1, 24)):
        # Tags with unique names, as in a page of unterminated tags.
        parts.append(rng.choice(last) if rng.random() < 0.6 else f" <c:t{k} w{k}")
    return "".join(parts)


# Bits of tag soup: plain tags, which are template text, and the tags whose
# attributes are read next to their near misses: the a and form tags, which
# the extractor reads, in any case and with a form method or two, names that a colon or one more character turns into another
# tag, attributes that may repeat a name, bad quotes, scripting delimiters,
# a "<" that opens nothing, non-ASCII names and whitespace; and, for the
# translator, close tags that do and do not end, declarations, the XML page
# directive and the bean actions with and without the attributes they need;
# and, for the extractor, the ends of HTML comments, one in a close tag's name.
SOUP_BITS = ["<td>", "<TD class='c'>", '<td title="<% x %>">', "<tr>", "</td>", "</tr >",
             "</td\x0b>", "<br/>", "<br />", "<img src=x/y/>", "<p x=1>", "<p x=1 X=2>",
             "<p x=1 y=2>", "<p\x0bx>", "<p x=>", "<p x= >", "<p x='>'>", '<p x="a"y>',
             "<p / >", "<p =x>", "<td:>", "<té>", "<tdé a=é>", "<é>", "<_x.y-z>",
             "<format>", "<form1>", "<abbr>", "<A_b>", "<a-b>", "<a", "<A ", "<A>",
             "<a href='/x'>", "<Form action=/f>", "<form", "</a>", "</FORM>", "<a:b>",
             "<a:b", "<tdc:if", "<tdc:if test='t'>", "</tdc:if>", "</td:", "</td:if>",
             "<c:if>", "</c:if>", "<jsp:include page='/i.jsp'/>", "<td", "<tr", "</td",
             "</", "<", " <", "<%", "%>", "<%= e %>", "<%-- c --%>", "<%@ page x='1' %>",
             " a", " A", " a=1", " b='v'", ' c="w"', " a='x", ' b="y', '<td title="x>',
             "=", '"', "'", "/", "/>", ">", " ", "\n", "\x0b", "\u00a0", "x", "é",
             "\u212a", "text ", "</c:if >", "</c:if x>", "<jsp:useBean id='b' class='B'>",
             "<jsp:useBean id='b'/>", "</jsp:useBean>", "<jsp:getProperty name='b' property='p'/>",
             "<jsp:getProperty name='b'/>", "<jsp:setProperty name='b' property='*'>",
             "<jsp:setProperty property='p'>", "</jsp:setProperty>",
             "<jsp:directive.page import='java.util.List'/>", "<%! int d; %>",
             "<FORM action='/f'", " method=DELETE", " Method='post'",
             "<!--", "-->", "--!>", "<!-->", "</c:x-->"]


def generate_tag_soup(rng: random.Random) -> str:
    """One to twelve tag-soup bits; most pages hold a dozen tags or fewer."""
    return "".join(rng.choice(SOUP_BITS) for _ in range(rng.randint(1, 12)))


def tag_soup(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [generate_tag_soup(rng) for _ in range(count)]


# Open and close tags of the nested actions: custom tags, which may have a
# handler, the bean actions with and without the attributes that make them
# statements, and actions that are always template text.
NEST_TAGS = [('<c:if test="t">', "</c:if>"), ("<x:y>", "</x:y>"),
             ('<jsp:useBean id="b" class="B">', "</jsp:useBean>"),
             ('<jsp:useBean id="b">', "</jsp:useBean>"),
             ('<jsp:setProperty name="b" property="p">', "</jsp:setProperty>"),
             ('<jsp:getProperty name="b">', "</jsp:getProperty>"),
             ('<jsp:directive.page import="a.B">', "</jsp:directive.page>"),
             ("<jsp:param name='n'>", "</jsp:param>")]


def generate_nest(rng: random.Random, depth: int, closed: bool) -> str:
    """``depth`` actions each inside the last, with generated fragments
    between the tags; unclosed, the close tags are left out."""
    tags = [rng.choice(NEST_TAGS) for _ in range(depth)]
    parts = [generate_page(rng, size=rng.randint(0, 2))[0] + open_tag for open_tag, _ in tags]
    parts += [generate_page(rng, size=rng.randint(0, 2))[0] + (close_tag if closed else "")
              for _, close_tag in reversed(tags)]
    return "".join(parts)


def generated_pages(count: int = 10_000) -> list[str]:
    """Seeded ``generate_page`` pages, three in four of them adversarial."""
    rng = random.Random(0x5CA7)
    return [generate_adversarial_page(rng) if k % 4 else generate_page(rng)[0]
            for k in range(count)]


def parse_outcome(source: str):
    """The node list, URL references and extraction diagnostics as a list, or
    the (type, message, offset) of the parse error."""
    try:
        doc = parse_jsp(source, "/gen.jsp")
    except JspParseError as exc:
        return type(exc), str(exc), exc.offset
    diagnostics: list = []
    return [doc.nodes, extract_url_refs(doc, diagnostics), diagnostics]
