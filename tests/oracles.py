"""Independent oracles used to freeze and cross-check expected values.

Everything here is deliberately implemented apart from the package: plain
character scans, regexes and brute-force ranking, so that a test asserting
"implementation == oracle" exercises two separate code paths.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Iterable
from xml.sax.saxutils import quoteattr

from jspkdm import (TAG_TABLE, CodeStatement, DuplicateAttribute, JspNode, JspParseError,
                    MalformedAttribute, NodeKind, ServletUnit, StatementKind, UrlRef,
                    mangle_class_name)
from jspkdm.deployment_mapper import _ANNOTATION_RE, _PACKAGE_RE, ServletDecl, _unescape_java
from jspkdm.diagnostics import Diagnostic, emit
from jspkdm.jsp_parser import (_CLOSE_OPENER, _DELIMITED, _PREFIXED_NAME, _classify_element,
                               _jsp_element, iter_nodes, normalize_page_path, scan_tag_attrs)

# -- scripting-region delimiter scan --------------------------------------------

_HEADS = {"@": "Directive", "=": "Expression", "!": "Declaration"}


def delimiter_scan(text: str) -> dict[str, list[tuple[int, int]]]:
    """Brute-force scan for ``<%``-family regions; spans by region kind."""
    spans: dict[str, list[tuple[int, int]]] = {
        "Scriptlet": [], "Declaration": [], "Expression": [],
        "Directive": [], "Comment": [],
    }
    i = 0
    while True:
        j = text.find("<%", i)
        if j < 0:
            break
        if text.startswith("<%--", j):
            end = text.find("--%>", j + 4)
            if end < 0:
                break
            spans["Comment"].append((j, end + 4))
            i = end + 4
        else:
            kind = _HEADS.get(text[j + 2:j + 3], "Scriptlet")
            end = text.find("%>", j + 2)
            if end < 0:
                break
            spans[kind].append((j, end + 2))
            i = end + 2
    return spans


def strip_scripting_regions(text: str) -> str:
    """The page text with scriptlet/declaration/expression/comment regions
    deleted (directives are kept: they are emitted verbatim)."""
    spans = delimiter_scan(text)
    cuts = sorted(spans["Scriptlet"] + spans["Declaration"]
                  + spans["Expression"] + spans["Comment"])
    parts = []
    pos = 0
    for start, end in cuts:
        parts.append(text[pos:start])
        pos = end
    parts.append(text[pos:])
    return "".join(parts)


# -- dependency-tag regex scan ----------------------------------------------------

_VALUE = r"""\s*=\s*(?:"([^"]*)"|'([^']*)')"""

TABLE2_REGEXES: list[tuple[str, str, re.Pattern]] = [
    ("form", "action",
     re.compile(r"<form\b[^>]*?\baction" + _VALUE, re.IGNORECASE | re.DOTALL)),
    ("jsp:include", "page",
     re.compile(r"<jsp:include\b[^>]*?\bpage" + _VALUE, re.DOTALL)),
    ("include-directive", "file",
     re.compile(r"<%@\s*include\b[^%]*?\bfile" + _VALUE, re.DOTALL)),
    ("jsp:directive.include", "file",
     re.compile(r"<jsp:directive\.include\b[^>]*?\bfile" + _VALUE, re.DOTALL)),
    ("jsp:forward", "page",
     re.compile(r"<jsp:forward\b[^>]*?\bpage" + _VALUE, re.DOTALL)),
    ("page-directive-errorPage", "errorPage",
     re.compile(r"<%@\s*page\b[^%]*?\berrorPage" + _VALUE, re.DOTALL)),
    ("jsp:directive.page-errorPage", "errorPage",
     re.compile(r"<jsp:directive\.page\b[^>]*?\berrorPage" + _VALUE, re.DOTALL)),
    ("a-href", "href",
     re.compile(r"<a\b[^>]*?\bhref" + _VALUE, re.IGNORECASE | re.DOTALL)),
    ("c:redirect", "url",
     re.compile(r"<c:redirect\b[^>]*?\burl" + _VALUE, re.DOTALL)),
    ("c:url", "value",
     re.compile(r"<c:url\b[^>]*?\bvalue" + _VALUE, re.DOTALL)),
]


def regex_table2_scan(text: str) -> list[tuple[str, str, str]]:
    """(tag_kind, attribute, url) triples found by pattern matching, in
    document order."""
    hits: list[tuple[int, str, str, str]] = []
    for tag_kind, attribute, pattern in TABLE2_REGEXES:
        for m in pattern.finditer(text):
            url = m.group(1) if m.group(1) is not None else m.group(2)
            hits.append((m.start(), tag_kind, attribute, url))
    hits.sort()
    return [(k, a, u) for _, k, a, u in hits]


# -- servlet url-pattern precedence ------------------------------------------------


def _ranked_matches(entries: Iterable[tuple[str, ServletDecl]],
                    url: str) -> list[tuple[int, int, int, str, ServletDecl]]:
    """(tier, tiebreak, index, pattern, decl) for every matching entry."""
    ranked: list[tuple[int, int, int, str, ServletDecl]] = []
    for index, (pattern, decl) in enumerate(entries):
        if pattern == "/":
            ranked.append((3, 0, index, pattern, decl))
        elif pattern.endswith("/*"):
            base = pattern[:-2]
            if url == base or url.startswith(base + "/"):
                ranked.append((1, -len(base), index, pattern, decl))
        elif pattern.startswith("*."):
            if url.endswith(pattern[1:]):
                ranked.append((2, 0, index, pattern, decl))
        elif url == pattern:
            ranked.append((0, 0, index, pattern, decl))
    return ranked


def precedence_oracle(entries: Iterable[tuple[str, ServletDecl]],
                      url: str) -> tuple[str, ServletDecl] | None:
    """Brute-force winner: rank every matching pattern by
    (exact, longest prefix, extension, default) and entry order."""
    ranked = sorted(_ranked_matches(entries, url))
    if not ranked:
        return None
    return ranked[0][3], ranked[0][4]


def ranked_patterns(entries: Iterable[tuple[str, ServletDecl]], url: str) -> list[str]:
    """Every pattern that matches ``url``, in precedence order."""
    return [m[3] for m in sorted(_ranked_matches(entries, url))]


# -- @WebServlet scan ----------------------------------------------------------------

# The scanner as it was before it ran in C: the class regex with its word
# boundary first, a lazy block comment, string literals read as an
# alternation at each character, and below the argument list's character
# loop. The annotation and package regexes are the package's own.
_CLASS_WORD_RE = re.compile(r"\bclass\s+([A-Za-z_]\w*)")
_BLOCK_COMMENT_LAZY_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_JAVA_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def strip_java_comments_oracle(source: str) -> str:
    return re.sub(r"//[^\n]*", "", _BLOCK_COMMENT_LAZY_RE.sub("", source))


def annotation_args_oracle(source: str, pos: int) -> str | None:
    """Text between the balanced parens starting at ``pos`` (skipping
    space), one character at a time; None when a string or paren is left
    open."""
    n = len(source)
    while pos < n and source[pos].isspace():
        pos += 1
    if pos >= n or source[pos] != "(":
        return None
    depth = 0
    start = pos + 1
    in_string = False
    i = pos
    while i < n:
        c = source[i]
        if in_string:
            if c == "\\":
                i += 1
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return source[start:i]
        i += 1
    return None


def patterns_oracle(args: str) -> list[str] | None:
    """The URL patterns of an argument list: the string literals after
    ``urlPatterns =`` or ``value =`` (in braces, or the one literal), or
    every literal when there is no ``=``; None for other keyed forms."""
    keyed = re.search(r"\b(?:urlPatterns|value)\s*=", args)
    if keyed is None:
        return None if "=" in args else [
            _unescape_java(m.group(1)) for m in _JAVA_STRING_RE.finditer(args)]
    rest = args[keyed.end():].lstrip()
    if rest.startswith("{"):
        end = rest.find("}")
        return [] if end < 0 else [_unescape_java(m.group(1))
                                   for m in _JAVA_STRING_RE.finditer(rest[:end])]
    m = _JAVA_STRING_RE.match(rest)
    return [_unescape_java(m.group(1))] if m else []


def java_class_name_oracle(java_source: str, fallback: str) -> str:
    source = strip_java_comments_oracle(java_source)
    cls = _CLASS_WORD_RE.search(source)
    name = cls.group(1) if cls else fallback
    pkg = _PACKAGE_RE.search(source)
    return f"{pkg.group(1)}.{name}" if pkg else name


def webservlet_oracle(java_source: str, class_qualified_name: str):
    """``[(pattern, servlet name, servlet class, source)], diagnostics`` of
    the @WebServlet annotations, read with :func:`annotation_args_oracle`."""
    source = strip_java_comments_oracle(java_source)
    found: list[tuple[str, str, str, str]] = []
    diagnostics: list[Diagnostic] = []
    for m in _ANNOTATION_RE.finditer(source):
        args = annotation_args_oracle(source, m.end())
        if args is None:
            emit(diagnostics, "annotation",
                 f"@WebServlet on {class_qualified_name} has no arguments")
            continue
        patterns = patterns_oracle(args)
        if not patterns:
            emit(diagnostics, "annotation",
                 f"@WebServlet on {class_qualified_name} without url patterns")
            continue
        name_match = re.search(r'\bname\s*=\s*"((?:[^"\\]|\\.)*)"', args)
        name = _unescape_java(name_match.group(1)) if name_match else class_qualified_name
        found += [(pattern, name, class_qualified_name, "annotation") for pattern in patterns]
    return found, diagnostics


# -- java string literals -----------------------------------------------------------

_UNESCAPES = {"n": "\n", "r": "\r", "t": "\t", "\\": "\\", '"': '"'}

_EMIT_LITERAL_RE = re.compile(r'out\.print\("((?:[^"\\\n]|\\.)*)"\);')


def unescape_java(literal: str) -> str:
    out = []
    i = 0
    while i < len(literal):
        c = literal[i]
        if c == "\\" and i + 1 < len(literal):
            out.append(_UNESCAPES.get(literal[i + 1], literal[i + 1]))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def emit_literals(java_source: str) -> list[str]:
    """Unescaped string literals of the source's emit calls, in order."""
    return [unescape_java(m.group(1))
            for m in _EMIT_LITERAL_RE.finditer(java_source)]


# -- recursive translation ------------------------------------------------------------


# The reserved words of JLS §3.9 and the literals of §3.10 that look like
# identifiers.
_JAVA_KEYWORDS = set("""
    abstract continue for new switch assert default if package synchronized boolean
    do goto private this break double implements protected throw byte else import
    public throws case enum instanceof return transient catch extends int short try
    char final interface static void class finally long strictfp volatile const float
    native super while _ true false null""".split())


def java_identifier(name: str) -> bool:
    """JLS §3.8, one character at a time: a Java letter (a Unicode letter, a
    letter number, a currency symbol or a connector such as "_"), then Java
    letters and digits (decimal digits and combining marks too), and no
    reserved word. The identifier-ignorable controls are refused."""
    for i, c in enumerate(name):
        cat = unicodedata.category(c)
        letter = cat[0] == "L" or cat in ("Nl", "Sc", "Pc")
        if not (letter or i and cat in ("Nd", "Mn", "Mc")):
            return False
    return bool(name) and name not in _JAVA_KEYWORDS


class RecursiveTranslator:
    """The recursive reference for ``translate_page``: ``walk`` descends into
    each element's children through ``_emit_element`` and the action handlers,
    which append their own statements, and every piece of template text is
    sliced on its own and joined at the next statement. An action's statement
    text is its open tag. It must agree with
    the package's one loop statement for statement, below the depth where
    its own recursion fails (about 300 levels under pytest)."""

    def __init__(self, doc, known_tag_handlers, unit, diagnostics):
        self.doc = doc
        self.known_tag_handlers = known_tag_handlers
        self.unit = unit
        self.diagnostics = diagnostics
        self._texts: list[tuple[str, tuple[int, int]]] = []

    def _emit(self, start: int, end: int) -> None:
        if start < end:
            self._texts.append((self.doc.source[start:end], (start, end)))

    def flush(self) -> None:
        if self._texts:
            self.unit.service_body.append(CodeStatement(
                StatementKind.TEMPLATE_EMIT, "".join(t for t, _ in self._texts),
                origin_span=(self._texts[0][1][0], self._texts[-1][1][1])))
            self._texts.clear()

    def _statement(self, stmt) -> None:
        self.flush()
        self.unit.service_body.append(stmt)

    def _emit_element(self, node) -> None:
        if node.inner_span is None:
            self._emit(*node.span)
            return
        self._emit(node.span[0], node.inner_span[0])
        self.walk(node.children)
        self._emit(node.inner_span[1], node.span[1])

    def _code_of(self, node) -> str:
        return self.doc.source[node.inner_span[0]:node.inner_span[1]]

    def _open_tag(self, node) -> str:
        if node.inner_span is None:
            return self.doc.text_of(node)
        return self.doc.source[node.span[0]:node.inner_span[0]]

    def _diag(self, message: str, node) -> None:
        emit(self.diagnostics, "translation", message,
             f"{self.doc.page_path}@{node.span[0]}")

    def walk(self, nodes) -> None:
        for node in nodes:
            kind = node.kind
            if kind is NodeKind.COMMENT:
                continue
            if kind is NodeKind.SCRIPTLET:
                self._statement(CodeStatement(
                    StatementKind.INLINE_CODE, self._code_of(node), origin_span=node.span))
            elif kind is NodeKind.EXPRESSION:
                self._statement(CodeStatement(
                    StatementKind.EXPRESSION_EMIT, self._code_of(node), origin_span=node.span))
            elif kind is NodeKind.DECLARATION:
                self.unit.declarations.append(CodeStatement(
                    StatementKind.INLINE_CODE, self._code_of(node).strip(),
                    origin_span=node.span))
            elif kind is NodeKind.DIRECTIVE:
                self._directive(node)
            elif kind is NodeKind.STANDARD_ACTION:
                self._standard_action(node)
            elif kind is NodeKind.CUSTOM_ACTION:
                self._custom_action(node)
            else:  # template text, a and form tags
                self._emit(*node.span)

    def _directive(self, node) -> None:
        # The page directive in either syntax: <%@ page %> or <jsp:directive.page/>.
        if node.name in ("page", "jsp:directive.page"):
            for imp in (node.attribute_value("import") or "").split(","):
                imp = imp.strip()
                if imp and imp not in self.unit.imports:
                    self.unit.imports.append(imp)
        self._emit_element(node)

    def _standard_action(self, node) -> None:
        name = node.name
        if name == "jsp:useBean":
            bean_class = node.attribute_value("class")
            bean = node.attribute_value("id")
            problem = ("jsp:useBean without class attribute" if not bean_class
                       else "jsp:useBean without id attribute" if not bean
                       else f"jsp:useBean id {bean!r} is not a Java identifier"
                       if not java_identifier(bean)
                       else None if all(map(java_identifier, bean_class.split(".")))
                       else f"jsp:useBean class {bean_class!r} is not a Java class name")
            if problem:
                self._diag(problem, node)
                self._emit_element(node)
                return
            metadata = {"bean": bean, "class": bean_class}
            if node.attribute_value("scope"):
                metadata["scope"] = node.attribute_value("scope")
            self._statement(CodeStatement(
                StatementKind.BEAN_INSTANTIATION, self._open_tag(node),
                metadata=metadata, origin_span=node.span))
            self.walk(node.children)
        elif name in ("jsp:getProperty", "jsp:setProperty"):
            bean = node.attribute_value("name")
            prop = node.attribute_value("property")
            if not bean or not prop:
                self._diag(f"{name} missing name/property attribute", node)
                self._emit_element(node)
                return
            # The property goes into the servlet as its getter or setter.
            method = ("get" if name == "jsp:getProperty" else "set") + prop[:1].upper() + prop[1:]
            every = name == "jsp:setProperty" and prop == "*"
            problem = (f"{name} name {bean!r} is not a Java identifier"
                       if not java_identifier(bean)
                       else f"{name} property {prop!r} gives no Java method name"
                       if not (every or java_identifier(method)) else None)
            if problem:
                self._diag(problem, node)
                self._emit_element(node)
                return
            metadata = {"bean": bean, "property": prop}
            if name == "jsp:getProperty":
                metadata["method"] = method
                stmt_kind = StatementKind.PROPERTY_GET
            else:
                if prop != "*":
                    metadata["method"] = method
                for key in ("value", "param"):
                    if node.attribute_value(key) is not None:
                        metadata[key] = node.attribute_value(key)
                stmt_kind = StatementKind.PROPERTY_SET
            self._statement(CodeStatement(stmt_kind, self._open_tag(node),
                                          metadata=metadata, origin_span=node.span))
            self.walk(node.children)
        else:
            self._emit_element(node)

    def _custom_action(self, node) -> None:
        handler = self.known_tag_handlers.get(node.name)
        if handler is None:
            self._emit_element(node)
            return
        self._statement(CodeStatement(
            StatementKind.TAG_HANDLER_CALL, self._open_tag(node),
            metadata={"tag": node.name, "handler": handler,
                      "methods": ["setAttribute"] * len(node.attributes)
                      + ["doStartTag", "doEndTag"],
                      "attributes": [name for name, _ in node.attributes]},
            origin_span=node.span))
        self.walk(node.children)


def translate_recursively(doc, known_tag_handlers=None, diagnostics=None) -> ServletUnit:
    """``translate_page`` by the recursive reference."""
    unit = ServletUnit(class_name=mangle_class_name(doc.page_path),
                       source_page=doc.page_path)
    translator = RecursiveTranslator(doc, known_tag_handlers or {}, unit, diagnostics)
    translator.walk(doc.nodes)
    translator.flush()
    return unit


# -- the a and form tags as nodes ------------------------------------------------------

# The parser's search regex with the a and form open tags added back, in any
# case and with no name character after them, and the start and end of an
# HTML comment.
_LT_WITH_HTML_RE = re.compile(
    r"<(?:(%--)|(%@)|(%=)|(%!)|(%)|/(" + _PREFIXED_NAME + r")\s*>|(" + _PREFIXED_NAME
    + r"|(?i:a|form)(?![\w.\-]))|(!--))|(--!?>)")
_COMMENT_OPENER, _COMMENT_CLOSER = 8, 9


class HtmlNodeParser:
    """The reference for finding the ``a`` and ``form`` tags in template text:
    the parser as it was when its search regex also found those tags, and
    each became a flat node of its own, here of kind TEMPLATE_TEXT with the
    tag's name and attributes. Nothing inside such a tag is parsed. Two rules
    are new: a tag whose attributes cannot be tokenized is text, recorded in
    ``unread`` with its error, where it used to fail the page; and an ``a``
    or ``form`` tag from an HTML comment's ``<!--`` to the next ``-->`` or
    ``--!>`` is text, while JSP inside the comment is parsed as anywhere else.
    ``html_spans`` lists the spans of the tags read, also when the parse
    fails later. It recurses through ``parse_nodes`` and ``_parse_element``,
    two frames a nesting level, and shares only the package's tag scanner
    and its builder of scripting elements, JSP comments and directives."""

    def __init__(self, source: str, page_path: str):
        self.source = source
        self.page_path = page_path
        self.pos = 0
        self.memo: dict = {}  # the tag scanner's EOF memo
        self.html_spans: list[tuple[int, int]] = []
        self.unread: list[tuple[int, str, JspParseError]] = []
        self.in_comment = False

    def _parse_element(self, nodes, flush_text, start, name, name_end) -> bool:
        """Append the tag opened at ``start``, and a prefixed action's
        children; False, appending nothing, when the tag is text."""
        html = ":" not in name
        if html and self.in_comment:
            self.pos = start + 1
            return False
        try:
            scanned = scan_tag_attrs(self.source, name_end, start, self.page_path, self.memo)
        except (MalformedAttribute, DuplicateAttribute) as exc:
            if not html:
                raise
            self.unread.append((start, name, exc))
            scanned = None
        if scanned is None:
            self.pos = start + 1
            return False
        attrs, tag_end, self_closing = scanned
        flush_text(start)
        self.pos = tag_end
        if html:
            nodes.append(JspNode(NodeKind.TEMPLATE_TEXT, name, tuple(attrs),
                                 span=(start, tag_end)))
            self.html_spans.append((start, tag_end))
            return True
        node = JspNode(_classify_element(name), name, tuple(attrs), span=(start, tag_end))
        nodes.append(node)
        if self_closing:
            return True
        first_child = len(nodes)
        close_span = self.parse_nodes(nodes, until_close=name)
        if close_span is not None:
            node.children = tuple(nodes[first_child:])
            del nodes[first_child:]
            node.span = (start, close_span[1])
            node.inner_span = (tag_end, close_span[0])
        return True

    def parse_nodes(self, nodes, until_close=None):
        """Append to ``nodes`` from ``self.pos`` up to the close tag of
        ``until_close``, and return its span, or to EOF, and return None."""
        src = self.source
        n = len(src)
        run_start = self.pos

        def flush_text(end: int) -> None:
            if end > run_start:
                nodes.append(JspNode(kind=NodeKind.TEMPLATE_TEXT, span=(run_start, end)))

        while (m := _LT_WITH_HTML_RE.search(src, self.pos)) is not None:
            lt = m.start()
            opener = m.lastindex
            if opener in _DELIMITED:
                flush_text(lt)
                nodes.append(_jsp_element(src, lt, opener, self.page_path))
                self.pos = nodes[-1].span[1]
            elif opener == _CLOSE_OPENER:
                if m.group(opener) != until_close:
                    # Template text, whose name may hold a comment's "-->".
                    self.pos = lt + 2
                    continue
                self.pos = m.end()
                flush_text(lt)
                return lt, self.pos
            elif opener == _COMMENT_OPENER:
                self.pos = lt + 2  # the "-->" of "<!-->" starts here
                self.in_comment = True
                continue
            elif opener == _COMMENT_CLOSER:
                self.pos = m.end()
                self.in_comment = False
                continue
            elif not self._parse_element(nodes, flush_text, lt, m.group(opener), m.end()):
                continue
            run_start = self.pos

        self.pos = n
        flush_text(n)
        return None


_REQUEST_TIME_RE = re.compile(r"\$\{|<%|</?" + _PREFIXED_NAME)


def extract_with_html_nodes(source: str, page_path: str = "/gen.jsp"):
    """``(html_spans, outcome)`` of the page by :class:`HtmlNodeParser` and
    the extractor as it read those nodes: the outcome is the parse error's
    (type, message, offset), or ``[refs, diagnostics]``, with the diagnostics
    in document order."""
    page_path = normalize_page_path(page_path)
    parser = HtmlNodeParser(source, page_path)
    nodes: list[JspNode] = []
    try:
        parser.parse_nodes(nodes)
    except JspParseError as exc:
        return parser.html_spans, (type(exc), str(exc), exc.offset)
    refs: list[UrlRef] = []
    found: list[tuple[int, str]] = [(start, f"<{name}> is template text: {exc}")
                                    for start, name, exc in parser.unread]
    for node in iter_nodes(nodes):
        html = node.kind is NodeKind.TEMPLATE_TEXT
        if html and not node.name:
            continue
        row = TAG_TABLE.get((node.kind, node.name.lower() if html else node.name))
        if row is None:
            continue
        tag_kind, attribute = row
        values = {key.lower() if html else key: value for key, value in node.attributes}
        url = values.get(attribute)
        if not url:
            # An empty URL on an a or form tag is the page itself, and so is
            # a form's absent action.
            if not (tag_kind.endswith("errorPage") or tag_kind == "form"
                    or html and url == ""):
                found.append((node.span[0], f"<{node.name}> without {attribute} attribute"))
            continue
        method = values.get("method") if tag_kind == "form" else None
        if method and method.lower() not in ("get", "post", "dialog"):
            found.append((node.span[0], f"unsupported form method {method!r}"))
        refs.append(UrlRef(tag_kind, url, _REQUEST_TIME_RE.search(url) is not None,
                           node.span))
    diagnostics = [Diagnostic("extraction", message, f"{page_path}@{start}")
                   for start, message in sorted(found, key=lambda item: item[0])]
    return parser.html_spans, [refs, diagnostics]


# -- tag attribute scan --------------------------------------------------------------

_ATTR_NAME_RE = re.compile(r"[^\s=/>]+")


def scan_tag_attrs_oracle(src: str, pos: int, tag_start: int, page_path: str):
    """Character-loop tokenizer for a tag's attributes, from ``pos`` to ">".

    Returns ((name, value) pairs, position after ">", self_closing), or None when EOF
    arrives first; raises ``MalformedAttribute`` at an unclosed quote and
    ``DuplicateAttribute`` (at ``tag_start``) for a name seen before in any
    case. No memo: every call scans on its own. Results and errors use the
    package's own types, so a parser patched to call this compares directly.
    """
    n = len(src)
    attrs = []
    seen = set()
    while True:
        while pos < n and src[pos].isspace():
            pos += 1
        if pos >= n:
            return None
        c = src[pos]
        if c == ">":
            return attrs, pos + 1, False
        if c == "/":
            if src.startswith("/>", pos):
                return attrs, pos + 2, True
            pos += 1
            continue
        if c == "=":
            pos += 1
            continue
        m = _ATTR_NAME_RE.match(src, pos)
        name = m.group(0)
        pos = m.end()
        while pos < n and src[pos].isspace():
            pos += 1
        value = ""
        if pos < n and src[pos] == "=":
            pos += 1
            while pos < n and src[pos].isspace():
                pos += 1
            if pos >= n:
                return None
            q = src[pos]
            if q in ("'", '"'):
                endq = src.find(q, pos + 1)
                if endq < 0:
                    raise MalformedAttribute("unclosed quote", page_path, pos)
                value = src[pos + 1:endq]
                pos = endq + 1
            else:
                vstart = pos
                while pos < n and not src[pos].isspace() and src[pos] != ">" \
                        and not src.startswith("/>", pos):
                    pos += 1
                value = src[vstart:pos]
        key = name.lower()
        if key in seen:
            raise DuplicateAttribute(f"duplicate attribute {name!r}", page_path, tag_start)
        seen.add(key)
        attrs.append((name, value))


# -- structural checks ----------------------------------------------------------------


def check_span_coverage(doc) -> None:
    """Assert the span invariants: sibling spans tile their region exactly,
    an inner region lies strictly inside its node's span, children tile the
    parent's inner region, and the top level tiles the whole source."""

    def check_level(nodes, start: int, end: int) -> None:
        pos = start
        for node in nodes:
            assert node.span[0] == pos, (node.span, pos)
            assert node.span[1] >= node.span[0]
            if node.inner_span is not None:
                inner_start, inner_end = node.inner_span
                assert node.span[0] < inner_start <= inner_end < node.span[1]
            if node.children:
                assert node.inner_span is not None
                check_level(node.children, inner_start, inner_end)
            pos = node.span[1]
        assert pos == end, (pos, end)

    check_level(doc.nodes, 0, len(doc.source))
    assert "".join(doc.text_of(n) for n in doc.nodes) == doc.source


# -- the JSON model writer's reference -------------------------------------------


def model_to_dict(model) -> dict:
    """The model as plain data; its JSON serialization is exactly
    ``json.dumps(model_to_dict(model), indent=2)`` plus a newline. Every class
    unit sits in the one "jsp" package, and every relationship is a
    "newCall"."""
    return {
        "name": model.name,
        "packages": [{"name": "jsp", "classes": [c.name for c in model.class_units]}],
        "class_units": [
            {
                "name": c.name,
                "source_page": c.source_page,
                "methods": [
                    {
                        "name": m.name,
                        "elements": [
                            {
                                "name": e.name,
                                "kind": e.kind,
                                "origin_span": list(e.origin_span)
                                if e.origin_span is not None else None,
                                "relationships": list(e.relationships),
                            }
                            for e in m.block.elements
                        ],
                    }
                    for m in c.code_elements
                ],
            }
            for c in model.class_units
        ],
        "relationships": [
            {"from": src, "to": dst, "kind": kind, "label": "newCall"}
            for src, dst, kind in model.relationships
        ],
    }


# -- the XMI model writer's reference --------------------------------------------


def model_to_xmi(model) -> str:
    """The model's XMI document, each element rendered whole with
    ``xml.sax.saxutils.quoteattr``: the byte-level reference for the XMI
    writer, which renders an element's name and kind once per pair."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<kdm:Segment xmlns:kdm={quoteattr("urn:jspkdm:code")} '
             f'xmlns:xmi={quoteattr("http://www.omg.org/XMI")} '
             f'xmi:version="2.1" name={quoteattr(model.name)}>',
             f'  <codeModel name={quoteattr(model.name)}>',
             '    <package name="jsp">']
    for cu in model.class_units:
        attrs = f'xmi:id={quoteattr(cu.name)} name={quoteattr(cu.name)}'
        if cu.source_page is not None:
            attrs += f' sourcePage={quoteattr(cu.source_page)}'
        lines.append(f'      <classUnit {attrs}>')
        for method in cu.code_elements:
            mid = f"{cu.name}.{method.name}"
            lines.append(f'        <methodUnit xmi:id={quoteattr(mid)} '
                         f'name={quoteattr(method.name)}>')
            lines.append(f'          <blockUnit xmi:id={quoteattr(mid + ".block")}>')
            for el in method.block.elements:
                e_attrs = f'name={quoteattr(el.name)} kind={quoteattr(el.kind)}'
                if el.origin_span is not None:
                    e_attrs += (f' spanStart="{el.origin_span[0]}"'
                                f' spanEnd="{el.origin_span[1]}"')
                if el.relationships:
                    refs = " ".join(f"rel.{i}" for i in el.relationships)
                    e_attrs += f' relations={quoteattr(refs)}'
                lines.append(f'            <codeElement {e_attrs}/>')
            lines.append('          </blockUnit>')
            lines.append('        </methodUnit>')
        lines.append('      </classUnit>')
    lines.append('    </package>')
    for i, (src, dst, kind) in enumerate(model.relationships):
        lines.append(f'    <codeRelationship xmi:id={quoteattr(f"rel.{i}")} '
                     f'from={quoteattr(src)} to={quoteattr(dst)} '
                     f'kind={quoteattr(kind)} label="newCall"/>')
    lines.append('  </codeModel>')
    lines.append('</kdm:Segment>')
    return "\n".join(lines) + "\n"
