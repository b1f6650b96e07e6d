"""Extraction of URL references from the dependency-bearing JSP/HTML tags.

Ten tag/attribute pairs carry page-to-page dependencies: form actions,
include/forward actions and directives, error pages, anchors, and the JSTL
redirect/url tags. HTML tags are template text, as in Jasper, read from the
text runs by the parser's tag scanner. Extraction is total: a tag without a
target URL, or that cannot be read, becomes a diagnostic, never a reference.
An ``a`` or ``form`` tag whose URL is empty names the page itself, and
becomes neither.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from ._records import Value
from .diagnostics import Diagnostic, emit
from .jsp_parser import (_PREFIXED_NAME, JspDocument, JspNode, JspParseError, NodeKind, Span,
                         iter_nodes, scan_tag_attrs)

# (tag kind, designated attribute), keyed by node kind and name. HTML tags are
# template text, keyed by the lower-cased name: their tag and attribute names
# match in any case, JSP and prefixed names exactly.
TAG_TABLE: dict[tuple[NodeKind, str], tuple[str, str]] = {
    (NodeKind.TEMPLATE_TEXT, "form"): ("form", "action"),
    (NodeKind.TEMPLATE_TEXT, "a"): ("a-href", "href"),
    (NodeKind.STANDARD_ACTION, "jsp:include"): ("jsp:include", "page"),
    (NodeKind.STANDARD_ACTION, "jsp:forward"): ("jsp:forward", "page"),
    (NodeKind.DIRECTIVE, "include"): ("include-directive", "file"),
    (NodeKind.DIRECTIVE, "jsp:directive.include"): ("jsp:directive.include", "file"),
    (NodeKind.DIRECTIVE, "page"): ("page-directive-errorPage", "errorPage"),
    (NodeKind.DIRECTIVE, "jsp:directive.page"): ("jsp:directive.page-errorPage", "errorPage"),
    (NodeKind.CUSTOM_ACTION, "c:redirect"): ("c:redirect", "url"),
    (NodeKind.CUSTOM_ACTION, "c:url"): ("c:url", "value"),
}

# Tag kinds whose designated attribute is optional: absence means "no
# dependency", not an anomaly. A form without an action submits to the
# document itself (HTML), as one with an empty action does.
_OPTIONAL_ATTR_KINDS = frozenset({"page-directive-errorPage",
                                  "jsp:directive.page-errorPage", "form"})

# Tag kinds whose empty value names the document itself (HTML): neither a
# dependency nor an anomaly. An absent href is still an anomaly.
_SELF_URL_KINDS = frozenset({"a-href", "form"})

_FORM_METHODS = frozenset({"get", "post", "dialog"})

# The open tag of an HTML row, in any case, that no name character follows,
# or the start of an HTML comment (no group).
_HTML_OPEN_RE = re.compile(
    "<!--|<(" + "|".join(name for kind, name in TAG_TABLE if kind is NodeKind.TEMPLATE_TEXT)
    + r")(?![\w.\-:])", re.IGNORECASE)

# The end of an HTML comment: "-->", or "--!>" as HTML also reads it.
_COMMENT_END_RE = re.compile("--!?>")

# A value is request-time when it holds EL, a scripting element or a JSP tag.
_DYNAMIC_RE = re.compile(r"\$\{|<%|</?" + _PREFIXED_NAME)


class UrlRef(Value):
    """One URL occurrence in a dependency-bearing tag. Immutable, slotted,
    and equal to another with the same fields."""

    __slots__ = ("tag_kind", "raw_url", "dynamic", "span")

    def __init__(self, tag_kind: str, raw_url: str, dynamic: bool = False,
                 span: Span = (0, 0)):
        Value.__init__(self, tag_kind, raw_url, dynamic, span)


def _is_dynamic(url: str) -> bool:
    return _DYNAMIC_RE.search(url) is not None


def classify_tag(node: JspNode) -> tuple[str, str] | None:
    """The (tag kind, attribute) pair for a dependency-bearing node, if any."""
    return TAG_TABLE.get((node.kind, node.name))


def _dependency_tags(doc: JspDocument, diagnostics: list[Diagnostic] | None
                     ) -> Iterator[tuple[str, Span, tuple[str, str], dict[str, str]]]:
    """(name as written, span, table row, attributes) of each dependency tag
    in document order. HTML attribute names are lower-cased; an HTML tag
    that cannot be read is template text.

    An HTML comment hides the HTML tags in it from the browser, so none is
    read from ``<!--`` to the next ``-->`` or ``--!>`` within the text; as
    in HTML, ``<!-->`` and ``<!--->`` are empty comments. The comment may span
    several text runs; a JSP element inside it still runs, as in Jasper, and
    is read as any other.
    """
    src = doc.source
    memo: dict = {}  # the tag scanner's EOF memo for the page
    read_to = 0  # the end of the last HTML tag read; an opener before it is inside it
    in_comment = False
    for node in iter_nodes(doc.nodes):
        if node.kind is not NodeKind.TEMPLATE_TEXT:
            if (row := classify_tag(node)) is not None:
                yield node.name, node.span, row, dict(node.attributes)
            continue
        pos, end = node.span
        while pos < end:
            if in_comment:
                close = _COMMENT_END_RE.search(src, pos, end)
                if close is None:
                    break
                pos, in_comment = close.end(), False
            m = _HTML_OPEN_RE.search(src, pos, end)
            if m is None:
                break
            pos = m.end()
            if m.start() < read_to:
                continue
            if m[1] is None:
                # The "-->" may start inside the "<!--", as in "<!-->".
                pos, in_comment = m.start() + 2, True
                continue
            try:
                scanned = scan_tag_attrs(src, m.end(), m.start(), doc.page_path, memo)
            except JspParseError as exc:
                emit(diagnostics, "extraction", f"<{m[1]}> is template text: {exc}",
                     f"{doc.page_path}@{m.start()}")
                continue
            if scanned:
                attrs, read_to, _ = scanned
                row = TAG_TABLE[NodeKind.TEMPLATE_TEXT, m[1].lower()]
                yield m[1], (m.start(), read_to), row, {k.lower(): v for k, v in attrs}


def extract_url_refs(doc: JspDocument,
                     diagnostics: list[Diagnostic] | None = None) -> list[UrlRef]:
    """Every URL reference of the page, in document order."""
    refs: list[UrlRef] = []
    for name, span, (tag_kind, attribute), attrs in _dependency_tags(doc, diagnostics):
        url = attrs.get(attribute)
        if not url:
            if not (tag_kind in _OPTIONAL_ATTR_KINDS
                    or url == "" and tag_kind in _SELF_URL_KINDS):
                emit(diagnostics, "extraction", f"<{name}> without {attribute} attribute",
                     f"{doc.page_path}@{span[0]}")
            continue
        if tag_kind == "form":
            method = attrs.get("method")
            if method and method.lower() not in _FORM_METHODS:
                emit(diagnostics, "extraction", f"unsupported form method {method!r}",
                     f"{doc.page_path}@{span[0]}")
        refs.append(UrlRef(tag_kind, url, _is_dynamic(url), span))
    return refs
