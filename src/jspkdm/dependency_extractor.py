"""Extraction of URL references from the dependency-bearing JSP/HTML tags.

Ten tag/attribute pairs carry page-to-page dependencies: form actions,
include/forward actions and directives, error pages, anchors, and the JSTL
redirect/url tags. Extraction is total: tags with a missing or empty target
attribute become diagnostics, never references.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Diagnostic, emit
from .jsp_parser import JspDocument, JspNode, NodeKind, Span, iter_nodes

# (tag kind, designated attribute), keyed by node kind and name. HTML tag and
# attribute names match case-insensitively, JSP and prefixed names exactly.
# The parser makes nodes of only the HTML tags named here
# (jsp_parser._HTML_NODE_NAMES, pinned equal by the parser tests).
TAG_TABLE: dict[tuple[NodeKind, str], tuple[str, str]] = {
    (NodeKind.HTML_ELEMENT, "form"): ("form", "action"),
    (NodeKind.HTML_ELEMENT, "a"): ("a-href", "href"),
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
# dependency", not an anomaly.
_OPTIONAL_ATTR_KINDS = frozenset({"page-directive-errorPage",
                                  "jsp:directive.page-errorPage"})

_FORM_METHODS = frozenset({"get", "post", "put"})


@dataclass(frozen=True)
class UrlRef:
    """One URL occurrence in a dependency-bearing tag."""

    source_page: str
    tag_kind: str
    attribute: str
    raw_url: str
    dynamic: bool = False
    span: Span = (0, 0)


def _is_dynamic(url: str) -> bool:
    return "<%=" in url or "${" in url


def classify_tag(node: JspNode) -> tuple[str, str] | None:
    """The (tag kind, attribute) pair for a dependency-bearing node, if any."""
    name = node.name
    if node.kind is NodeKind.HTML_ELEMENT:
        name = name.lower()
    return TAG_TABLE.get((node.kind, name))


def extract_url_refs(doc: JspDocument,
                     diagnostics: list[Diagnostic] | None = None) -> list[UrlRef]:
    """Every URL reference of the page, in document order."""
    refs: list[UrlRef] = []
    for node in iter_nodes(doc.nodes):
        pair = classify_tag(node)
        if pair is None:
            continue
        tag_kind, attribute = pair
        url = node.attribute_value(attribute,
                                   case_insensitive=node.kind is NodeKind.HTML_ELEMENT)
        if not url:
            if tag_kind not in _OPTIONAL_ATTR_KINDS:
                emit(diagnostics, "extraction",
                     f"<{node.name}> without {attribute} attribute",
                     f"{doc.page_path}@{node.span[0]}")
            continue
        if tag_kind == "form":
            method = node.attribute_value("method", case_insensitive=True)
            if method and method.lower() not in _FORM_METHODS:
                emit(diagnostics, "extraction", f"unsupported form method {method!r}",
                     f"{doc.page_path}@{node.span[0]}")
        refs.append(UrlRef(
            source_page=doc.page_path,
            tag_kind=tag_kind,
            attribute=attribute,
            raw_url=url,
            dynamic=_is_dynamic(url),
            span=node.span,
        ))
    return refs
