"""Tag-level parser for JSP pages.

Produces a :class:`JspDocument`: an ordered, span-annotated node list that
covers the page source exactly. As in Jasper's translation, markup that is
not JSP is template text and is never tokenized: the parser reads on to the
next ``<%``, prefixed open tag (``<c:if``) or prefixed close tag
(``</c:if>``). Every HTML tag is part of a text run, so a ``<%`` or a
prefixed tag inside one of its attribute values opens an element, as Jasper
reads it. Prefixed action elements such as ``jsp:include`` or ``c:if`` are
nested when their close tag is found and folded flat otherwise. No EL
evaluation and no tag-library loading happen here: the node list is the
shared input for the servlet translator and the URL-reference extractor.

Parsing is plain functions over the source. ``_parse_nodes`` appends to the
page's one node list and calls itself once per open action, one Python frame
a level: under the default recursion limit of 1000, a page nests about 990
levels deep before it raises ``RecursionError``. The extractor reads the
``a`` and ``form`` tags with the same tag scanner, :func:`scan_tag_attrs`,
and an EOF memo of its own.

Scanning takes time linear in the page size on any input. One compiled
regex finds each "<" that opens something, so template text is skipped in
C, and one compiled regex tokenizes each tag attribute. A tag with no ">" is
scanned to EOF and then read as text; each attribute-name start such a scan
passes is memoised with the keys that follow it, so the scan from the next
"<" stops at the first memoised start instead of running to EOF again, while
still raising for a duplicate name as a full scan would. A prefixed close tag
is its name and optional whitespace up to ">", as Jasper ends it; one that
does not close the innermost open action is template text.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from enum import Enum

from ._records import Fields

Span = tuple[int, int]


class NodeKind(str, Enum):
    TEMPLATE_TEXT = "TemplateText"
    SCRIPTLET = "Scriptlet"
    DECLARATION = "Declaration"
    EXPRESSION = "Expression"
    DIRECTIVE = "Directive"
    STANDARD_ACTION = "StandardAction"
    CUSTOM_ACTION = "CustomAction"
    COMMENT = "Comment"


class JspParseError(ValueError):
    """Base class for fatal page-level parse failures."""

    def __init__(self, message: str, page_path: str = "?", offset: int = 0):
        super().__init__(f"{page_path}@{offset}: {message}")
        self.page_path = page_path
        self.offset = offset


class UnterminatedScriptlet(JspParseError):
    """EOF was hit inside a ``<% ... %>``-family region."""


class MalformedAttribute(JspParseError):
    """A tag's attribute list cannot be tokenized (e.g. unclosed quote)."""


class DuplicateAttribute(JspParseError):
    """Two attributes of one tag share a name after ASCII lower-casing."""


class JspNode(Fields):
    """One node of a page: a text run or a JSP element. Slotted, with tuples
    that default to the shared ``()``: a page makes one node per JSP element,
    and most nodes have no attributes and no children. Attributes are
    ``(name, value)`` string pairs, which the collector untracks; no text is
    copied out of the source. Equal to another node with the same fields."""

    # inner_span is the region between the open and the close: a closed
    # action's children, or a scripting element's or JSP comment's text; None
    # for other nodes.
    __slots__ = ("kind", "name", "attributes", "children", "span", "inner_span")

    def __init__(self, kind: NodeKind, name: str = "",
                 attributes: tuple[tuple[str, str], ...] = (),
                 children: tuple[JspNode, ...] = (), span: Span = (0, 0),
                 inner_span: Span | None = None):
        self.kind = kind
        self.name = name
        self.attributes = attributes
        self.children = children
        self.span = span
        self.inner_span = inner_span

    def attribute_value(self, name: str) -> str | None:
        return dict(self.attributes).get(name)


class JspDocument(Fields):
    """Parsed form of one page; nodes tile the source text exactly. Equal to
    another document with the same fields, and weakly referenceable."""

    __slots__ = ("page_path", "nodes", "source", "__weakref__")

    def __init__(self, page_path: str, nodes: list[JspNode], source: str):
        self.page_path = page_path
        self.nodes = nodes
        self.source = source

    def text_of(self, node: JspNode) -> str:
        return self.source[node.span[0]:node.span[1]]


def normalize_page_path(path: str) -> str:
    """Context-relative form: forward slashes, leading "/", no "//" runs."""
    path = path.replace("\\", "/")
    if not path.startswith("/"):
        path = "/" + path
    while "//" in path:
        path = path.replace("//", "/")
    return path


_PREFIXED_NAME = r"[A-Za-z_][\w.\-]*:[\w.\-]+"
# One attribute: whitespace, then optionally a name, an "=" value and the
# tag's end (group 5). An unquoted value (group 4) that starts with a quote
# means the quote is never closed; an empty one at EOF means EOF came right
# after "=".
_ATTR_RE = re.compile(r"""\s*(?:([^\s=/>]+)\s*(?:=\s*(?:"([^"]*)"|'([^']*)'"""
                      r"""|([^\s>/]*(?:/(?!>)[^\s>/]*)*)))?\s*(/?>)?)?""")
# Every "<" that opens a node; lastindex names the opener. The last two groups
# capture the name of a close tag, which whitespace and ">" end, or element.
_LT_RE = re.compile(
    r"<(?:(%--)|(%@)|(%=)|(%!)|(%)|/(" + _PREFIXED_NAME + r")\s*>|(" + _PREFIXED_NAME + "))")
# _LT_RE group -> the opener's length, the closer, and the node kind and its
# name in errors, of each element that _jsp_element builds.
_DELIMITED = {
    1: (4, "--%>", NodeKind.COMMENT, "JSP comment"),
    2: (3, "%>", NodeKind.DIRECTIVE, "directive"),
    3: (3, "%>", NodeKind.EXPRESSION, "expression"),
    4: (3, "%>", NodeKind.DECLARATION, "declaration"),
    5: (2, "%>", NodeKind.SCRIPTLET, "scriptlet"),
}
_CLOSE_OPENER = 6
_DIRECTIVE_NAME_RE = re.compile(r"\s*([A-Za-z][\w.\-]*)")
_DIRECTIVE_ATTR_RE = re.compile(
    r"([^\s=]+)\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s%>]+))")


def _classify_element(name: str) -> NodeKind:
    if name.startswith("jsp:directive."):
        return NodeKind.DIRECTIVE
    if name.startswith("jsp:"):
        # The five actions the translator understands plus the rest of the
        # jsp: namespace (jsp:param, jsp:plugin, ...), which is standard too.
        return NodeKind.STANDARD_ACTION
    return NodeKind.CUSTOM_ACTION


def _jsp_element(src: str, lt: int, opener: int, page_path: str) -> JspNode:
    """The scripting element, JSP comment or directive that the ``_LT_RE``
    group ``opener`` opens at ``lt``."""
    open_len, closer, kind, what = _DELIMITED[opener]
    start = lt + open_len
    end = src.find(closer, start)
    if end < 0:
        raise UnterminatedScriptlet(f"unterminated {what}", page_path, lt)
    if kind is not NodeKind.DIRECTIVE:
        return JspNode(kind=kind, span=(lt, end + len(closer)), inner_span=(start, end))
    name = ""
    if m := _DIRECTIVE_NAME_RE.match(src, start, end):
        name, start = m.group(1), m.end()
    attrs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for m in _DIRECTIVE_ATTR_RE.finditer(src, start, end):
        attr = m.group(1)
        key = attr.lower()
        if key in seen:
            raise DuplicateAttribute(f"duplicate attribute {attr!r}", page_path, m.start())
        seen.add(key)
        attrs.append((attr, next(g for g in m.groups()[1:] if g is not None)))
        start = m.end()
    rest = src[start:end]
    if '"' in rest or "'" in rest:
        raise MalformedAttribute("unclosed quote in directive", page_path, start)
    return JspNode(kind=kind, name=name, attributes=tuple(attrs), span=(lt, end + 2))


def scan_tag_attrs(src: str, pos: int, tag_start: int, page_path: str,
                   memo: dict[int, tuple[dict[str, int], list[tuple[str, str]], int]]
                   ) -> tuple[list[tuple[str, str]], int, bool] | None:
    """Scan the attributes of the tag opened at ``tag_start`` from ``pos`` up
    to its ``>``.

    Returns (attributes, position after ">", self_closing), or None when
    EOF arrives before ">" (the caller then treats "<" as template text).
    Quoted values may contain "<", ">" and expression fragments; an
    unclosed quote is a hard error.

    Tokens from an attribute-name start onward do not depend on where
    the scan began, so a scan that reaches EOF records in ``memo``, one dict
    per page, each name start it passed: its index of each key, its
    attributes, and its index there. A later scan that lands on one returns
    None at once, or raises for the first name from there on that it has
    already seen.
    """
    n = len(src)
    attrs: list[tuple[str, str]] = []
    seen: set[str] = set()
    starts: list[int] = []
    while True:
        m = _ATTR_RE.match(src, pos)
        name, double, single, value, end = m.groups()
        if name is None:
            pos = m.end()
            if pos == n:
                break
            if src[pos] == ">":
                return attrs, pos + 1, False
            if src.startswith("/>", pos):
                return attrs, pos + 2, True
            pos += 1  # stray "/" or "=", skip
            continue
        start = m.start(1)
        hit = memo.get(start)
        if hit is not None:
            order, known, index = hit
            dups = [i for i in map(order.get, seen) if i is not None and i >= index]
            if dups:
                raise DuplicateAttribute(f"duplicate attribute {known[min(dups)][0]!r}",
                                         page_path, tag_start)
            return None
        starts.append(start)
        if double is not None:
            value = double
        elif single is not None:
            value = single
        elif value is None:  # no "="
            value = ""
        elif value.startswith(("'", '"')):
            raise MalformedAttribute("unclosed quote", page_path, m.start(4))
        elif not value and m.end(4) == n:
            break  # EOF right after "="
        key = name.lower()
        if key in seen:
            raise DuplicateAttribute(f"duplicate attribute {name!r}", page_path, tag_start)
        seen.add(key)
        attrs.append((name, value))
        pos = m.end()
        if end is not None:
            return attrs, pos, end == "/>"
    order = {name.lower(): i for i, (name, _) in enumerate(attrs)}
    for index, start in enumerate(starts):
        memo[start] = (order, attrs, index)
    return None


def _parse_nodes(src: str, pos: int, page_path: str, memo: dict, nodes: list[JspNode],
                 close_name: str | None) -> tuple[int, Span | None]:
    """Append the nodes from ``pos`` to ``nodes``, up to the close tag of
    ``close_name`` or to EOF. Returns the position reached and the close
    tag's span, or None at EOF.

    A prefixed action that is not self-closing nests: what follows is parsed
    into ``nodes`` as well, by one call of this function per open action,
    and moved into its children once the close tag turns up. Left unclosed
    by EOF, it stays flat with what followed as its siblings, so no node
    list is copied per unclosed level.
    """
    run_start = pos
    while (m := _LT_RE.search(src, pos)) is not None:
        lt = m.start()
        opener = m.lastindex
        if opener == _CLOSE_OPENER:
            pos = m.end()
            if m.group(opener) != close_name:
                continue  # closes nothing open: part of the template text
            if lt > run_start:
                nodes.append(JspNode(kind=NodeKind.TEMPLATE_TEXT, span=(run_start, lt)))
            return pos, (lt, pos)
        if opener in _DELIMITED:
            node = _jsp_element(src, lt, opener, page_path)
            self_closing = True  # nothing nests in it
        else:
            scanned = scan_tag_attrs(src, m.end(), lt, page_path, memo)
            if scanned is None:
                pos = lt + 1
                continue  # no tag: part of the template text
            attrs, tag_end, self_closing = scanned
            name = m.group(opener)
            node = JspNode(kind=_classify_element(name), name=name,
                           attributes=tuple(attrs), span=(lt, tag_end))
        if lt > run_start:
            nodes.append(JspNode(kind=NodeKind.TEMPLATE_TEXT, span=(run_start, lt)))
        nodes.append(node)
        pos = node.span[1]
        if not self_closing:
            first_child = len(nodes)
            pos, close_span = _parse_nodes(src, pos, page_path, memo, nodes, name)
            if close_span is not None:
                node.children = tuple(nodes[first_child:])
                del nodes[first_child:]
                node.span = (lt, close_span[1])
                node.inner_span = (tag_end, close_span[0])
        run_start = pos
    if len(src) > run_start:
        nodes.append(JspNode(kind=NodeKind.TEMPLATE_TEXT, span=(run_start, len(src))))
    return len(src), None


def parse_jsp(source: str, page_path: str) -> JspDocument:
    """Parse one JSP page into its tag-level document.

    Raises :class:`UnterminatedScriptlet`, :class:`MalformedAttribute` or
    :class:`DuplicateAttribute` on inputs that cannot be tokenized; unbalanced
    plain HTML is not an error.
    """
    if not page_path:
        raise ValueError("page_path must be non-empty")
    page_path = normalize_page_path(page_path)
    nodes: list[JspNode] = []
    _parse_nodes(source, 0, page_path, {}, nodes, None)
    return JspDocument(page_path=page_path, nodes=nodes, source=source)


def iter_nodes(nodes: Sequence[JspNode]) -> Iterator[JspNode]:
    """Depth-first, document-order traversal."""
    stack = [iter(nodes)]
    while stack:
        for node in stack[-1]:
            yield node
            if node.children:
                stack.append(iter(node.children))
                break
        else:
            stack.pop()
