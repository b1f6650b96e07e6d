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
from collections.abc import Callable, Iterator, Sequence
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
# _LT_RE group -> the arguments of _Parser._parse_delimited.
_DELIMITED = {
    1: (4, "--%>", NodeKind.COMMENT, "JSP comment"),
    3: (3, "%>", NodeKind.EXPRESSION, "expression"),
    4: (3, "%>", NodeKind.DECLARATION, "declaration"),
    5: (2, "%>", NodeKind.SCRIPTLET, "scriptlet"),
}
_DIRECTIVE_OPENER = 2
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


class _Parser:
    def __init__(self, source: str, page_path: str):
        self.source = source
        self.page_path = page_path
        self.pos = 0
        self._close_span: Span | None = None
        # Attribute-name start -> (index of each key, attributes, index here)
        # for every name that a tag scan reaching EOF passed; see
        # _scan_tag_attrs.
        self._eof_memo: dict[int, tuple[dict[str, int], list[tuple[str, str]], int]] = {}

    # -- error helpers ----------------------------------------------------

    def _unterminated(self, offset: int, what: str) -> UnterminatedScriptlet:
        return UnterminatedScriptlet(f"unterminated {what}", self.page_path, offset)

    # -- region scanners --------------------------------------------------

    def _parse_delimited(self, start: int, open_len: int, closer: str,
                         kind: NodeKind, what: str) -> JspNode:
        end = self.source.find(closer, start + open_len)
        if end < 0:
            raise self._unterminated(start, what)
        self.pos = end + len(closer)
        return JspNode(kind=kind, span=(start, self.pos),
                       inner_span=(start + open_len, end))

    def _parse_directive(self, start: int) -> JspNode:
        end = self.source.find("%>", start + 3)
        if end < 0:
            raise self._unterminated(start, "directive")
        inner = self.source[start + 3:end]
        m = _DIRECTIVE_NAME_RE.match(inner)
        name = m.group(1) if m else ""
        rest = inner[m.end():] if m else inner
        attrs = self._scan_directive_attrs(rest, start + 3 + (m.end() if m else 0))
        self.pos = end + 2
        return JspNode(kind=NodeKind.DIRECTIVE, name=name, attributes=tuple(attrs),
                       span=(start, self.pos))

    def _scan_directive_attrs(self, text: str, offset: int) -> list[tuple[str, str]]:
        attrs: list[tuple[str, str]] = []
        seen: set[str] = set()
        consumed = 0
        for m in _DIRECTIVE_ATTR_RE.finditer(text):
            name = m.group(1)
            value = next(g for g in m.groups()[1:] if g is not None)
            key = name.lower()
            if key in seen:
                raise DuplicateAttribute(
                    f"duplicate attribute {name!r}", self.page_path, offset + m.start())
            seen.add(key)
            attrs.append((name, value))
            consumed = m.end()
        leftover = text[consumed:]
        if '"' in leftover or "'" in leftover:
            raise MalformedAttribute(
                "unclosed quote in directive", self.page_path, offset + consumed)
        return attrs

    def _scan_tag_attrs(self, pos: int, tag_start: int
                        ) -> tuple[list[tuple[str, str]], int, bool] | None:
        """Scan attributes from ``pos`` up to the tag's ``>``.

        Returns (attributes, position after ">", self_closing), or None when
        EOF arrives before ">" (the caller then treats "<" as template text).
        Quoted values may contain "<", ">" and expression fragments; an
        unclosed quote is a hard error.

        Tokens from an attribute-name start onward do not depend on where
        the scan began, so a scan that reaches EOF records each name start it
        passed. A later scan that lands on one returns None at once, or
        raises for the first name from there on that it has already seen.
        """
        src = self.source
        n = len(src)
        memo = self._eof_memo
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
                                             self.page_path, tag_start)
                return None
            starts.append(start)
            if double is not None:
                value = double
            elif single is not None:
                value = single
            elif value is None:  # no "="
                value = ""
            elif value.startswith(("'", '"')):
                raise MalformedAttribute("unclosed quote", self.page_path, m.start(4))
            elif not value and m.end(4) == n:
                break  # EOF right after "="
            key = name.lower()
            if key in seen:
                raise DuplicateAttribute(
                    f"duplicate attribute {name!r}", self.page_path, tag_start)
            seen.add(key)
            attrs.append((name, value))
            pos = m.end()
            if end is not None:
                return attrs, pos, end == "/>"
        order = {name.lower(): i for i, (name, _) in enumerate(attrs)}
        for index, start in enumerate(starts):
            memo[start] = (order, attrs, index)
        return None

    # -- element / node parsing -------------------------------------------

    def _parse_element(self, nodes: list[JspNode], flush_text: Callable[[int], None],
                       start: int, name: str, name_end: int) -> bool:
        """Append the element opened at ``start`` to ``nodes``, after the text
        before it; False, appending nothing, when no ">" ends the tag, so what
        is there is template text.

        A prefixed action that is not self-closing nests: what follows is
        parsed into ``nodes`` as well and moved into its children once the
        close tag turns up. Left unclosed by EOF, it stays flat with what
        followed as its siblings, so no node list is copied per unclosed level.
        The tag is scanned here, not in ``_parse_nodes``, because the frame
        depth of each call sets where a deep page hits the recursion limit,
        and so the error text it is reported with.
        """
        scanned = self._scan_tag_attrs(name_end, start)
        if scanned is None:
            self.pos = start + 1
            return False
        attrs, tag_end, self_closing = scanned
        flush_text(start)
        node = JspNode(kind=_classify_element(name), name=name, attributes=tuple(attrs),
                       span=(start, tag_end))
        nodes.append(node)
        self.pos = tag_end
        if self_closing:
            return True
        first_child = len(nodes)
        self._parse_nodes(nodes, until_close=name)
        close_span, self._close_span = self._close_span, None
        if close_span is not None:
            node.children = tuple(nodes[first_child:])
            del nodes[first_child:]
            node.span = (start, close_span[1])
            node.inner_span = (tag_end, close_span[0])
        return True

    def _parse_nodes(self, nodes: list[JspNode], until_close: str | None = None
                     ) -> list[JspNode]:
        src = self.source
        n = len(src)
        run_start = self.pos
        self._close_span = None

        def flush_text(end: int) -> None:
            if end > run_start:
                nodes.append(JspNode(kind=NodeKind.TEMPLATE_TEXT, span=(run_start, end)))

        while (m := _LT_RE.search(src, self.pos)) is not None:
            lt = m.start()
            opener = m.lastindex
            delimited = _DELIMITED.get(opener)
            if delimited is not None:
                flush_text(lt)
                nodes.append(self._parse_delimited(lt, *delimited))
            elif opener == _DIRECTIVE_OPENER:
                flush_text(lt)
                nodes.append(self._parse_directive(lt))
            elif opener == _CLOSE_OPENER:
                self.pos = m.end()
                if m.group(opener) != until_close:
                    continue  # closes nothing open: part of the template text
                flush_text(lt)
                self._close_span = (lt, self.pos)
                return nodes
            elif not self._parse_element(nodes, flush_text, lt, m.group(opener), m.end()):
                continue  # no tag: part of the template text
            run_start = self.pos

        self.pos = n
        flush_text(n)
        self._close_span = None
        return nodes


def parse_jsp(source: str, page_path: str) -> JspDocument:
    """Parse one JSP page into its tag-level document.

    Raises :class:`UnterminatedScriptlet`, :class:`MalformedAttribute` or
    :class:`DuplicateAttribute` on inputs that cannot be tokenized; unbalanced
    plain HTML is not an error.
    """
    if not page_path:
        raise ValueError("page_path must be non-empty")
    page_path = normalize_page_path(page_path)
    nodes = _Parser(source, page_path)._parse_nodes([])
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
