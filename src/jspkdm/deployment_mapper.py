"""Deployment metadata: parse web.xml and @WebServlet, resolve URLs.

Builds the pattern -> servlet lookup table and resolves every extracted URL
reference to an internal page, an internal servlet class, an external
resource, or an explicit "unresolved" verdict. Pattern matching follows the
container precedence rule: exact match, then longest path prefix, then
extension, then the default mapping.
"""

from __future__ import annotations

import posixpath
import re
from enum import Enum

from ._records import Value, fields_repr
from .dependency_extractor import TAG_TABLE, UrlRef
from .diagnostics import Diagnostic, emit
from .jsp_parser import NodeKind, normalize_page_path

SOURCE_WEB_XML = "web-xml"
SOURCE_ANNOTATION = "annotation"


class XmlSyntaxError(ValueError):
    """web.xml is not well-formed XML."""


class ServletDecl:
    def __init__(self, servlet_name: str, servlet_class: str | None = None,
                 jsp_file: str | None = None, source: str = SOURCE_WEB_XML):
        self.servlet_name = servlet_name
        self.servlet_class = servlet_class
        self.jsp_file = jsp_file
        self.source = source

    __repr__ = fields_repr


class UrlMappingTable:
    """``entries`` maps each valid pattern to its servlet's declaration, in
    table order.

    A valid pattern is its own lookup key, so :func:`resolve_url` builds the
    patterns that could match a path and looks each one up in ``entries``.
    ``prefix_lengths`` holds the length of each prefix pattern's path part
    ("/a/*" has 2), longest first, so only those prefixes of a path are built.
    :func:`build_lookup_table` builds tables; do not change ``entries`` or
    ``prefix_lengths`` otherwise.
    """

    def __init__(self, context_path: str = ""):
        self.entries: dict[str, ServletDecl] = {}
        self.prefix_lengths: list[int] = []
        self.context_path = context_path

    __repr__ = fields_repr


class ResolvedKind(str, Enum):
    INTERNAL_PAGE = "InternalPage"
    INTERNAL_SERVLET_CLASS = "InternalServletClass"
    EXTERNAL = "External"
    UNRESOLVED = "Unresolved"


class ResolvedTarget(Value):
    """Where a reference leads. Immutable, slotted, and equal to another
    with the same fields."""

    __slots__ = ("kind", "page_path", "class_name", "reason")

    def __init__(self, kind: ResolvedKind, page_path: str | None = None,
                 class_name: str | None = None, reason: str | None = None):
        Value.__init__(self, kind, page_path, class_name, reason)


# -- web.xml --------------------------------------------------------------------


def _local(tag: str) -> str:
    return tag.rpartition("}")[2]


def _child_text(element, local_name: str) -> str | None:
    for child in element:
        if _local(child.tag) == local_name:
            return (child.text or "").strip()
    return None


def parse_web_xml(content: bytes, diagnostics: list[Diagnostic] | None = None
                  ) -> tuple[list[ServletDecl], list[tuple[str, str]]]:
    """Servlet declarations and (url-pattern, servlet-name) pairs.

    Element matching is namespace-agnostic and local-name based; everything
    outside the five mapping-related elements is ignored. Incomplete
    declarations and mappings yield diagnostics.
    """
    # Imported here, so that a run without a web.xml never loads it.
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(content)
    except ET.ParseError as exc:
        raise XmlSyntaxError(str(exc)) from exc
    decls: list[ServletDecl] = []
    mappings: list[tuple[str, str]] = []
    for element in root.iter():
        local = _local(element.tag)
        if local == "servlet":
            name = _child_text(element, "servlet-name")
            servlet_class = _child_text(element, "servlet-class")
            jsp_file = _child_text(element, "jsp-file")
            if not name:
                emit(diagnostics, "web-xml",
                     "servlet declaration without servlet-name; skipped")
                continue
            if servlet_class and jsp_file:
                emit(diagnostics, "web-xml",
                     f"servlet {name!r} declares both servlet-class and jsp-file; skipped")
                continue
            if not servlet_class and not jsp_file:
                emit(diagnostics, "web-xml",
                     f"servlet {name!r} declares neither servlet-class nor jsp-file; skipped")
                continue
            decls.append(ServletDecl(
                servlet_name=name,
                servlet_class=servlet_class or None,
                jsp_file=normalize_page_path(jsp_file) if jsp_file else None,
                source=SOURCE_WEB_XML))
        elif local == "servlet-mapping":
            name = _child_text(element, "servlet-name")
            if not name:
                emit(diagnostics, "web-xml", "servlet-mapping without servlet-name; skipped")
                continue
            patterns = [(child.text or "").strip() for child in element
                        if _local(child.tag) == "url-pattern"]
            if not patterns:
                emit(diagnostics, "web-xml", f"servlet-mapping for {name!r} has no url-pattern")
            for pattern in patterns:
                mappings.append((pattern, name))
    return decls, mappings


# -- @WebServlet annotations ------------------------------------------------------

_LINE_COMMENT_RE = re.compile(r"//[^\n]*")
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
_ANNOTATION_RE = re.compile(r"@\s*WebServlet\b")
_PACKAGE_RE = re.compile(r"^\s*package\s+([\w.]+)\s*;", re.MULTILINE)
_CLASS_RE = re.compile(r"\bclass\s+([A-Za-z_]\w*)")


def _strip_java_comments(source: str) -> str:
    return _LINE_COMMENT_RE.sub("", _BLOCK_COMMENT_RE.sub("", source))


def _unescape_java(literal: str) -> str:
    return literal.replace('\\"', '"').replace("\\\\", "\\")


def _annotation_args(source: str, pos: int) -> str | None:
    """Text between the balanced parens starting at ``pos`` (skipping space)."""
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


def _patterns_from_args(args: str) -> list[str] | None:
    """URL patterns in an annotation argument list, or None if unparseable."""

    def literals_after(match_end: int) -> list[str]:
        rest = args[match_end:]
        stripped = rest.lstrip()
        if stripped.startswith("{"):
            brace_end = stripped.find("}")
            if brace_end < 0:
                return []
            return [_unescape_java(m.group(1))
                    for m in _STRING_RE.finditer(stripped[:brace_end])]
        m = _STRING_RE.match(stripped)
        return [_unescape_java(m.group(1))] if m else []

    keyed = re.search(r"\b(?:urlPatterns|value)\s*=", args)
    if keyed:
        return literals_after(keyed.end())
    if "=" not in args:
        # Bare single-value form: @WebServlet("/hello")
        return [_unescape_java(m.group(1)) for m in _STRING_RE.finditer(args)]
    return None


def scan_webservlet_annotations(
        java_source: str, class_qualified_name: str,
        diagnostics: list[Diagnostic] | None = None) -> list[tuple[str, ServletDecl]]:
    """Lexical scan for @WebServlet URL patterns on one class.

    Handles the single string value, ``value = {...}`` and
    ``urlPatterns = {...}`` forms; anything else yields a diagnostic.
    """
    source = _strip_java_comments(java_source)
    results: list[tuple[str, ServletDecl]] = []
    for m in _ANNOTATION_RE.finditer(source):
        args = _annotation_args(source, m.end())
        if args is None:
            emit(diagnostics, "annotation",
                 f"@WebServlet on {class_qualified_name} has no arguments")
            continue
        patterns = _patterns_from_args(args)
        if patterns is None or not patterns:
            emit(diagnostics, "annotation",
                 f"@WebServlet on {class_qualified_name} without url patterns")
            continue
        name_match = re.search(r'\bname\s*=\s*"((?:[^"\\]|\\.)*)"', args)
        servlet_name = (_unescape_java(name_match.group(1)) if name_match
                        else class_qualified_name)
        decl = ServletDecl(servlet_name=servlet_name,
                           servlet_class=class_qualified_name,
                           source=SOURCE_ANNOTATION)
        for pattern in patterns:
            results.append((pattern, decl))
    return results


def java_qualified_class_name(java_source: str, fallback: str) -> str:
    """Best-effort "package.Class" from a source file, lexically."""
    source = _strip_java_comments(java_source)
    cls = _CLASS_RE.search(source)
    name = cls.group(1) if cls else fallback
    pkg = _PACKAGE_RE.search(source)
    return f"{pkg.group(1)}.{name}" if pkg else name


# -- lookup table -----------------------------------------------------------------

PATTERN_EXACT = "exact"
PATTERN_PREFIX = "prefix"
PATTERN_EXTENSION = "extension"
PATTERN_DEFAULT = "default"


def classify_pattern(pattern: str) -> str | None:
    """One of the four container pattern shapes, or None when invalid."""
    if pattern == "/":
        return PATTERN_DEFAULT
    if pattern.startswith("/") and pattern.endswith("/*") and "*" not in pattern[:-1]:
        return PATTERN_PREFIX
    if re.fullmatch(r"\*\.[^/.*]+", pattern):
        return PATTERN_EXTENSION
    if pattern.startswith("/") and "*" not in pattern:
        return PATTERN_EXACT
    return None


def build_lookup_table(decls: list[ServletDecl],
                       mappings: list[tuple[str, str]],
                       context_path: str = "",
                       diagnostics: list[Diagnostic] | None = None) -> UrlMappingTable:
    """Merge declarations and mappings into the lookup table.

    Mappings to undeclared servlets and syntactically invalid patterns are
    dropped with diagnostics. On a pattern collision the web.xml mapping wins
    over an annotation one; the shadowed mapping is recorded.
    """
    table = UrlMappingTable(context_path=context_path)
    by_name: dict[str, ServletDecl] = {}
    for decl in decls:
        by_name.setdefault(decl.servlet_name, decl)
    for pattern, servlet_name in mappings:
        decl = by_name.get(servlet_name)
        if decl is None:
            emit(diagnostics, "mapping",
                 f"url-pattern {pattern!r} maps to undeclared servlet "
                 f"{servlet_name!r}; dropped")
            continue
        if classify_pattern(pattern) is None:
            emit(diagnostics, "mapping",
                 f"invalid url-pattern {pattern!r} for servlet {servlet_name!r}; dropped")
            continue
        current = table.entries.get(pattern)
        if current is None:
            table.entries[pattern] = decl
        elif current.source == SOURCE_ANNOTATION and decl.source == SOURCE_WEB_XML:
            emit(diagnostics, "mapping",
                 f"pattern {pattern!r}: web.xml servlet {servlet_name!r} "
                 f"shadows annotation servlet {current.servlet_name!r}")
            table.entries[pattern] = decl  # the entry keeps its position
        else:
            emit(diagnostics, "mapping",
                 f"pattern {pattern!r} already mapped to {current.servlet_name!r}; "
                 f"{servlet_name!r} shadowed")
    # Of the valid patterns, only the prefix patterns end in "/*".
    table.prefix_lengths = sorted({len(p) - 2 for p in table.entries if p.endswith("/*")},
                                  reverse=True)
    return table


# -- URL resolution -----------------------------------------------------------------

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

# The tag kinds whose URL a browser requests: TAG_TABLE's HTML rows. There a
# URL that starts with "//" names another host (RFC 3986, section 4.2), and
# so does one that spells either slash as a backslash, which an http(s) URL
# reads as "/" in its path too (WHATWG URL Standard); every other tag takes a
# context-relative server path, backslashes and all.
_BROWSER_TAG_KINDS = frozenset(row[0] for (node_kind, _), row in TAG_TABLE.items()
                               if node_kind is NodeKind.TEMPLATE_TEXT)
_NETWORK_PATH_STARTS = frozenset({"//", "/\\", "\\/", "\\\\"})


def normalize_url_path(path: str) -> tuple[str, bool, bool]:
    """Normalize an absolute context-relative path.

    Collapses "//", resolves "." and "..", and trims trailing dots from the
    last segment. Returns (normalized, clamped_at_root, trimmed_dots).
    """
    clamped = False
    stack: list[str] = []
    for segment in path.split("/"):
        if segment in ("", "."):
            continue
        if segment == "..":
            if stack:
                stack.pop()
            else:
                clamped = True
            continue
        stack.append(segment)
    normalized = "/" + "/".join(stack)
    trimmed = False
    if normalized.endswith("."):
        normalized = normalized.rstrip(".")
        trimmed = True
        if normalized.endswith("/") and normalized != "/":
            normalized = normalized[:-1]
    return normalized, clamped, trimmed


def resolve_url(table: UrlMappingTable, ref: UrlRef, source_page: str,
                known_pages: frozenset[str] | set[str] = frozenset(),
                diagnostics: list[Diagnostic] | None = None) -> ResolvedTarget:
    """Resolve one reference to its server page, class, or verdict.

    ``known_pages`` lists the application's page paths so that URLs without a
    table entry can still resolve to a page file (the container's implicit
    JSP mapping). Dynamic references are never resolved.
    """
    if ref.dynamic:
        return ResolvedTarget(ResolvedKind.UNRESOLVED, reason="dynamic")
    raw = ref.raw_url.strip()
    if not raw:
        return ResolvedTarget(ResolvedKind.UNRESOLVED, reason="empty")
    if _SCHEME_RE.match(raw) or (raw[:2] in _NETWORK_PATH_STARTS
                                 and ref.tag_kind in _BROWSER_TAG_KINDS):
        return ResolvedTarget(ResolvedKind.EXTERNAL)
    path = raw.split("#", 1)[0].split("?", 1)[0]
    if ref.tag_kind in _BROWSER_TAG_KINDS:
        path = path.replace("\\", "/")
    if not path:
        return ResolvedTarget(ResolvedKind.UNRESOLVED, reason="empty")
    where = f"{source_page}:{ref.raw_url!r}"
    if not path.startswith("/"):
        base = posixpath.dirname(normalize_page_path(source_page))
        path = posixpath.join(base, path)
    path, clamped, trimmed = normalize_url_path(path)
    if clamped:
        emit(diagnostics, "resolution",
             f'".." escapes the context root; clamped', where)
    if trimmed:
        emit(diagnostics, "resolution", "trailing dot(s) trimmed", where)
    ctx = table.context_path.rstrip("/")
    if ctx and (path == ctx or path.startswith(ctx + "/")):
        path = path[len(ctx):] or "/"
    # Look up the patterns that could match, in precedence order, so the
    # first hit wins: the path itself as an exact pattern, the prefixes from
    # the longest ("/a/b/*", "/a/*", then "/*") that end at a "/" or at the
    # path's end and that some prefix pattern has, the last segment's
    # extension, then the default "/". A path with a "*" is no exact pattern.
    probes = [path] if path != "/" and "*" not in path else []
    probes += [path[:cut] + "/*" for cut in table.prefix_lengths
               if cut == len(path) or path[cut:cut + 1] == "/"]
    dot = path.rfind(".")
    if dot > path.rfind("/"):
        probes.append("*" + path[dot:])
    probes.append("/")
    hits = [p for p in probes if p in table.entries]
    if hits:
        if len(hits) > 1:
            emit(diagnostics, "resolution",
                 f"pattern {hits[0]!r} wins over {hits[1:]}", where)
        decl = table.entries[hits[0]]
        if decl.jsp_file:
            return ResolvedTarget(ResolvedKind.INTERNAL_PAGE, page_path=decl.jsp_file)
        if decl.servlet_class:
            return ResolvedTarget(ResolvedKind.INTERNAL_SERVLET_CLASS,
                                  class_name=decl.servlet_class)
    if path in known_pages:
        return ResolvedTarget(ResolvedKind.INTERNAL_PAGE, page_path=path)
    return ResolvedTarget(ResolvedKind.UNRESOLVED, reason="no-mapping")
