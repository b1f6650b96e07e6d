"""Translate parsed JSP pages into servlet-shaped code units.

Follows the classic container translation rules: scriptlets and expressions
become code in the request-serving method, declarations become class members,
bean actions and known custom tags become instantiations and calls (their
text is the open tag), and all the rest of the page, HTML tags included, is
template text, written to the response verbatim. :func:`translate_page` is
one loop over the page's nodes; it keeps the template text as ``(start,
end)`` runs of the page source until the next statement, and slices each
run once. The resulting :class:`ServletUnit` is what the code model is
discovered from; rendering it to Java-looking source is a side product for
inspection.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from enum import Enum
from pathlib import Path
from unicodedata import category

from ._records import Fields, fields_repr
from .diagnostics import Diagnostic, emit
from .jsp_parser import JspDocument, JspNode, NodeKind, Span, iter_nodes


class StatementKind(str, Enum):
    INLINE_CODE = "InlineCode"
    TEMPLATE_EMIT = "TemplateEmit"
    BEAN_INSTANTIATION = "BeanInstantiation"
    PROPERTY_GET = "PropertyGet"
    PROPERTY_SET = "PropertySet"
    TAG_HANDLER_CALL = "TagHandlerCall"
    EXPRESSION_EMIT = "ExpressionEmit"


class CodeStatement(Fields):
    """One statement of a servlet unit. Slotted, and equal to another
    statement with the same fields."""

    __slots__ = ("kind", "text", "metadata", "origin_span")

    def __init__(self, kind: StatementKind, text: str,
                 metadata: dict[str, object] | None = None, origin_span: Span = (0, 0)):
        self.kind = kind
        self.text = text
        self.metadata = metadata
        self.origin_span = origin_span


class ServletUnit:
    """Servlet-shaped translation of one page. Each list that is not given
    starts empty."""

    def __init__(self, class_name: str, source_page: str,
                 declarations: list[CodeStatement] | None = None,
                 service_body: list[CodeStatement] | None = None,
                 imports: list[str] | None = None):
        self.class_name = class_name
        self.source_page = source_page
        self.declarations = [] if declarations is None else declarations
        self.service_body = [] if service_body is None else service_body
        self.imports = [] if imports is None else imports

    __repr__ = fields_repr


SERVICE_METHOD = "_jspService"
INIT_METHOD = "_jspInit"
DESTROY_METHOD = "_jspDestroy"

_HEX_DIGITS = frozenset("0123456789abcdef")


def mangle_class_name(page_path: str) -> str:
    """Deterministic, injective identifier for a page path.

    "/" maps to "_", alphanumerics map to themselves and anything else to a
    ``_XXXX`` four-digit hex escape ("." -> "_002e"). When four literal hex
    digits directly follow a "/" the first one is escaped too, so a path can
    never imitate an escape sequence; this keeps the mapping collision-free
    (e.g. "/a.jsp" vs "/a/002ejsp").
    """
    out = ["jsp"]
    chars = page_path
    for i, ch in enumerate(chars):
        if ch == "/":
            out.append("_")
            continue
        fakes_escape = (i > 0 and chars[i - 1] == "/"
                        and all(c in _HEX_DIGITS for c in chars[i:i + 4])
                        and len(chars) >= i + 4)
        if ch.isascii() and ch.isalnum() and not fakes_escape:
            out.append(ch)
        else:
            code = ord(ch)
            if code > 0xFFFF:  # astral chars: escape the surrogate pair
                code -= 0x10000
                out.append(f"_{0xD800 + (code >> 10):04x}")
                out.append(f"_{0xDC00 + (code & 0x3FF):04x}")
            else:
                out.append(f"_{code:04x}")
    return "".join(out)


# JLS §3.9's keywords, "_" among them, and §3.10's boolean and null
# literals: spelled as identifiers, but none of them is one.
_JAVA_RESERVED = frozenset(
    "abstract assert boolean break byte case catch char class const continue default do"
    " double else enum extends final finally float for goto if implements import"
    " instanceof int interface long native new package private protected public return"
    " short static strictfp super switch synchronized this throw throws transient try"
    " void volatile while _ true false null".split())
# The Unicode categories of the characters an identifier starts with (Java
# letters: Character.isJavaIdentifierStart), and of those it goes on with.
_JAVA_LETTER = frozenset({"Lu", "Ll", "Lt", "Lm", "Lo", "Nl", "Sc", "Pc"})
_JAVA_LETTER_OR_DIGIT = _JAVA_LETTER | {"Nd", "Mn", "Mc"}


def _is_java_identifier(name: str) -> bool:
    """Whether ``name`` is a Java identifier (JLS §3.8). The
    identifier-ignorable controls that Java also takes inside one are
    refused."""
    return (name not in _JAVA_RESERVED and category(name[0]) in _JAVA_LETTER
            and all(category(c) in _JAVA_LETTER_OR_DIGIT for c in name[1:]))


# A page names few bean classes, and names each again and again, so the
# answers are kept: checking each character's category costs more.
@functools.lru_cache(maxsize=256)
def _is_java_class_name(name: str) -> bool:
    """Whether ``name`` is Java identifiers joined by dots."""
    return all(part and _is_java_identifier(part) for part in name.split("."))


def _capitalized(prop: str) -> str:
    return prop[:1].upper() + prop[1:]


def _open_tag(node: JspNode, src: str) -> str:
    """An action's open tag: its statement's text, which holds none of the
    children, so a nest of actions holds each byte once."""
    end = node.span[1] if node.inner_span is None else node.inner_span[0]
    return src[node.span[0]:end]


def _bean_action(node: JspNode, doc: JspDocument,
                 diagnostics: list[Diagnostic] | None) -> CodeStatement | None:
    """The statement of a bean action; None for template text. A bean action
    is template text, with a diagnostic, when an attribute is absent, or
    when a name that goes into the servlet's code is no Java identifier. The
    bean's name goes in as it is; a class, as a dotted name whose every part
    is an identifier; a property, as its getter or setter, so ``class``
    gives ``getClass``. ``*`` names every property of a
    ``jsp:setProperty``."""
    name = node.name
    if name not in ("jsp:useBean", "jsp:getProperty", "jsp:setProperty"):
        # jsp:include, jsp:forward, jsp:param, ... : template text, codified
        # later by the dependency extraction pass.
        return None
    attrs = dict(node.attributes)
    problem = None
    if name == "jsp:useBean":
        cls, bean = attrs.get("class"), attrs.get("id")
        if not cls:
            problem = "jsp:useBean without class attribute"
        elif not bean:
            problem = "jsp:useBean without id attribute"
        elif not _is_java_identifier(bean):
            problem = f"{name} id {bean!r} is not a Java identifier"
        elif not _is_java_class_name(cls):
            problem = f"{name} class {cls!r} is not a Java class name"
        metadata = {"bean": bean, "class": cls}
        if attrs.get("scope"):
            metadata["scope"] = attrs["scope"]
        stmt_kind = StatementKind.BEAN_INSTANTIATION
    else:
        bean, prop = attrs.get("name"), attrs.get("property")
        getter = name == "jsp:getProperty"
        method = ("get" if getter else "set") + _capitalized(prop or "")
        if not bean or not prop:
            problem = f"{name} missing name/property attribute"
        elif not _is_java_identifier(bean):
            problem = f"{name} name {bean!r} is not a Java identifier"
        elif (getter or prop != "*") and not _is_java_identifier(method):
            problem = f"{name} property {prop!r} gives no Java method name"
        metadata = {"bean": bean, "property": prop}
        if getter or prop != "*":
            metadata["method"] = method
        if getter:
            stmt_kind = StatementKind.PROPERTY_GET
        else:
            for key in ("value", "param"):
                if key in attrs:
                    metadata[key] = attrs[key]
            stmt_kind = StatementKind.PROPERTY_SET
    if problem is not None:
        emit(diagnostics, "translation", problem, f"{doc.page_path}@{node.span[0]}")
        return None
    return CodeStatement(stmt_kind, _open_tag(node, doc.source), metadata=metadata,
                         origin_span=node.span)


def _handler_call(node: JspNode, src: str,
                  known_tag_handlers: Mapping[str, str]) -> CodeStatement | None:
    """The call of a custom action's known handler; None for template text."""
    handler = known_tag_handlers.get(node.name)
    if handler is None:
        return None
    methods = ["setAttribute"] * len(node.attributes) + ["doStartTag", "doEndTag"]
    return CodeStatement(
        StatementKind.TAG_HANDLER_CALL, _open_tag(node, src),
        metadata={"tag": node.name, "handler": handler, "methods": methods,
                  "attributes": [name for name, _ in node.attributes]},
        origin_span=node.span)


def _template_emit(src: str, runs: list[Span]) -> CodeStatement:
    """One statement for the template text between two statements."""
    return CodeStatement(StatementKind.TEMPLATE_EMIT,
                         "".join([src[start:end] for start, end in runs]),
                         origin_span=(runs[0][0], runs[-1][1]))


def translate_page(doc: JspDocument, known_tag_handlers: Mapping[str, str] | None = None,
                   diagnostics: list[Diagnostic] | None = None) -> ServletUnit:
    """Apply the translation rules to one parsed page, in one document-order
    loop over its nodes, with no recursion.

    ``known_tag_handlers`` maps a custom action's tag name (e.g.
    "c:redirect") to its handler class; actions not listed there are emitted
    verbatim like any other tag. Findings go to ``diagnostics``.

    Template text is what no code covers: a cursor moves over the source and
    skips only the scripting elements, JSP comments and the open and close
    tags of actions that become statements. A stack holds the close tag of
    each such action until the loop is past its children. The text from the
    cursor to the next skipped region is one source run; every skipped region
    is non-empty, so no two runs touch. The runs since the last statement
    become one template emit, sliced from the source once.
    """
    src = doc.source
    handlers = known_tag_handlers or {}
    declarations: list[CodeStatement] = []
    body: list[CodeStatement] = []
    imports: dict[str, None] = {}  # in first-seen order
    runs: list[Span] = []
    pos = 0
    closes: list[Span] = []
    for node in iter_nodes(doc.nodes):
        kind = node.kind
        if kind is NodeKind.TEMPLATE_TEXT:
            continue
        if kind is NodeKind.DIRECTIVE:
            if node.name in ("page", "jsp:directive.page"):
                for imp in (node.attribute_value("import") or "").split(","):
                    if imp := imp.strip():
                        imports[imp] = None
            continue
        start, end = node.span
        while closes and closes[-1][0] <= start:
            close_start, close_end = closes.pop()
            if pos < close_start:
                runs.append((pos, close_start))
            pos = close_end
        stmt = None  # and stays None for a JSP comment: it never reaches the client
        if kind is NodeKind.SCRIPTLET:
            stmt = CodeStatement(StatementKind.INLINE_CODE,
                                 src[node.inner_span[0]:node.inner_span[1]],
                                 origin_span=node.span)
        elif kind is NodeKind.EXPRESSION:
            stmt = CodeStatement(StatementKind.EXPRESSION_EMIT,
                                 src[node.inner_span[0]:node.inner_span[1]],
                                 origin_span=node.span)
        elif kind is NodeKind.DECLARATION:
            declarations.append(CodeStatement(
                StatementKind.INLINE_CODE, src[node.inner_span[0]:node.inner_span[1]].strip(),
                origin_span=node.span))
        elif kind is NodeKind.STANDARD_ACTION or kind is NodeKind.CUSTOM_ACTION:
            stmt = (_bean_action(node, doc, diagnostics) if kind is NodeKind.STANDARD_ACTION
                    else _handler_call(node, src, handlers))
            if stmt is None:
                continue  # template text
            if node.inner_span is not None:
                end = node.inner_span[0]
                closes.append((node.inner_span[1], node.span[1]))
        if pos < start:
            runs.append((pos, start))
        pos = end
        if stmt is not None:
            if runs:
                body.append(_template_emit(src, runs))
                runs = []
            body.append(stmt)
    for close_start, close_end in reversed(closes):
        if pos < close_start:
            runs.append((pos, close_start))
        pos = close_end
    if pos < len(src):
        runs.append((pos, len(src)))
    if runs:
        body.append(_template_emit(src, runs))
    return ServletUnit(mangle_class_name(doc.page_path), doc.page_path,
                       declarations, body, list(imports))


# -- source rendering ---------------------------------------------------------

_DEFAULT_IMPORTS = ("java.io.*", "javax.servlet.*", "javax.servlet.http.*")


def escape_java_string(text: str) -> str:
    # The backslash first, so the escapes added after it stay single.
    return (text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            .replace("\r", "\\r").replace("\t", "\\t"))


def _java_lines(code: str) -> list[str]:
    """The lines of scripting code, each stripped of white space, and one
    empty line for none. A line ends only at CR, LF or CRLF, as in Java (JLS
    §3.4), so a string literal holding U+2028 or ``\\x0b`` stays whole; white
    space is SP, HT and FF only (§3.6). As ``str.splitlines`` does, a final
    line end adds no empty line."""
    lines = code.strip("\n").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if len(lines) > 1 and not lines[-1]:
        lines.pop()
    return [line.strip(" \t\f") for line in lines]


def _render_statement(stmt: CodeStatement, out: list[str], indent: str) -> None:
    md = stmt.metadata or {}
    if stmt.kind is StatementKind.TEMPLATE_EMIT:
        out.append(f'{indent}out.print("{escape_java_string(stmt.text)}");')
    elif stmt.kind is StatementKind.EXPRESSION_EMIT:
        out.append(f"{indent}out.print({stmt.text.strip()});")
    elif stmt.kind is StatementKind.INLINE_CODE:
        for line in _java_lines(stmt.text):
            out.append(indent + line)
    elif stmt.kind is StatementKind.BEAN_INSTANTIATION:
        cls, bean = md["class"], md["bean"]
        out.append(f"{indent}{cls} {bean} = new {cls}();")
    elif stmt.kind is StatementKind.PROPERTY_GET:
        out.append(f"{indent}out.print({md['bean']}.{md['method']}());")
    elif stmt.kind is StatementKind.PROPERTY_SET:
        if md.get("property") == "*":
            out.append(f"{indent}// jsp:setProperty property=\"*\" on {md['bean']}")
        elif "value" in md:
            value = md["value"]
            if value.startswith("<%=") and value.endswith("%>"):
                arg = value[3:-2].strip()
            else:
                arg = f'"{escape_java_string(value)}"'
            out.append(f"{indent}{md['bean']}.{md['method']}({arg});")
        else:
            param = escape_java_string(md.get("param") or md["property"])
            out.append(
                f"{indent}{md['bean']}.{md['method']}(request.getParameter(\"{param}\"));")
    elif stmt.kind is StatementKind.TAG_HANDLER_CALL:
        out.append(f"{indent}// custom tag {md.get('tag')} -> {md.get('handler')} "
                   f"({'/'.join(md.get('methods', []))})")


def render_servlet_source(unit: ServletUnit) -> str:
    """Deterministic servlet source text for a translated page."""
    lines: list[str] = []
    for imp in _DEFAULT_IMPORTS:
        lines.append(f"import {imp};")
    for imp in unit.imports:
        if imp not in _DEFAULT_IMPORTS:
            lines.append(f"import {imp};")
    lines.append("")
    lines.append(f"public class {unit.class_name} extends HttpServlet {{")
    if unit.declarations:
        lines.append("")
        for decl in unit.declarations:
            for line in _java_lines(decl.text):
                lines.append("    " + line)
    lines.append("")
    lines.append(f"    public void {INIT_METHOD}() {{")
    lines.append("    }")
    lines.append("")
    lines.append(f"    public void {SERVICE_METHOD}(HttpServletRequest request, "
                 "HttpServletResponse response)")
    lines.append("            throws ServletException, IOException {")
    lines.append('        response.setContentType("text/html");')
    lines.append("        ServletOutputStream out = response.getOutputStream();")
    for stmt in unit.service_body:
        _render_statement(stmt, lines, "        ")
    lines.append("        out.close();")
    lines.append("    }")
    lines.append("")
    lines.append(f"    public void {DESTROY_METHOD}() {{")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_servlet_sources(units: list[ServletUnit], out_dir) -> list[str]:
    """Render every unit to ``<class_name>.java`` under the existing
    directory ``out_dir``."""
    out = Path(out_dir)
    written = []
    for unit in units:
        path = out / f"{unit.class_name}.java"
        path.write_text(render_servlet_source(unit), encoding="utf-8")
        written.append(str(path))
    return written
