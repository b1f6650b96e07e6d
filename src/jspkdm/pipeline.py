"""End-to-end orchestration over a webapp directory.

First the deployment metadata becomes the URL-mapping table. Then one page
function, in each page's turn, parses the page, translates it to a servlet
unit whose class joins the code model, and extracts and resolves its URL
references, so that only one page's document, unit and references are alive
at once. Last, the resolved page-to-page dependencies are injected into the
model. External targets, servlet-class targets and unresolved references
stay in the dependency graph and the report; the model only ever relates
class units. Per-file failures are isolated: a page that cannot be read,
parsed, translated or extracted is reported and skipped. Every diagnostic
joins the run's one list when it is found, so the list keeps the order the
run works in. One ``os.scandir`` walk lists the webapp and each source root,
and reports a directory it cannot list in the walk's order.
"""

from __future__ import annotations

import fnmatch
import json
import os
import re
from collections.abc import Iterator
from pathlib import Path

from ._records import fields_repr
from .code_model import (
    KdmModel,
    ModelIndex,
    add_method_call,
    discover_model,
    find_class_unit,
    serialize_model,
)
from .dependency_extractor import extract_url_refs
from .deployment_mapper import (
    ResolvedKind,
    XmlSyntaxError,
    build_lookup_table,
    java_qualified_class_name,
    parse_web_xml,
    resolve_url,
    scan_webservlet_annotations,
)
from .diagnostics import Diagnostic, emit
from .jsp_parser import JspParseError, parse_jsp
from .servlet_translator import ServletUnit, translate_page, write_servlet_sources

NODE_PAGE = "page"
NODE_CLASS = "class"
NODE_EXTERNAL = "external"


class RootNotFound(ValueError):
    """The webapp root directory does not exist."""


# The records below compare by identity. A list, dict or set that is not
# given starts empty.


class WebAppInventory:
    def __init__(self, root: Path, jsp_pages: list[str] | None = None,
                 java_sources: list[str] | None = None, web_xml: str | None = None):
        self.root = root
        self.jsp_pages = [] if jsp_pages is None else jsp_pages
        self.java_sources = [] if java_sources is None else java_sources
        self.web_xml = web_xml

    __repr__ = fields_repr


class DependencyGraph:
    def __init__(self, nodes: dict[str, str] | None = None,
                 edges: set[tuple[str, str, str]] | None = None,
                 unresolved: list[tuple[str, str, str]] | None = None):
        self.nodes = {} if nodes is None else nodes  # id -> node kind
        self.edges = set() if edges is None else edges  # readers sort
        self.unresolved = [] if unresolved is None else unresolved

    __repr__ = fields_repr

    def add_edge(self, src: str, dst: str, tag_kind: str, dst_kind: str) -> bool:
        """Record a deduplicated edge; returns False for a repeat."""
        self.nodes.setdefault(src, NODE_PAGE)
        self.nodes.setdefault(dst, dst_kind)
        edge = (src, dst, tag_kind)
        if edge in self.edges:
            return False
        self.edges.add(edge)
        return True


FORMATS = ("xmi", "json", "dot")


class PipelineConfig:
    """The run's settings. ``vars(PipelineConfig())`` lists each one with its
    default; the CLI lays a config file and its flags over that."""

    def __init__(self, context_path: str = "", source_roots: list[str] | None = None,
                 include: list[str] | None = None, exclude: list[str] | None = None,
                 formats: list[str] | None = None, encoding: str = "utf-8",
                 servlet_src_out: str | None = None,
                 known_tag_handlers: dict[str, str] | None = None):
        self.context_path = context_path
        self.source_roots = [] if source_roots is None else source_roots
        self.include = [] if include is None else include
        self.exclude = [] if exclude is None else exclude
        self.formats = list(FORMATS) if formats is None else formats
        self.encoding = encoding
        self.servlet_src_out = servlet_src_out
        self.known_tag_handlers = {} if known_tag_handlers is None else known_tag_handlers

    __repr__ = fields_repr


class PipelineResult:
    def __init__(self, model: KdmModel, graph: DependencyGraph, report: dict,
                 diagnostics: list[Diagnostic] | None = None):
        self.model = model
        self.graph = graph
        self.report = report
        self.diagnostics = [] if diagnostics is None else diagnostics

    __repr__ = fields_repr


def _glob_match(rel_path: str, patterns: list[str]) -> bool:
    # fnmatch treats "*" as crossing "/" too, which is what "**/x/**" users
    # expect from shell-style filters here.
    return any(fnmatch.fnmatch(rel_path, p) for p in patterns)


# The characters of a str that XML 1.0 cannot carry, lone surrogates aside.
_NOT_XML_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _shown(path: str) -> str:
    """``path`` with the bytes of a name that is not valid UTF-8 written as
    ``\\xNN``, and each character XML cannot carry as its Python escape. Such
    a name reaches Python with surrogate escapes, and the artifacts cannot
    carry a lone surrogate."""
    path = path.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
    return _NOT_XML_RE.sub(lambda m: m[0].encode("unicode_escape").decode(), path)


def _utf8_path(path: str, diagnostics: list[Diagnostic] | None) -> bool:
    """Whether ``path`` encodes to UTF-8, with an "io" diagnostic if not."""
    try:
        path.encode("utf-8")
    except UnicodeEncodeError:
        emit(diagnostics, "io", "file name is not valid UTF-8; skipped", _shown(path))
        return False
    return True


def _walk(top: str, diagnostics: list[Diagnostic] | None
          ) -> Iterator[tuple[tuple[str, ...], str]]:
    """Each regular file under ``top`` as its names below ``top`` and its
    path, in ``os.walk``'s top-down order: a directory's files sorted by
    name, then each of its subdirectories in name order. A symlink to a file
    is a file, and a symlinked directory is not entered. Each directory costs
    one ``os.scandir``, whose entries carry their type, so a regular file
    costs no ``stat``. A directory that cannot be listed is skipped with an
    "io" diagnostic."""
    dirs: list[tuple[str, tuple[str, ...]]] = [(top, ())]
    while dirs:
        path, parts = dirs.pop()
        try:
            with os.scandir(path) as scan:
                entries = sorted(scan, key=lambda entry: entry.name)
        except OSError as exc:
            emit(diagnostics, "io", f"unreadable entry skipped: {exc}", exc.filename)
            continue
        for entry in entries:
            # isfile, unlike DirEntry.is_file, says False for a symlink loop.
            if entry.is_file(follow_symlinks=False) or (
                    entry.is_symlink() and os.path.isfile(entry.path)):
                yield parts + (entry.name,), entry.path
        dirs.extend((entry.path, parts + (entry.name,)) for entry in reversed(entries)
                    if entry.is_dir(follow_symlinks=False))


def scan_webapp(root, include: list[str] | None = None,
                exclude: list[str] | None = None,
                diagnostics: list[Diagnostic] | None = None) -> WebAppInventory:
    """Deterministic inventory of pages, Java sources and the descriptor.

    Unreadable entries are skipped with a diagnostic; a missing root raises.
    """
    root = Path(root)
    if not root.is_dir():
        raise RootNotFound(str(root))
    pages: list[str] = []
    sources: list[str] = []
    for parts, _ in _walk(str(root), diagnostics):
        stem, _, suffix = parts[-1].rpartition(".")
        suffix = suffix.lower()
        if not stem or suffix not in ("jsp", "jspf", "java"):
            continue
        rel = "/" + "/".join(parts)
        if include and not _glob_match(rel, include):
            continue
        if exclude and _glob_match(rel, exclude):
            continue
        if not _utf8_path(rel, diagnostics):
            continue
        if suffix == "java":
            sources.append(rel)
        elif "\\" in rel:
            # normalize_page_path reads a backslash as "/", so the name could
            # collide with another page's; no container serves it anyway.
            emit(diagnostics, "io", "page name contains a backslash; skipped", rel)
        elif _NOT_XML_RE.search(rel):
            emit(diagnostics, "io", "page name is not valid in XML; skipped", _shown(rel))
        else:
            pages.append(rel)
    web_xml = (root / "WEB-INF" / "web.xml").is_file()
    return WebAppInventory(root, sorted(pages), sorted(sources),
                           "/WEB-INF/web.xml" if web_xml else None)


def _java_files_under(base: Path, diagnostics: list[Diagnostic] | None = None
                      ) -> list[str]:
    """The ``*.java`` files under ``base``: the same strings, in the same
    order, as ``[str(p) for p in sorted(base.rglob("*.java")) if p.is_file()]``."""
    top = str(base)
    cut = 2 if top == "." else 0  # pathlib writes "./a.java" as "a.java"
    found = sorted((parts, path[cut:]) for parts, path in _walk(top, diagnostics)
                   if parts[-1].endswith(".java"))
    return [path for _, path in found]


def _read_text(path: Path | str, encoding: str, diagnostics: list[Diagnostic], what: str,
               newline: str | None = None) -> str | None:
    """The file's text, or None after an "io" diagnostic. ``newline`` is
    ``open``'s: a page is read with ``""``, so that its spans index the file
    and its template text keeps CRLF line ends, as Jasper writes them. A
    Java source keeps universal newlines: the comment regexes end a line
    comment only at a line feed."""
    try:
        with open(path, encoding=encoding, newline=newline) as fh:
            return fh.read()
    except OSError as exc:
        emit(diagnostics, "io", f"cannot read {what}: {exc.strerror}", what)
    except UnicodeDecodeError as exc:
        emit(diagnostics, "io", f"cannot read {what}: {exc}", what)
    return None


def _parse_failure(exc: Exception) -> str:
    if isinstance(exc, JspParseError):
        return str(exc)
    if isinstance(exc, RecursionError):
        # Its own text depends on the caller's stack depth, not the page.
        return "RecursionError: maximum recursion depth exceeded"
    return f"{type(exc).__name__}: {exc}"


def run_pipeline(inventory: WebAppInventory,
                 config: PipelineConfig | None = None,
                 diagnostics: list[Diagnostic] | None = None) -> PipelineResult:
    """Build the mapping table, then parse -> translate -> discover and
    extract -> resolve page by page, then inject.

    ``unit_of(page)`` is one page's turn. Its document and references die
    with it: its unit goes to discovery, and each reference's verdict to the
    graph, the counts or the internal-page references left to inject.
    ``diagnostics`` may carry pre-collected entries (e.g. from the scan); the
    run appends each diagnostic to it when it is found, the table's first,
    then each page's in turn, and the report lists them all in that order. A
    ``config.servlet_src_out`` directory that cannot be made, which is found
    before any page is read, or a servlet source that cannot be written there
    raises ``OSError``.
    """
    config = config or PipelineConfig()
    diagnostics = diagnostics if diagnostics is not None else []

    # The URL-mapping table, from web.xml and the annotations.
    decls = []
    mappings = []
    if inventory.web_xml:
        try:
            raw = (inventory.root / inventory.web_xml.lstrip("/")).read_bytes()
            decls, mappings = parse_web_xml(raw, diagnostics)
        except OSError as exc:
            emit(diagnostics, "io", f"cannot read web.xml: {exc.strerror}",
                 inventory.web_xml)
        except XmlSyntaxError as exc:
            emit(diagnostics, "web-xml", str(exc), inventory.web_xml)
    java_files: list[tuple[str, Path | str]] = [
        (rel, inventory.root / rel.lstrip("/")) for rel in inventory.java_sources]
    for source_root in config.source_roots:
        base = Path(source_root)
        if not base.is_dir():
            emit(diagnostics, "io", "source root not found", str(base))
            continue
        java_files.extend((p, p) for p in _java_files_under(base, diagnostics)
                          if _utf8_path(p, diagnostics))
    for label, java_path in java_files:
        source = _read_text(java_path, config.encoding, diagnostics, label)
        if source is None:
            continue
        stem = os.path.splitext(os.path.basename(java_path))[0]
        qualified = java_qualified_class_name(source, stem)
        for pattern, decl in scan_webservlet_annotations(source, qualified, diagnostics):
            decls.append(decl)
            mappings.append((pattern, decl.servlet_name))
    table = build_lookup_table(decls, mappings, config.context_path, diagnostics)

    # The page loop: pages to the code model, references to their verdicts.
    if config.servlet_src_out:
        Path(config.servlet_src_out).mkdir(parents=True, exist_ok=True)
    known_pages = frozenset(inventory.jsp_pages)
    graph = DependencyGraph()
    counts = {"internal_page": 0, "internal_class": 0, "external": 0}
    internal: list[tuple[str, str, str, str]] = []  # caller, target, raw URL, tag
    failed: list[str] = []
    statements = 0

    def unit_of(page: str) -> ServletUnit | None:
        nonlocal statements
        try:
            text = _read_text(inventory.root / page.lstrip("/"), config.encoding,
                              diagnostics, page, newline="")
            if text is None:
                failed.append(page)
                return None
            doc = parse_jsp(text, page)
            unit = translate_page(doc, config.known_tag_handlers, diagnostics)
            refs = extract_url_refs(doc, diagnostics)
        except Exception as exc:  # any fault in one page costs only that page
            emit(diagnostics, "parse", _parse_failure(exc), page)
            failed.append(page)
            return None
        statements += len(unit.service_body)
        if config.servlet_src_out:
            write_servlet_sources([unit], config.servlet_src_out)
        graph.nodes[page] = NODE_PAGE  # over any class of that name
        for ref in refs:
            target = resolve_url(table, ref, page, known_pages, diagnostics)
            if target.kind is ResolvedKind.EXTERNAL:
                counts["external"] += 1
                graph.add_edge(page, ref.raw_url, ref.tag_kind, NODE_EXTERNAL)
            elif target.kind is ResolvedKind.INTERNAL_SERVLET_CLASS:
                counts["internal_class"] += 1
                graph.add_edge(page, target.class_name, ref.tag_kind, NODE_CLASS)
            elif target.kind is ResolvedKind.INTERNAL_PAGE:
                internal.append((page, target.page_path, ref.raw_url, ref.tag_kind))
            else:
                graph.unresolved.append((page, ref.raw_url, target.reason))
        return unit

    # map and filter hold no unit past its turn, as a for loop's variable would.
    model = discover_model(filter(None, map(unit_of, inventory.jsp_pages)),
                           name=_shown(inventory.root.name) or "webapp")

    # Inject the page-to-page references; a target page may have failed.
    model_index = ModelIndex(model)
    duplicates = 0
    for page, target_page, raw_url, tag_kind in internal:
        target_unit = find_class_unit(model_index, target_page)
        if target_unit is None:
            graph.unresolved.append((page, raw_url, "target-page-not-in-model"))
            continue
        counts["internal_page"] += 1
        caller = find_class_unit(model_index, page)
        if add_method_call(model_index, caller, target_unit, tag_kind).status == "added":
            graph.add_edge(page, target_page, tag_kind, NODE_PAGE)
        else:
            duplicates += 1

    counts["unresolved"] = len(graph.unresolved)
    report = {
        "pages": len(inventory.jsp_pages),
        "pages_parsed": len(inventory.jsp_pages) - len(failed),
        "pages_failed": failed,
        "statements": statements,
        "url_refs": sum(counts.values()),
        "resolutions": counts,
        "relationships": len(model.relationships),
        "duplicate_refs": duplicates,
        "mapping_entries": len(table.entries),
        "external_refs": sorted(
            [src, dst, kind] for src, dst, kind in graph.edges
            if graph.nodes.get(dst) == NODE_EXTERNAL),
        "unresolved_refs": sorted(
            [src, raw, reason] for src, raw, reason in graph.unresolved),
        "diagnostics": [d.to_dict() for d in diagnostics],
    }
    return PipelineResult(model=model, graph=graph, report=report,
                          diagnostics=diagnostics)


# -- emission -----------------------------------------------------------------------


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(graph: DependencyGraph) -> str:
    """Deterministic DOT digraph: sorted node lines, then sorted edges.

    Unresolved references become dashed edges to one placeholder node per
    reason, labeled with the raw URL.
    """
    lines = ["digraph deps {"]
    shapes = {NODE_CLASS: "component", NODE_EXTERNAL: "ellipse"}
    for node_id in sorted(graph.nodes):
        shape = shapes.get(graph.nodes[node_id])
        if shape:
            lines.append(f"  {_dot_quote(node_id)} [shape={shape}];")
        else:
            lines.append(f"  {_dot_quote(node_id)};")
    for reason in sorted({reason for _, _, reason in graph.unresolved}):
        lines.append(f"  {_dot_quote('unresolved: ' + reason)} "
                     f"[label={_dot_quote(reason)}, shape=note, style=dashed];")
    for src, dst, kind in sorted(graph.edges):
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(dst)} "
                     f"[label={_dot_quote(kind)}];")
    for src, raw_url, reason in sorted(graph.unresolved):
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote('unresolved: ' + reason)} "
                     f"[label={_dot_quote(raw_url)}, style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_outputs(result: PipelineResult, out_dir, formats: list[str]) -> list[str]:
    """model.xmi / model.json / deps.dot / report.json under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    for fmt, name in (("xmi", "model.xmi"), ("json", "model.json")):
        if fmt in formats:
            path = out / name
            with open(path, "wb") as fh:
                serialize_model(result.model, fmt, fh)
            written.append(str(path))
    if "dot" in formats:
        path = out / "deps.dot"
        path.write_text(emit_dot(result.graph), encoding="utf-8")
        written.append(str(path))
    report_path = out / "report.json"
    report_path.write_text(json.dumps(result.report, indent=2) + "\n",
                           encoding="utf-8")
    written.append(str(report_path))
    return written
