"""End-to-end orchestration over a webapp directory.

Two phases: (1) parse every page, translate it to a servlet unit and discover
the code model; (2) parse deployment metadata, extract URL references from
the pages, resolve them, and inject the resolved page-to-page dependencies
into the model. External targets, servlet-class targets and unresolved
references stay in the dependency graph and the report; the model only ever
relates class units. Per-file failures are isolated: a page that cannot be
read, parsed or translated is reported and skipped.
"""

from __future__ import annotations

import fnmatch
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

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
from .jsp_parser import JspDocument, JspParseError, parse_jsp
from .servlet_translator import ServletUnit, translate_page, write_servlet_sources

NODE_PAGE = "page"
NODE_CLASS = "class"
NODE_EXTERNAL = "external"


class RootNotFound(ValueError):
    """The webapp root directory does not exist."""


@dataclass
class WebAppInventory:
    root: Path
    jsp_pages: list[str] = field(default_factory=list)
    java_sources: list[str] = field(default_factory=list)
    web_xml: str | None = None


@dataclass
class DependencyGraph:
    nodes: dict[str, str] = field(default_factory=dict)  # id -> node kind
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    unresolved: list[tuple[str, str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._edge_set = set(self.edges)

    def add_node(self, node_id: str, kind: str) -> None:
        self.nodes.setdefault(node_id, kind)

    def add_edge(self, src: str, dst: str, tag_kind: str, dst_kind: str) -> bool:
        """Record a deduplicated edge; returns False for a repeat."""
        self.add_node(src, NODE_PAGE)
        self.add_node(dst, dst_kind)
        edge = (src, dst, tag_kind)
        if edge in self._edge_set:
            return False
        self._edge_set.add(edge)
        self.edges.append(edge)
        return True


@dataclass
class PipelineConfig:
    context_path: str = ""
    source_roots: list[str] = field(default_factory=list)
    include: list[str] = field(default_factory=list)
    exclude: list[str] = field(default_factory=list)
    formats: list[str] = field(default_factory=lambda: ["xmi", "json", "dot"])
    encoding: str = "utf-8"
    servlet_src_out: str | None = None
    known_tag_handlers: dict[str, str] = field(default_factory=dict)


@dataclass
class PipelineResult:
    model: KdmModel
    graph: DependencyGraph
    report: dict
    diagnostics: list[Diagnostic] = field(default_factory=list)


def _glob_match(rel_path: str, patterns: list[str]) -> bool:
    # fnmatch treats "*" as crossing "/" too, which is what "**/x/**" users
    # expect from shell-style filters here.
    return any(fnmatch.fnmatch(rel_path, p) for p in patterns)


def scan_webapp(root, include: list[str] | None = None,
                exclude: list[str] | None = None,
                diagnostics: list[Diagnostic] | None = None) -> WebAppInventory:
    """Deterministic inventory of pages, Java sources and the descriptor.

    Unreadable entries are skipped with a diagnostic; a missing root raises.
    """
    root = Path(root)
    if not root.is_dir():
        raise RootNotFound(str(root))
    include = include or []
    exclude = exclude or []
    inventory = WebAppInventory(root=root)
    pages: list[str] = []
    sources: list[str] = []

    def on_error(error: OSError) -> None:
        emit(diagnostics, "io", f"unreadable entry skipped: {error}",
             getattr(error, "filename", None))

    for dirpath, dirnames, filenames in os.walk(root, onerror=on_error):
        dirnames.sort()
        for filename in sorted(filenames):
            path = Path(dirpath) / filename
            if not path.is_file():
                continue
            rel = "/" + path.relative_to(root).as_posix()
            if include and not _glob_match(rel, include):
                continue
            if exclude and _glob_match(rel, exclude):
                continue
            suffix = path.suffix.lower()
            if suffix in (".jsp", ".jspf"):
                pages.append(rel)
            elif suffix == ".java":
                sources.append(rel)
    inventory.jsp_pages = sorted(pages)
    inventory.java_sources = sorted(sources)
    web_xml = root / "WEB-INF" / "web.xml"
    if web_xml.is_file():
        inventory.web_xml = "/WEB-INF/web.xml"
    return inventory


def _read_text(path: Path, encoding: str,
               diagnostics: list[Diagnostic], what: str) -> str | None:
    try:
        return path.read_text(encoding=encoding)
    except (OSError, UnicodeDecodeError) as exc:
        emit(diagnostics, "io", f"cannot read {what}: {exc}", str(path))
        return None


def run_pipeline(inventory: WebAppInventory,
                 config: PipelineConfig | None = None,
                 diagnostics: list[Diagnostic] | None = None) -> PipelineResult:
    """Execute parse -> translate -> discover, then extract -> resolve -> inject.

    ``diagnostics`` may carry pre-collected entries (e.g. from the scan);
    the run appends to it and the report includes everything.
    """
    config = config or PipelineConfig()
    diagnostics = diagnostics if diagnostics is not None else []

    # Phase 1: pages to servlet units to code model.
    docs: dict[str, JspDocument] = {}
    units: list[ServletUnit] = []
    failed_pages: list[str] = []
    for page in inventory.jsp_pages:
        try:
            text = _read_text(inventory.root / page.lstrip("/"), config.encoding,
                              diagnostics, page)
            if text is None:
                failed_pages.append(page)
                continue
            doc = parse_jsp(text, page)
            unit = translate_page(doc, config.known_tag_handlers, diagnostics)
        except Exception as exc:  # any fault in one page costs only that page
            if isinstance(exc, JspParseError):
                message = str(exc)
            elif isinstance(exc, RecursionError):
                # Its own text depends on the caller's stack depth, not the page.
                message = "RecursionError: maximum recursion depth exceeded"
            else:
                message = f"{type(exc).__name__}: {exc}"
            emit(diagnostics, "parse", message, page)
            failed_pages.append(page)
            continue
        docs[doc.page_path] = doc
        units.append(unit)
    model = discover_model(units, name=inventory.root.name or "webapp")

    if config.servlet_src_out:
        write_servlet_sources(units, config.servlet_src_out)

    # Phase 2: deployment metadata and URL mapping table.
    decls = []
    mappings = []
    if inventory.web_xml:
        try:
            raw = (inventory.root / inventory.web_xml.lstrip("/")).read_bytes()
            decls, mappings = parse_web_xml(raw, diagnostics)
        except OSError as exc:
            emit(diagnostics, "io", f"cannot read web.xml: {exc}", inventory.web_xml)
        except XmlSyntaxError as exc:
            emit(diagnostics, "web-xml", str(exc), inventory.web_xml)
    java_files: list[tuple[str, Path]] = [
        (rel, inventory.root / rel.lstrip("/")) for rel in inventory.java_sources]
    for source_root in config.source_roots:
        base = Path(source_root)
        if not base.is_dir():
            emit(diagnostics, "io", "source root not found", str(base))
            continue
        java_files.extend(
            (p.as_posix(), p) for p in sorted(base.rglob("*.java")) if p.is_file())
    seen_decls: set[int] = set()
    for label, java_path in java_files:
        source = _read_text(java_path, config.encoding, diagnostics, label)
        if source is None:
            continue
        qualified = java_qualified_class_name(source, java_path.stem)
        for pattern, decl in scan_webservlet_annotations(source, qualified, diagnostics):
            if id(decl) not in seen_decls:
                seen_decls.add(id(decl))
                decls.append(decl)
            mappings.append((pattern, decl.servlet_name))
    table = build_lookup_table(decls, mappings, config.context_path, diagnostics)

    # Phase 2 continued: extract, resolve, inject.
    graph = DependencyGraph()
    for page in sorted(docs):
        graph.add_node(page, NODE_PAGE)
    known_pages = frozenset(inventory.jsp_pages)
    model_index = ModelIndex(model)
    counts = {"internal_page": 0, "internal_class": 0, "external": 0, "unresolved": 0}
    total_refs = 0
    duplicates = 0
    for page in sorted(docs):
        caller = find_class_unit(model_index, page)
        for ref in extract_url_refs(docs[page], diagnostics):
            total_refs += 1
            target = resolve_url(table, ref, page, known_pages, diagnostics)
            if target.kind is ResolvedKind.EXTERNAL:
                counts["external"] += 1
                graph.add_edge(page, ref.raw_url, ref.tag_kind, NODE_EXTERNAL)
            elif target.kind is ResolvedKind.INTERNAL_SERVLET_CLASS:
                counts["internal_class"] += 1
                graph.add_edge(page, target.class_name, ref.tag_kind, NODE_CLASS)
            elif target.kind is ResolvedKind.INTERNAL_PAGE:
                target_unit = find_class_unit(model_index, target.page_path)
                if target_unit is None or caller is None:
                    counts["unresolved"] += 1
                    graph.unresolved.append(
                        (page, ref.raw_url, "target-page-not-in-model"))
                    continue
                counts["internal_page"] += 1
                outcome = add_method_call(model_index, caller, target_unit, ref.tag_kind)
                if outcome.status == "added":
                    graph.add_edge(page, target.page_path, ref.tag_kind, NODE_PAGE)
                elif outcome.status == "duplicate":
                    duplicates += 1
                else:
                    emit(diagnostics, "model",
                         f"cannot inject dependency: {outcome.reason}", page)
            else:
                counts["unresolved"] += 1
                graph.unresolved.append((page, ref.raw_url, target.reason or "unknown"))

    report = {
        "pages": len(inventory.jsp_pages),
        "pages_parsed": len(docs),
        "pages_failed": sorted(failed_pages),
        "statements": sum(len(u.service_body) for u in units),
        "url_refs": total_refs,
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
    if "xmi" in formats:
        path = out / "model.xmi"
        path.write_bytes(serialize_model(result.model, "xmi"))
        written.append(str(path))
    if "json" in formats:
        path = out / "model.json"
        path.write_bytes(serialize_model(result.model, "json"))
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
