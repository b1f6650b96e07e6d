"""jspkdm: recover a KDM-style code model from JSP web applications.

Pipeline: parse pages -> translate to servlet units -> discover the code
model -> extract tag URLs -> resolve them through deployment metadata ->
inject the dependencies back into the model.
"""

from .code_model import (
    BlockUnit,
    ClassUnit,
    CodeElement,
    DuplicateClassName,
    KdmModel,
    MethodUnit,
    ModelIndex,
    MutationReport,
    add_method_call,
    deserialize_model,
    discover_model,
    find_class_unit,
    serialize_model,
)
from .dependency_extractor import TAG_TABLE, UrlRef, classify_tag, extract_url_refs
from .deployment_mapper import (
    ResolvedKind,
    ResolvedTarget,
    ServletDecl,
    UrlMappingTable,
    XmlSyntaxError,
    build_lookup_table,
    parse_web_xml,
    resolve_url,
    scan_webservlet_annotations,
)
from .diagnostics import Diagnostic
from .jsp_parser import (
    DuplicateAttribute,
    JspDocument,
    JspNode,
    JspParseError,
    MalformedAttribute,
    NodeKind,
    UnterminatedScriptlet,
    parse_jsp,
)
from .pipeline import (
    DependencyGraph,
    PipelineConfig,
    PipelineResult,
    RootNotFound,
    WebAppInventory,
    emit_dot,
    run_pipeline,
    scan_webapp,
    write_outputs,
)
from .servlet_translator import (
    CodeStatement,
    ServletUnit,
    StatementKind,
    mangle_class_name,
    render_servlet_source,
    translate_page,
)

__version__ = "0.1.0"

__all__ = [
    "BlockUnit", "ClassUnit", "CodeElement", "CodeStatement",
    "DependencyGraph", "Diagnostic", "DuplicateAttribute",
    "DuplicateClassName", "JspDocument", "JspNode", "JspParseError", "KdmModel",
    "MalformedAttribute", "MethodUnit", "ModelIndex", "MutationReport", "NodeKind",
    "PipelineConfig", "PipelineResult", "ResolvedKind",
    "ResolvedTarget", "RootNotFound", "ServletDecl", "ServletUnit",
    "StatementKind", "TAG_TABLE", "UnterminatedScriptlet", "UrlMappingTable",
    "UrlRef", "WebAppInventory", "XmlSyntaxError",
    "add_method_call", "build_lookup_table", "classify_tag", "deserialize_model",
    "discover_model", "emit_dot", "extract_url_refs",
    "find_class_unit", "mangle_class_name", "parse_jsp",
    "parse_web_xml", "render_servlet_source", "resolve_url", "run_pipeline",
    "scan_webapp", "scan_webservlet_annotations", "serialize_model",
    "translate_page", "write_outputs",
]
