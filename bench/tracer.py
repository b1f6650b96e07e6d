"""Traced analyze child: times jspkdm's layers from outside the program.

Usage, from the repository root::

    PYTHONPATH=src python3 bench/tracer.py SPANS_FILE RUN_ID cli ARGS...
    PYTHONPATH=src python3 bench/tracer.py SPANS_FILE RUN_ID hostile ARGS...

``cli`` runs ``jspkdm.cli.main(ARGS)``; ``hostile`` runs the hostile-pages
runner. Before that, the public functions that ``jspkdm.pipeline`` and
``jspkdm.cli`` look up at run time, and ``DependencyGraph.add_edge``, are
replaced in place by wrappers; no file under ``src/`` changes. Each call
becomes a span ``[name, start, end, parent, run id, page]`` kept in memory;
counts are taken from return values after the span has ended. Everything is
written to SPANS_FILE as one JSON document when the child ends.
:func:`layer_metrics` turns that document into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


def _count_nodes(nodes) -> int:
    total, stack = 0, list(nodes)
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(node.children)
    return total


class Tracer:
    """Span recorder: one per child process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list | None] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name, page=None, count=None, before=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper.

        ``name`` is the span name or a function of the call's arguments;
        ``page(args)`` names the page the call works on; ``count(counts,
        result, args)`` records what the call returned; ``before(counts,
        args)`` records its input, for every call, before the span opens.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            if before:
                before(self.counts, args)
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[span_name + ".errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = [span_name, start, end, parent, self.run_id,
                                     page(args) if page else None]
            if count:
                count(self.counts, result, args)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        from jspkdm import cli, pipeline

        def add(key):
            def count(counts, result, args):
                counts[key] += len(result)
            return count

        def parse_input(counts, args):
            counts["jsp_parser.parse_jsp.bytes"] += len(args[0].encode("utf-8"))

        def parsed(counts, doc, args):
            counts["jsp_parser.nodes"] += _count_nodes(doc.nodes)

        def translated(counts, unit, args):
            counts["servlet_translator.statements"] += len(unit.service_body)

        def discovered(counts, model, args):
            counts["code_model.elements"] += sum(
                len(m.block.elements) for c in model.class_units for m in c.code_elements)

        def mapped(counts, result, args):
            counts["deployment_mapper.mappings"] += len(result[1])

        def tabled(counts, table, args):
            counts["deployment_mapper.table_entries"] += len(table.entries)

        def resolved(counts, target, args):
            counts["deployment_mapper.resolved." + _RESOLVED[target.kind.value]] += 1

        def injected(counts, outcome, args):
            counts["code_model.add_method_call.added"] += outcome.status == "added"

        def edged(counts, is_new, args):
            counts["pipeline.add_edge.new"] += bool(is_new)

        p = pipeline
        self.wrap(p, "parse_jsp", "jsp_parser.parse_jsp", lambda a: a[1], parsed, parse_input)
        self.wrap(p, "translate_page", "servlet_translator.translate_page",
                  lambda a: a[0].page_path, translated)
        self.wrap(p, "write_servlet_sources", "servlet_translator.write_servlet_sources")
        self.wrap(p, "discover_model", "code_model.discover_model", count=discovered)
        self.wrap(p, "find_class_unit", "code_model.find_class_unit", lambda a: a[1])
        self.wrap(p, "add_method_call", "code_model.add_method_call",
                  lambda a: a[1].source_page, injected)
        self.wrap(p, "serialize_model",
                  lambda a: "code_model.serialize_model." + (a[1] if len(a) > 1 else "json"))
        self.wrap(p, "extract_url_refs", "dependency_extractor.extract_url_refs",
                  lambda a: a[0].page_path, add("dependency_extractor.refs"))
        self.wrap(p, "parse_web_xml", "deployment_mapper.parse_web_xml", count=mapped)
        self.wrap(p, "java_qualified_class_name",
                  "deployment_mapper.java_qualified_class_name", lambda a: a[1])
        self.wrap(p, "scan_webservlet_annotations",
                  "deployment_mapper.scan_webservlet_annotations", lambda a: a[1],
                  add("deployment_mapper.annotation_patterns"))
        self.wrap(p, "build_lookup_table", "deployment_mapper.build_lookup_table",
                  count=tabled)
        self.wrap(p, "resolve_url", "deployment_mapper.resolve_url", lambda a: a[2], resolved)
        self.wrap(p, "emit_dot", "pipeline.emit_dot")
        self.wrap(p.DependencyGraph, "add_edge", "pipeline.add_edge", lambda a: a[1], edged)
        self.wrap(cli, "scan_webapp", "pipeline.scan_webapp")
        self.wrap(cli, "run_pipeline", "pipeline.run_pipeline")
        self.wrap(cli, "write_outputs", "pipeline.write_outputs")
        self.wrap(cli, "main", "cli.main")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


_RESOLVED = {"InternalPage": "internal_page", "InternalServletClass": "internal_class",
             "External": "external", "Unresolved": "unresolved"}

# Span names whose busy time is reported as "<name>.s".
_BUSY = ["deployment_mapper.resolve_url", "code_model.add_method_call",
         "code_model.find_class_unit", "pipeline.add_edge", "jsp_parser.parse_jsp",
         "servlet_translator.translate_page", "servlet_translator.write_servlet_sources",
         "code_model.discover_model", "code_model.serialize_model.xmi",
         "code_model.serialize_model.json", "pipeline.emit_dot",
         "dependency_extractor.extract_url_refs", "deployment_mapper.parse_web_xml",
         "deployment_mapper.build_lookup_table", "pipeline.scan_webapp"]
_CALLS = ["deployment_mapper.resolve_url", "code_model.add_method_call",
          "code_model.find_class_unit", "pipeline.add_edge", "jsp_parser.parse_jsp"]
_COUNTS = ["deployment_mapper.resolved.internal_page",
           "deployment_mapper.resolved.internal_class",
           "deployment_mapper.resolved.external", "deployment_mapper.resolved.unresolved",
           "jsp_parser.parse_jsp.errors", "jsp_parser.nodes", "servlet_translator.statements",
           "code_model.elements", "dependency_extractor.refs", "deployment_mapper.mappings",
           "deployment_mapper.annotation_patterns", "deployment_mapper.table_entries"]
_SELF = ["pipeline.run_pipeline", "pipeline.write_outputs", "cli.main"]

LAYERS = ["jsp_parser", "servlet_translator", "code_model", "dependency_extractor",
          "deployment_mapper", "pipeline", "cli"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(doc: dict) -> tuple[dict[str, float], dict[str, float]]:
    """(per-layer metrics, self seconds per module) from one child's spans.

    Busy time is the sum of a name's span durations; self time subtracts the
    durations of direct child spans (one thread, so children never overlap).
    """
    spans = doc["spans"]
    counts = Counter(doc["counts"])
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            covered[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    module_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for (name, start, end, *_), inner in zip(spans, covered):
        busy[name] += end - start
        self_s[name] += end - start - inner
        calls[name] += 1
        module_self[name.split(".", 1)[0]] += end - start - inner
    m: dict[str, float] = {f"{n}.s": busy[n] for n in _BUSY}
    m.update({f"{n}.calls": calls[n] for n in _CALLS})
    m.update({n: counts[n] for n in _COUNTS})
    m.update({f"{n}.self_s": self_s[n] for n in _SELF})
    resolve = "deployment_mapper.resolve_url"
    m[f"{resolve}.us_per_call"] = _ratio(busy[resolve] * 1e6, calls[resolve])
    m["code_model.add_method_call.added_ratio"] = _ratio(
        counts["code_model.add_method_call.added"], calls["code_model.add_method_call"])
    m["pipeline.add_edge.new_ratio"] = _ratio(
        counts["pipeline.add_edge.new"], calls["pipeline.add_edge"])
    m["jsp_parser.parse_jsp.mb_per_s"] = _ratio(
        counts["jsp_parser.parse_jsp.bytes"] / 1e6, busy["jsp_parser.parse_jsp"])
    m["deployment_mapper.annotations.s"] = (
        busy["deployment_mapper.java_qualified_class_name"]
        + busy["deployment_mapper.scan_webservlet_annotations"])
    return m, module_self


def main(argv: list[str]) -> int:
    spans_file, run_id, mode, args = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    try:
        if mode == "cli":
            from jspkdm import cli
            return cli.main(args)
        import hostile
        return hostile.main(args)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
