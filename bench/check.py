"""Correctness check for one benchmark run's artifacts.

Two parts. :func:`artifact_problems` checks that each artifact parses back:
``model.xmi`` as XML, ``model.json`` against ``docs/model.schema.json`` and
``deps.dot`` with balanced braces. :func:`failed_operations` compares the
outputs with the generator's ground truth and counts the operations (pages
and references) that differ.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import jsonschema

from workloads import (EXTERNAL, EXTRACTED, INTERNAL_CLASS, INTERNAL_PAGE,
                       UNRESOLVED, App)

CLI_ARTIFACTS = ("model.xmi", "model.json", "deps.dot", "report.json")
RUNNER_ARTIFACTS = ("model.xmi", "model.json", "report.json")

_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_DOT_EDGE_RE = re.compile(rf"^\s*{_QUOTED} -> {_QUOTED} \[label={_QUOTED}")
_DOT_NODE_RE = re.compile(rf"^\s*{_QUOTED} \[shape=(\w+)")


def _unquote(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text)


def dot_braces_balanced(text: str) -> bool:
    """True when every brace outside a quoted string closes, in order."""
    depth = 0
    in_string = escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0 and not in_string


def artifact_problems(blobs: dict[str, bytes], schema: dict) -> list[str]:
    """What is wrong with the artifacts, as messages; empty when all parse."""
    problems = []
    if "model.xmi" in blobs:
        try:
            ET.fromstring(blobs["model.xmi"])
        except ET.ParseError as exc:
            problems.append(f"model.xmi is not XML: {exc}")
    try:
        jsonschema.validate(json.loads(blobs["model.json"]), schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        problems.append(f"model.json fails the schema: {str(exc)[:300]}")
    if "deps.dot" in blobs:
        dot = blobs["deps.dot"].decode("utf-8")
        if not dot.startswith("digraph") or not dot_braces_balanced(dot):
            problems.append("deps.dot is not a braced digraph")
    try:
        json.loads(blobs["report.json"])
    except ValueError as exc:
        problems.append(f"report.json is not JSON: {exc}")
    return problems


def _cli_failures(app: App, blobs: dict[str, bytes]) -> int:
    model = json.loads(blobs["model.json"])
    report = json.loads(blobs["report.json"])
    class_page = {c["name"]: c["source_page"] for c in model["class_units"]}
    modeled = set(class_page.values()) - set(report["pages_failed"])
    page_ok = {p: p in modeled for p in app.pages}
    relationships = {(class_page[r["from"]], class_page[r["to"]], r["kind"])
                     for r in model["relationships"]}
    edges, shapes = set(), {}
    for line in blobs["deps.dot"].decode("utf-8").splitlines():
        if m := _DOT_EDGE_RE.match(line):
            edges.add(tuple(_unquote(g) for g in m.groups()))
        elif m := _DOT_NODE_RE.match(line):
            shapes[_unquote(m.group(1))] = m.group(2)
    externals = {tuple(e) for e in report["external_refs"]}
    unresolved = {(src, raw) for src, raw, _ in report["unresolved_refs"]}
    failed = sum(not ok for ok in page_ok.values())
    for ref in app.refs:
        if not page_ok.get(ref.page, False):
            ok = False
        elif ref.kind == INTERNAL_PAGE:
            ok = (ref.page, ref.target, ref.tag_kind) in relationships
        elif ref.kind == INTERNAL_CLASS:
            ok = ((ref.page, ref.target, ref.tag_kind) in edges
                  and shapes.get(ref.target) == "component")
        elif ref.kind == EXTERNAL:
            ok = (ref.page, ref.raw_url, ref.tag_kind) in externals
        elif ref.kind == UNRESOLVED:
            ok = (ref.page, ref.raw_url) in unresolved
        else:
            raise ValueError(f"no check for reference kind {ref.kind!r}")
        failed += not ok
    return failed


def _runner_failures(app: App, blobs: dict[str, bytes]) -> int:
    report = json.loads(blobs["report.json"])
    extracted = {page: Counter(map(tuple, refs))
                 for page, refs in report["refs"].items()}
    failed = sum(page not in extracted for page in app.pages)
    for ref in app.refs:
        if ref.kind != EXTRACTED:
            raise ValueError(f"no check for reference kind {ref.kind!r}")
        found = extracted.get(ref.page, Counter())
        key = (ref.tag_kind, ref.raw_url)
        if found[key] > 0:
            found[key] -= 1
        else:
            failed += 1
    return failed


def failed_operations(app: App, blobs: dict[str, bytes]) -> int:
    """Pages and references whose outcome differs from the ground truth.

    A page fails when it is missing from the model or reported failed. A
    reference fails when the artifact its expected resolution produces is
    absent; each page's references have distinct expected artifacts, so a
    wrong resolution always removes its own.
    """
    if app.per_page:
        return _runner_failures(app, blobs)
    return _cli_failures(app, blobs)


def read_artifacts(out_dir: Path, names: tuple[str, ...]) -> dict[str, bytes] | None:
    """The artifacts' bytes, or None when any is missing."""
    try:
        return {name: (out_dir / name).read_bytes() for name in names}
    except FileNotFoundError:
        return None
