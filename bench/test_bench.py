"""Tests for the benchmark's own code: generators, ground truth and check.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from check import dot_braces_balanced, failed_operations
from workloads import (EXTERNAL, GENERATORS, INTERNAL_CLASS, INTERNAL_PAGE,
                       UNRESOLVED, App, Container, Ref)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    generate = GENERATORS[name]
    first, again, other = generate(7), generate(7), generate(8)
    assert first.files == again.files
    assert first.refs == again.refs and first.pages == again.pages
    assert first.files != other.files


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_workload_shape_does_not_depend_on_seed(name):
    def shape(app: App):
        return (len(app.files), sorted(app.pages), Counter(r.kind for r in app.refs))

    assert shape(GENERATORS[name](1)) == shape(GENERATORS[name](2))


# A tiny application traced by hand against Servlet spec ch. 12.
TINY_PAGES = ["/index.jsp", "/a/b.jsp", "/a/index.jsp", "/WEB-INF/f.jspf"]
TINY_SERVLETS = {
    "home": (INTERNAL_PAGE, "/index.jsp"),
    "api": (INTERNAL_CLASS, "com.x.Api"),
    "api2": (INTERNAL_CLASS, "com.x.Api2"),
    "front": (INTERNAL_CLASS, "com.x.Front"),
    "dflt": (INTERNAL_CLASS, "com.x.Default"),
}
TINY_MAPPINGS = [("/home", "home"), ("/api/*", "api"), ("/api/v2/*", "api2"),
                 ("*.do", "front"), ("/", "dflt")]
HAND_TRACED = [
    # (tag kind, raw URL on /a/b.jsp, expected kind, expected target)
    ("a-href", "../index.jsp", INTERNAL_PAGE, "/index.jsp"),  # implicit *.jsp beats "/"
    ("a-href", "/home?x=1", INTERNAL_PAGE, "/index.jsp"),     # exact, to a jsp-file
    ("form", "/api/v2/orders", INTERNAL_CLASS, "com.x.Api2"),  # longest prefix
    ("form", "/api", INTERNAL_CLASS, "com.x.Api"),            # prefix matches its base
    ("a-href", "/api/x.do", INTERNAL_CLASS, "com.x.Api"),     # prefix beats extension
    ("c:url", "cart.do", INTERNAL_CLASS, "com.x.Front"),      # extension
    ("a-href", "#top", INTERNAL_PAGE, "/a/b.jsp"),            # same document
    ("a-href", "./", INTERNAL_PAGE, "/a/index.jsp"),          # welcome file
    ("a-href", "/nowhere", INTERNAL_CLASS, "com.x.Default"),  # default mapping
    ("a-href", "/gone.jsp", UNRESOLVED, None),                # implicit *.jsp, no file
    ("include-directive", "/WEB-INF/f.jspf", INTERNAL_PAGE, "/WEB-INF/f.jspf"),
    ("a-href", "https://x.org/", EXTERNAL, "https://x.org/"),
    ("a-href", "${ctx}/index.jsp", UNRESOLVED, None),         # dynamic
]


@pytest.mark.parametrize("tag_kind, raw, kind, target", HAND_TRACED)
def test_ground_truth_matches_hand_traced_app(tag_kind, raw, kind, target):
    container = Container(TINY_PAGES, TINY_SERVLETS, TINY_MAPPINGS, ("index.jsp",))
    assert container.resolve("/a/b.jsp", tag_kind, raw) == (kind, target)


def test_without_default_mapping_unknown_path_is_unresolved():
    container = Container(TINY_PAGES, TINY_SERVLETS, TINY_MAPPINGS[:-1])
    assert container.resolve("/a/b.jsp", "a-href", "/nowhere") == (UNRESOLVED, None)
    assert container.resolve("/a/b.jsp", "a-href", "./") == (UNRESOLVED, None)


def test_dot_braces():
    assert dot_braces_balanced('digraph d {\n  "a{" -> "b";\n}\n')
    assert not dot_braces_balanced('digraph d {\n  "a" -> "b";\n')
    assert not dot_braces_balanced("digraph d }{")


def _artifacts(relationships, edges, external, unresolved, pages_failed=()):
    classes = {"/p.jsp": "jsp_p", "/q.jsp": "jsp_q"}
    model = {"class_units": [{"name": c, "source_page": p} for p, c in classes.items()],
             "relationships": [{"from": classes[s], "to": classes[d], "kind": k}
                               for s, d, k in relationships]}
    dot = ["digraph deps {", '  "com.x.C" [shape=component];']
    dot += [f'  "{s}" -> "{d}" [label="{k}"];' for s, d, k in edges]
    report = {"pages_failed": list(pages_failed), "external_refs": external,
              "unresolved_refs": unresolved}
    return {"model.json": json.dumps(model).encode(),
            "deps.dot": ("\n".join(dot + ["}"]) + "\n").encode(),
            "report.json": json.dumps(report).encode()}


def test_check_counts_each_wrong_outcome_once():
    refs = [Ref("/p.jsp", "a-href", "q.jsp", INTERNAL_PAGE, "/q.jsp"),
            Ref("/p.jsp", "form", "/c", INTERNAL_CLASS, "com.x.C"),
            Ref("/p.jsp", "a-href", "http://e/", EXTERNAL, "http://e/"),
            Ref("/q.jsp", "a-href", "/none", UNRESOLVED, None)]
    app = App("tiny", {}, ["/p.jsp", "/q.jsp"], refs)
    right = _artifacts([("/p.jsp", "/q.jsp", "a-href")],
                       [("/p.jsp", "com.x.C", "form")],
                       [["/p.jsp", "http://e/", "a-href"]],
                       [["/q.jsp", "/none", "no-mapping"]])
    assert failed_operations(app, right) == 0
    wrong = _artifacts([], [("/p.jsp", "com.x.C", "form"), ("/p.jsp", "com.x.C", "a-href")],
                       [["/p.jsp", "http://e/", "a-href"]],
                       [["/q.jsp", "/none", "no-mapping"]])
    assert failed_operations(app, wrong) == 1
    failed_page = _artifacts([("/p.jsp", "/q.jsp", "a-href")],
                             [("/p.jsp", "com.x.C", "form")],
                             [["/p.jsp", "http://e/", "a-href"]], [], pages_failed=["/q.jsp"])
    assert failed_operations(app, failed_page) == 2  # the page and its reference
