"""The benchmark's traced child still runs against this package.

``bench/tracer.py`` replaces, by name, the functions that ``jspkdm.pipeline``
and ``jspkdm.cli`` call, so a renamed or dropped import there breaks
``bench/run.py --trace 1``. This runs the tracer on the fixture webapp and
checks that every traced layer was entered through its wrapper.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TRACER = REPO / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_analyze_enters_every_layer(fixture_webapp, tmp_path):
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans_file), "0", "cli", "analyze",
         str(fixture_webapp), "--out", str(tmp_path / "out"),
         "--servlet-src-out", str(tmp_path / "servlets")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans_file.read_text(encoding="utf-8"))
    tracer = _load_tracer()
    names = {span[0] for span in doc["spans"]}
    busy = set(tracer._BUSY) | set(tracer._SELF) | {
        "deployment_mapper.java_qualified_class_name",
        "deployment_mapper.scan_webservlet_annotations"}
    assert busy <= names, sorted(busy - names)
    metrics, _ = tracer.layer_metrics(doc)
    assert metrics["code_model.add_method_call.calls"] == 4
    assert metrics["code_model.add_method_call.added_ratio"] == 1.0
    assert metrics["deployment_mapper.resolve_url.calls"] == 8
    assert metrics["pipeline.add_edge.calls"] == 7
