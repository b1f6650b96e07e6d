"""Per-page runner child for the hostile-pages workload.

Usage, from the repository root::

    PYTHONPATH=src python3 bench/hostile.py PAGES_DIR OUT_DIR

Sends every page under PAGES_DIR through parse, translate and extract, and
catches any exception per page, so a failure costs only its own page. The CLI
cannot run this workload: it stops at the first page that raises anything
other than a parse error. Writes ``model.xmi`` and ``model.json`` for the
pages that went through, and ``report.json`` with the failed pages and the
references extracted from each page.

The jspkdm functions are looked up on ``jspkdm.pipeline``, the namespace the
pipeline itself calls them through, so ``tracer.py`` times this runner and the
CLI with the same wrappers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from jspkdm import pipeline


def main(argv: list[str]) -> int:
    pages_dir, out_dir = Path(argv[0]), Path(argv[1])
    units = []
    failed: dict[str, str] = {}
    refs: dict[str, list[list[str]]] = {}
    for path in sorted(pages_dir.rglob("*.jsp")):
        page = "/" + path.relative_to(pages_dir).as_posix()
        text = path.read_text(encoding="utf-8")
        try:
            doc = pipeline.parse_jsp(text, page)
            unit = pipeline.translate_page(doc)
            page_refs = pipeline.extract_url_refs(doc)
        except Exception as exc:  # the run goes on; the page is reported failed
            failed[page] = f"{type(exc).__name__}: {str(exc)[:200]}"
            continue
        units.append(unit)
        refs[page] = [[r.tag_kind, r.raw_url] for r in page_refs]
    model = pipeline.discover_model(units, name=pages_dir.name)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "model.xmi").write_bytes(pipeline.serialize_model(model, "xmi"))
    (out_dir / "model.json").write_bytes(pipeline.serialize_model(model, "json"))
    report = {"pages_failed": failed, "refs": refs}
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
