"""Command-line surface: ``jspkdm analyze <webapp-root> [options]``.

Exit codes: 0 clean run, 1 completed with diagnostics, 2 fatal (bad
arguments, unreadable root, or any diagnostic under --strict).
"""

from __future__ import annotations

import argparse
import json
import sys

from .pipeline import (
    PipelineConfig,
    RootNotFound,
    run_pipeline,
    scan_webapp,
    write_outputs,
)

_FORMATS = ("xmi", "json", "dot")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jspkdm",
        description="Recover a KDM-style code model and dependency graph "
                    "from a JSP web application.")
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="analyze a webapp directory")
    analyze.add_argument("webapp_root", help="web application root directory")
    analyze.add_argument("--out", default="jspkdm-out", metavar="DIR",
                         help="output directory (default: %(default)s)")
    analyze.add_argument("--format", default=None, metavar="LIST",
                         help="comma-separated subset of xmi,json,dot "
                              "(default: all; report.json is always written)")
    analyze.add_argument("--context-path", default=None, metavar="/APP",
                         help="deployed context path to strip before matching")
    analyze.add_argument("--source-root", action="append", default=None,
                         metavar="DIR", help="extra directory scanned for "
                         "*.java (repeatable)")
    analyze.add_argument("--include", action="append", default=None,
                         metavar="GLOB", help="only analyze matching paths "
                         "(repeatable)")
    analyze.add_argument("--exclude", action="append", default=None,
                         metavar="GLOB", help="skip matching paths (repeatable)")
    analyze.add_argument("--servlet-src-out", default=None, metavar="DIR",
                         help="also write rendered servlet sources here")
    analyze.add_argument("--encoding", default=None,
                         help="page encoding (default: utf-8)")
    analyze.add_argument("--config", default=None, metavar="FILE",
                         help="JSON config file; CLI flags override it")
    analyze.add_argument("--strict", action="store_true",
                         help="any diagnostic fails the run (exit 2)")
    return parser


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        config.context_path = raw.get("context_path", config.context_path)
        config.source_roots = list(raw.get("source_roots", config.source_roots))
        config.include = list(raw.get("include", config.include))
        config.exclude = list(raw.get("exclude", config.exclude))
        config.formats = list(raw.get("formats", config.formats))
        config.encoding = raw.get("encoding", config.encoding)
        config.servlet_src_out = raw.get("servlet_src_out", config.servlet_src_out)
        config.known_tag_handlers = dict(raw.get("known_tag_handlers",
                                                 config.known_tag_handlers))
    if args.context_path is not None:
        config.context_path = args.context_path
    if args.source_root is not None:
        config.source_roots = list(args.source_root)
    if args.include is not None:
        config.include = list(args.include)
    if args.exclude is not None:
        config.exclude = list(args.exclude)
    if args.format is not None:
        config.formats = [f.strip() for f in args.format.split(",") if f.strip()]
    if args.encoding is not None:
        config.encoding = args.encoding
    if args.servlet_src_out is not None:
        config.servlet_src_out = args.servlet_src_out
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"jspkdm: cannot load config: {exc}", file=sys.stderr)
        return 2
    unknown = [f for f in config.formats if f not in _FORMATS]
    if unknown:
        print(f"jspkdm: unknown output format(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    scan_diagnostics: list = []
    try:
        inventory = scan_webapp(args.webapp_root, config.include, config.exclude,
                                scan_diagnostics)
    except RootNotFound as exc:
        print(f"jspkdm: webapp root not found: {exc}", file=sys.stderr)
        return 2
    result = run_pipeline(inventory, config, scan_diagnostics)
    written = write_outputs(result, args.out, config.formats)
    report = result.report
    print(f"pages: {report['pages_parsed']}/{report['pages']} parsed, "
          f"{report['url_refs']} refs, {report['relationships']} relationships, "
          f"{len(report['diagnostics'])} diagnostics")
    for path in written:
        print(f"wrote {path}")
    if result.diagnostics:
        return 2 if args.strict else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
