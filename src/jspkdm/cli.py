"""Command-line surface: ``jspkdm analyze <webapp-root> [options]``.

Exit codes: 0 clean run, 1 completed with diagnostics, 2 fatal (bad
arguments, unreadable root, an output that cannot be written, or any
diagnostic under --strict).
"""

from __future__ import annotations

import argparse
import json
import sys

from .pipeline import (
    FORMATS,
    PipelineConfig,
    RootNotFound,
    run_pipeline,
    scan_webapp,
    write_outputs,
)


def _format_list(value: str) -> list[str]:
    return [f.strip() for f in value.split(",") if f.strip()]


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
    analyze.add_argument("--format", dest="formats", type=_format_list, default=None,
                         metavar="LIST",
                         help="comma-separated subset of xmi,json,dot "
                              "(default: all; report.json is always written)")
    analyze.add_argument("--context-path", default=None, metavar="/APP",
                         help="deployed context path to strip before matching")
    analyze.add_argument("--source-root", dest="source_roots", action="append",
                         default=None, metavar="DIR", help="extra directory scanned for "
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


def _all_str(values) -> bool:
    return all(isinstance(v, str) for v in values)


# The type of a setting's default -> the shape a config file's value must have.
_SHAPES = {
    list: ("a list of strings", lambda v: isinstance(v, list) and _all_str(v)),
    dict: ("an object of strings", lambda v: isinstance(v, dict) and _all_str(v.values())),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def _checked(raw) -> dict:
    """The settings of a config file, each of the shape of its field's default."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    defaults = vars(PipelineConfig())
    for key, value in raw.items():
        if key not in defaults:
            raise ValueError(f"unknown key {key!r}")
        shape, fits = _SHAPES[type(defaults[key])]
        if not fits(value):
            raise ValueError(f"{key!r} must be {shape}, not {value!r}")
    return raw


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    """The defaults, overlaid by the config file, overlaid by the given flags."""
    settings = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            settings = _checked(json.load(fh))
    flags = vars(args)
    for name in vars(PipelineConfig()):
        if flags.get(name) is not None:
            settings[name] = flags[name]
    return PipelineConfig(**settings)


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (OSError, ValueError) as exc:
        print(f"jspkdm: cannot load config: {exc}", file=sys.stderr)
        return 2
    unknown = [f for f in config.formats if f not in FORMATS]
    if unknown:
        print(f"jspkdm: unknown output format(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    try:
        # Unlike codecs.lookup, this also refuses a codec that is not a text
        # encoding ("rot13"); a name with a NUL raises ValueError.
        "".encode(config.encoding)
    except (LookupError, ValueError):
        print(f"jspkdm: unknown encoding: {config.encoding}", file=sys.stderr)
        return 2
    # A servlet context path is "" or starts with "/".
    if config.context_path and not config.context_path.startswith("/"):
        print(f'jspkdm: context path must start with "/": {config.context_path}',
              file=sys.stderr)
        return 2
    scan_diagnostics: list = []
    try:
        inventory = scan_webapp(args.webapp_root, config.include, config.exclude,
                                scan_diagnostics)
    except RootNotFound as exc:
        print(f"jspkdm: webapp root not found: {exc}", file=sys.stderr)
        return 2
    try:
        # Every read is guarded in the run, so an OSError is a write: the
        # servlet source directory or a source in it, or the artifacts.
        result = run_pipeline(inventory, config, scan_diagnostics)
        written = write_outputs(result, args.out, config.formats)
    except OSError as exc:
        print(f"jspkdm: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
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
