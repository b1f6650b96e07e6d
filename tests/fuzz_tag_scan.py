"""Differential check of the tag scanner, with its EOF memo, against the
character-loop oracle ``oracles.scan_tag_attrs_oracle``, which scans every
tag on its own. The parser reads the prefixed tags with it and the extractor
the ``a`` and ``form`` tags, so each page must parse and extract to the same
node list, references and extraction diagnostics, or fail with the same
error type, message and offset.

The tier-1 suite runs this on the generated pages and on tag-soup pages. It
needs only the standard library, so it also runs as a script under any
supported Python::

    PYTHONPATH=src python -m tests.fuzz_tag_scan --pages 300000 --seed 1
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from jspkdm import jsp_parser

from .genjsp import parse_outcome, tag_soup
from .oracles import scan_tag_attrs_oracle


def _oracle_scan(parser, pos: int, tag_start: int):
    return scan_tag_attrs_oracle(parser.source, pos, tag_start, parser.page_path)


def disagreements(pages: Sequence[str]) -> list[str]:
    """The pages whose outcome changes when the oracle scans each tag."""
    scanned = [parse_outcome(page) for page in pages]
    kept = jsp_parser._Parser._scan_tag_attrs
    jsp_parser._Parser._scan_tag_attrs = _oracle_scan
    try:
        return [page for page, got in zip(pages, scanned) if got != parse_outcome(page)]
    finally:
        jsp_parser._Parser._scan_tag_attrs = kept


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pages", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bad = disagreements(tag_soup(args.pages, args.seed))
    print(f"Python {sys.version.split()[0]}: {len(bad)} of {args.pages} tag-soup pages "
          f"(seed {args.seed}) parse differently with the oracle's tag scan")
    for page in bad[:10]:
        print(repr(page))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
