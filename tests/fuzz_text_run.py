"""Differential check of the parser's text-run regex against its tag-by-tag
path, which takes every "<" on its own when the regex is patched to match
only the empty string. Each page must parse to the same node list, or fail
with the same error type, message and offset.

The tier-1 suite runs this on 100,000 pages. It needs only the standard
library, so it also runs as a script under any supported Python::

    PYTHONPATH=src python -m tests.fuzz_text_run --pages 300000 --seed 1
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from typing import Sequence

from jspkdm import JspParseError, jsp_parser, parse_jsp

from .genjsp import generate_tag_soup

# Matches only the empty string: no run is skipped, so every "<" takes the
# tag-by-tag path.
NO_TEXT_RUN = re.compile("")


def parse_outcome(source: str):
    """The node list, or the (type, message, offset) of the parse error."""
    try:
        return parse_jsp(source, "/gen.jsp").nodes
    except JspParseError as exc:
        return type(exc), str(exc), exc.offset


def disagreements(pages: Sequence[str]) -> list[str]:
    """The pages whose outcome changes when no text run is skipped."""
    skipping = [parse_outcome(page) for page in pages]
    kept, jsp_parser._TEXT_RUN_RE = jsp_parser._TEXT_RUN_RE, NO_TEXT_RUN
    try:
        return [page for page, got in zip(pages, skipping) if got != parse_outcome(page)]
    finally:
        jsp_parser._TEXT_RUN_RE = kept


def tag_soup(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [generate_tag_soup(rng) for _ in range(count)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pages", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bad = disagreements(tag_soup(args.pages, args.seed))
    print(f"Python {sys.version.split()[0]}: {len(bad)} of {args.pages} tag-soup pages "
          f"(seed {args.seed}) parse differently tag by tag")
    for page in bad[:10]:
        print(repr(page))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
