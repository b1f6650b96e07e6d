"""Differential check of the servlet translator's one loop against the
recursive reference ``oracles.translate_recursively``. Each page that
parses must translate to the same statements (kind, text, metadata and
origin span), declarations, imports and translation diagnostics, both with
and without known tag handlers.

The tier-1 suite runs this on the generated pages, on tag-soup pages and on
nests up to 300 levels deep. It needs only the standard library, so it also
runs as a script under any supported Python::

    PYTHONPATH=src python -m tests.fuzz_translate --pages 100000 --seed 1
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Sequence

from jspkdm import JspParseError, parse_jsp, translate_page

from .genjsp import generate_nest, tag_soup
from .oracles import translate_recursively

HANDLERS = {"c:if": "org.example.IfTag", "c:url": "org.example.UrlTag",
            "c:y": "org.example.YTag", "a:b": "org.example.AbTag"}

# The deepest nest the reference translates under pytest's frames.
MAX_NEST = 300


def _translation(translate, doc, known_tag_handlers):
    diagnostics: list = []
    unit = translate(doc, known_tag_handlers, diagnostics)
    return unit.service_body, unit.declarations, unit.imports, diagnostics


def disagreements(pages: Sequence[str]) -> list[str]:
    """The pages that the loop and the reference translate differently."""
    bad = []
    for page in pages:
        try:
            doc = parse_jsp(page, "/gen.jsp")
        except JspParseError:
            continue
        if any(_translation(translate_page, doc, known)
               != _translation(translate_recursively, doc, known)
               for known in (None, HANDLERS)):
            bad.append(page)
    return bad


def nests(seed: int, depths: Sequence[int] = range(MAX_NEST + 1)) -> list[str]:
    """A closed and an unclosed nest of each depth."""
    rng = random.Random(seed)
    return [generate_nest(rng, depth, closed) for depth in depths for closed in (True, False)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pages", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bad_soup = disagreements(tag_soup(args.pages, args.seed))
    bad_nests = disagreements(nests(args.seed))
    print(f"Python {sys.version.split()[0]}: {len(bad_soup)} of {args.pages} tag-soup "
          f"pages and {len(bad_nests)} of {2 * (MAX_NEST + 1)} nests (seed {args.seed}) "
          "translate differently with the recursive reference")
    for page in (bad_soup + bad_nests)[:10]:
        print(repr(page[:500]))
    return 1 if bad_soup or bad_nests else 0


if __name__ == "__main__":
    sys.exit(main())
