"""Differential check of the URL-reference extractor, which finds the ``a``
and ``form`` tags in template text, against the reference
``oracles.extract_with_html_nodes``, whose parser makes a node of each such
tag. Each page must give the same parse error, or the same references and
extraction diagnostics. Pages where the reference reads a ``<%`` or a
prefixed tag inside an ``a`` or ``form`` tag are not compared: there the
parser now finds a JSP element, as Jasper does, which the reference skipped.

The tier-1 suite runs this on the generated pages and on tag-soup pages. It
needs only the standard library, so it also runs as a script under any
supported Python::

    PYTHONPATH=src python -m tests.fuzz_extract --pages 100000 --seed 1
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Sequence

from jspkdm import JspParseError, extract_url_refs, parse_jsp
from jspkdm.jsp_parser import _PREFIXED_NAME

from .genjsp import tag_soup
from .oracles import extract_with_html_nodes

_JSP_INSIDE_RE = re.compile(r"<%|</?" + _PREFIXED_NAME)


def extraction_outcome(source: str):
    """The parse error's (type, message, offset), or ``[refs, diagnostics]``."""
    try:
        doc = parse_jsp(source, "/gen.jsp")
    except JspParseError as exc:
        return type(exc), str(exc), exc.offset
    diagnostics: list = []
    return [extract_url_refs(doc, diagnostics), diagnostics]


def compare(pages: Sequence[str]) -> tuple[list[str], list]:
    """The pages that extract differently from the reference, and the
    reference's outcome of each page compared."""
    bad, compared = [], []
    for page in pages:
        html_spans, expected = extract_with_html_nodes(page)
        if any(_JSP_INSIDE_RE.search(page, start + 1, end) for start, end in html_spans):
            continue
        compared.append(expected)
        if extraction_outcome(page) != expected:
            bad.append(page)
    return bad, compared


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pages", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bad, compared = compare(tag_soup(args.pages, args.seed))
    print(f"Python {sys.version.split()[0]}: {len(bad)} of {len(compared)} compared "
          f"tag-soup pages ({args.pages} generated, seed {args.seed}) extract differently "
          "from the reference")
    for page in bad[:10]:
        print(repr(page))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
