"""Differential check of the Java source scan, which reads each class name
and @WebServlet argument list with regexes, against the references in
``tests/oracles.py``: the class regex with a leading word boundary, the
comment and string regexes as a lazy match and an alternation, and a
character loop over the argument list. Each source must give the same
qualified class name, and the same URL patterns, servlet names and
diagnostics.

The tier-1 suite runs this on generated sources. It needs only the standard
library, so it also runs as a script under any supported Python::

    PYTHONPATH=src python -m tests.fuzz_annotations --sources 100000 --seed 1
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Sequence

from jspkdm.deployment_mapper import java_qualified_class_name, scan_webservlet_annotations

from .oracles import java_class_name_oracle, webservlet_oracle

# Bits of Java-like source: the word "class" alone, inside other words and in
# another case; the annotation with spaces, Unicode white space and near
# misses; parens nested and unbalanced; string literals with escaped quotes,
# a backslash, parens and comment openers inside, and left open; the
# argument forms the reader knows and some it does not; comments, with runs
# of stars and slashes, and package declarations.
JAVA_BITS = ["class", "class ", "class A", "class  B1", "class\n_c", "class\t$x", "class 9",
             "subclass X", "myclass Y", "Class Z", "classes W", "class_ V", ".class z",
             "public class Res extends HttpServlet {", "}", "{", "interface I",
             "@WebServlet", "@ WebServlet", "@WebServlet ", "@WebServlet\u00a0", "@WebServlet\x1c",
             "@WebServlet\u2028", "@WebServlet\x85", "@WebServlets", "@WebServlet_",
             "(", ")", "((", "))", "()", '("/a")', '("/a", "/b")', '(urlPatterns = "/u")',
             '"', '"/x"', '"a\\"b"', '"\\\\"', '"\\\\\\""', '"a(b"', '")"', '"/*"', '"*/"',
             '"//"', '"\\', '"a\\\n)"', '"\\\r"', "\\", "\\\\", "'('", "')'", "'\"'",
             "urlPatterns", "urlPatterns = ", "value=", "value =", "name = ", 'name="n\\"x"',
             'name = "svc"', "xname = ", "={", "= {", "{", "}", ",", "=", ", ",
             "loadOnStartup = 1", "/*", "*/", "//", "/** doc */", "// c\n", "/* ) */",
             "/**/", "/***/", "/*/", "*", "**/", "/* a **b */",
             "\n", " ", "\t", "\r\n", "package a.b;\n", "package x;", " package p.q ;",
             "import a.B;\n", "x", "é", "1"]


# Argument lists in the forms the reader knows, and near them.
JAVA_ARGS = ['"/a"', '"/a", "/b"', 'urlPatterns = {"/u", "/v"}', 'value = "/v/*"',
             'name = "n", value = "/x"', 'name = "a\\"b", urlPatterns = "/q"',
             "loadOnStartup = 1", '{"/a(", ")"}', 'value = ("/p")', '"/s\\\\"',
             'urlPatterns = {"/u"', 'value = {}', '"/a" /* ) */', 'name="x"']


def generate_java(rng: random.Random) -> str:
    """One to sixteen bits, and most often among them an annotation whose
    argument list is a known form or a few bits, which a ")" may close."""
    bits = [rng.choice(JAVA_BITS) for _ in range(rng.randint(1, 16))]
    if rng.random() < 0.7:
        args = (rng.choice(JAVA_ARGS) if rng.random() < 0.5 else
                "".join(rng.choice(JAVA_BITS) for _ in range(rng.randint(0, 4))))
        opener = rng.choice(("@WebServlet(", '@WebServlet("/w', "@WebServlet (\n"))
        bits.insert(rng.randint(0, len(bits)), opener + args + rng.choice((")", ")", "")))
    return "".join(bits)


def java_soup(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [generate_java(rng) for _ in range(count)]


def outcome(source: str):
    """The qualified class name, and the scan's (pattern, servlet name,
    servlet class, source) tuples and diagnostics."""
    qualified = java_qualified_class_name(source, "Fallback")
    diagnostics: list = []
    found = [(pattern, decl.servlet_name, decl.servlet_class, decl.source)
             for pattern, decl in scan_webservlet_annotations(source, qualified, diagnostics)]
    return qualified, found, diagnostics


def reference_outcome(source: str):
    qualified = java_class_name_oracle(source, "Fallback")
    return (qualified, *webservlet_oracle(source, qualified))


def disagreements(sources: Sequence[str]) -> list[str]:
    """The sources that scan differently from the references."""
    return [source for source in sources if outcome(source) != reference_outcome(source)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sources", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bad = disagreements(java_soup(args.sources, args.seed))
    print(f"Python {sys.version.split()[0]}: {len(bad)} of {args.sources} generated Java "
          f"sources (seed {args.seed}) scan differently from the references")
    for source in bad[:10]:
        print(repr(source))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
