"""Linear-time guards for the parser and for phase 2 (URL resolution and
call injection).

On a 2-core x86-64 VM under Python 3.11 the indexed code takes about 10 ms
(resolve) and 40 ms (inject), and per-call scans of the mapping table and of
the model take about 17 s and 2 s. A page of 8000 unterminated tags parses in
about 50 ms; rescanning to EOF from every tag takes about 70 s. Each bound
sits 15-25x above the linear time, so a slow spell of the machine cannot
trip it, and the quadratic code exceeds it many times over. Ratio guards
compare the times of two inputs instead: the medians of alternating pairs
(:func:`paired_medians`), or, for the link-free rows, best-of-five. Beside the
unterminated-tag ratios, step guards bound the characters the parser's two
scanning regexes move over by a multiple of the page's length, which no
machine's speed changes.
"""

from __future__ import annotations

import gc
import random
import re
import statistics
import time

import pytest

from jspkdm import (
    BlockUnit,
    ClassUnit,
    KdmModel,
    MethodUnit,
    ModelIndex,
    NodeKind,
    ServletDecl,
    UrlRef,
    add_method_call,
    build_lookup_table,
    extract_url_refs,
    parse_jsp,
    resolve_url,
)
from jspkdm import jsp_parser
from jspkdm.jsp_parser import iter_nodes


def unterminated_tags(count: int, tag: str = "<c:t{} ") -> str:
    """``count`` tags with no ">" after any of them (8000 make about 55 KB)."""
    return "".join(tag.format(m) for m in range(count))


def paired_medians(first, second, pairs: int = 9) -> tuple[float, float]:
    """The medians of the times that ``first()`` and ``second()`` return,
    over ``pairs`` pairs of calls, each pair taken in the other order from
    the last.

    A full collection scans every tracked object, so which of the two calls
    paid for the rest of the test session's heap used to depend on what
    earlier tests had allocated. That heap is frozen; the objects each call
    makes are still collected inside it. A fast or slow spell of the machine
    that favours one side in a pair or two moves a median little, where it
    could set a best-of-five.
    """
    firsts, seconds = [], []
    gc.collect()
    gc.freeze()
    try:
        for pair in range(pairs):
            if pair % 2:
                seconds.append(second())
                firsts.append(first())
            else:
                firsts.append(first())
                seconds.append(second())
    finally:
        gc.unfreeze()
    return statistics.median(firsts), statistics.median(seconds)


def parse_seconds(source: str) -> float:
    start = time.perf_counter()
    doc = parse_jsp(source, "/open.jsp")
    elapsed = time.perf_counter() - start
    assert [n.kind for n in doc.nodes] == [NodeKind.TEMPLATE_TEXT]
    return elapsed


class ScanCount:
    """Counts the characters that ``jsp_parser._LT_RE``'s searches and
    ``_ATTR_RE``'s matches move over: from each call's start to its match's
    end, or to the string's end when nothing matches. The call that takes the
    count past ``limit`` fails, so a quadratic scan fails at once rather than
    after minutes."""

    def __init__(self, monkeypatch, limit: int):
        self.moved, self.limit = 0, limit
        for name in ("_LT_RE", "_ATTR_RE"):
            monkeypatch.setattr(jsp_parser, name, _CountingPattern(getattr(jsp_parser, name), self))

    def add(self, m: re.Match | None, string: str, pos: int) -> re.Match | None:
        self.moved += (m.end() if m else len(string)) - pos
        assert self.moved <= self.limit, f"over {self.limit} characters scanned"
        return m


class _CountingPattern:
    def __init__(self, pattern: re.Pattern, count: ScanCount):
        self.pattern, self.count = pattern, count

    def search(self, string: str, pos: int = 0) -> re.Match | None:
        return self.count.add(self.pattern.search(string, pos), string, pos)

    def match(self, string: str, pos: int = 0) -> re.Match | None:
        return self.count.add(self.pattern.match(string, pos), string, pos)


def assert_scans_linear(monkeypatch, run, source: str) -> None:
    """``run()`` scans at most ``SCANS_PER_CHAR`` characters per character of
    ``source``, and no fewer than one."""
    with monkeypatch.context() as patched:
        count = ScanCount(patched, SCANS_PER_CHAR * len(source))
        run()
    assert count.moved >= len(source)


# The scans move over each character of these pages at most four times; one
# that rescanned to EOF from every tag would move over thousands of pages.
SCANS_PER_CHAR = 5


def extract_seconds(source: str) -> float:
    doc = parse_jsp(source, "/open.jsp")
    start = time.perf_counter()
    diagnostics = []
    refs = extract_url_refs(doc, diagnostics)
    elapsed = time.perf_counter() - start
    assert refs == diagnostics == []
    return elapsed


# One tag is a prefixed action, whose attributes the parser reads, and one is
# a plain tag, which is template text and never scanned.
@pytest.mark.parametrize("tag", ["<c:t{} ", "<t{} "])
def test_parse_8000_unterminated_tags(tag):
    elapsed = parse_seconds(unterminated_tags(8000, tag))
    assert elapsed < 1.0, f"8000 unterminated tags took {elapsed:.2f} s"


# Close tags are cheaper per tag, so it takes more of them for the quadratic
# search to show.
UNTERMINATED = [("<c:t{} ", 8000), ("</c:t{} ", 64_000), ('<c:t{0} a{0}="v" ', 8000),
                ("</c:t{}  ", 64_000), ("<t{} ", 8000)]


@pytest.mark.parametrize("tag, count", UNTERMINATED)
def test_unterminated_tags_parse_in_linear_time(tag, count):
    small, large = unterminated_tags(count, tag), unterminated_tags(2 * count, tag)
    small_s, large_s = paired_medians(lambda: parse_seconds(small),
                                      lambda: parse_seconds(large))
    assert large_s < 3 * small_s, (
        f"{small_s:.3f} s for {count} tags, {large_s:.3f} s for twice as many")


@pytest.mark.parametrize("tag, count", UNTERMINATED)
def test_unterminated_tags_parse_in_linear_steps(tag, count, monkeypatch):
    for source in (unterminated_tags(count, tag), unterminated_tags(2 * count, tag)):
        assert_scans_linear(monkeypatch, lambda: parse_seconds(source), source)


# The extractor reads the attributes of each "a" tag in the template text, with
# one EOF memo for the page. Each "<a" is the value of the attribute before
# it, so no name repeats.
def test_8000_unterminated_links_extract_in_linear_time():
    small, large = unterminated_tags(8000, "<a x{}="), unterminated_tags(16_000, "<a x{}=")
    small_s, large_s = paired_medians(lambda: extract_seconds(small),
                                      lambda: extract_seconds(large))
    assert small_s < 1.0, f"8000 unterminated links took {small_s:.2f} s"
    assert large_s < 3 * small_s, (
        f"{small_s:.3f} s for 8000 links, {large_s:.3f} s for twice as many")


def test_8000_unterminated_links_extract_in_linear_steps(monkeypatch):
    for source in (unterminated_tags(8000, "<a x{}="), unterminated_tags(16_000, "<a x{}=")):
        doc = parse_jsp(source, "/open.jsp")
        assert_scans_linear(monkeypatch, lambda: extract_url_refs(doc, []), source)


def test_link_free_rows_parse_in_linear_time():
    # Plain markup is template text, skipped by the search for the next "<"
    # that opens a node; a search that rescanned it would grow faster than
    # the page.
    row = '<tr><td class="c">x</td></tr>\n'
    small, large = row * 10_000, row * 20_000
    runs = [(parse_seconds(small), parse_seconds(large)) for _ in range(5)]
    small_s, large_s = min(r[0] for r in runs), min(r[1] for r in runs)
    assert large_s < 3 * small_s, (
        f"{small_s:.3f} s for 10,000 rows, {large_s:.3f} s for twice as many")


def test_link_free_rows_parse_in_linear_steps(monkeypatch):
    row = '<tr><td class="c">x</td></tr>\n'
    for source in (row * 10_000, row * 20_000):
        assert_scans_linear(monkeypatch, lambda: parse_seconds(source), source)


def test_unclosed_actions_before_a_large_page_cost_little():
    # Folding each unclosed action used to copy every node after it, twice:
    # 400 of them doubled the parse time of a page of 21,000 nodes. HTML is
    # template text, so each row is a JSP element and a text run.
    page = '<c:url value="c"/>x' * 10_500
    prefixed = '<c:if test="x">' * 400 + page

    def timed(source: str) -> float:
        start = time.perf_counter()
        doc = parse_jsp(source, "/big.jsp")
        elapsed = time.perf_counter() - start
        assert sum(1 for _ in iter_nodes(doc.nodes)) >= 20_000
        return elapsed

    page_s, prefixed_s = paired_medians(lambda: timed(page), lambda: timed(prefixed))
    assert prefixed_s < 1.5 * page_s, (
        f"{page_s:.3f} s for the page, {prefixed_s:.3f} s with 400 unclosed actions")


def test_resolve_1000_urls_against_10k_entries():
    decls, mappings = [], []
    for i in range(10_000):
        decls.append(ServletDecl(f"s{i}", jsp_file=f"/t{i}.jsp"))
        pattern = [f"/e/{i}", f"/p/{i}/*", f"*.x{i}", f"/d{i}/q"][i % 4]
        mappings.append((pattern, f"s{i}"))
    table = build_lookup_table(decls, mappings)
    rng = random.Random(7)
    urls = [rng.choice([f"/e/{4 * rng.randrange(2500)}",
                        f"/p/{4 * rng.randrange(2500) + 1}/a/b",
                        f"/f/g.x{4 * rng.randrange(2500) + 2}", "/nowhere"])
            for _ in range(1000)]
    refs = [UrlRef(tag_kind="a-href", raw_url=url, dynamic=False) for url in urls]
    start = time.perf_counter()
    targets = [resolve_url(table, ref, "/i.jsp") for ref in refs]
    elapsed = time.perf_counter() - start
    assert sum(t.page_path is not None for t in targets) == sum(
        url != "/nowhere" for url in urls)
    assert elapsed < 0.25, f"1000 resolutions took {elapsed:.2f} s"


def test_inject_5000_calls_into_2000_classes():
    classes = [ClassUnit(f"c{i}", f"/p{i}.jsp",
                         [MethodUnit("_jspService", BlockUnit())])
               for i in range(2000)]
    model = KdmModel("m", classes)
    rng = random.Random(11)
    calls = [(rng.choice(classes), rng.choice(classes), rng.choice(["a-href", "form"]))
             for _ in range(5000)]
    start = time.perf_counter()
    index = ModelIndex(model)
    statuses = [add_method_call(index, a, b, kind).status for a, b, kind in calls]
    elapsed = time.perf_counter() - start
    assert statuses.count("added") == len(model.relationships) == len(set(calls))
    assert elapsed < 0.6, f"5000 injections took {elapsed:.2f} s"
