"""Seeded webapp generators for the jspkdm benchmark, with their ground truth.

Each generator takes a seed and returns an :class:`App`: the files to write,
the page set a container would deploy, and every URL reference the pages
carry together with the target a Servlet container resolves it to. The
target comes from :class:`Container`, a small implementation of the mapping
rules of the Servlet specification (ch. 12) written apart from jspkdm. Nothing
here imports jspkdm or the repository's tests, so editing either cannot shift
a workload or its ground truth.

The seed picks link targets, words and identifiers. The shape of a workload
(page, reference and mapping counts, and which reference slots exercise which
rule) is fixed, so every seed costs about the same and exposes the same number
of known defects.
"""

from __future__ import annotations

import posixpath
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

INTERNAL_PAGE = "InternalPage"
INTERNAL_CLASS = "InternalServletClass"
EXTERNAL = "External"
UNRESOLVED = "Unresolved"
# hostile-pages is not resolved: its runner stops after extraction, so a
# reference there is correct when it is extracted with its tag kind and URL.
EXTRACTED = "Extracted"

# Translation-time includes name a file, not a request: no servlet mapping.
STATIC_INCLUDES = frozenset({"include-directive", "jsp:directive.include"})

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

# Workload sizes. They are fixed, so every seed does about the same work.
LINKED_PAGES = 360             # content pages; each of 40 directories adds an index.jsp
SCRIPT_PAGES = 120             # about 7 KB each
SCRIPT_BLOCKS = 7              # scripting blocks per page
DESCRIPTOR_PAGES = 3
DESCRIPTOR_SERVLETS = 2400     # web.xml servlets; about 3600 mappings
DESCRIPTOR_SOURCES = 1000      # @WebServlet sources under --source-root
HOSTILE_PLAIN_BYTES = 1_000_000
HOSTILE_OPEN_TAGS = 400        # unterminated tags per page
HOSTILE_DEPTH = 1500           # nesting depth of the deep pages

WORDS = ["order", "cart", "total", "customer", "invoice", "stock", "price",
         "account", "report", "status", "shipping", "catalog", "rating",
         "region", "summary", "payment", "history", "profile", "search", "item"]


@dataclass(frozen=True)
class Ref:
    """One URL occurrence and what a container makes of it."""

    page: str
    tag_kind: str
    raw_url: str
    kind: str
    target: str | None


@dataclass
class App:
    """A generated workload: files under a work directory plus ground truth.

    ``files`` maps a path relative to the work directory to its text.
    ``args`` are the analyze arguments after the webapp root, with paths
    relative to the work directory. A ``per_page`` app runs through
    ``hostile.py`` instead of the CLI.
    """

    name: str
    files: dict[str, str]
    pages: list[str]
    refs: list[Ref]
    root: str = "app"
    args: list[str] = field(default_factory=list)
    per_page: bool = False

    def write(self, work_dir: Path) -> int:
        """Write every file under ``work_dir``; returns the input bytes."""
        total = 0
        for rel, text in self.files.items():
            path = work_dir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            data = text.encode("utf-8")
            path.write_bytes(data)
            total += len(data)
        return total


# -- ground truth: the container's view ------------------------------------------


class Container:
    """URL resolution as a Servlet container performs it.

    Exact, then longest path prefix, then extension (the implicit ``*.jsp``
    and ``*.jspx`` mappings count as extension mappings that an application
    mapping of the same extension overrides), then the welcome files of a
    directory request, then the default mapping ``/``.
    """

    def __init__(self, pages, servlets: dict[str, tuple[str, str]],
                 mappings: list[tuple[str, str]],
                 welcome_files: tuple[str, ...] = ()):
        self.pages = frozenset(pages)
        self.exact: dict[str, tuple[str, str]] = {}
        self.prefix: dict[str, tuple[str, str]] = {}
        self.extension: dict[str, tuple[str, str]] = {}
        self.default: tuple[str, str] | None = None
        for pattern, name in mappings:
            target = servlets[name]
            if pattern == "/":
                self.default = self.default or target
            elif pattern.endswith("/*"):
                self.prefix.setdefault(pattern[:-2], target)
            elif pattern.startswith("*."):
                self.extension.setdefault(pattern[2:], target)
            else:
                self.exact.setdefault(pattern, target)
        self.welcome_files = welcome_files

    def resolve(self, page: str, tag_kind: str, raw_url: str) -> tuple[str, str | None]:
        """(kind, target) for ``raw_url`` found on ``page`` in a ``tag_kind`` tag."""
        if "${" in raw_url or "<%=" in raw_url:
            return UNRESOLVED, None
        raw = raw_url.strip()
        if _SCHEME_RE.match(raw):
            return EXTERNAL, raw
        path = raw.split("#", 1)[0].split("?", 1)[0]
        if not path:
            return INTERNAL_PAGE, page  # same-document reference
        if not path.startswith("/"):
            path = posixpath.join(posixpath.dirname(page), path)
        directory = path.endswith("/")
        path = posixpath.normpath(path)
        if tag_kind in STATIC_INCLUDES:
            return (INTERNAL_PAGE, path) if path in self.pages else (UNRESOLVED, None)
        return self._map(path, directory)

    def _map(self, path: str, directory: bool) -> tuple[str, str | None]:
        if path in self.exact:
            return self.exact[path]
        base = path
        while True:
            if base in self.prefix:
                return self.prefix[base]
            if not base:
                break
            base = base.rpartition("/")[0]
        last = path.rpartition("/")[2]
        if "." in last:
            ext = last.rpartition(".")[2]
            if ext in self.extension:
                return self.extension[ext]
            if ext in ("jsp", "jspx"):
                return (INTERNAL_PAGE, path) if path in self.pages else (UNRESOLVED, None)
        if directory:
            for welcome in self.welcome_files:
                candidate = path.rstrip("/") + "/" + welcome
                if candidate in self.pages:
                    return self._map(candidate, False)
        if self.default is not None:
            return self.default
        return UNRESOLVED, None


def web_xml(servlets: list[tuple[str, str, str]], mappings: list[tuple[str, str]],
            welcome_files: tuple[str, ...] = (), noise: bool = False) -> str:
    """A Jakarta EE descriptor; ``servlets`` holds (name, "class"|"jsp", value)."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           '<web-app xmlns="https://jakarta.ee/xml/ns/jakartaee"',
           '         xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"',
           '         version="5.0">',
           '  <display-name>generated</display-name>']
    for i, (name, how, value) in enumerate(servlets):
        element = "servlet-class" if how == "class" else "jsp-file"
        out.append("  <servlet>")
        if noise and i % 3 == 0:
            out.append(f"    <description>Handles {name} requests.</description>")
        out.append(f"    <servlet-name>{name}</servlet-name>")
        out.append(f"    <{element}>{value}</{element}>")
        if noise and i % 4 == 0:
            out.append("    <init-param><param-name>pool</param-name>"
                       f"<param-value>{i % 17}</param-value></init-param>")
            out.append("    <load-on-startup>1</load-on-startup>")
        out.append("  </servlet>")
    for pattern, name in mappings:
        out.append("  <servlet-mapping>")
        out.append(f"    <servlet-name>{name}</servlet-name>")
        out.append(f"    <url-pattern>{pattern}</url-pattern>")
        out.append("  </servlet-mapping>")
    if welcome_files:
        out.append("  <welcome-file-list>")
        out.extend(f"    <welcome-file>{w}</welcome-file>" for w in welcome_files)
        out.append("  </welcome-file-list>")
    out.append("</web-app>")
    return "\n".join(out) + "\n"


def _servlet_targets(servlets: list[tuple[str, str, str]]) -> dict[str, tuple[str, str]]:
    return {name: (INTERNAL_CLASS, value) if how == "class" else (INTERNAL_PAGE, value)
            for name, how, value in servlets}


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


def _relative(target: str, page: str) -> str:
    return posixpath.relpath(target, posixpath.dirname(page))


def _tag(tag_kind: str, url: str, rng: random.Random, k: int) -> str:
    """Markup for one dependency-bearing tag."""
    if tag_kind == "a-href":
        return f'<li><a href="{url}">{_words(rng, 2)}</a></li>'
    if tag_kind == "form":
        return (f'<form action="{url}" method="post">'
                f'<input type="text" name="q{k}"><input type="submit"></form>')
    if tag_kind == "jsp:include":
        return f'<jsp:include page="{url}" flush="true" />'
    if tag_kind == "jsp:forward":
        return f'<c:if test="${{empty user}}"><jsp:forward page="{url}" /></c:if>'
    if tag_kind == "c:url":
        return f'<c:url value="{url}" var="u{k}" />'
    if tag_kind == "c:redirect":
        return f'<c:if test="${{param.r{k} != null}}"><c:redirect url="{url}" /></c:if>'
    if tag_kind == "include-directive":
        return f'<%@ include file="{url}" %>'
    raise ValueError(tag_kind)


def _page(title: str, body: list[str], rng: random.Random) -> str:
    head = ['<%@ page contentType="text/html;charset=UTF-8" %>',
            '<%@ taglib prefix="c" uri="jakarta.tags.core" %>',
            f"<html><head><title>{title}</title></head>", "<body>",
            f"<h1>{title}</h1>", f"<p>{_words(rng, 12)}</p>", "<ul>"]
    tail = ["</ul>", f"<p class=\"note\">{_words(rng, 8)}</p>", "</body></html>"]
    return "\n".join(head + body + tail) + "\n"


# -- linked-site ------------------------------------------------------------------

# Each page carries twelve references, one per slot: a fragment include, six
# page links, two mapped URLs, an external link, one reference a container
# resolves and jspkdm does not (item 5: "#top" on even pages, a welcome-file
# directory link on odd ones), and one that nobody resolves.
_PAGE_LINK_TAGS = ["a-href", "a-href", "a-href", "form", "jsp:include", "c:url"]
_MAPPED_TAGS = ["a-href", "form", "c:redirect", "jsp:forward"]


def linked_site(seed: int) -> App:
    """Many small, densely linked pages; phase 2 (resolve, inject) dominates.

    The descriptor has about ``LINKED_PAGES / 5`` mappings of the exact, prefix and
    extension shapes. It has no default ``/`` mapping: jspkdm lets a default
    mapping win over the implicit ``*.jsp`` mapping, so every page link would
    resolve to a servlet class and the injection path would not run here. That
    defect is measured on descriptor-heavy instead.
    """
    rng = random.Random(seed)
    dirs = [f"/d{i}/s{j}" for i in range(8) for j in range(5)]
    content = [f"{dirs[i % len(dirs)]}/p{i:04d}.jsp" for i in range(LINKED_PAGES)]
    linked = content + [f"{d}/index.jsp" for d in dirs]
    fragments = [f"/WEB-INF/jspf/part{k}.jspf" for k in range(4)]

    n_map = LINKED_PAGES // 5
    servlets: list[tuple[str, str, str]] = []
    mappings: list[tuple[str, str]] = []
    exact_urls, prefix_urls, view_urls = [], [], []
    for k in range(n_map):
        shape = k % 4
        name = f"s{k}"
        if shape == 0:
            servlets.append((name, "class", f"com.example.shop.web.Op{k}Servlet"))
            mappings.append((f"/app/op{k}", name))
            exact_urls.append(f"/app/op{k}")
        elif shape == 1:
            servlets.append((name, "class", f"com.example.shop.api.Res{k}Servlet"))
            mappings.append((f"/api/r{k}/*", name))
            prefix_urls.append(f"/api/r{k}")
        elif shape == 2:
            # Nested under the previous prefix, so longest-prefix order matters.
            servlets.append((name, "class", f"com.example.shop.api.Res{k}V2Servlet"))
            mappings.append((f"/api/r{k - 1}/v2/*", name))
            prefix_urls.append(f"/api/r{k - 1}/v2")
        else:
            servlets.append((name, "jsp", rng.choice(content)))
            mappings.append((f"/view/v{k}", name))
            view_urls.append(f"/view/v{k}")
    for ext in ("do", "action", "xhtml"):
        name = f"front-{ext}"
        servlets.append((name, "class", f"com.example.shop.front.{ext.title()}Controller"))
        mappings.append((f"*.{ext}", name))
    welcome = ("index.jsp",)
    container = Container(linked + fragments, _servlet_targets(servlets), mappings, welcome)

    files: dict[str, str] = {"app/WEB-INF/web.xml": web_xml(servlets, mappings, welcome)}
    for f in fragments:
        files["app" + f] = f'<div class="part">{_words(rng, 10)}</div>\n'
    refs: list[Ref] = []
    for i, page in enumerate(linked):
        body: list[str] = []
        seen: set[tuple[str, str | None]] = set()

        def add(tag_kind: str, url: str, k: int) -> bool:
            kind, target = container.resolve(page, tag_kind, url)
            key = (tag_kind, target if target is not None else url)
            if key in seen:
                return False
            seen.add(key)
            refs.append(Ref(page, tag_kind, url, kind, target))
            body.append(_tag(tag_kind, url, rng, k))
            return True

        add("include-directive", fragments[i % len(fragments)], 0)
        if i % 2 == 0:
            add("a-href", "#top", 1)
        else:
            other = dirs[(i + 1 + rng.randrange(len(dirs) - 1)) % len(dirs)]
            add("a-href", _relative(other, page) + "/", 1)
        for slot, tag_kind in enumerate(_PAGE_LINK_TAGS):
            while True:
                target = rng.choice(linked)
                if target == page:
                    continue
                style = rng.randrange(4)
                url = target if style < 2 else _relative(target, page)
                if style == 1:
                    url += f"?id={rng.randrange(1000)}"
                elif style == 3:
                    url += f"#{rng.choice(WORDS)}"
                if add(tag_kind, url, slot + 2):
                    break
        for slot in range(2):
            while True:
                shape = (2 * i + slot) % 4
                if shape == 0:
                    url = rng.choice(exact_urls)
                elif shape == 1:
                    url = f"{rng.choice(prefix_urls)}/items/{rng.randrange(100)}"
                elif shape == 2:
                    stem = f"{rng.choice(WORDS)}{rng.randrange(100)}"
                    url = f"/shop/{stem}.{rng.choice(['do', 'action', 'xhtml'])}"
                else:
                    url = rng.choice(view_urls)
                if add(_MAPPED_TAGS[(i + slot) % len(_MAPPED_TAGS)], url, slot + 8):
                    break
        add("a-href", f"https://partner{i % 7}.example.org/{rng.choice(WORDS)}/{i}", 10)
        if i % 2 == 0:
            add("a-href", f"${{pageContext.request.contextPath}}/d{i % 8}/p{i}.jsp", 11)
        else:
            add("a-href", f"{dirs[rng.randrange(len(dirs))]}/retired{i}.jsp", 11)
        files["app" + page] = _page(f"Page {i}", body, rng)
    return App("linked-site", files, linked + fragments, refs)


# -- script-heavy -----------------------------------------------------------------


def _script_block(rng: random.Random, k: int) -> str:
    """One chunk of scripting: loops, expressions, beans and nested actions."""
    w = rng.choice(WORDS)
    parts = [
        f"<% java.util.List<String> {w}{k} = service.find{w.title()}(request, {k}); %>",
        f'<table class="{w}">',
        f"<% for (int i{k} = 0; i{k} < {w}{k}.size(); i{k}++) {{ %>",
        f"<tr><td><%= i{k} %></td><td><%= {w}{k}.get(i{k}) %></td>"
        f"<td><%= format({w}{k}.get(i{k}).length() * {rng.randrange(2, 99)}) %></td></tr>",
        "<% } %>",
        "</table>",
        f'<jsp:useBean id="bean{k}" class="com.example.model.{w.title()}Bean" scope="request" />',
        f'<jsp:setProperty name="bean{k}" property="*" />',
        f'<jsp:setProperty name="bean{k}" property="{w}" value="<%= {w}{k}.size() %>" />',
        f'<p>{_words(rng, 6)} <jsp:getProperty name="bean{k}" property="{w}" /></p>',
        f'<c:forEach items="${{bean{k}.rows}}" var="row">',
        f'  <c:if test="${{row.{w} > {k}}}"><span>${{row.{w}}}</span></c:if>',
        f"  <fmt:formatNumber value=\"${{row.total}}\" type=\"currency\" />",
        "</c:forEach>",
        f"<% if ({w}{k}.isEmpty()) {{ log(\"empty {w}\"); }} else {{ count += {w}{k}.size(); }} %>",
        f"<p>{_words(rng, 10)}</p>",
    ]
    return "\n".join(parts)


def script_heavy(seed: int) -> App:
    """Large scripting pages and almost no references.

    Parse, translate, discover and serialize carry the run; phase 2 resolves
    one link per page against a two-entry table, so it is bypassed.
    """
    rng = random.Random(seed)
    paths = [f"/module{i % 6}/screen{i:03d}.jsp" for i in range(SCRIPT_PAGES)]
    servlets = [("login", "class", "com.example.auth.LoginServlet"),
                ("home", "jsp", paths[0])]
    mappings = [("/login", "login"), ("/home", "home")]
    container = Container(paths, _servlet_targets(servlets), mappings)
    files = {"app/WEB-INF/web.xml": web_xml(servlets, mappings)}
    refs: list[Ref] = []
    for i, page in enumerate(paths):
        target = paths[(i + 1 + rng.randrange(SCRIPT_PAGES - 1)) % SCRIPT_PAGES]
        url = _relative(target, page)
        kind, resolved = container.resolve(page, "a-href", url)
        refs.append(Ref(page, "a-href", url, kind, resolved))
        decls = (f"<%! private int count = 0;\n"
                 f"    private String format(int v) {{ return String.valueOf(v * {i}); }} %>")
        body = [decls] + [_script_block(rng, k) for k in range(SCRIPT_BLOCKS)]
        body.append(f'<p><a href="{url}">next</a></p>')
        files["app" + page] = (
            '<%@ page import="java.util.*,com.example.model.*" %>\n'
            '<%@ taglib prefix="c" uri="jakarta.tags.core" %>\n'
            '<%@ taglib prefix="fmt" uri="jakarta.tags.fmt" %>\n'
            f"<html><body><h1>Screen {i}</h1>\n" + "\n".join(body) + "\n</body></html>\n")
    return App("script-heavy", files, paths, refs, args=["--servlet-src-out", "servlets"])


# -- descriptor-heavy ---------------------------------------------------------------

_JAVA_HEADER = """package {package};

import java.io.IOException;
import jakarta.servlet.ServletException;
import jakarta.servlet.annotation.WebServlet;
import jakarta.servlet.http.HttpServlet;
import jakarta.servlet.http.HttpServletRequest;
import jakarta.servlet.http.HttpServletResponse;
"""

_JAVA_METHOD = """
    {doc}
    @Override
    protected void doGet(HttpServletRequest request, HttpServletResponse response)
            throws ServletException, IOException {{
        // look up the {word} records for this request
        String id = request.getParameter("id");
        response.setContentType("application/json");
        response.getWriter().print("{{\\"{word}\\": \\"" + id + "\\"}}");
    }}
"""


def _java_source(k: int, form: int, package: str, cls: str, rng: random.Random) -> str:
    """One annotated servlet; ``form`` picks the annotation style.

    Form 2 is a prefix pattern on a class with a Javadoc after the annotation,
    which jspkdm's comment stripping reads as a comment running from the
    ``/*`` inside the string (ROADMAP item 5).
    """
    word = rng.choice(WORDS)
    if form == 0:
        annotation = f'@WebServlet("/ann/e{k}")'
    elif form == 1:
        annotation = f'@WebServlet(urlPatterns = {{"/ann/a{k}", "/ann/a{k}/export"}})'
    elif form == 2:
        annotation = f'@WebServlet(name = "res{k}", value = "/ann/r{k}/*")'
    elif form == 3:
        annotation = f'@WebServlet(value = "/ann/s{k}/*", loadOnStartup = 1) // {word} feed'
    else:
        annotation = f'@WebServlet(urlPatterns = "/ann/x{k}")\n/* legacy {word} endpoint */'
    doc = f"/** Serves the {word} view. */" if form in (1, 2) else f"// serves {word}"
    return (_JAVA_HEADER.format(package=package)
            + f"\n/**\n * {_words(rng, 8)}.\n *\n * @since {k % 9}.0\n */\n"
            + annotation + f"\npublic class {cls} extends HttpServlet {{\n"
            + f"    private static final long serialVersionUID = {k}L;\n"
            + _JAVA_METHOD.format(doc=doc, word=word) + "}\n")


def descriptor_heavy(seed: int) -> App:
    """A big descriptor and many annotated sources, few pages and references.

    The descriptor has every pattern shape, the default ``/`` included, and
    each page has one reference per slot below; two slots are known jspkdm
    defects (the annotation ``"/*"`` bug and the default mapping winning over
    the implicit ``*.jsp`` mapping).
    """
    rng = random.Random(seed)
    paths = [f"/pages/view{i:02d}.jsp" for i in range(DESCRIPTOR_PAGES)]
    servlets: list[tuple[str, str, str]] = []
    mappings: list[tuple[str, str]] = []
    exact_urls, prefix_urls, ext_names, view_urls = [], [], [], []
    for k in range(DESCRIPTOR_SERVLETS):
        name = f"svc{k}"
        module = f"m{k % 40}"
        if k % 10 == 9:
            servlets.append((name, "jsp", rng.choice(paths)))
            mappings.append((f"/erp/{module}/view{k}", name))
            view_urls.append(f"/erp/{module}/view{k}")
            continue
        servlets.append((name, "class", f"org.example.erp.{module}.Svc{k}Servlet"))
        mappings.append((f"/erp/{module}/op{k}", name))
        exact_urls.append(f"/erp/{module}/op{k}")
        if k % 2 == 0:
            mappings.append((f"/erp/{module}/r{k}/*", name))
            prefix_urls.append(f"/erp/{module}/r{k}")
        if k % 90 == 0:
            mappings.append((f"*.x{k}", name))
            ext_names.append(f"x{k}")
    servlets.append(("dispatcher", "class", "org.example.erp.DispatcherServlet"))
    mappings.append(("/", "dispatcher"))
    welcome = ("index.jsp",)

    files: dict[str, str] = {}
    annotated: dict[int, list[tuple[str, str]]] = {form: [] for form in range(5)}
    ann_servlets: list[tuple[str, str, str]] = []
    ann_mappings: list[tuple[str, str]] = []
    for k in range(DESCRIPTOR_SOURCES):
        form = k % 5
        package = f"org.example.erp.api.g{k % 30}"
        cls = f"Res{k}Servlet"
        fqcn = f"{package}.{cls}"
        files[f"java/{package.replace('.', '/')}/{cls}.java"] = _java_source(
            k, form, package, cls, rng)
        name = f"res{k}" if form == 2 else fqcn
        ann_servlets.append((name, "class", fqcn))
        patterns = {0: [f"/ann/e{k}"], 1: [f"/ann/a{k}", f"/ann/a{k}/export"],
                    2: [f"/ann/r{k}/*"], 3: [f"/ann/s{k}/*"], 4: [f"/ann/x{k}"]}[form]
        ann_mappings.extend((p, name) for p in patterns)
        annotated[form].append((patterns[-1], fqcn))
    container = Container(paths, _servlet_targets(servlets + ann_servlets),
                          mappings + ann_mappings, welcome)
    files["app/WEB-INF/web.xml"] = web_xml(servlets, mappings, welcome, noise=True)

    def prefix_url(pattern: str) -> str:
        return f"{pattern[:-2]}/{rng.choice(WORDS)}/{rng.randrange(1000)}"

    slots = [
        lambda: rng.choice(exact_urls),
        lambda: f"{rng.choice(prefix_urls)}/{rng.choice(WORDS)}",
        lambda: f"/reports/{rng.choice(WORDS)}.{rng.choice(ext_names)}",
        lambda: rng.choice(annotated[0])[0],
        lambda: rng.choice(annotated[1])[0],
        lambda: prefix_url(rng.choice(annotated[2])[0]),
        lambda: prefix_url(rng.choice(annotated[3])[0]),
        lambda: rng.choice(paths),
        lambda: f"/legacy/{rng.choice(WORDS)}/{rng.randrange(1000)}",
        lambda: rng.choice(view_urls),
    ]
    tags = ["a-href", "form", "c:url", "a-href", "jsp:include",
            "a-href", "form", "a-href", "c:redirect", "a-href"]
    refs: list[Ref] = []
    for i, page in enumerate(paths):
        body = []
        seen: set[tuple[str, str | None]] = set()
        for slot, make in enumerate(slots):
            while True:
                url = make()
                if url == page:
                    continue
                kind, target = container.resolve(page, tags[slot], url)
                if (tags[slot], target) not in seen:
                    break
            seen.add((tags[slot], target))
            refs.append(Ref(page, tags[slot], url, kind, target))
            body.append(_tag(tags[slot], url, rng, slot))
        files["app" + page] = _page(f"View {i}", body, rng)
    return App("descriptor-heavy", files, paths, refs, args=["--source-root", "java"])


# -- hostile-pages ------------------------------------------------------------------


def _plain_page(rng: random.Random, size: int, links: list[str]) -> str:
    """About ``size`` bytes of ordinary markup with ``links`` spread through."""
    rows: list[str] = ["<html><body>"]
    total = 0
    every = max(1, size // (len(links) + 1) // 160)
    row = 0
    pending = list(links)
    while total < size:
        cells = "".join(f'<td class="c{j}">{_words(rng, 2)}</td>' for j in range(3))
        line = f"<tr id=\"r{row}\">{cells}</tr>"
        if pending and row % every == 0:
            line += f'<a href="{pending.pop(0)}">{_words(rng, 2)}</a>'
        rows.append(line)
        total += len(line) + 1
        row += 1
    for url in pending:
        rows.append(f'<a href="{url}">more</a>')
    rows.append("</body></html>")
    return "\n".join(rows) + "\n"


def hostile_pages(seed: int) -> App:
    """Adversarial pages for the parser: size, unterminated tags, deep nesting.

    jspkdm is meant to analyse every page (its parser folds an unclosed action
    flat), so each page and each of its links counts as an operation. Today the deep pages raise
    ``RecursionError`` (ROADMAP item 3), and the unterminated-tag pages cost
    time quadratic in the tag count.
    """
    rng = random.Random(seed)
    files: dict[str, str] = {}
    refs: list[Ref] = []

    def page(path: str, text: str, links: list[tuple[str, str]]) -> None:
        files["pages" + path] = text
        refs.extend(Ref(path, tag, url, EXTRACTED, None) for tag, url in links)

    links = [f"/catalog/{rng.choice(WORDS)}{n}.jsp" for n in range(600)]
    page("/big.jsp", _plain_page(rng, HOSTILE_PLAIN_BYTES, links), [("a-href", u) for u in links])
    for n in range(2):
        links = [f"/help/{rng.choice(WORDS)}{n}{m}.jsp" for m in range(4)]
        head = "".join(f'<p><a href="{u}">{_words(rng, 2)}</a></p>\n' for u in links)
        # No ">" anywhere after the first unterminated tag: each "<" that
        # opens one is scanned to the end of the page.
        # Attribute-like tokens never repeat, so the scan meets no duplicate.
        tail = " ".join(f"<td{m} w{m}" for m in range(HOSTILE_OPEN_TAGS))
        page(f"/open{n}.jsp", head + tail + "\n", [("a-href", u) for u in links])
    for n, closed in enumerate((True, False)):
        inner = f"/deep/{rng.choice(WORDS)}{n}.jsp"
        opens = "".join(f'<c:if test="${{v{m % 10}}}">' for m in range(HOSTILE_DEPTH))
        closes = "</c:if>" * HOSTILE_DEPTH if closed else ""
        text = (f'<a href="/deep/top{n}.jsp">top</a>\n'
                + opens + f'<c:url value="{inner}" />' + closes + "\n")
        page(f"/deep{n}.jsp", text, [("a-href", f"/deep/top{n}.jsp"), ("c:url", inner)])
    paths = sorted("/" + rel.split("/", 1)[1] for rel in files)
    return App("hostile-pages", files, paths, refs, root="pages", per_page=True)


GENERATORS = {
    "linked-site": linked_site,
    "script-heavy": script_heavy,
    "descriptor-heavy": descriptor_heavy,
    "hostile-pages": hostile_pages,
}
