"""Shared fixtures: the frozen sample pages and the end-to-end webapp tree."""

from __future__ import annotations

from pathlib import Path

import pytest

from jspkdm import TAG_TABLE

# The classic powers-of-two demo page: two scriptlets (loop open/close) and
# three expressions. The delimiter-scan oracle over this exact text is the
# source of the frozen counts asserted in the tests.
POWERS_PAGE = """\
<HTML>
<HEAD><TITLE>Powers of 2</TITLE></HEAD>
<BODY>
<CENTER>
<H2>Behold The Powers Of 2</H2>
</CENTER>
<TABLE BORDER="2" ALIGN="center">
<TR><TH>Exponent</TH><TH>2^Exponent</TH></TR>
<% for (int i = 0; i < 10; i++) { %>
<TR>
<TD><%= i %></TD>
<TD><%= (long) Math.pow(2, i) %></TD>
</TR>
<% } %>
<TR><TD>rows</TD><TD><%= 10 %></TD></TR>
</TABLE>
</BODY>
</HTML>
"""

# One occurrence of each of the ten dependency-bearing tag/attribute pairs.
TABLE2_PAGE = """\
<%@ page errorPage="/error.jsp" %>
<%@ include file="/header.jspf" %>
<jsp:directive.page errorPage="/error2.jsp" />
<jsp:directive.include file="/footer.jspf" />
<html>
<body>
<form action="/search" method="post">
<input type="text" name="q">
</form>
<a href="https://www.uqam.ca">UQAM</a>
<jsp:include page="/menu.jsp" flush="true" />
<jsp:forward page="/target.jsp" />
<c:redirect url="/moved.jsp" />
<c:url value="/style.css" var="css" />
</body>
</html>
"""

# Each tag kind's designated attribute, as the extractor's table pairs them.
ATTRIBUTE_OF = dict(TAG_TABLE.values())

TABLE2_PAIRS = [
    ("form", "action"),
    ("jsp:include", "page"),
    ("include-directive", "file"),
    ("jsp:directive.include", "file"),
    ("jsp:forward", "page"),
    ("page-directive-errorPage", "errorPage"),
    ("jsp:directive.page-errorPage", "errorPage"),
    ("a-href", "href"),
    ("c:redirect", "url"),
    ("c:url", "value"),
]


@pytest.fixture
def powers_page() -> str:
    return POWERS_PAGE


@pytest.fixture
def table2_page() -> str:
    return TABLE2_PAGE


_INDEX_JSP = """\
<%@ page errorPage="/error.jsp" %>
<html>
<body>
<jsp:include page="/header.jsp" flush="true" />
<a href="https://www.uqam.ca">UQAM</a>
<a href="detail.jsp?id=3">Detail</a>
<form action="/search" method="get">
<input type="text" name="q">
</form>
</body>
</html>
"""

_HEADER_JSP = '<div>menu <a href="/legacy">legacy</a></div>\n'

_DETAIL_JSP = """\
<html>
<body>
<jsp:forward page="/powers" />
<c:url value="${dynamicTarget}" var="u" />
</body>
</html>
"""

_ERROR_JSP = "<html><body>error</body></html>\n"

_WEB_XML = """\
<?xml version="1.0" encoding="UTF-8"?>
<web-app xmlns="http://java.sun.com/xml/ns/javaee" version="3.0">
  <servlet>
    <servlet-name>powers</servlet-name>
    <jsp-file>/powers.jsp</jsp-file>
  </servlet>
  <servlet>
    <servlet-name>legacy</servlet-name>
    <servlet-class>com.example.LegacyServlet</servlet-class>
  </servlet>
  <servlet-mapping>
    <servlet-name>powers</servlet-name>
    <url-pattern>/powers</url-pattern>
  </servlet-mapping>
  <servlet-mapping>
    <servlet-name>legacy</servlet-name>
    <url-pattern>/legacy</url-pattern>
  </servlet-mapping>
</web-app>
"""

_SEARCH_SERVLET_JAVA = """\
package com.example;

import javax.servlet.annotation.WebServlet;
import javax.servlet.http.HttpServlet;

@WebServlet("/search")
public class SearchServlet extends HttpServlet {
}
"""


def build_fixture_webapp(root: Path) -> Path:
    """Five pages, a descriptor with jsp-file and servlet-class mappings, and
    one annotated servlet class. Hand-traced expectations live in the tests."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "index.jsp").write_text(_INDEX_JSP, encoding="utf-8")
    (root / "header.jsp").write_text(_HEADER_JSP, encoding="utf-8")
    (root / "detail.jsp").write_text(_DETAIL_JSP, encoding="utf-8")
    (root / "powers.jsp").write_text(POWERS_PAGE, encoding="utf-8")
    (root / "error.jsp").write_text(_ERROR_JSP, encoding="utf-8")
    web_inf = root / "WEB-INF"
    web_inf.mkdir(exist_ok=True)
    (web_inf / "web.xml").write_text(_WEB_XML, encoding="utf-8")
    java_dir = web_inf / "src" / "com" / "example"
    java_dir.mkdir(parents=True, exist_ok=True)
    (java_dir / "SearchServlet.java").write_text(_SEARCH_SERVLET_JAVA,
                                                 encoding="utf-8")
    return root


# The hand-traced dependency set for the fixture webapp.
FIXTURE_MODEL_EDGES = {
    ("/detail.jsp", "/powers.jsp", "jsp:forward"),
    ("/index.jsp", "/error.jsp", "page-directive-errorPage"),
    ("/index.jsp", "/header.jsp", "jsp:include"),
    ("/index.jsp", "/detail.jsp", "a-href"),
}

FIXTURE_CLASS_EDGES = {
    ("/index.jsp", "com.example.SearchServlet", "form"),
    ("/header.jsp", "com.example.LegacyServlet", "a-href"),
}

FIXTURE_EXTERNAL_EDGES = {
    ("/index.jsp", "https://www.uqam.ca", "a-href"),
}

FIXTURE_UNRESOLVED = {
    ("/detail.jsp", "${dynamicTarget}", "dynamic"),
}


@pytest.fixture
def fixture_webapp(tmp_path: Path) -> Path:
    return build_fixture_webapp(tmp_path / "webapp")
