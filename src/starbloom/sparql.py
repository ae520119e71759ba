"""Parser for the supported SPARQL subset: PREFIX declarations and
SELECT [DISTINCT] (*|vars) WHERE { triple patterns }."""

from __future__ import annotations

import re
from typing import Optional

from .model import PatternTerm, Query, TriplePattern, Variable, iri, literal
from .ntriples import IRI_PATTERN, LITERAL_PATTERN, parse_term

XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"
XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"

UNSUPPORTED_KEYWORDS = {
    "OPTIONAL", "FILTER", "UNION", "GRAPH", "SERVICE", "MINUS", "VALUES",
    "BIND", "EXISTS", "LIMIT", "OFFSET", "ORDER", "GROUP", "HAVING",
    "ASK", "CONSTRUCT", "DESCRIBE", "INSERT", "DELETE",
}


class QueryParseError(ValueError):
    """A malformed query; ``line`` and ``column`` (1-based) locate the
    offending token, found at ``offset`` in the query ``text``."""

    def __init__(self, message: str, text: str, offset: int):
        self.line = text.count("\n", 0, offset) + 1
        self.column = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{self.line}:{self.column}: {message}")


class UnsupportedFeatureError(QueryParseError):
    def __init__(self, keyword: str, text: str, offset: int):
        super().__init__(f"unsupported feature: {keyword}", text, offset)
        self.keyword = keyword


PREFIX_NAME = "[A-Za-z][A-Za-z0-9_-]*:"
# a local part starts with a letter, digit or "_", and may hold "." but not
# end with it: "ex:o." is "ex:o" and a "."
_TOKEN = re.compile(
    rf"""
    (?P<skip>\s+|\#[^\n]*)
  | (?P<iri>{IRI_PATTERN})
  | (?P<literal>{LITERAL_PATTERN})
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>[+-]?\d+(?:\.\d+)?)
  | (?P<pname>{PREFIX_NAME}(?:[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{{}}.*;,])
    """,
    re.VERBOSE,
)


class _Tokens:
    """The query's tokens, without whitespace and comments, and where each starts."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str] = []
        self.offsets: list[int] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise QueryParseError(f"cannot tokenize query near {text[pos:pos + 20]!r}",
                                      text, pos)
            if m.lastgroup != "skip":
                self.tokens.append(m.group())
                self.offsets.append(pos)
            pos = m.end()
        self.offsets.append(len(text))  # errors at the end of the query point here
        self.pos = 0

    def error(self, message: str, index: int) -> QueryParseError:
        """An error located at token ``index`` (the end of the query past the last)."""
        return QueryParseError(message, self.text, self.offsets[index])

    def check_supported(self, index: int) -> None:
        word = self.tokens[index].upper()
        if word in UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeatureError(word, self.text, self.offsets[index])

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of query", self.pos)
        self.pos += 1
        return tok

    def expect(self, word: str) -> None:
        tok = self.next()
        if tok.upper() != word:
            raise self.error(f"expected {word}, found {tok!r}", self.pos - 1)


def _read_term(ts: _Tokens, prefixes: dict[str, str]) -> PatternTerm:
    index = ts.pos
    tok = ts.next()
    ts.check_supported(index)
    if tok.startswith("?"):
        return Variable(tok[1:])
    if tok[0] in '<"':
        try:
            return parse_term(tok)
        except ValueError as e:
            raise ts.error(str(e), index) from None
    if re.fullmatch(r"[+-]?\d+", tok):
        return literal(tok, datatype=XSD_INTEGER)
    if re.fullmatch(r"[+-]?\d+\.\d+", tok):
        return literal(tok, datatype=XSD_DECIMAL)
    if tok.lower() in ("true", "false"):
        return literal(tok.lower(), datatype=XSD_BOOLEAN)
    if ":" in tok:
        pfx, local = tok.split(":", 1)
        if pfx not in prefixes:
            raise ts.error(f"unknown prefix {pfx!r}", index)
        return iri(prefixes[pfx] + local)
    raise ts.error(f"unexpected token {tok!r} in triple pattern", index)


def parse_query(text: str) -> Query:
    """Parse query text; unsupported SPARQL keywords raise UnsupportedFeatureError."""
    ts = _Tokens(text)
    prefixes: dict[str, str] = {}

    while (ts.peek() or "").upper() == "PREFIX":
        ts.next()
        name = ts.next()
        if not re.fullmatch(PREFIX_NAME, name):
            raise ts.error(f"malformed PREFIX name {name!r}: expected a name ending in ':'",
                           ts.pos - 1)
        pfx = name[:-1]
        target = ts.next()
        if not target.startswith("<"):
            raise ts.error("PREFIX target must be an IRI", ts.pos - 1)
        prefixes[pfx] = target[1:-1]
    if ts.peek() is None:
        raise ts.error("empty query", ts.pos)

    tok = ts.next()
    ts.check_supported(ts.pos - 1)
    if tok.upper() != "SELECT":
        raise ts.error(f"expected SELECT, found {tok!r}", ts.pos - 1)

    distinct = False
    if ts.peek() and ts.peek().upper() == "DISTINCT":
        ts.next()
        distinct = True

    projected_at = ts.pos
    projection: Optional[list[str]] = None
    if ts.peek() == "*":
        ts.next()
    else:
        projection = []
        while ts.peek() and ts.peek().startswith("?"):
            projection.append(ts.next()[1:])
        if not projection:
            raise ts.error("SELECT needs '*' or at least one variable", ts.pos)

    ts.expect("WHERE")
    ts.expect("{")

    patterns: list[TriplePattern] = []
    while True:
        tok = ts.peek()
        if tok is None:
            raise ts.error("unterminated WHERE block", ts.pos)
        if tok == "}":
            ts.next()
            break
        # subject, then predicate-object lists split by ';' (a trailing ';' is
        # allowed), each an object list split by ','
        subject = _read_term(ts, prefixes)
        while True:
            predicate = _read_term(ts, prefixes)
            patterns.append(TriplePattern(subject, predicate, _read_term(ts, prefixes)))
            while ts.peek() == ",":
                ts.next()
                patterns.append(TriplePattern(subject, predicate, _read_term(ts, prefixes)))
            if ts.peek() != ";":
                break
            while ts.peek() == ";":
                ts.next()
            if ts.peek() in (".", "}"):
                break
        if ts.peek() == ".":
            ts.next()

    if ts.peek() is not None:
        ts.check_supported(ts.pos)
        raise ts.error(f"trailing content after WHERE block: {ts.peek()!r}", ts.pos)
    if not patterns:
        raise ts.error("empty basic graph pattern", ts.pos - 1)

    # collect into a set, preserving document order of first occurrence
    seen: set[TriplePattern] = set()
    unique: list[TriplePattern] = []
    for tp in patterns:
        if tp not in seen:
            seen.add(tp)
            unique.append(tp)

    try:
        return Query(bgp=tuple(unique), distinct=distinct,
                     projection=tuple(projection) if projection is not None else None)
    except ValueError as e:  # a projected variable that no pattern binds
        raise ts.error(str(e), projected_at) from None
