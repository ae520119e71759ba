"""Parser for the supported SPARQL subset: PREFIX declarations and
SELECT [DISTINCT] (*|vars) WHERE { triple patterns }."""

from __future__ import annotations

import re
from typing import Optional

from .model import (LITERAL_UNESCAPES, PatternTerm, Query, Term, TriplePattern,
                    Variable, iri, literal)

XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"
XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"

UNSUPPORTED_KEYWORDS = {
    "OPTIONAL", "FILTER", "UNION", "GRAPH", "SERVICE", "MINUS", "VALUES",
    "BIND", "EXISTS", "LIMIT", "OFFSET", "ORDER", "GROUP", "HAVING",
    "ASK", "CONSTRUCT", "DESCRIBE", "INSERT", "DELETE",
}


class QueryParseError(ValueError):
    pass


class UnsupportedFeatureError(QueryParseError):
    def __init__(self, keyword: str):
        super().__init__(f"unsupported feature: {keyword}")
        self.keyword = keyword


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<iri><[^<>\s]*>)
  | (?P<literal>"(?:[^"\\]|\\.)*"(?:@[A-Za-z][A-Za-z0-9-]*|\^\^<[^<>\s]*>)?)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>[+-]?\d+(?:\.\d+)?)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_-]*:[A-Za-z0-9_.\-]*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}.*;,])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise QueryParseError(f"cannot tokenize query near {text[pos:pos + 20]!r}")
        pos = m.end()
        if m.lastgroup in ("ws", "comment"):
            continue
        tokens.append(m.group())
    return tokens


class _Tokens:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise QueryParseError("unexpected end of query")
        self.pos += 1
        return tok

    def expect_keyword(self, word: str) -> None:
        tok = self.next()
        if tok.upper() != word:
            raise QueryParseError(f"expected {word}, found {tok!r}")

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise QueryParseError(f"expected {tok!r}, found {got!r}")


def _check_unsupported(token: str) -> None:
    if token.upper() in UNSUPPORTED_KEYWORDS:
        raise UnsupportedFeatureError(token.upper())


_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)


def _unescape(body: str) -> str:
    r"""Decode the literal escapes the parser supports: \uXXXX, \UXXXXXXXX and
    the N-Triples one-character escapes (\t \b \n \r \f \" \' \\). Any
    other escape is an error; other characters stay as written."""

    def decode(m: re.Match) -> str:
        code = m.group(1) or m.group(2)
        if code is not None:
            try:
                return chr(int(code, 16))
            except ValueError:  # beyond U+10FFFF
                raise QueryParseError(f"bad unicode escape {m.group()!r}") from None
        if m.group(3) not in LITERAL_UNESCAPES:
            raise QueryParseError(f"unsupported escape {m.group()!r} in literal")
        return LITERAL_UNESCAPES[m.group(3)]

    return _ESCAPE.sub(decode, body)


def _parse_term(tok: str, prefixes: dict[str, str]) -> Term:
    if tok.startswith("<"):
        return iri(tok[1:-1])
    if tok.startswith('"'):
        m = re.match(r'"((?:[^"\\]|\\.)*)"(?:@([A-Za-z][A-Za-z0-9-]*)|\^\^<([^<>\s]*)>)?$', tok)
        if m is None:
            raise QueryParseError(f"malformed literal {tok!r}")
        value = _unescape(m.group(1))
        return literal(value, datatype=m.group(3), lang=m.group(2))
    if re.fullmatch(r"[+-]?\d+", tok):
        return literal(tok, datatype=XSD_INTEGER)
    if re.fullmatch(r"[+-]?\d+\.\d+", tok):
        return literal(tok, datatype=XSD_DECIMAL)
    if tok.lower() in ("true", "false"):
        return literal(tok.lower(), datatype=XSD_BOOLEAN)
    if ":" in tok:
        pfx, local = tok.split(":", 1)
        if pfx not in prefixes:
            raise QueryParseError(f"unknown prefix {pfx!r}")
        return iri(prefixes[pfx] + local)
    _check_unsupported(tok)
    raise QueryParseError(f"unexpected token {tok!r} in triple pattern")


def _read_term(ts: _Tokens, prefixes: dict[str, str]) -> PatternTerm:
    tok = ts.next()
    _check_unsupported(tok)
    if tok.startswith("?"):
        return Variable(tok[1:])
    return _parse_term(tok, prefixes)


def parse_query(text: str) -> Query:
    """Parse query text; unsupported SPARQL keywords raise UnsupportedFeatureError."""
    ts = _Tokens(_tokenize(text))
    prefixes: dict[str, str] = {}

    while True:
        tok = ts.peek()
        if tok is None:
            raise QueryParseError("empty query")
        if tok.upper() == "PREFIX":
            ts.next()
            name = ts.next()
            if not name.endswith(":"):
                # prefixed-name token may carry the colon already ("dbo:")
                if ":" not in name:
                    raise QueryParseError(f"malformed PREFIX name {name!r}")
            pfx = name.rstrip(":").split(":")[0]
            target = ts.next()
            if not target.startswith("<"):
                raise QueryParseError("PREFIX target must be an IRI")
            prefixes[pfx] = target[1:-1]
            continue
        break

    tok = ts.next()
    _check_unsupported(tok)
    if tok.upper() != "SELECT":
        raise QueryParseError(f"expected SELECT, found {tok!r}")

    distinct = False
    if ts.peek() and ts.peek().upper() == "DISTINCT":
        ts.next()
        distinct = True

    projection: Optional[list[str]] = None
    if ts.peek() == "*":
        ts.next()
    else:
        projection = []
        while ts.peek() and ts.peek().startswith("?"):
            projection.append(ts.next()[1:])
        if not projection:
            raise QueryParseError("SELECT needs '*' or at least one variable")

    ts.expect_keyword("WHERE")
    ts.expect("{")

    patterns: list[TriplePattern] = []
    while True:
        tok = ts.peek()
        if tok is None:
            raise QueryParseError("unterminated WHERE block")
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
        _check_unsupported(ts.peek())
        raise QueryParseError(f"trailing content after WHERE block: {ts.peek()!r}")
    if not patterns:
        raise QueryParseError("empty basic graph pattern")

    # collect into a set, preserving document order of first occurrence
    seen: set[TriplePattern] = set()
    unique: list[TriplePattern] = []
    for tp in patterns:
        if tp not in seen:
            seen.add(tp)
            unique.append(tp)

    return Query(bgp=tuple(unique), distinct=distinct,
                 projection=tuple(projection) if projection is not None else None)
