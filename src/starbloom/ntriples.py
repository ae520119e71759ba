"""N-Triples reading and writing (one triple per line, dot-terminated), and the
RDF term grammar that N-Triples and the SPARQL lexer share."""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .model import (IRI, LITERAL, LITERAL_UNESCAPES, KnowledgeGraph, Term, Triple,
                    blank, iri, literal)

# The term grammar (W3C RDF 1.1 N-Triples, section 7): IRIREF, a quoted
# literal with an optional language tag or datatype, and a blank-node label,
# which may hold but not end in '.'.
IRI_PATTERN = r"<[^<>\s]*>"
LITERAL_PATTERN = r'"(?:[^"\\]|\\.)*"(?:@[A-Za-z][A-Za-z0-9-]*|\^\^' + IRI_PATTERN + ")?"
BLANK_PATTERN = r"_:[\w.-]*[\w-]"

# Spaces and tabs, then one term; group 1 is None where no term starts.
_TERM = re.compile(rf"[ \t]*({IRI_PATTERN}|{LITERAL_PATTERN}|{BLANK_PATTERN})?")
# Exactly one term, for the tokens of a line split at single spaces.
_WHOLE_TERM = re.compile(rf"{IRI_PATTERN}|{LITERAL_PATTERN}|{BLANK_PATTERN}")
_ESCAPE_SEQUENCE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)", re.DOTALL)
_LINE_END = re.compile(r"\r\n?|\n")


class NTriplesError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def unescape(body: str) -> str:
    r"""Decode a literal body's escapes: \uXXXX and \UXXXXXXXX take hex digits
    only, and the one-character escapes (ECHAR) are ``LITERAL_UNESCAPES``.
    Any other escape raises ValueError; other characters stay as written."""

    def decode(m: re.Match) -> str:
        esc = m.group(1)
        if esc in LITERAL_UNESCAPES:
            return LITERAL_UNESCAPES[esc]
        if esc[0] not in "uU":
            raise ValueError(f"unknown escape \\{esc}")
        try:
            return chr(int(esc[1:], 16))
        except (ValueError, OverflowError):  # no hex digits, or beyond U+10FFFF
            raise ValueError(f"bad unicode escape \\{esc}") from None

    return _ESCAPE_SEQUENCE.sub(decode, body)


def parse_term(token: str) -> Term:
    """The term an IRI, literal or blank-node token of the grammar above
    denotes; a bad escape in a literal raises ValueError."""
    if token[0] == "<":
        return iri(token[1:-1])
    if token[0] == "_":
        return blank(token[2:])
    if token[-1] == ">":  # "..."^^<datatype>; the datatype holds no '<'
        cut = token.rindex("<")
        return literal(unescape(token[1:cut - 3]), datatype=token[cut + 1:-1])
    if token[-1] != '"':  # "..."@lang; the tag holds no '@'
        cut = token.rindex("@")
        return literal(unescape(token[1:cut - 1]), lang=token[cut + 1:])
    return literal(unescape(token[1:-1]))


def _no_term(line: str, pos: int) -> str:
    """The error for a position where no term starts."""
    if line.startswith("<", pos):
        end = line.find(">", pos)
        return "unterminated IRI" if end < 0 else f"malformed IRI {line[pos:end + 1]}"
    if line.startswith('"', pos):
        return "unterminated literal"
    if line.startswith("_", pos):
        return "empty blank node label" if line.startswith("_:", pos) else "expected ':'"
    return f"unexpected character {line[pos:pos + 1]!r}"


def _term_of(token: str) -> Term:
    """The term of a token of the grammar above; a bad escape or an IRI that
    is not absolute raises ValueError."""
    t = parse_term(token)
    named = t.lexical if t.kind == IRI else t.datatype
    if named is not None and ":" not in named:
        raise ValueError(f"IRI is not absolute: <{named}>")
    return t


def _read_term(line: str, pos: int, lineno: int, terms: dict[str, Term]) -> tuple[Term, int]:
    """The term after ``pos`` and the position after it. ``terms`` holds the
    term of every token read so far with the same table."""
    m = _TERM.match(line, pos)
    token = m.group(1)
    if token is None:
        raise NTriplesError(_no_term(line, m.end()), lineno)
    if token[0] == '"' and line.startswith(("@", "^^"), m.end()):  # a suffix it did not take
        raise NTriplesError("malformed language tag" if line[m.end()] == "@"
                            else _no_term(line, m.end() + 2), lineno)
    t = terms.get(token)
    if t is None:
        try:
            t = terms[token] = _term_of(token)
        except ValueError as e:
            raise NTriplesError(str(e), lineno) from None
    return t, m.end()


def _read_line(line: str, lineno: int, terms: dict[str, Term]) -> Optional[Triple]:
    """The triple of any line, term by term, or None for a blank or comment
    line. Every parse error comes from here."""
    line = line.strip()
    if not line or line[0] == "#":
        return None
    s, pos = _read_term(line, 0, lineno, terms)
    if s.kind == LITERAL:
        raise NTriplesError("subject must be an IRI or blank node", lineno)
    p, pos = _read_term(line, pos, lineno, terms)
    if p.kind != IRI:
        raise NTriplesError("predicate must be an IRI", lineno)
    o, pos = _read_term(line, pos, lineno, terms)
    rest = line[pos:].lstrip(" \t")
    if rest[:1] != ".":
        raise NTriplesError("missing terminating '.'", lineno)
    if rest[1:].lstrip()[:1] not in ("", "#"):
        raise NTriplesError("trailing content after '.'", lineno)
    return Triple(s, p, o)


def _split_term(token: str, terms: dict[str, Term]) -> Optional[Term]:
    """The term of a token that ``_read_line`` would read as a whole, or None
    where it would read another token or raise."""
    t = terms.get(token)
    if t is None and _WHOLE_TERM.fullmatch(token):
        try:
            t = terms[token] = _term_of(token)
        except ValueError:
            return None
    return t


def parse_ntriples(source: str, terms: Optional[dict[str, Term]] = None) -> KnowledgeGraph:
    """Parse decoded N-Triples text into a graph; duplicate lines collapse (set
    semantics). Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only, so a literal may
    hold any other line-separator character.

    A line as ``serialize_ntriples`` writes it (three terms separated by single
    spaces, then `` .``) is split in one call; any other line, and one whose
    split yields a token that is not one whole valid term or a term of the
    wrong kind, is read term by term, which gives the same triple or the
    error. ``terms`` maps token text to its term, so each distinct token is
    built once per table; by default the table lives for this parse only."""
    if terms is None:
        terms = {}
    triples: set[Triple] = set()
    for lineno, line in enumerate(_LINE_END.split(source), start=1):
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[2][-2:] == " .":
            s = _split_term(parts[0], terms)
            if s is not None and s.kind != LITERAL:
                p = _split_term(parts[1], terms)
                if p is not None and p.kind == IRI:
                    o = _split_term(parts[2][:-2], terms)
                    if o is not None:
                        triples.add(Triple(s, p, o))
                        continue
        triple = _read_line(line, lineno, terms)
        if triple is not None:
            triples.add(triple)
    return KnowledgeGraph(triples)


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Deterministic (sorted) N-Triples rendering of triples or of a graph,
    which iterates its triples."""
    return "".join(t.nt() + "\n" for t in sorted(triples, key=Triple.sort_key))
