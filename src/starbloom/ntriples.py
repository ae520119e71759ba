"""N-Triples reading and writing (one triple per line, dot-terminated)."""

from __future__ import annotations

from typing import IO, Iterable, Union

from .model import (BLANK, IRI, LITERAL_UNESCAPES, KnowledgeGraph, Term, Triple,
                    blank, iri, literal)


class NTriplesError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line




class _LineScanner:
    def __init__(self, text: str, lineno: int):
        self.text = text
        self.pos = 0
        self.lineno = lineno

    def error(self, message: str) -> NTriplesError:
        return NTriplesError(message, self.lineno)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def read_iri(self) -> Term:
        self.expect("<")
        end = self.text.find(">", self.pos)
        if end < 0:
            raise self.error("unterminated IRI")
        value = self.text[self.pos:end]
        if " " in value or "<" in value:
            raise self.error(f"malformed IRI <{value}>")
        if ":" not in value:
            raise self.error(f"IRI is not absolute: <{value}>")
        self.pos = end + 1
        return iri(value)

    def read_blank(self) -> Term:
        self.expect("_")
        self.expect(":")
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] in "_-."):
            self.pos += 1
        if self.pos == start:
            raise self.error("empty blank node label")
        return blank(self.text[start:self.pos])

    def read_literal(self) -> Term:
        self.expect('"')
        chars: list[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated literal")
            c = self.text[self.pos]
            self.pos += 1
            if c == '"':
                break
            if c == "\\":
                if self.at_end():
                    raise self.error("unterminated escape")
                esc = self.text[self.pos]
                self.pos += 1
                if esc in LITERAL_UNESCAPES:
                    chars.append(LITERAL_UNESCAPES[esc])
                elif esc == "u" or esc == "U":
                    width = 4 if esc == "u" else 8
                    code = self.text[self.pos:self.pos + width]
                    if len(code) != width:
                        raise self.error("truncated unicode escape")
                    try:
                        chars.append(chr(int(code, 16)))
                    except ValueError:
                        raise self.error(f"bad unicode escape \\{esc}{code}") from None
                    self.pos += width
                else:
                    raise self.error(f"unknown escape \\{esc}")
            else:
                chars.append(c)
        value = "".join(chars)
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "-"):
                self.pos += 1
            if self.pos == start:
                raise self.error("empty language tag")
            return literal(value, lang=self.text[start:self.pos])
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            dt = self.read_iri()
            return literal(value, datatype=dt.lexical)
        return literal(value)

    def read_term(self) -> Term:
        c = self.peek()
        if c == "<":
            return self.read_iri()
        if c == "_":
            return self.read_blank()
        if c == '"':
            return self.read_literal()
        raise self.error(f"unexpected character {c!r}")


def parse_ntriples(source: Union[str, bytes, IO]) -> KnowledgeGraph:
    """Parse N-Triples text into a graph; duplicate lines collapse (set semantics)."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    triples: set[Triple] = set()
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        sc = _LineScanner(line, lineno)
        s = sc.read_term()
        if s.kind not in (IRI, BLANK):
            raise sc.error("subject must be an IRI or blank node")
        sc.skip_ws()
        p = sc.read_term()
        if p.kind != IRI:
            raise sc.error("predicate must be an IRI")
        sc.skip_ws()
        o = sc.read_term()
        sc.skip_ws()
        if sc.peek() != ".":
            raise sc.error("missing terminating '.'")
        sc.pos += 1
        sc.skip_ws()
        if not sc.at_end() and not sc.text[sc.pos:].lstrip().startswith("#"):
            raise sc.error("trailing content after '.'")
        triples.add(Triple(s, p, o))
    return KnowledgeGraph(triples)


def serialize_ntriples(graph_or_triples: Union[KnowledgeGraph, Iterable[Triple]]) -> str:
    """Deterministic (sorted) N-Triples rendering."""
    if isinstance(graph_or_triples, KnowledgeGraph):
        triples = graph_or_triples.sorted_triples()
    else:
        triples = sorted(graph_or_triples, key=Triple.sort_key)
    return "".join(t.nt() + "\n" for t in triples)
