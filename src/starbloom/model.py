"""RDF data model: terms, triples, graphs, patterns, and a brute-force evaluator."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Union

IRI = "iri"
BLANK = "blank"
LITERAL = "literal"

# Pseudo-prefixes so non-IRI terms have a total prefix function (used by the
# partitioned filters, which group hashed values by namespace).
LITERAL_PREFIX = "_lit:"
BLANK_PREFIX = "_bn:"


@dataclass(frozen=True, slots=True)
class Term:
    """An RDF term. ``lexical`` is the IRI, blank-node label, or literal value."""

    kind: str
    lexical: str
    datatype: Optional[str] = None
    lang: Optional[str] = None

    @property
    def prefix(self) -> str:
        """Namespace-style prefix: up to and including the last '/' or '#'.

        Falls back to the scheme (up to the last ':') for IRIs without either
        separator. Literals and blank nodes map to reserved pseudo-prefixes.
        """
        if self.kind == LITERAL:
            return LITERAL_PREFIX
        if self.kind == BLANK:
            return BLANK_PREFIX
        s = self.lexical
        cut = max(s.rfind("/"), s.rfind("#"))
        if cut < 0:
            cut = s.rfind(":")
        if cut < 0:
            return s
        return s[: cut + 1]

    def nt(self) -> str:
        """Render in N-Triples syntax."""
        if self.kind == IRI:
            return f"<{self.lexical}>"
        if self.kind == BLANK:
            return f"_:{self.lexical}"
        body = f'"{escape_literal(self.lexical)}"'
        if self.lang:
            return f"{body}@{self.lang}"
        if self.datatype:
            return f"{body}^^<{self.datatype}>"
        return body

    def filter_key(self) -> tuple[str, str]:
        """(partition prefix, hashed string) pair for Bloom filter insertion."""
        return self.prefix, self.nt()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.nt()


def iri(value: str) -> Term:
    return Term(IRI, value)


def blank(label: str) -> Term:
    return Term(BLANK, label)


def literal(value: str, datatype: Optional[str] = None, lang: Optional[str] = None) -> Term:
    return Term(LITERAL, value, datatype, lang)


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def escape_literal(value: str) -> str:
    return "".join(_ESCAPES.get(c, c) for c in value)


# The one-character escapes (ECHAR) that N-Triples and SPARQL literals share.
LITERAL_UNESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
                     '"': '"', "'": "'", "\\": "\\"}


@dataclass(frozen=True, slots=True)
class Variable:
    name: str  # without the leading '?'

    def nt(self) -> str:
        return f"?{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"?{self.name}"


PatternTerm = Union[Term, Variable]


@dataclass(frozen=True, slots=True)
class Triple:
    s: Term
    p: Term
    o: Term

    def __post_init__(self) -> None:
        if self.s.kind == LITERAL:
            raise ValueError("triple subject cannot be a literal")
        if self.p.kind != IRI:
            raise ValueError("triple predicate must be an IRI")

    def nt(self) -> str:
        return f"{self.s.nt()} {self.p.nt()} {self.o.nt()} ."

    def sort_key(self) -> tuple[str, str, str]:
        return (self.s.nt(), self.p.nt(), self.o.nt())


class KnowledgeGraph:
    """An immutable set of triples, indexed by subject in ``Term.nt()`` order
    with each subject's triples in ``Triple.sort_key`` order. A (predicate,
    object) -> subjects index, in the same subject order, is built on first use.
    """

    __slots__ = ("triples", "_subjects", "_by_subject", "_by_pred_obj")

    def __init__(self, triples: Iterable[Triple] = ()):
        self.triples: frozenset[Triple] = frozenset(triples)
        by_subject: dict[Term, list[Triple]] = {}
        for t in self.triples:
            by_subject.setdefault(t.s, []).append(t)
        self._subjects = tuple(sorted(by_subject, key=Term.nt))
        self._by_subject = {s: tuple(sorted(by_subject[s], key=Triple.sort_key))
                            for s in self._subjects}
        self._by_pred_obj: Optional[dict[tuple[Term, Term], tuple[Term, ...]]] = None

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self.triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KnowledgeGraph) and self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

    def subjects(self) -> tuple[Term, ...]:
        """Every subject, in ``Term.nt()`` order."""
        return self._subjects

    def triples_with_subject(self, s: Term) -> tuple[Triple, ...]:
        return self._by_subject.get(s, ())

    def subjects_with(self, p: Term, o: Term) -> tuple[Term, ...]:
        """Subjects of the triples ``(?, p, o)``, in ``Term.nt()`` order.

        The index behind it is built on the first call.
        """
        if self._by_pred_obj is None:
            index: dict[tuple[Term, Term], list[Term]] = {}
            for s, ts in self._by_subject.items():
                for t in ts:
                    index.setdefault((t.p, t.o), []).append(s)
            self._by_pred_obj = {key: tuple(ss) for key, ss in index.items()}
        return self._by_pred_obj.get((p, o), ())

    def sorted_triples(self) -> list[Triple]:
        """Every triple in ``Triple.sort_key`` order, one subject after another."""
        return list(chain.from_iterable(self._by_subject.values()))


@dataclass(frozen=True, slots=True)
class TriplePattern:
    s: PatternTerm
    p: PatternTerm
    o: PatternTerm

    def terms(self) -> tuple[PatternTerm, PatternTerm, PatternTerm]:
        return (self.s, self.p, self.o)

    def variables(self) -> set[str]:
        return {t.name for t in self.terms() if isinstance(t, Variable)}

    def nt(self) -> str:
        return f"{self.s.nt()} {self.p.nt()} {self.o.nt()} ."

    def sort_key(self) -> tuple[str, str, str]:
        return (self.s.nt(), self.p.nt(), self.o.nt())


BGP = tuple  # tuple[TriplePattern, ...]; order follows the source document


def bgp_variables(patterns: Iterable[TriplePattern]) -> set[str]:
    out: set[str] = set()
    for tp in patterns:
        out |= tp.variables()
    return out


@dataclass(frozen=True)
class StarPattern:
    """Triple patterns sharing one subject term or variable."""

    subject: PatternTerm
    patterns: tuple[TriplePattern, ...]

    def __post_init__(self) -> None:
        for tp in self.patterns:
            if tp.s != self.subject:
                raise ValueError("star pattern requires a common subject")
        # the star is frozen, and planning asks for these in its inner loops
        object.__setattr__(self, "_key", self.subject.nt())
        object.__setattr__(self, "_variables", frozenset(bgp_variables(self.patterns)))

    @property
    def key(self) -> str:
        """Stable identifier (the subject's rendering)."""
        return self._key

    def variables(self) -> frozenset[str]:
        return self._variables

    def predicates(self) -> tuple[str, ...]:
        """Sorted non-variable predicate IRIs."""
        return tuple(sorted({tp.p.lexical for tp in self.patterns if isinstance(tp.p, Term)}))

    def __len__(self) -> int:
        return len(self.patterns)


def star_decompose(patterns: Iterable[TriplePattern]) -> list[StarPattern]:
    """Group a BGP into one star per distinct subject. Union of stars equals the BGP."""
    pats = list(patterns)
    if not pats:
        raise ValueError("cannot decompose an empty BGP")
    by_subject: dict[PatternTerm, list[TriplePattern]] = {}
    for tp in pats:
        by_subject.setdefault(tp.s, []).append(tp)
    stars = [StarPattern(s, tuple(ps)) for s, ps in by_subject.items()]
    stars.sort(key=lambda st: st.key)
    return stars


@dataclass(frozen=True)
class Query:
    """A parsed SELECT query over the supported subset."""

    bgp: tuple[TriplePattern, ...]
    distinct: bool = False
    projection: Optional[tuple[str, ...]] = None  # None means '*'

    def __post_init__(self) -> None:
        if self.projection is not None:
            missing = set(self.projection) - bgp_variables(self.bgp)
            if missing:
                raise ValueError(f"projection variables not in pattern: {sorted(missing)}")

    def variables(self) -> tuple[str, ...]:
        if self.projection is not None:
            return self.projection
        return tuple(sorted(bgp_variables(self.bgp)))


Binding = dict[str, Term]  # solution mapping: variable name -> term


def _match_term(pattern: PatternTerm, value: Term, binding: Binding) -> Optional[Binding]:
    if isinstance(pattern, Variable):
        bound = binding.get(pattern.name)
        if bound is None:
            new = dict(binding)
            new[pattern.name] = value
            return new
        return binding if bound == value else None
    return binding if pattern == value else None


def _match_pattern(tp: TriplePattern, triple: Triple, binding: Binding) -> Optional[Binding]:
    b = _match_term(tp.s, triple.s, binding)
    if b is None:
        return None
    b = _match_term(tp.p, triple.p, b)
    if b is None:
        return None
    return _match_term(tp.o, triple.o, b)


def _resolve(term: PatternTerm, binding: Binding) -> Optional[Term]:
    """The term a pattern position is fixed to under ``binding``, if any."""
    if isinstance(term, Variable):
        return binding.get(term.name)
    return term


def _seek_subjects(star: StarPattern, graph: KnowledgeGraph, binding: Binding) -> tuple[Term, ...]:
    """Candidate subjects for a star whose subject is unbound, in ``Term.nt()``
    order: the shortest (predicate, object) posting list among the patterns
    that fix both, else every subject of the graph."""
    best: Optional[tuple[Term, ...]] = None
    for tp in star.patterns:
        p = _resolve(tp.p, binding)
        o = _resolve(tp.o, binding)
        if p is None or o is None:
            continue
        subjects = graph.subjects_with(p, o)
        if best is None or len(subjects) < len(best):
            best = subjects
    return graph.subjects() if best is None else best


def match_star(star: StarPattern, graph: KnowledgeGraph, seed: Optional[Binding] = None) -> list[Binding]:
    """All bindings extending ``seed`` that satisfy every pattern of the star in ``graph``.

    Rows come in the order of a scan over ``graph.sorted_triples()``: an
    unbound subject is sought through the graph's indexes, subjects in
    ``Term.nt()`` order, and each subject's triples are already sorted.
    """
    results: list[Binding] = []
    binding = dict(seed or {})
    patterns = star.patterns
    if not patterns:
        return [binding]

    def walk(i: int, binding: Binding, triples: tuple[Triple, ...]) -> None:
        if i == len(patterns):
            results.append(binding)
            return
        tp = patterns[i]
        for triple in triples:
            b = _match_pattern(tp, triple, binding)
            if b is not None:
                walk(i + 1, b, triples)

    subject = _resolve(star.subject, binding)
    if subject is not None:
        walk(0, binding, graph.triples_with_subject(subject))
    else:
        for s in _seek_subjects(star, graph, binding):
            walk(0, binding, graph.triples_with_subject(s))
    return results


def evaluate_bgp(
    patterns: Iterable[TriplePattern],
    graph: KnowledgeGraph,
    distinct: bool = False,
    projection: Optional[tuple[str, ...]] = None,
) -> list[Binding]:
    """Brute-force BGP evaluation; the ground-truth oracle for everything else.

    Without DISTINCT the result is a bag over the projected variables (full
    solutions are naturally duplicate-free; projection may introduce
    duplicates). With DISTINCT, duplicate projected rows collapse.
    """
    pats = sorted(patterns, key=TriplePattern.sort_key)
    solutions: list[Binding] = [{}]
    for tp in pats:
        next_solutions: list[Binding] = []
        for binding in solutions:
            subj = tp.s
            if isinstance(subj, Variable) and subj.name in binding:
                pool: Iterable[Triple] = graph.triples_with_subject(binding[subj.name])
            elif isinstance(subj, Term):
                pool = graph.triples_with_subject(subj)
            else:
                pool = graph.sorted_triples()
            for triple in pool:
                b = _match_pattern(tp, triple, binding)
                if b is not None:
                    next_solutions.append(b)
        solutions = next_solutions
        if not solutions:
            break
    return project_bindings(solutions, distinct=distinct, projection=projection)


def project_bindings(
    rows: Iterable[Binding],
    distinct: bool = False,
    projection: Optional[tuple[str, ...]] = None,
) -> list[Binding]:
    """Apply projection and, when requested, duplicate elimination."""
    out: list[Binding] = []
    for row in rows:
        if projection is None:
            out.append(dict(row))
        else:
            out.append({v: row[v] for v in projection if v in row})
    if distinct:
        seen: set[tuple[tuple[str, str], ...]] = set()
        deduped = []
        for row in out:
            key = binding_key(row)
            if key not in seen:
                seen.add(key)
                deduped.append(row)
        return deduped
    return out


def binding_key(row: Binding) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((v, t.nt()) for v, t in row.items()))


def bindings_multiset(rows: Iterable[Binding]) -> dict[tuple[tuple[str, str], ...], int]:
    """Multiset view of a result list, for order-insensitive comparison."""
    counts: dict[tuple[tuple[str, str], ...], int] = {}
    for row in rows:
        key = binding_key(row)
        counts[key] = counts.get(key, 0) + 1
    return counts
