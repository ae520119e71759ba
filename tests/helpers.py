"""Shared fixtures: the worked running example (exact-count and real-data
variants) and a generator for small random networks."""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from pathlib import Path
from typing import Iterable, Optional

from starbloom.bloom import BloomParams, ExactBitset, SPBF, ordered_sum
from starbloom.cardinality import PlanContext, card_star
from starbloom.fragments import fragment_by_cs
from starbloom.index import SPBFIndex
from starbloom.model import (IRI, LITERAL, Binding, KnowledgeGraph, Query, StarPattern,
                             Term, Triple, TriplePattern, Variable, _match_pattern, iri,
                             star_decompose)
from starbloom.netsim import Network, NetworkConfig, network_from_layout, place_fragments
from starbloom.ntriples import (BLANK_PATTERN, IRI_PATTERN, LITERAL_PATTERN, NTriplesError,
                                _LINE_END, _no_term, parse_ntriples, parse_term)
from starbloom.planner import (CompatibilityGraph, DPEntry, OptimizeResult, _Planner,
                               _filters_overlap, _vars_overlap, compatibility_graph)
from starbloom.plans import EmptyPlan, Plan, iter_selections
from starbloom.sparql import parse_query

DBO = "http://dbpedia.org/ontology/"
NAT = DBO + "nationality"
AUTH = DBO + "author"
DEATH = DBO + "deathDate"
CAP = DBO + "capital"
CUR = DBO + "currency"
POP = DBO + "population"
PUB = DBO + "publisher"
LANG = DBO + "language"

RUNNING_QUERY = """\
PREFIX dbo: <http://dbpedia.org/ontology/>
SELECT * WHERE {
  ?person dbo:nationality ?country .
  ?person dbo:author ?publication .
  ?country dbo:capital ?capital .
  ?country dbo:currency ?currency .
  ?publication dbo:publisher ?publisher .
  ?publication dbo:language ?language .
}
"""

RUNNING_QUERY_DISTINCT = RUNNING_QUERY.replace("SELECT *", "SELECT DISTINCT *")

# fragment -> characteristic set of the running example
RUNNING_CS = {
    "f1": (AUTH, DEATH, NAT),
    "f2": (AUTH, NAT),
    "f3": (CAP, CUR, POP),
    "f4": (CAP, CUR),
    "f5": (LANG, PUB),
}

# fragment -> holder nodes; n5 replicates f2/f4/f5, joins co-locate on n2/n3
RUNNING_ALLOCATION = {
    "f1": ("n2", "n4"),
    "f2": ("n3", "n5"),
    "f3": ("n3", "n4"),
    "f4": ("n2", "n5"),
    "f5": ("n1", "n5"),
}

# ring topology; n5's neighbors are n2 and n4
RUNNING_TOPOLOGY = {
    "n1": ("n2", "n3"),
    "n2": ("n1", "n5"),
    "n3": ("n1", "n4"),
    "n4": ("n3", "n5"),
    "n5": ("n2", "n4"),
}


def _bag(prefix: str, size: int, shared: tuple[str, ...] = ()) -> ExactBitset:
    items = set(shared)
    i = 0
    while len(items) < size:
        items.add(f"{prefix}{i}")
        i += 1
    return ExactBitset(items)


def exact_running_spbfs() -> dict[str, SPBF]:
    """Star filters whose exact counts equal the running example's published
    cardinality table, including the pairwise intersections."""
    f4_subjects = tuple(f"c{i}" for i in range(200))
    f3_subjects = tuple(f"d{i}" for i in range(100))
    f5_subjects = tuple(f"p{i}" for i in range(8000))
    return {
        "f1": SPBF(_bag("s1_", 1000), {
            NAT: _bag("x1_", 1000, f4_subjects[:50]),     # |∩ f4 subjects| = 50, f3 = 0
            AUTH: _bag("y1_", 5000, f5_subjects[:500]),   # |∩ f5 subjects| = 500
            DEATH: _bag("z1_", 1000),
        }),
        "f2": SPBF(_bag("s2_", 2000), {
            NAT: _bag("x2_", 2000, f3_subjects),          # |∩ f3 subjects| = 100, f4 = 0
            AUTH: _bag("y2_", 3000, f5_subjects[500:1500]),
        }),
        "f3": SPBF(ExactBitset(f3_subjects), {
            CAP: _bag("g3_", 100), CUR: _bag("h3_", 150), POP: _bag("i3_", 100),
        }),
        "f4": SPBF(ExactBitset(f4_subjects), {
            CAP: _bag("g4_", 200), CUR: _bag("h4_", 500),
        }),
        "f5": SPBF(ExactBitset(f5_subjects), {
            PUB: _bag("u5_", 8000), LANG: _bag("v5_", 9000),
        }),
    }


def exact_running_index() -> SPBFIndex:
    return SPBFIndex(exact_running_spbfs(), dict(RUNNING_ALLOCATION))


def running_stars(query: Optional[Query] = None) -> dict[str, StarPattern]:
    q = query or parse_query(RUNNING_QUERY)
    return {st.key: st for st in star_decompose(q.bgp)}


# -- concrete data instantiation ------------------------------------------------

RUNNING_DATA = f"""\
<http://ex/a1> <{NAT}> <http://ex/c_no> .
<http://ex/a1> <{AUTH}> <http://ex/b1> .
<http://ex/a1> <{AUTH}> <http://ex/b2> .
<http://ex/a1> <{DEATH}> "1870-01-01" .
<http://ex/a2> <{NAT}> <http://ex/c_no> .
<http://ex/a2> <{AUTH}> <http://ex/b3> .
<http://ex/a2> <{DEATH}> "1900-06-30" .
<http://ex/a3> <{NAT}> <http://ex/c_fi> .
<http://ex/a3> <{AUTH}> <http://ex/b4> .
<http://ex/a3> <{DEATH}> "1955-03-12" .
<http://ex/a4> <{NAT}> <http://ex/c_dk> .
<http://ex/a4> <{AUTH}> <http://ex/b5> .
<http://ex/a5> <{NAT}> <http://ex/c_se> .
<http://ex/a5> <{AUTH}> <http://ex/b1> .
<http://ex/c_dk> <{CAP}> <http://ex/k_dk> .
<http://ex/c_dk> <{CUR}> <http://ex/m_dkk> .
<http://ex/c_dk> <{POP}> "5900000" .
<http://ex/c_se> <{CAP}> <http://ex/k_se> .
<http://ex/c_se> <{CUR}> <http://ex/m_sek> .
<http://ex/c_se> <{POP}> "10400000" .
<http://ex/c_no> <{CAP}> <http://ex/k_no> .
<http://ex/c_no> <{CUR}> <http://ex/m_nok> .
<http://ex/c_fi> <{CAP}> <http://ex/k_fi> .
<http://ex/c_fi> <{CUR}> <http://ex/m_eur> .
<http://ex/b1> <{PUB}> <http://ex/x1> .
<http://ex/b1> <{LANG}> <http://ex/l1> .
<http://ex/b2> <{PUB}> <http://ex/x2> .
<http://ex/b2> <{LANG}> <http://ex/l2> .
<http://ex/b3> <{PUB}> <http://ex/x3> .
<http://ex/b3> <{LANG}> <http://ex/l3> .
<http://ex/b4> <{PUB}> <http://ex/x4> .
<http://ex/b4> <{LANG}> <http://ex/l4> .
<http://ex/b5> <{PUB}> <http://ex/x5> .
<http://ex/b5> <{LANG}> <http://ex/l5> .
"""


def running_fragments():
    """Fragment the concrete dataset; returns (fragments, cs-name -> id map)."""
    graph = parse_ntriples(RUNNING_DATA)
    frags = fragment_by_cs(graph)
    by_cs = {tuple(sorted(cs)): name for name, cs in RUNNING_CS.items()}
    names = {}
    for f in frags:
        names[f.id] = by_cs[f.cs.predicates]
    return frags, names


def build_running_network(m: int = 20000, k: int = 5) -> tuple[Network, dict[str, str]]:
    """The five-node network holding the concrete dataset, allocated so each
    join pair is co-located as in the worked example. Returns (network,
    fragment id -> f1..f5 name map)."""
    config = NetworkConfig(node_count=5, neighbor_count=2, replication_factor=2,
                           horizon=5, rng_seed=7, bloom=BloomParams(m=m, k=k))
    net = network_from_layout(config, {n: list(v) for n, v in RUNNING_TOPOLOGY.items()})
    frags, names = running_fragments()
    allocation = {f.id: RUNNING_ALLOCATION[names[f.id]] for f in frags}
    place_fragments(net, frags, origin="n1", allocation=allocation)
    return net, names


def example_counts_fixture() -> KnowledgeGraph:
    """Five characteristic sets with subject counts (500, 500, 1000, 2, 1)."""
    triples = []

    def add_subjects(tag, preds, count):
        for i in range(count):
            s = iri(f"http://ex/{tag}{i}")
            for p in preds:
                triples.append(Triple(s, iri(p), iri(f"http://ex/o_{tag}_{i}")))

    add_subjects("a", [NAT, AUTH, DEATH], 500)       # CS1
    add_subjects("b", [NAT, AUTH], 500)              # CS2
    add_subjects("c", [PUB, LANG], 1000)             # CS3
    add_subjects("d", [NAT, AUTH, LANG], 2)          # CS4
    add_subjects("e", [NAT], 1)                      # CS5
    return KnowledgeGraph(triples)


# -- reference implementations ----------------------------------------------------


def reference_match_star(star: StarPattern, graph: KnowledgeGraph,
                         seed: Optional[Binding] = None) -> list[Binding]:
    """Full-scan star matching: an unbound subject walks every triple in
    ``sorted_triples()`` order. Indexed ``match_star`` must return the same
    list in the same order."""
    results: list[Binding] = []

    def candidates(binding: Binding):
        subj = star.subject
        if isinstance(subj, Variable):
            bound = binding.get(subj.name)
            if bound is not None:
                return graph.triples_with_subject(bound)
            return graph.sorted_triples()
        return graph.triples_with_subject(subj)

    def walk(i: int, binding: Binding) -> None:
        if i == len(star.patterns):
            results.append(binding)
            return
        tp = star.patterns[i]
        for triple in candidates(binding):
            b = _match_pattern(tp, triple, binding)
            if b is not None:
                walk(i + 1, b)

    walk(0, dict(seed or {}))
    return results


_REFERENCE_TERM = re.compile(rf"[ \t]*({IRI_PATTERN}|{LITERAL_PATTERN}|{BLANK_PATTERN})?")


def reference_parse_ntriples(source: str) -> KnowledgeGraph:
    """Read every line term by term, each term with one match of one pattern.
    ``parse_ntriples`` must return an equal graph, or raise ``NTriplesError``
    with the same line and message."""
    terms: dict[str, Term] = {}

    def read_term(line: str, pos: int, lineno: int) -> tuple[Term, int]:
        m = _REFERENCE_TERM.match(line, pos)
        token = m.group(1)
        if token is None:
            raise NTriplesError(_no_term(line, m.end()), lineno)
        if token[0] == '"' and line.startswith(("@", "^^"), m.end()):
            raise NTriplesError("malformed language tag" if line[m.end()] == "@"
                                else _no_term(line, m.end() + 2), lineno)
        t = terms.get(token)
        if t is None:
            try:
                t = parse_term(token)
            except ValueError as e:
                raise NTriplesError(str(e), lineno) from None
            named = t.lexical if t.kind == IRI else t.datatype
            if named is not None and ":" not in named:
                raise NTriplesError(f"IRI is not absolute: <{named}>", lineno)
            terms[token] = t
        return t, m.end()

    triples: set[Triple] = set()
    for lineno, line in enumerate(_LINE_END.split(source), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        s, pos = read_term(line, 0, lineno)
        if s.kind == LITERAL:
            raise NTriplesError("subject must be an IRI or blank node", lineno)
        p, pos = read_term(line, pos, lineno)
        if p.kind != IRI:
            raise NTriplesError("predicate must be an IRI", lineno)
        o, pos = read_term(line, pos, lineno)
        rest = line[pos:].lstrip(" \t")
        if rest[:1] != ".":
            raise NTriplesError("missing terminating '.'", lineno)
        if rest[1:].lstrip()[:1] not in ("", "#"):
            raise NTriplesError("trailing content after '.'", lineno)
        triples.add(Triple(s, p, o))
    return KnowledgeGraph(triples)


class _NoCache(dict):
    """A plan-cardinality cache that never stores, so every estimate is
    computed afresh."""

    def __setitem__(self, key, value) -> None:
        pass


def reference_optimize(query: Query, index: SPBFIndex, origin: str) -> OptimizeResult:
    """Eager planning: every star subset is planned up front, in (size, keys)
    order, with no memoized plan cardinalities. The lazy ``optimize`` must
    give the same plan, and ``explain`` the same text."""
    stars = star_decompose(query.bgp)
    compat = compatibility_graph(query, index, query.distinct)
    spbfs = {fid: index.spbf(fid) for fid in index.fragment_ids()}
    ctx = PlanContext(spbfs=spbfs, edges=compat.edges, distinct=query.distinct,
                      card_cache=_NoCache())
    table: dict[frozenset[str], DPEntry] = {}
    if compat.is_empty():
        return OptimizeResult(EmptyPlan(), table, compat, ctx, origin)

    planner = _Planner(compat, index, ctx, origin)
    keys = [st.key for st in stars]
    for size in range(1, len(keys) + 1):
        for subset in itertools.combinations(keys, size):
            table[frozenset(subset)] = planner.subquery(frozenset(subset))
    final = table[frozenset(keys)].plan
    return OptimizeResult(final, table, compat, ctx, origin)


def reference_compatibility_graph(query_or_stars, index: SPBFIndex,
                                  distinct: bool = False) -> CompatibilityGraph:
    """Recursive source selection, as ``compatibility_graph`` computed it
    before each (stars left, fragment, star) state was decided once: every
    path of stars from the seed is walked again and its fragment and edge
    sets are merged. ``compatibility_graph`` must give the same ``stars``,
    ``star_fragments`` and ``edges``.

    Branches grow recursively from the star with the lowest estimated
    cardinality; fragments on branches that dead-end are dropped. Star groups
    without shared variables combine with all-pairs edges. An empty graph
    means the answer is provably empty.
    """
    if isinstance(query_or_stars, Query):
        stars = star_decompose(query_or_stars.bgp)
    else:
        stars = list(query_or_stars)
    if not stars:
        raise ValueError("cannot plan an empty pattern")

    relevant = {st.key: tuple(index.relevant_fragments(st)) for st in stars}

    def estimated(st: StarPattern) -> float:
        return ordered_sum(card_star(st, index.spbf(fid), distinct) for fid in relevant[st.key])

    def build_branch(remaining: list[StarPattern], fid: str,
                     star: StarPattern) -> tuple[set[str], set[tuple[str, str]]]:
        joining = [st for st in remaining if _vars_overlap(star, st)]
        if not joining:
            return {fid}, set()
        frags: set[str] = set()
        edges: set[tuple[str, str]] = set()
        for nxt in joining:
            shared = sorted(star.variables() & nxt.variables())
            rest = [st for st in remaining if st.key != nxt.key]
            for fid2 in relevant[nxt.key]:
                if not _filters_overlap(index, fid, star, fid2, nxt, shared):
                    continue
                sub_frags, sub_edges = build_branch(rest, fid2, nxt)
                if sub_frags:
                    frags |= sub_frags | {fid}
                    edges |= sub_edges | {tuple(sorted((fid, fid2)))}
        return frags, edges

    def component(seed: StarPattern, pool: list[StarPattern]) -> list[StarPattern]:
        todo = [seed]
        seen = {seed.key}
        while todo:
            cur = todo.pop()
            for st in pool:
                if st.key not in seen and _vars_overlap(cur, st):
                    seen.add(st.key)
                    todo.append(st)
        return [st for st in pool if st.key in seen]

    def build(pool: list[StarPattern]) -> tuple[set[str], set[tuple[str, str]]]:
        seed = min(pool, key=lambda st: (estimated(st), st.key))
        comp = component(seed, pool)
        others = [st for st in comp if st.key != seed.key]
        frags: set[str] = set()
        edges: set[tuple[str, str]] = set()
        for fid in relevant[seed.key]:
            sub_frags, sub_edges = build_branch(others, fid, seed)
            frags |= sub_frags
            edges |= sub_edges
        if not frags:
            return set(), set()
        rest = [st for st in pool if st.key not in {c.key for c in comp}]
        if rest:
            sub_frags, sub_edges = build(rest)
            if not sub_frags:
                return set(), set()
            edges |= {tuple(sorted((a, b))) for a in frags for b in sub_frags}
            frags |= sub_frags
            edges |= sub_edges
        return frags, edges

    frags, edges = build(list(stars))
    star_frags = {st.key: tuple(f for f in relevant[st.key] if f in frags) for st in stars}
    if any(not fids for fids in star_frags.values()):
        # a star with no surviving fragment makes the whole answer empty
        return CompatibilityGraph(tuple(stars), {st.key: () for st in stars}, frozenset())
    return CompatibilityGraph(tuple(stars), star_frags, frozenset(edges))


def plan_fragments(plan: Plan) -> set[str]:
    """The fragments the plan's selections read."""
    return {sel.fragment for sel in iter_selections(plan)}


# -- random small instances -------------------------------------------------------


def random_graph(rng: random.Random, n_subjects: int, predicates: list[str],
                 max_triples: int = 300) -> KnowledgeGraph:
    subjects = [f"http://ex/s{i}" for i in range(n_subjects)]
    objects = subjects + [f"http://ex/o{i}" for i in range(n_subjects)]
    triples = set()
    for s in subjects:
        for p in rng.sample(predicates, rng.randint(1, min(3, len(predicates)))):
            for _ in range(rng.randint(1, 2)):
                triples.add(Triple(iri(s), iri(p), iri(rng.choice(objects))))
                if len(triples) >= max_triples:
                    return KnowledgeGraph(triples)
    return KnowledgeGraph(triples)


def random_star_query(rng: random.Random, predicates: list[str], max_stars: int = 3) -> Query:
    """1..max_stars chained stars: star i+1's subject is an object variable of
    star i, so the query stays join-connected."""
    n_stars = rng.randint(1, max_stars)
    patterns = []
    subject = Variable("v0")
    counter = 1
    for i in range(n_stars):
        n_tp = rng.randint(1, 2)
        link: Optional[Variable] = None
        for _ in range(n_tp):
            obj = Variable(f"v{counter}")
            counter += 1
            patterns.append((subject, iri(rng.choice(predicates)), obj))
            link = obj
        subject = link
    return Query(bgp=tuple(TriplePattern(*t) for t in patterns), distinct=rng.random() < 0.3)


def random_components_query(rng: random.Random, preds: list[str]) -> Query:
    """1-5 stars; each star after the first either takes an earlier star's
    object variable as its subject or starts a new Cartesian component."""
    patterns = []
    links: list[Variable] = []
    for i in range(rng.randint(1, 5)):
        if links and rng.random() < 0.7:
            subject = links.pop(rng.randrange(len(links)))
        else:
            subject = Variable(f"s{i}")
        for j in range(rng.randint(1, 2)):
            obj = Variable(f"o{i}_{j}")
            patterns.append(TriplePattern(subject, iri(rng.choice(preds)), obj))
            links.append(obj)
    return Query(bgp=tuple(patterns), distinct=rng.random() < 0.5)


def many_fragments_graph(rng: random.Random, n_subjects: int, n_predicates: int,
                         p: float) -> KnowledgeGraph:
    """Each subject takes each of ``n_predicates`` predicates with probability
    ``p`` (at least one), always with a random subject as the object. Nearly
    every characteristic set then occurs, so a star of a few predicates
    matches many fragments, and stars chain through their objects."""
    preds = [f"http://ex/p{i}" for i in range(n_predicates)]
    subjects = [iri(f"http://ex/s{i}") for i in range(n_subjects)]
    triples = []
    for s in subjects:
        chosen = [q for q in preds if rng.random() < p] or [rng.choice(preds)]
        triples.extend(Triple(s, iri(q), rng.choice(subjects)) for q in chosen)
    return KnowledgeGraph(triples)


def chain_query(stars: int, preds_per_star: int) -> str:
    """SPARQL text of a chain of ``stars`` stars over ``many_fragments_graph``
    predicates: star i uses its own predicates, and the object of its last
    one is the subject of star i + 1."""
    patterns = []
    p = 0
    for i in range(stars):
        for j in range(preds_per_star):
            last = j == preds_per_star - 1 and i < stars - 1
            obj = f"?s{i + 1}" if last else f"?o{i}_{j}"
            patterns.append(f"  ?s{i} <http://ex/p{p}> {obj} .\n")
            p += 1
    return "SELECT * WHERE {\n" + "".join(patterns) + "}\n"


def random_network(rng: random.Random, graph, min_subjects: int = 1) -> Network:
    from starbloom.netsim import upload
    node_count = rng.randint(2, 5)
    config = NetworkConfig(
        node_count=node_count,
        neighbor_count=rng.randint(1, max(1, node_count - 1) if node_count > 1 else 0),
        replication_factor=rng.randint(1, min(2, node_count)),
        horizon=5,
        rng_seed=rng.randint(0, 10_000),
        bloom=BloomParams(m=4096, k=3),
    )
    net = create_connected(config)
    upload(net, graph, origin="n1", min_subjects=min_subjects)
    return net


def create_connected(config: NetworkConfig) -> Network:
    """Seeded random network that is always strongly connected: a random ring
    plus extra random neighbors (keeps every node's view complete, so random
    instances stay comparable to the whole-graph oracle)."""
    rng = random.Random(config.rng_seed)
    ids = [f"n{i}" for i in range(1, config.node_count + 1)]
    ring = ids[1:] + ids[:1]
    rng.shuffle(ring)
    successor = {ring[i]: ring[(i + 1) % len(ring)] for i in range(len(ring))}
    topology = {}
    for nid in ids:
        neighbors = {successor[nid]} if config.neighbor_count else set()
        pool = [x for x in ids if x != nid and x not in neighbors]
        while len(neighbors) < config.neighbor_count:
            neighbors.add(pool.pop(rng.randrange(len(pool))))
        topology[nid] = sorted(neighbors)
    if config.node_count == 1:
        topology = {ids[0]: []}
    return network_from_layout(config, topology)


# -- golden corpora ----------------------------------------------------------------
# A corpus file holds one "name digest" line per instance: the first 16 hex
# digits of the SHA-256 of the instance's text.


def golden_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def golden_compare(corpus: Path, texts: Iterable[tuple[str, str]]) -> list[str]:
    """One message per instance whose text does not have its pinned digest,
    the first one followed by that text, and one per pinned name that
    ``texts`` no longer yields."""
    want = {}
    for line in corpus.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            name, value = line.split()
            want[name] = value
    problems = []
    seen = set()
    for name, text in texts:
        seen.add(name)
        got = golden_digest(text)
        if want.get(name) != got:
            msg = f"{name}: digest {got}, corpus {want.get(name)}"
            if not problems:
                msg += "\n" + text
            problems.append(msg)
    problems.extend(f"{name}: in the corpus but not generated"
                    for name in sorted(want.keys() - seen))
    return problems


def golden_main(argv: list[str], corpus: Path, header: str,
                texts: Iterable[tuple[str, str]]) -> int:
    """``--write`` pins every text's digest under the comment ``header``;
    no argument compares and exits 1 on a mismatch."""
    if argv == ["--write"]:
        lines = [f"# {header}"] + [f"{name} {golden_digest(text)}" for name, text in texts]
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return 0
    problems = golden_compare(corpus, texts)
    for msg in problems:
        print(msg)
    print(f"{len(problems)} mismatch(es)")
    return 1 if problems else 0
