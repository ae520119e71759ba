import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_match_star
from starbloom.model import (KnowledgeGraph, StarPattern, Triple, TriplePattern,
                             Variable, blank, bindings_multiset, evaluate_bgp,
                             iri, literal, match_star, star_decompose)


def tp(s, p, o):
    return TriplePattern(s, p, o)


class TestTerm:
    def test_iri_prefix_slash(self):
        t = iri("http://dbpedia.org/resource/Copenhagen")
        assert t.prefix == "http://dbpedia.org/resource/"

    def test_iri_prefix_hash(self):
        t = iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        assert t.prefix == "http://www.w3.org/1999/02/22-rdf-syntax-ns#"

    def test_iri_prefix_scheme_only(self):
        t = iri("urn:uuid:1234")
        assert t.prefix == "urn:uuid:"

    def test_literal_and_blank_pseudo_prefixes(self):
        assert literal("x").prefix == "_lit:"
        assert literal("x").filter_key()[0] == "_lit:"
        from starbloom.model import blank
        assert blank("b0").prefix == "_bn:"

    def test_triple_positional_constraints(self):
        with pytest.raises(ValueError):
            Triple(literal("x"), iri("http://p"), iri("http://o"))
        with pytest.raises(ValueError):
            Triple(iri("http://s"), literal("p"), iri("http://o"))


class TestStarDecompose:
    def test_running_shape(self, running_query):
        stars = star_decompose(running_query.bgp)
        assert len(stars) == 3
        by_key = {s.key: s for s in stars}
        assert set(by_key) == {"?person", "?country", "?publication"}
        assert all(len(s.patterns) == 2 for s in stars)

    def test_single_pattern(self):
        pats = (tp(Variable("s"), iri("http://p"), Variable("o")),)
        stars = star_decompose(pats)
        assert len(stars) == 1 and stars[0].patterns == pats

    def test_two_subjects_sizes(self):
        pats = (
            tp(Variable("a"), iri("http://p1"), Variable("x")),
            tp(Variable("a"), iri("http://p2"), Variable("y")),
            tp(Variable("b"), iri("http://p1"), Variable("x")),
        )
        stars = star_decompose(pats)
        assert sorted(len(s.patterns) for s in stars) == [1, 2]

    @given(st.lists(
        st.tuples(st.sampled_from("abcd"), st.sampled_from("pqrs"), st.integers(0, 5)),
        min_size=1, max_size=12))
    def test_partition_law(self, raw):
        pats = tuple({tp(Variable(s), iri(f"http://{p}"), Variable(f"o{o}"))
                      for s, p, o in raw})
        stars = star_decompose(pats)
        combined = [p for s in stars for p in s.patterns]
        assert len(combined) == len(pats)  # pairwise disjoint
        assert set(combined) == set(pats)  # union equals the pattern


def small_graph():
    p, q = iri("http://x/p"), iri("http://x/q")
    a, b, c = iri("http://x/a"), iri("http://x/b"), iri("http://x/c")
    return KnowledgeGraph([
        Triple(a, p, b), Triple(a, q, c), Triple(b, p, c), Triple(b, q, c),
    ]), (p, q, a, b, c)


class TestEvaluateBGP:
    def test_single_pattern(self):
        g, (p, q, a, b, c) = small_graph()
        rows = evaluate_bgp((tp(Variable("s"), p, Variable("o")),), g)
        assert bindings_multiset(rows) == bindings_multiset([
            {"s": a, "o": b}, {"s": b, "o": c}])

    def test_unsatisfiable_constant(self):
        g, (p, q, a, b, c) = small_graph()
        rows = evaluate_bgp((tp(iri("http://x/zzz"), p, Variable("o")),), g)
        assert rows == []

    def test_three_star_join_against_nested_loop(self):
        # independent oracle: brute-force nested loops over all triples
        g, (p, q, a, b, c) = small_graph()
        pats = (
            tp(Variable("s"), p, Variable("m")),
            tp(Variable("m"), q, Variable("o")),
        )
        expected = []
        for t1 in g.sorted_triples():
            for t2 in g.sorted_triples():
                if t1.p == p and t2.p == q and t1.o == t2.s:
                    expected.append({"s": t1.s, "m": t1.o, "o": t2.o})
        rows = evaluate_bgp(pats, g)
        assert bindings_multiset(rows) == bindings_multiset(expected)

    def test_distinct_not_larger(self):
        g, (p, q, a, b, c) = small_graph()
        pats = (tp(Variable("s"), q, Variable("o")),)
        bag = evaluate_bgp(pats, g, distinct=False, projection=("o",))
        dedup = evaluate_bgp(pats, g, distinct=True, projection=("o",))
        assert len(dedup) <= len(bag)
        assert len(bag) == 2 and len(dedup) == 1

    def test_star_restriction_membership(self):
        g, (p, q, a, b, c) = small_graph()
        pats = (
            tp(Variable("s"), p, Variable("m")),
            tp(Variable("m"), q, Variable("o")),
        )
        stars = star_decompose(pats)
        full = evaluate_bgp(pats, g)
        for star in stars:
            sub = evaluate_bgp(star.patterns, g)
            sub_keys = {tuple(sorted((k, v.nt()) for k, v in row.items())) for row in sub}
            for row in full:
                restricted = {k: v for k, v in row.items() if k in star.variables()}
                key = tuple(sorted((k, v.nt()) for k, v in restricted.items()))
                assert key in sub_keys

    def test_repeated_variable(self):
        p = iri("http://x/p")
        a = iri("http://x/a")
        g = KnowledgeGraph([Triple(a, p, a), Triple(a, p, iri("http://x/b"))])
        rows = evaluate_bgp((tp(Variable("v"), p, Variable("v")),), g)
        assert rows == [{"v": a}]

    def test_three_star_query_against_nested_loop_oracle(self):
        from helpers import RUNNING_DATA, RUNNING_QUERY
        from starbloom.ntriples import parse_ntriples
        from starbloom.sparql import parse_query

        graph = parse_ntriples(RUNNING_DATA)
        query = parse_query(RUNNING_QUERY)
        stars = star_decompose(query.bgp)
        assert len(stars) == 3

        # independent oracle: per-star matches combined by nested loops
        per_star = [evaluate_bgp(s.patterns, graph) for s in stars]
        expected = []
        for r1 in per_star[0]:
            for r2 in per_star[1]:
                if any(r1[v] != r2[v] for v in r1.keys() & r2.keys()):
                    continue
                for r3 in per_star[2]:
                    merged = {**r1, **r2}
                    if any(merged[v] != r3[v] for v in merged.keys() & r3.keys()):
                        continue
                    expected.append({**merged, **r3})
        got = evaluate_bgp(query.bgp, graph)
        assert bindings_multiset(got) == bindings_multiset(expected)
        assert len(got) == 6


# -- indexed star matching against the full-scan reference --------------------

_SUBJECTS = [iri(f"http://x/{n}") for n in "abcd"] + [blank("b0")]
_PREDICATES = [iri(f"http://x/{n}") for n in "pqr"]
_TERMS = _SUBJECTS + _PREDICATES + [literal("1"), literal("1", lang="en"), literal("café")]
_VARIABLES = [Variable(n) for n in "sxyp"]  # ?s is the star subject when it is a variable

graphs = st.sets(
    st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES), st.sampled_from(_TERMS)),
    max_size=40,
).map(lambda ts: KnowledgeGraph(Triple(*t) for t in ts))


@st.composite
def stars(draw):
    subject = draw(st.sampled_from([Variable("s"), Variable("s"), *_SUBJECTS]))
    pairs = draw(st.lists(st.tuples(st.sampled_from(_PREDICATES + [Variable("p"), Variable("s")]),
                                    st.sampled_from(_TERMS + _VARIABLES)),
                          min_size=1, max_size=3))
    return StarPattern(subject, tuple(TriplePattern(subject, p, o) for p, o in pairs))


# seeds may bind the subject, an object, a predicate, or ?z outside the star
seeds = st.dictionaries(st.sampled_from(["s", "x", "y", "p", "z"]), st.sampled_from(_TERMS),
                        max_size=3)


class _NoScanGraph(KnowledgeGraph):
    __slots__ = ()

    def sorted_triples(self):
        raise AssertionError("match_star scanned the whole graph")


class TestMatchStar:
    @given(graphs, stars(), seeds)
    @settings(max_examples=400, deadline=None)
    def test_same_rows_in_same_order_as_full_scan(self, graph, star, seed):
        expected = reference_match_star(star, graph, seed)
        assert match_star(star, _NoScanGraph(graph.triples), seed) == expected

    def test_object_seek_uses_shortest_posting_list(self):
        g, (p, q, a, b, c) = small_graph()
        star = StarPattern(Variable("s"), (tp(Variable("s"), p, Variable("o")),
                                           tp(Variable("s"), q, c)))
        assert g.subjects_with(q, c) == (a, b)
        assert g.subjects_with(p, c) == (b,)
        rows = match_star(star, g, seed={"o": c})
        assert rows == [{"o": c, "s": b}]

    def test_empty_star_returns_the_seed(self):
        g, (p, q, a, b, c) = small_graph()
        assert match_star(StarPattern(Variable("s"), ()), g, {"x": a}) == [{"x": a}]

    def test_indexes_are_built_once(self):
        g, (p, q, a, b, c) = small_graph()
        assert g.subjects() is g.subjects()
        assert g.subjects() == (a, b)
        assert g.subjects_with(p, iri("http://x/none")) == ()
