import itertools
import random
import time

import pytest

from helpers import (build_running_network, chain_query, exact_running_index,
                     many_fragments_graph, random_components_query as _random_query,
                     random_graph, random_network, random_star_query,
                     reference_compatibility_graph, reference_optimize)
from starbloom import planner
from starbloom.bloom import BloomParams, build_spbf
from starbloom.cardinality import PlanContext
from starbloom.fragments import fragment_by_cs, merge_infrequent
from starbloom.index import SPBFIndex
from starbloom.model import Query, TriplePattern, Variable, iri, star_decompose
from starbloom.planner import (compatibility_graph, cost, explain,
                               node_sort_key, optimize, transfer_cost)
from starbloom.plans import (Cartesian, EmptyPlan, Join, Selection, Union_,
                             branches_of, iter_selections, linked_stars,
                             render_plan, right_selections)
from starbloom.sparql import parse_query

EDGES = frozenset({("f1", "f4"), ("f1", "f5"), ("f2", "f3"), ("f2", "f5")})


class TestCompatibilityGraph:
    def test_running_edge_set(self, running_query, running_index):
        cg = compatibility_graph(running_query, running_index)
        assert cg.edges == EDGES
        assert cg.fragments() == {"f1", "f2", "f3", "f4", "f5"}

    def test_single_star_no_edges(self, running_index, stars):
        cg = compatibility_graph(Query(stars["?person"].patterns), running_index)
        assert cg.edges == frozenset()
        assert set(cg.star_fragments["?person"]) == {"f1", "f2"}

    def test_deterministic(self, running_query, running_index):
        a = compatibility_graph(running_query, running_index)
        b = compatibility_graph(running_query, running_index)
        assert a.edges == b.edges and a.star_fragments == b.star_fragments

    def test_empty_when_star_unanswerable(self, running_index):
        q = parse_query("SELECT * WHERE { ?s <http://none/p> ?o . ?o <http://none/q> ?x . }")
        cg = compatibility_graph(q, running_index)
        assert cg.is_empty()

    @pytest.mark.parametrize("seed", range(6))
    def test_never_misses_truly_joining_pairs(self, seed):
        """Exact-join oracle: any fragment pair with a real join result keeps its edge."""
        from starbloom.bloom import build_spbf, BloomParams
        from starbloom.fragments import fragment_by_cs
        from starbloom.model import evaluate_bgp

        rng = random.Random(seed)
        preds = [f"http://ex/p{i}" for i in range(4)]
        graph = random_graph(rng, n_subjects=14, predicates=preds, max_triples=80)
        frags = fragment_by_cs(graph)
        params = BloomParams(m=4096, k=3)
        index = SPBFIndex({f.id: build_spbf(f, params) for f in frags},
                          {f.id: ("n1",) for f in frags})
        query = random_star_query(rng, preds, max_stars=2)
        stars = star_decompose(query.bgp)
        if len(stars) != 2:
            return
        cg = compatibility_graph(query, index)
        s1, s2 = stars
        by_id = {f.id: f for f in frags}
        shared = sorted(s1.variables() & s2.variables())
        if not shared:
            return
        for f1 in index.relevant_fragments(s1):
            rows1 = evaluate_bgp(s1.patterns, by_id[f1].graph())
            for f2 in index.relevant_fragments(s2):
                rows2 = evaluate_bgp(s2.patterns, by_id[f2].graph())
                truly_joins = any(
                    all(r1.get(v) == r2.get(v) for v in shared)
                    for r1 in rows1 for r2 in rows2)
                if truly_joins:
                    assert tuple(sorted((f1, f2))) in cg.edges or f1 == f2, \
                        "compatibility pruning dropped a truly joining pair"

    def test_matches_recursive_reference(self):
        """On random graphs merged at 1 and 3 and filters of 64 or 4096 bits,
        with DISTINCT on and off, source selection gives the recursive
        builder's stars, surviving fragments and edges. Half the queries are
        star trees with Cartesian components, half arbitrary BGPs."""
        seen = {"nonempty": 0, "components": 0, "cycles": 0}
        for seed in range(30):
            rng = random.Random(9100 + seed)
            preds = [f"http://ex/p{i}" for i in range(rng.randint(3, 4))]
            graph = random_graph(rng, n_subjects=rng.randint(8, 20), predicates=preds,
                                 max_triples=120)
            frags, _ = merge_infrequent(fragment_by_cs(graph), rng.choice([1, 3]))
            index = _index(frags, BloomParams(m=rng.choice([64, 4096]), k=3))
            constants = sorted({t.lexical for tr in graph.triples for t in (tr.s, tr.o)})
            for i in range(10):
                query = _random_query(rng, preds) if i % 2 else _random_bgp(rng, preds, constants)
                stars = star_decompose(query.bgp)
                for distinct in (False, True):
                    want = reference_compatibility_graph(query, index, distinct)
                    got = compatibility_graph(query, index, distinct)
                    assert (got.stars, got.star_fragments, got.edges) == \
                        (want.stars, want.star_fragments, want.edges), f"seed {seed}, query {i}"
                seen["nonempty"] += not got.is_empty()
                seen["components"] += _components(stars) > 1
                seen["cycles"] += _link_count(stars) >= len(stars)
        assert seen["nonempty"] >= 150 and min(seen.values()) >= 20, seen

    def test_each_fragment_pair_is_tested_once(self, monkeypatch):
        """A 4-star chain whose stars each match about half of 63 fragments:
        the filters of each (fragment, star, fragment, joining star) pair are
        intersected at most once. Walking every path from the seed repeats
        them, so the counter stops such a walk at its first repeat."""
        frags = fragment_by_cs(many_fragments_graph(random.Random(3), 400, 6, 0.5))
        assert len(frags) >= 40
        index = _index(frags, BloomParams(m=128, k=3))
        tested = set()
        overlap = planner._filters_overlap

        def once(index, f1, star1, f2, star2, shared):
            pair = (f1, star1.key, f2, star2.key)
            if pair in tested:
                raise AssertionError(f"filters of {pair} intersected twice")
            tested.add(pair)
            return overlap(index, f1, star1, f2, star2, shared)

        monkeypatch.setattr(planner, "_filters_overlap", once)
        cg = compatibility_graph(parse_query(chain_query(4, 1)), index)
        assert len(tested) > 2000 and len(cg.edges) > 1000


def _index(frags, params: BloomParams) -> SPBFIndex:
    return SPBFIndex({f.id: build_spbf(f, params) for f in frags},
                     {f.id: ("n1",) for f in frags})


def _random_bgp(rng: random.Random, preds: list[str], constants: list[str]) -> Query:
    """1-6 triple patterns over four variables, so that cycles, object-object
    joins and Cartesian components occur; some subjects and objects are
    constants and some predicates variables."""
    names = [Variable(f"v{i}") for i in range(4)]

    def term():
        return iri(rng.choice(constants)) if rng.random() < 0.15 else rng.choice(names)

    patterns = []
    for _ in range(rng.randint(1, 6)):
        pred = rng.choice(names) if rng.random() < 0.1 else iri(rng.choice(preds))
        patterns.append(TriplePattern(term(), pred, term()))
    return Query(bgp=tuple(dict.fromkeys(patterns)))


def _link_count(stars) -> int:
    """Pairs of stars that share a variable; as many as there are stars means
    the join graph has a cycle."""
    return sum(bool(a.variables() & b.variables())
               for a, b in itertools.combinations(stars, 2))


def sel(stars, key, fid, node):
    return Selection(stars[key], fid, node)


@pytest.fixture(scope="module")
def plan_ctx():
    index = exact_running_index()
    spbfs = {fid: index.spbf(fid) for fid in index.fragment_ids()}
    return PlanContext(spbfs=spbfs, edges=EDGES, distinct=False)


class TestTransferCost:
    def test_local_selection_is_free(self, stars, plan_ctx):
        assert transfer_cost(sel(stars, "?publication", "f5", "n1"), "n1", plan_ctx) == 0.0

    def test_remote_union_ships_cardinalities(self, stars, plan_ctx):
        plan = Union_((sel(stars, "?person", "f1", "n2"), sel(stars, "?person", "f2", "n3")))
        assert transfer_cost(plan, "n1", plan_ctx) == pytest.approx(8000)

    def test_full_plan_transfer_and_total(self, stars, plan_ctx):
        b1 = Join(sel(stars, "?country", "f4", "n2"), sel(stars, "?person", "f1", "n2"), "n2")
        b2 = Join(sel(stars, "?country", "f3", "n3"), sel(stars, "?person", "f2", "n3"), "n3")
        full = Join(Union_((b1, b2)), sel(stars, "?publication", "f5", "n1"), "n1")
        assert transfer_cost(full, "n1", plan_ctx) == pytest.approx(850)
        c = cost(full, "n1", plan_ctx)
        assert c.total == pytest.approx(850 + 154.6875)
        assert 1003 <= c.total <= 1030

    def test_all_local_plan_is_free(self, stars, plan_ctx):
        b1 = Join(sel(stars, "?country", "f4", "n1"), sel(stars, "?person", "f1", "n1"), "n1")
        full = Join(b1, sel(stars, "?publication", "f5", "n1"), "n1")
        assert transfer_cost(full, "n1", plan_ctx) == 0.0


class TestCostRows:
    def test_single_star_rows(self, stars, plan_ctx):
        p2 = Union_((sel(stars, "?country", "f3", "n3"), sel(stars, "?country", "f4", "n2")))
        assert cost(p2, "n1", plan_ctx).total == pytest.approx(650)
        p3 = sel(stars, "?publication", "f5", "n1")
        assert cost(p3, "n1", plan_ctx).total == pytest.approx(9000)

    def test_cartesian_row(self, stars, plan_ctx):
        p2 = Union_((sel(stars, "?country", "f3", "n3"), sel(stars, "?country", "f4", "n2")))
        plan = Cartesian(p2, sel(stars, "?publication", "f5", "n1"), "n1")
        assert cost(plan, "n1", plan_ctx).total == pytest.approx(5_850_650)

    def test_join_p1_p3_row(self, stars, plan_ctx):
        left = Union_((sel(stars, "?person", "f1", "n2"), sel(stars, "?person", "f2", "n3")))
        plan = Join(left, sel(stars, "?publication", "f5", "n1"), "n1")
        assert cost(plan, "n1", plan_ctx).total == pytest.approx(9687.5)


class TestOptimizeRunningExample:
    def test_returns_published_plan(self, running_query, running_index):
        result = optimize(running_query, running_index, "n1")
        plan = result.plan
        assert isinstance(plan, Join) and plan.node == "n1"
        right = right_selections(plan.right)
        assert len(right) == 1 and right[0].fragment == "f5" and right[0].node == "n1"
        assert isinstance(plan.left, Union_) and len(plan.left.branches) == 2
        j1, j2 = plan.left.branches
        assert {j1.node, j2.node} == {"n2", "n3"}
        by_node = {j.node: j for j in (j1, j2)}
        n2 = by_node["n2"]
        assert isinstance(n2.left, Selection) and n2.left.fragment == "f4"
        assert right_selections(n2.right)[0].fragment == "f1"
        assert all(s.node == "n2" for s in iter_selections(n2))
        n3 = by_node["n3"]
        assert isinstance(n3.left, Selection) and n3.left.fragment == "f3"
        assert right_selections(n3.right)[0].fragment == "f2"

    def test_table_rows(self, running_query, running_index):
        result = optimize(running_query, running_index, "n1")
        e = result.entry
        assert e("?person").cost == pytest.approx(8000)
        assert e("?country").cost == pytest.approx(650)
        assert e("?publication").cost == pytest.approx(9000)
        assert e("?country", "?person").cost == pytest.approx(1700)
        assert e("?country", "?publication").cost == pytest.approx(5_850_650)
        assert e("?person", "?publication").cost == pytest.approx(9687.5)
        full = e("?country", "?person", "?publication")
        assert full.cardinality == pytest.approx(154.6875)
        assert 1003 <= full.cost <= 1030

    def test_single_star_local_fragment(self, running_index, stars):
        q = parse_query(
            "PREFIX dbo: <http://dbpedia.org/ontology/> "
            "SELECT * WHERE { ?publication dbo:publisher ?x . ?publication dbo:language ?y . }")
        result = optimize(q, running_index, "n1")
        assert isinstance(result.plan, Selection)
        assert result.plan.fragment == "f5" and result.plan.node == "n1"
        assert result.entry("?publication").cost == pytest.approx(9000)

    def test_empty_result_plan(self, running_index):
        q = parse_query("SELECT * WHERE { ?s <http://none/p> ?o . }")
        assert isinstance(optimize(q, running_index, "n1").plan, EmptyPlan)

    def test_deterministic(self, running_query, running_index):
        a = optimize(running_query, running_index, "n1")
        b = optimize(running_query, running_index, "n1")
        assert render_plan(a.plan) == render_plan(b.plan)
        assert explain(a) == explain(b)

    def test_explain_stable_and_complete(self, running_query, running_index):
        result = optimize(running_query, running_index, "n1")
        text = explain(result)
        assert "join @n1" in text
        assert "selection ?publication fragment=f5 @n1" in text
        assert "-- subqueries --" in text
        assert "card=154.688" in text


class TestLazyTable:
    def test_optimize_plans_only_the_full_set(self, running_query, running_index):
        result = optimize(running_query, running_index, "n1")
        full = frozenset({"?country", "?person", "?publication"})
        assert set(result.table) == {full}
        assert result.entry("?country", "?person").cost == pytest.approx(1700)
        assert set(result.table) == {full, frozenset({"?country", "?person"})}
        explain(result)
        assert len(result.table) == 7

    def test_entry_rejects_unknown_subsets(self, running_query, running_index):
        result = optimize(running_query, running_index, "n1")
        for keys in [(), ("?nobody",), ("?person", "?nobody")]:
            with pytest.raises(KeyError):
                result.entry(*keys)
        assert len(result.table) == 1

    def test_empty_plan_has_empty_table(self, running_index):
        q = parse_query("SELECT * WHERE { ?s <http://none/p> ?o . }")
        result = optimize(q, running_index, "n1")
        assert result.table == {}
        with pytest.raises(KeyError):
            result.entry("?s")
        assert "-- subqueries --" not in explain(result)


def _components(stars) -> int:
    groups: list[set[str]] = []
    for st in stars:
        linked = [g for g in groups if g & st.variables()]
        merged = set(st.variables()).union(*linked)
        groups = [g for g in groups if not g & st.variables()] + [merged]
    return len(groups)


def test_lazy_optimize_matches_eager_reference():
    """On random graphs, networks and 1-5 star queries (DISTINCT on and off,
    Cartesian components), the lazy table and memoized estimates give the
    eager planner's plan and explain text byte for byte."""
    seen = {"nonempty": 0, "stars5": 0, "cartesian": 0, "distinct": 0}
    for seed in range(120):
        rng = random.Random(7000 + seed)
        preds = [f"http://ex/p{i}" for i in range(rng.randint(3, 4))]
        graph = random_graph(rng, n_subjects=rng.randint(8, 20), predicates=preds,
                             max_triples=120)
        net = random_network(rng, graph, min_subjects=rng.choice([1, 3]))
        query = _random_query(rng, preds)
        origin = rng.choice(net.node_ids())
        index = net.nodes[origin].index

        got = optimize(query, index, origin)
        want = reference_optimize(query, index, origin)
        assert render_plan(got.plan) == render_plan(want.plan), f"seed {seed}"
        assert explain(got) == explain(want), f"seed {seed}"
        assert got.table == want.table, f"seed {seed}"

        stars = star_decompose(query.bgp)
        if not isinstance(got.plan, EmptyPlan):
            seen["nonempty"] += 1
            seen["stars5"] += len(stars) == 5
            seen["cartesian"] += _components(stars) > 1
            seen["distinct"] += query.distinct
    assert seen["nonempty"] >= 60 and min(seen.values()) >= 5, seen


def test_linked_stars_walks_a_branch_once_in_key_order():
    """Stars sharing a variable with the right star come in key order, each
    once with its fragments from every union branch, sorted; stars sharing
    none are left out."""
    a, b, c, x = star_decompose(parse_query(
        "SELECT * WHERE { ?a <http://ex/p> ?b . ?b <http://ex/q> ?c . "
        "?c <http://ex/r> ?d . ?x <http://ex/s> ?y . }").bgp)
    assert [st.key for st in (a, b, c, x)] == ["?a", "?b", "?c", "?x"]
    branch = Cartesian(Union_((
        Join(Selection(c, "f5", "n1"), Selection(a, "f3", "n1"), "n1"),
        Join(Selection(c, "f4", "n2"), Union_((Selection(a, "f1", "n2"),
                                               Selection(a, "f3", "n2"))), "n2"))),
        Selection(x, "f0", "n1"), "n1")
    assert linked_stars(branch, b) == [(a, ("f1", "f3")), (c, ("f4", "f5"))]
    assert linked_stars(Selection(a, "f1", "n1"), x) == []


class TestScaleInvariance:
    def test_bloom_width_preserves_argmin(self, running_query):
        plans = []
        for m in (20000, 40000):
            net, names = build_running_network(m=m, k=5)
            result = optimize(running_query, net.nodes["n1"].index, "n1")
            rename = {fid: name for fid, name in names.items()}
            text = render_plan(result.plan)
            for fid, name in sorted(rename.items(), key=lambda kv: -len(kv[0])):
                text = text.replace(fid, name)
            plans.append(text)
        assert plans[0] == plans[1]


def _candidate_delegates(plan, index, origin):
    if isinstance(plan, (Join, Cartesian)):
        nodes = {origin}
        for s in right_selections(plan.right) if isinstance(plan, Join) else branches_of(plan.right):
            nodes.update(index.holders(s.fragment))
        return sorted(nodes, key=node_sort_key)
    return []


def _rewrite(plan, assignment, counter):
    """Rebuild the plan, replacing each operator's delegate from assignment."""
    if isinstance(plan, Selection) or isinstance(plan, EmptyPlan):
        return plan
    if isinstance(plan, Union_):
        return Union_(tuple(_rewrite(b, assignment, counter) for b in plan.branches))
    idx = counter[0]
    counter[0] += 1
    node = assignment[idx]
    left = _rewrite(plan.left, assignment, counter)
    kind = Join if isinstance(plan, Join) else Cartesian
    return kind(left, plan.right, node)


def _operators(plan):
    if isinstance(plan, Union_):
        return [op for b in plan.branches for op in _operators(b)]
    if isinstance(plan, (Join, Cartesian)):
        return [plan] + _operators(plan.left)
    return []


@pytest.mark.parametrize("seed", range(10))
def test_delegation_matches_exhaustive_minimum(seed):
    """Brute-force all delegate combinations over the chosen plan structure;
    the optimizer's cost must equal the minimum."""
    from starbloom.bloom import build_spbf, BloomParams
    from starbloom.fragments import fragment_by_cs

    rng = random.Random(seed * 13 + 5)
    preds = [f"http://ex/p{i}" for i in range(4)]
    graph = random_graph(rng, n_subjects=12, predicates=preds, max_triples=70)
    frags = fragment_by_cs(graph)
    params = BloomParams(m=2048, k=3)
    nodes = [f"n{i}" for i in range(1, rng.randint(2, 4) + 1)]
    holders = {f.id: tuple(sorted(rng.sample(nodes, rng.randint(1, len(nodes)))))
               for f in frags}
    index = SPBFIndex({f.id: build_spbf(f, params) for f in frags}, holders)
    query = random_star_query(rng, preds, max_stars=3)
    origin = rng.choice(nodes)
    result = optimize(query, index, origin)
    if isinstance(result.plan, EmptyPlan):
        return
    got = cost(result.plan, origin, result.context).total

    ops = _operators(result.plan)
    if not ops:
        return
    candidate_sets = [_candidate_delegates(op, index, origin) for op in ops]
    best = None
    for combo in itertools.product(*candidate_sets):
        counter = [0]
        assignment = dict(enumerate(combo))
        candidate = _rewrite(result.plan, assignment, counter)
        total = cost(candidate, origin, result.context).total
        best = total if best is None else min(best, total)
    assert got == pytest.approx(best), f"optimizer {got} vs exhaustive {best}"


def test_runtime_bounds(running_query, running_index):
    start = time.perf_counter()
    compatibility_graph(running_query, running_index)
    assert time.perf_counter() - start < 0.010
    start = time.perf_counter()
    optimize(running_query, running_index, "n1")
    assert time.perf_counter() - start < 1.0
