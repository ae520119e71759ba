import math

import pytest

from helpers import AUTH, NAT, exact_running_spbfs
from starbloom.bloom import SPBF, ExactBitset, ordered_sum
from starbloom.cardinality import (IrrelevantFragmentError, JoinShapeError,
                                   PlanContext, card_join_indexed,
                                   card_join_pair, card_plan, card_star,
                                   card_star_indexed, edge_set)
from starbloom.fragments import fragment_by_cs
from starbloom.model import (KnowledgeGraph, StarPattern, Triple, TriplePattern,
                             Variable, iri)
from starbloom.planner import transfer_cost
from starbloom.plans import Cartesian, Join, Selection, Union_

EXACT = pytest.approx  # exact-backend assertions allow only float epsilon


def approx(x):
    return pytest.approx(x, abs=1e-9)


@pytest.fixture(scope="module")
def spbfs():
    return exact_running_spbfs()


@pytest.fixture(scope="module")
def ctx(spbfs):
    edges = edge_set([("f1", "f4"), ("f1", "f5"), ("f2", "f3"), ("f2", "f5")])
    return PlanContext(spbfs=spbfs, edges=edges, distinct=False)


class TestCardStar:
    def test_p1_distinct_single_fragment(self, stars, spbfs):
        assert card_star(stars["?person"], spbfs["f1"], True) == approx(1000)

    def test_p1_bag_single_fragment(self, stars, spbfs):
        # 1000 * (5000/1000) * (1000/1000)
        assert card_star(stars["?person"], spbfs["f1"], False) == approx(5000)

    def test_ratio_one_collapses_to_distinct(self, stars, spbfs):
        st = stars["?publication"]
        f5 = spbfs["f5"]
        distinct = card_star(st, f5, True)
        bag = card_star(st, f5, False)
        assert bag == approx(distinct * (8000 / 8000) * (9000 / 8000))

    def test_irrelevant_fragment_rejected(self, stars, spbfs):
        with pytest.raises(IrrelevantFragmentError):
            card_star(stars["?person"], spbfs["f3"], False)

    def test_variable_predicate_uses_mean(self, spbfs):
        st = StarPattern(Variable("s"),
                         (TriplePattern(Variable("s"), Variable("p"), Variable("o")),))
        got = card_star(st, spbfs["f4"], False)
        mean = (200 + 500) / 2
        assert got == approx(200 * mean / 200)


class TestCardStarIndexed:
    def test_p1_distinct(self, stars, running_index):
        assert card_star_indexed(stars["?person"], running_index, True) == approx(3000)

    def test_p1_bag(self, stars, running_index):
        assert card_star_indexed(stars["?person"], running_index, False) == approx(8000)

    def test_p2_and_p3_bag(self, stars, running_index):
        assert card_star_indexed(stars["?country"], running_index, False) == approx(650)
        assert card_star_indexed(stars["?publication"], running_index, False) == approx(9000)

    def test_no_relevant_fragments(self, running_index):
        st = StarPattern(Variable("s"),
                         (TriplePattern(Variable("s"), iri("http://none/p"), Variable("o")),))
        assert card_star_indexed(st, running_index, False) == 0.0


class TestCardJoin:
    def test_pair_distinct_f1_f4(self, stars, spbfs):
        got = card_join_pair(stars["?person"], stars["?country"], NAT,
                             spbfs["f1"], spbfs["f4"], True)
        assert got == approx(1000 * (50 / 1000))

    def test_pair_bag_f1_f4(self, stars, spbfs):
        got = card_join_pair(stars["?person"], stars["?country"], NAT,
                             spbfs["f1"], spbfs["f4"], False)
        assert got == approx(1000 * (50 / 1000) * (5000 / 1000) * (200 / 200) * (500 / 200))

    def test_pair_empty_intersection(self, stars, spbfs):
        got = card_join_pair(stars["?person"], stars["?country"], NAT,
                             spbfs["f1"], spbfs["f3"], False)
        assert got == 0.0

    def test_indexed_distinct(self, stars, running_index):
        got = card_join_indexed(stars["?person"], stars["?country"], NAT,
                                running_index, True)
        assert got == approx(150)

    def test_indexed_bag(self, stars, running_index):
        got = card_join_indexed(stars["?person"], stars["?country"], NAT,
                                running_index, False)
        assert got == approx(850)

    def test_bad_shape(self, stars, spbfs):
        with pytest.raises(JoinShapeError):
            card_join_pair(stars["?person"], stars["?country"], AUTH,
                           spbfs["f1"], spbfs["f4"], True)


def sel(stars, key, fid, node="n1"):
    return Selection(stars[key], fid, node)


@pytest.fixture(scope="module")
def union_plan(stars):
    """(P2/f4 join P1/f1) union (P2/f3 join P1/f2)"""
    b1 = Join(sel(stars, "?country", "f4", "n2"), sel(stars, "?person", "f1", "n2"), "n2")
    b2 = Join(sel(stars, "?country", "f3", "n3"), sel(stars, "?person", "f2", "n3"), "n3")
    return Union_((b1, b2))


class TestCardPlan:
    def test_union_of_joins_distinct(self, union_plan, ctx):
        dctx = PlanContext(ctx.spbfs, ctx.edges, distinct=True)
        assert card_plan(union_plan, dctx) == approx(200 * (50 / 200) + 100 * (100 / 100))

    def test_union_of_joins_bag(self, union_plan, ctx):
        assert card_plan(union_plan, ctx) == approx(850)

    def test_join_with_selection_branch_distribution(self, union_plan, ctx, stars):
        full = Join(union_plan, sel(stars, "?publication", "f5"), "n1")
        expected = 625 * (500 / 5000) * (9000 / 8000) + 225 * (1000 / 3000) * (9000 / 8000)
        assert card_plan(full, ctx) == approx(expected)
        assert card_plan(full, ctx) == approx(154.6875)

    def test_p1_join_p3(self, ctx, stars):
        left = Union_((sel(stars, "?person", "f1", "n2"), sel(stars, "?person", "f2", "n3")))
        plan = Join(left, sel(stars, "?publication", "f5"), "n1")
        assert card_plan(plan, ctx) == approx(562.5 + 1125)

    def test_union_additivity_exact(self, union_plan, ctx, stars):
        a, b = union_plan.branches
        assert card_plan(union_plan, ctx) == card_plan(a, ctx) + card_plan(b, ctx)

    def test_cartesian_multiplicative_exact(self, ctx, stars):
        left = Union_((sel(stars, "?country", "f3", "n3"), sel(stars, "?country", "f4", "n2")))
        plan = Cartesian(left, sel(stars, "?publication", "f5"), "n1")
        assert card_plan(plan, ctx) == card_plan(left, ctx) * card_plan(
            sel(stars, "?publication", "f5"), ctx)
        assert card_plan(plan, ctx) == approx(5_850_000)

    def test_selection_case(self, ctx, stars):
        assert card_plan(sel(stars, "?country", "f4"), ctx) == approx(500)

    def test_estimates_nonnegative_finite(self, union_plan, ctx, stars):
        import math
        full = Join(union_plan, sel(stars, "?publication", "f5"), "n1")
        for plan in (union_plan, full):
            for distinct in (False, True):
                v = card_plan(plan, PlanContext(ctx.spbfs, ctx.edges, distinct))
                assert v >= 0 and math.isfinite(v)


class TestExactBackendParity:
    def test_distinct_star_equals_true_subject_count(self):
        triples = [Triple(iri(f"http://ex/s{i}"), iri("http://ex/p"),
                          iri(f"http://ex/o{i % 7}")) for i in range(60)]
        frag = fragment_by_cs(KnowledgeGraph(triples))[0]
        from starbloom.bloom import ExactBitset, SPBF
        exact = SPBF(ExactBitset({t.s.nt() for t in frag.triples}),
                     {p: ExactBitset({t.o.nt() for t in frag.triples if t.p.lexical == p})
                      for p in frag.cs.predicates})
        st = StarPattern(Variable("s"),
                         (TriplePattern(Variable("s"), iri("http://ex/p"), Variable("o")),))
        assert card_star(st, exact, True) == 60

    def test_bag_at_least_distinct_when_ratios_exceed_one(self, stars):
        # implication holds fragment-wise; tolerance covers bloom hash noise
        from helpers import build_running_network
        net, names = build_running_network(m=4096, k=3)
        index = net.nodes["n1"].index
        checked = 0
        for st in stars.values():
            for fid in index.relevant_fragments(st):
                spbf = index.spbf(fid)
                subj = spbf.subjects.estimate()
                ratios = [spbf.objects[p].estimate() / subj for p in st.predicates()]
                if all(r >= 1 for r in ratios):
                    bag = card_star(st, spbf, False)
                    distinct = card_star(st, spbf, True)
                    assert bag >= distinct * (1 - 0.02)
                    checked += 1
        assert checked >= 1


class TestLeftToRightTotals:
    """Estimates add left to right, as ``sum()`` did before Python 3.12; its
    compensated summation from 3.12 on would change estimates, and with them
    join orders, between Python versions."""

    P, Q = "http://ex/p", "http://ex/q"

    @pytest.fixture
    def tenths(self):
        # each fragment: 10 subjects, one object per predicate, so a
        # two-pattern star estimates 10 * (1/10) * (1/10) rows
        spbfs = {f"g{i}": SPBF(ExactBitset(f"s{j}" for j in range(10)),
                               {self.P: ExactBitset({"a"}), self.Q: ExactBitset({"b"})})
                 for i in range(10)}
        s = Variable("s")
        star = StarPattern(s, (TriplePattern(s, iri(self.P), Variable("a")),
                               TriplePattern(s, iri(self.Q), Variable("b"))))
        union = Union_(tuple(Selection(star, fid, "n2") for fid in sorted(spbfs)))
        return union, PlanContext(spbfs=spbfs)

    def test_ordered_sum(self):
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert ordered_sum([]) == 0.0

    def test_union_cardinality_and_transfer(self, tenths):
        union, ctx = tenths
        cards = [card_plan(b, ctx) for b in union.branches]
        expected = 0.0
        for c in cards:
            expected += c
        assert expected != math.fsum(cards)  # the instance tells the two apart
        assert card_plan(union, ctx) == expected
        assert transfer_cost(union, "n1", ctx) == expected
