import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from starbloom.bloom import (BloomParams, ExactBitset, ParameterMismatchError,
                             PartitionedBitvector, SaturationWarning, build_spbf,
                             spbf_from_bytes, spbf_to_bytes)
from starbloom.fragments import fragment_by_cs
from starbloom.model import KnowledgeGraph, Triple, iri, literal

PARAMS = BloomParams()  # m=20000, k=5


def fill(n, prefix="http://ex/r", params=PARAMS):
    pb = PartitionedBitvector(params)
    terms = [iri(f"{prefix}{i}") for i in range(n)]
    for t in terms:
        pb.insert(t)
    return pb, terms


class TestInsertContains:
    def test_partition_appears_with_at_most_k_bits(self):
        pb = PartitionedBitvector(PARAMS)
        pb.insert(iri("http://dbpedia.org/resource/Copenhagen"))
        assert set(pb.partitions) == {"http://dbpedia.org/resource/"}
        assert 1 <= pb.set_bits() <= PARAMS.k

    def test_no_false_negatives_immediate(self):
        pb, terms = fill(200)
        assert all(pb.maybe_contains(t) for t in terms)

    def test_popcount_bounded(self):
        pb, _ = fill(300)
        assert pb.set_bits() <= 300 * PARAMS.k

    def test_absent_prefix_is_definite_no(self):
        pb, _ = fill(10)
        assert pb.maybe_contains(iri("http://other/ns#x")) is False

    def test_literals_and_iris_partition_separately(self):
        pb = PartitionedBitvector(PARAMS)
        pb.insert(literal("Copenhagen"))
        assert set(pb.partitions) == {"_lit:"}
        assert pb.maybe_contains(literal("Copenhagen"))
        assert not pb.maybe_contains(iri("http://ex/Copenhagen"))

    @given(st.sets(st.integers(0, 100000), max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives_property(self, values):
        pb = PartitionedBitvector(BloomParams(m=1024, k=3))
        terms = [iri(f"http://ex/v{v}") for v in values]
        for t in terms:
            pb.insert(t)
        assert all(pb.maybe_contains(t) for t in terms)

    def test_false_positive_rate_below_five_percent(self):
        pb, _ = fill(1000)
        absent = [iri(f"http://elsewhere/a{i}") for i in range(1000)]
        rate = sum(pb.maybe_contains(t) for t in absent) / len(absent)
        assert rate < 0.05  # analytic (1-e^(-kn/m))^k is ~5e-4 here


class TestIntersect:
    def test_common_prefixes_only(self):
        a = PartitionedBitvector(PARAMS)
        a.insert(iri("http://dbpedia.org/resource/X"))
        a.insert(iri("http://dbpedia.org/property/Y"))
        a.insert(iri("http://dbpedia.org/ontology/Z"))
        b = PartitionedBitvector(PARAMS)
        b.insert(iri("http://dbpedia.org/resource/X"))
        b.insert(iri("http://other/ns#W"))
        out = a.intersect(b)
        assert set(out.partitions) == {"http://dbpedia.org/resource/"}
        assert out.maybe_contains(iri("http://dbpedia.org/resource/X"))

    def test_idempotent(self):
        a, _ = fill(50)
        assert a.intersect(a) == a

    def test_commutative_associative(self):
        a, _ = fill(40, "http://ex/a")
        b, _ = fill(40, "http://ex/b")
        for t in (iri("http://ex/a1"), iri("http://ex/b2")):
            a.insert(t), b.insert(t)
        c, _ = fill(10, "http://ex/a")
        assert a.intersect(b) == b.intersect(a)
        assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))

    def test_soundness(self):
        rng = random.Random(4)
        a = PartitionedBitvector(PARAMS)
        b = PartitionedBitvector(PARAMS)
        shared = [iri(f"http://sh/e{i}") for i in range(100)]
        for t in shared:
            a.insert(t), b.insert(t)
        for i in range(500):
            a.insert(iri(f"http://a/{i}"))
            b.insert(iri(f"http://b/{i}"))
        both = a.intersect(b)
        assert all(both.maybe_contains(t) for t in shared)

    def test_parameter_mismatch(self):
        a = PartitionedBitvector(BloomParams(m=1024, k=3))
        b = PartitionedBitvector(BloomParams(m=2048, k=3))
        with pytest.raises(ParameterMismatchError):
            a.intersect(b)


class TestEstimate:
    def test_published_worked_example(self):
        pb = PartitionedBitvector(PARAMS, {
            "http://dbpedia.org/resource/": (1 << 736) - 1,
            "http://dbpedia.org/property/": (1 << 249) - 1,
        })
        assert 199 <= pb.estimate() <= 201

    def test_empty_is_zero(self):
        assert PartitionedBitvector(PARAMS).estimate() == 0.0
        assert PartitionedBitvector(PARAMS, {"p": 0}).estimate() == 0.0

    def test_insertion_count_oracle(self):
        pb, _ = fill(100)
        assert abs(pb.estimate() - 100) <= 5

    def test_monotone_under_insertion(self):
        pb = PartitionedBitvector(PARAMS)
        last = 0.0
        for i in range(200):
            pb.insert(iri(f"http://ex/m{i}"))
            now = pb.estimate()
            assert now >= last - 1e-9
            last = now

    def test_cached_estimate_follows_later_inserts(self):
        pb, _ = fill(40)
        pb.estimate()
        pb.insert(iri("http://ex/r40"))
        pb.insert(literal("forty-one"))
        fresh, _ = fill(41)
        fresh.insert(literal("forty-one"))
        assert pb.estimate() == fresh.estimate()
        assert pb.estimate() > fill(40)[0].estimate()

    def test_saturated_partition_caps_and_warns(self):
        pb = PartitionedBitvector(BloomParams(m=64, k=2), {"p": (1 << 64) - 1})
        with pytest.warns(SaturationWarning):
            est = pb.estimate()
        assert math.isfinite(est)
        assert est == pytest.approx(64 * math.log(64) / 2)

    def test_intersection_estimate_bounded(self):
        # statistical: estimate(a ∩ b) within 10% of the true overlap scale
        rng = random.Random(11)
        for trial in range(3):
            overlap = rng.randint(100, 600)
            a = PartitionedBitvector(PARAMS)
            b = PartitionedBitvector(PARAMS)
            for i in range(overlap):
                t = iri(f"http://sh/{trial}_{i}")
                a.insert(t), b.insert(t)
            for i in range(rng.randint(200, 1400)):
                a.insert(iri(f"http://a/{trial}_{i}"))
            for i in range(rng.randint(200, 1400)):
                b.insert(iri(f"http://b/{trial}_{i}"))
            est = a.intersect(b).estimate()
            upper = min(a.estimate(), b.estimate())
            assert est <= upper * 1.10
            assert est >= overlap * 0.9


class TestSPBF:
    def build_fragment(self, n_subjects=40):
        triples = []
        for i in range(n_subjects):
            s = f"http://ex/s{i}"
            triples.append(Triple(iri(s), iri("http://ex/p1"), iri(f"http://ex/o{i}")))
            triples.append(Triple(iri(s), iri("http://ex/p2"), literal(f"v{i}")))
        return fragment_by_cs(KnowledgeGraph(triples))[0]

    def test_build_contains_everything(self):
        frag = self.build_fragment()
        spbf = build_spbf(frag, PARAMS)
        assert set(spbf.predicates) == {"http://ex/p1", "http://ex/p2"}
        for t in frag.triples:
            assert spbf.maybe_subject(t.s)
            assert spbf.maybe_object(t.o, t.p.lexical)

    def test_single_triple_fragment(self):
        g = KnowledgeGraph([Triple(iri("http://ex/s"), iri("http://ex/p"), iri("http://ex/o"))])
        spbf = build_spbf(fragment_by_cs(g)[0], PARAMS)
        assert 1 <= spbf.subjects.set_bits() <= PARAMS.k
        assert 1 <= spbf.objects["http://ex/p"].set_bits() <= PARAMS.k

    def test_subject_estimate_five_thousand(self):
        triples = [Triple(iri(f"http://ex/s{i}"), iri("http://ex/p"), iri(f"http://ex/o{i % 97}"))
                   for i in range(5000)]
        frag = fragment_by_cs(KnowledgeGraph(triples))[0]
        spbf = build_spbf(frag, PARAMS)
        est = spbf.subjects.estimate()
        assert abs(est - 5000) <= 5000 * 0.05

    def test_predicate_bitvector(self):
        frag = self.build_fragment()
        spbf = build_spbf(frag, PARAMS)
        pv = spbf.predicate_bitvector()
        assert pv.maybe_contains(iri("http://ex/p1"))
        assert pv.maybe_contains(iri("http://ex/p2"))
        assert not pv.maybe_contains(iri("http://unseen/ns#p"))
        assert abs(pv.estimate() - 2) <= 1


class TestSerialization:
    def test_round_trip(self):
        frag = TestSPBF().build_fragment()
        spbf = build_spbf(frag, PARAMS)
        data = spbf_to_bytes(spbf)
        back = spbf_from_bytes(data)
        assert back.predicates == spbf.predicates
        assert back.subjects == spbf.subjects
        assert back.objects == spbf.objects
        assert spbf_to_bytes(back) == data  # byte-identical re-serialization

    def test_empty_objects_round_trip(self):
        g = KnowledgeGraph([Triple(iri("http://ex/s"), iri("http://ex/p"), iri("http://ex/o"))])
        spbf = build_spbf(fragment_by_cs(g)[0], PARAMS)
        assert spbf_from_bytes(spbf_to_bytes(spbf)) == spbf

    def test_large_round_trip_byte_identical(self):
        triples = [Triple(iri(f"http://ex/s{i}"), iri("http://ex/p"), iri(f"http://ex/o{i}"))
                   for i in range(5000)]
        spbf = build_spbf(fragment_by_cs(KnowledgeGraph(triples))[0], PARAMS)
        data = spbf_to_bytes(spbf)
        assert spbf_to_bytes(spbf_from_bytes(data)) == data

    def test_read_back_estimates_exactly_like_built(self):
        # subjects whose prefixes sort in another order than their terms do
        subjects = ["http://a/b/c/s0", "http://a/b/s0", "http://a/s0", "http://a/s1"]
        g = KnowledgeGraph(Triple(iri(s), iri("http://ex/p"), iri("http://ex/o"))
                           for s in subjects)
        spbf = build_spbf(fragment_by_cs(g)[0], PARAMS)
        back = spbf_from_bytes(spbf_to_bytes(spbf))
        assert back.subjects == spbf.subjects
        assert back.subjects.estimate() == spbf.subjects.estimate()

    def test_params_mismatch_on_read(self):
        frag = TestSPBF().build_fragment()
        data = spbf_to_bytes(build_spbf(frag, PARAMS))
        with pytest.raises(ParameterMismatchError):
            spbf_from_bytes(data, expected_params=BloomParams(m=4096, k=3))

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            spbf_from_bytes(b"nope" + b"\x00" * 20)


class TestExactBitset:
    def test_matches_bitvector_protocol(self):
        a = ExactBitset({"x", "y"})
        b = ExactBitset({"y", "z"})
        assert a.intersect(b).estimate() == 1
        assert a.union(b).estimate() == 3
        assert not a.is_empty()
        assert ExactBitset().is_empty()
