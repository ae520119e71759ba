import hashlib
import random
import re

import pytest

from helpers import AUTH, NAT, RUNNING_ALLOCATION
from starbloom.bloom import BloomParams, build_spbf, spbf_from_bytes, spbf_to_bytes
from starbloom.fragments import fragment_by_cs
from starbloom.index import SPBFIndex, UnknownFragmentError
from starbloom.model import (KnowledgeGraph, StarPattern, Triple, TriplePattern,
                             Variable, evaluate_bgp, iri)
from starbloom.netsim import StateFileError, load_filters, write_filters

PARAMS = BloomParams(m=4096, k=3)


def star(subject, *pairs):
    pats = tuple(TriplePattern(subject, p, o) for p, o in pairs)
    return StarPattern(subject, pats)


class TestRelevantFragments:
    def test_p3_only_f5(self, running_index, stars):
        assert running_index.relevant_fragments(stars["?publication"]) == ["f5"]

    def test_p1_f1_f2(self, running_index, stars):
        assert running_index.relevant_fragments(stars["?person"]) == ["f1", "f2"]

    def test_absent_constant_prunes_everything(self, running_index):
        st = star(Variable("s"), (iri(NAT), iri("http://nowhere/ns#x")))
        assert running_index.relevant_fragments(st) == []

    def test_unknown_predicate(self, running_index):
        st = star(Variable("s"), (iri("http://nowhere/ns#p"), Variable("o")))
        assert running_index.relevant_fragments(st) == []

    def test_variable_predicate_checked_against_all_objects(self, running_index):
        # constant object must sit in some object filter of the fragment
        st = star(Variable("s"), (Variable("p"), iri("http://nowhere/ns#x")))
        assert running_index.relevant_fragments(st) == []


class TestHolders:
    def test_running_assignment(self, running_index):
        for fid, holders in RUNNING_ALLOCATION.items():
            assert running_index.holders(fid) == tuple(sorted(holders))

    def test_unknown_fragment(self, running_index):
        with pytest.raises(UnknownFragmentError):
            running_index.holders("f99")

    def test_replication_factor_invariant(self):
        from helpers import build_running_network
        net, _ = build_running_network(m=4096, k=3)
        for fid in net.fragments:
            assert len(net.allocation[fid]) == net.config.replication_factor


def random_fragment_universe(seed):
    rng = random.Random(seed)
    triples = set()
    for i in range(50):
        s = f"http://ex/s{i}"
        for p in rng.sample(range(5), rng.randint(1, 3)):
            triples.add(Triple(iri(s), iri(f"http://ex/p{p}"),
                               iri(f"http://ex/o{rng.randint(0, 20)}")))
    graph = KnowledgeGraph(triples)
    frags = fragment_by_cs(graph)
    index = SPBFIndex({f.id: build_spbf(f, PARAMS) for f in frags},
                      {f.id: ("n1",) for f in frags})
    return graph, frags, index


@pytest.mark.parametrize("seed", range(8))
def test_source_selection_soundness(seed):
    """No fragment holding a full star match may be pruned (brute-force oracle)."""
    rng = random.Random(seed * 7 + 1)
    graph, frags, index = random_fragment_universe(seed)
    some_subject = sorted(graph.subjects(), key=lambda t: t.nt())[0]
    queries = []
    for _ in range(10):
        n = rng.randint(1, 2)
        pairs = []
        for _ in range(n):
            p = iri(f"http://ex/p{rng.randint(0, 4)}")
            o = iri(f"http://ex/o{rng.randint(0, 20)}") if rng.random() < 0.5 else Variable(f"o{len(pairs)}")
            pairs.append((p, o))
        subject = some_subject if rng.random() < 0.2 else Variable("s")
        queries.append(star(subject, *pairs))
    for st in queries:
        relevant = set(index.relevant_fragments(st))
        for f in frags:
            if evaluate_bgp(st.patterns, f.graph()):
                assert f.id in relevant, "fragment with a real match was pruned"


def test_monotone_under_added_constants(running_index, stars):
    base = star(Variable("person"), (iri(NAT), Variable("c")))
    narrowed = star(Variable("person"),
                    (iri(NAT), Variable("c")),
                    (iri(AUTH), iri("http://nowhere/ns#b")))
    rel_base = set(running_index.relevant_fragments(base))
    rel_narrow = set(running_index.relevant_fragments(narrowed))
    assert rel_narrow <= rel_base


def test_filter_files_round_trip(tmp_path):
    _, _, index = random_fragment_universe(3)
    filters = {fid: index.spbf(fid) for fid in index.fragment_ids()}
    digests = write_filters(filters, tmp_path)
    assert set(digests) == set(filters)
    assert sorted(p.read_bytes() for p in tmp_path.iterdir()) == \
        sorted(spbf_to_bytes(f) for f in filters.values())
    assert load_filters(tmp_path, digests, filters, PARAMS) == filters


def test_every_truncated_filter_raises_value_error():
    _, _, index = random_fragment_universe(3)
    data = spbf_to_bytes(index.spbf(index.fragment_ids()[0]))
    assert spbf_from_bytes(data, expected_params=PARAMS).predicates
    for cut in range(len(data)):
        with pytest.raises(ValueError):
            spbf_from_bytes(data[:cut], expected_params=PARAMS)


@pytest.mark.parametrize("broken", [
    "missing directory", "missing digest", "missing file", "truncated file",
    "changed file", "other parameters"])
def test_load_filters_errors_name_the_path(tmp_path, broken):
    _, _, index = random_fragment_universe(3)
    outdir = tmp_path / "filters"
    digests = write_filters({fid: index.spbf(fid) for fid in index.fragment_ids()}, outdir)
    first = sorted(outdir.iterdir())[0]
    params, named = PARAMS, first
    if broken == "missing directory":
        outdir = tmp_path / "absent"
        named = outdir / first.name
    elif broken == "missing digest":
        del digests[min(digests)]
    elif broken == "missing file":
        first.unlink()
    elif broken == "truncated file":
        first.write_bytes(first.read_bytes()[:40])
        digests[min(digests)] = hashlib.sha256(first.read_bytes()).hexdigest()
    elif broken == "changed file":
        data = bytearray(first.read_bytes())
        data[-1] ^= 1  # a filter bit: the file still decodes
        first.write_bytes(bytes(data))
        assert spbf_from_bytes(bytes(data), expected_params=PARAMS)
    else:
        params = BloomParams(m=2048, k=3)
    with pytest.raises(StateFileError, match=re.escape(str(named))):
        load_filters(outdir, digests, index.fragment_ids(), params)
