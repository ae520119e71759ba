import json
import random
from collections import Counter

import pytest

from helpers import AUTH, DEATH, LANG, NAT, PUB, example_counts_fixture
import starbloom.fragments as fragments_module
from starbloom.fragments import (FragmentStoreError, SubjectNotFoundError,
                                 characteristic_set, fragment_by_cs,
                                 load_fragments, merge_infrequent,
                                 merge_to_count, open_fragments,
                                 write_fragments)
from starbloom.model import KnowledgeGraph, Triple, iri
from starbloom.ntriples import parse_ntriples

CAPITAL = "http://dbpedia.org/ontology/capital"
CURRENCY = "http://dbpedia.org/ontology/currency"


def t(s, p, o):
    return Triple(iri(s), iri(p), iri(o))


class TestCharacteristicSet:
    def test_capital_currency_example(self):
        g = KnowledgeGraph([
            t("http://dbpedia.org/resource/Denmark", CAPITAL,
              "http://dbpedia.org/resource/Copenhagen"),
            t("http://dbpedia.org/resource/Denmark", CURRENCY,
              "http://dbpedia.org/resource/Danish_Krone"),
        ])
        cs = characteristic_set(iri("http://dbpedia.org/resource/Denmark"), g)
        assert set(cs.predicates) == {CAPITAL, CURRENCY}

    def test_single_triple(self):
        g = KnowledgeGraph([t("http://ex/s", "http://ex/p", "http://ex/o")])
        assert characteristic_set(iri("http://ex/s"), g).predicates == ("http://ex/p",)

    def test_missing_subject(self):
        g = KnowledgeGraph([t("http://ex/s", "http://ex/p", "http://ex/o")])
        with pytest.raises(SubjectNotFoundError):
            characteristic_set(iri("http://ex/nope"), g)

    def test_distinct_predicate_count(self):
        # scan oracle: j distinct predicates over k triples
        rng = random.Random(5)
        triples = []
        preds = [f"http://ex/p{i}" for i in range(6)]
        for i in range(20):
            triples.append(t("http://ex/s", rng.choice(preds), f"http://ex/o{i}"))
        g = KnowledgeGraph(triples)
        expected = {tr.p.lexical for tr in g.triples_with_subject(iri("http://ex/s"))}
        assert set(characteristic_set(iri("http://ex/s"), g).predicates) == expected


def random_graph(seed: int, n_subjects=40, n_preds=6, max_triples=500) -> KnowledgeGraph:
    rng = random.Random(seed)
    triples = set()
    for i in range(n_subjects):
        for p in rng.sample(range(n_preds), rng.randint(1, 3)):
            triples.add(t(f"http://ex/s{i}", f"http://ex/p{p}", f"http://ex/o{rng.randint(0, 30)}"))
            if len(triples) >= max_triples:
                break
    return KnowledgeGraph(triples)


def check_partition(fragments, graph):
    all_triples = [tr for f in fragments for tr in f.triples]
    assert len(all_triples) == len(set(all_triples)), "fragments overlap"
    assert set(all_triples) == set(graph.triples), "fragments do not cover the graph"
    for f in fragments:
        for tr in f.triples:
            assert tr.p.lexical in f.cs.predicates


class TestFragmentByCS:
    def test_running_example_five_sets(self):
        from helpers import RUNNING_CS, RUNNING_DATA
        frags = fragment_by_cs(parse_ntriples(RUNNING_DATA))
        assert sorted(f.cs.predicates for f in frags) == sorted(
            tuple(sorted(cs)) for cs in RUNNING_CS.values())

    def test_single_cs_graph(self):
        g = KnowledgeGraph([
            t("http://ex/a", "http://ex/p", "http://ex/x"),
            t("http://ex/b", "http://ex/p", "http://ex/y"),
        ])
        frags = fragment_by_cs(g)
        assert len(frags) == 1
        assert frags[0].triples == g.triples
        assert frags[0].subject_count == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_matches_group_by_oracle(self, seed):
        g = random_graph(seed)
        frags = fragment_by_cs(g)
        check_partition(frags, g)
        # independent group-by oracle
        groups = {}
        for tr in g:
            key = tuple(sorted({x.p.lexical for x in g.triples_with_subject(tr.s)}))
            groups.setdefault(key, set()).add(tr)
        assert {f.cs.predicates: set(f.triples) for f in frags} == groups
        # before merging, each subject sits in exactly one fragment
        seen = {}
        for f in frags:
            for tr in f.triples:
                assert seen.setdefault(tr.s, f.id) == f.id

    def test_graph_is_built_once(self):
        frag = fragment_by_cs(random_graph(2))[0]
        graph = frag.graph()
        assert frag.graph() is graph
        assert graph.triples == frag.triples

    def test_ids_stable(self):
        g = random_graph(1)
        a = {f.id for f in fragment_by_cs(g)}
        b = {f.id for f in fragment_by_cs(g)}
        assert a == b


class TestMergeInfrequent:
    def test_published_counts(self):
        g = example_counts_fixture()
        frags = fragment_by_cs(g)
        assert sorted(f.subject_count for f in frags) == [1, 2, 500, 500, 1000]
        merged, report = merge_infrequent(frags, min_subjects=50)
        by_cs = {f.cs.predicates: f for f in merged}
        assert len(merged) == 3
        assert by_cs[tuple(sorted((NAT, AUTH, DEATH)))].subject_count == 500
        assert by_cs[tuple(sorted((NAT, AUTH)))].subject_count == 503
        assert by_cs[tuple(sorted((PUB, LANG)))].subject_count == 1002
        check_partition(merged, g)
        assert len(report.absorbed) == 1  # the singleton folds in whole
        assert any(src for src, preds, dst in report.split)

    def test_no_op_when_all_frequent(self):
        g = random_graph(2)
        frags = fragment_by_cs(g)
        merged, report = merge_infrequent(frags, min_subjects=1)
        assert {f.id for f in merged} == {f.id for f in frags}
        assert not report.absorbed and not report.split

    @pytest.mark.parametrize("seed", range(5))
    def test_triple_multiset_preserved(self, seed):
        g = random_graph(seed)
        frags = fragment_by_cs(g)
        merged, _ = merge_infrequent(frags, min_subjects=5)
        assert Counter(tr for f in merged for tr in f.triples) == Counter(g.triples)
        check_partition(merged, g)

    @pytest.mark.parametrize("seed", range(3))
    def test_idempotent(self, seed):
        g = random_graph(seed)
        once, _ = merge_infrequent(fragment_by_cs(g), min_subjects=5)
        twice, report = merge_infrequent(once, min_subjects=5)
        assert {f.id: f.triples for f in twice} == {f.id: f.triples for f in once}

    def test_unmergeable_fragment_survives(self):
        g = KnowledgeGraph([
            t("http://ex/a", "http://ex/p1", "http://ex/x"),
            t("http://ex/b", "http://ex/p2", "http://ex/y"),
            t("http://ex/b2", "http://ex/p2", "http://ex/y2"),
        ])
        frags = fragment_by_cs(g)
        merged, report = merge_infrequent(frags, min_subjects=10)
        check_partition(merged, g)
        assert len(report.residual) == 2


class TestMergeToCount:
    def test_target_equal_input(self):
        g = random_graph(3)
        frags = fragment_by_cs(g)
        merged, report = merge_to_count(frags, len(frags))
        assert {f.id for f in merged} == {f.id for f in frags}
        assert report.achieved_count == len(frags)

    def test_published_example_target_three(self):
        g = example_counts_fixture()
        merged, report = merge_to_count(fragment_by_cs(g), 3)
        assert report.achieved_count == 3
        assert sorted(f.subject_count for f in merged) == [500, 503, 1002]
        check_partition(merged, g)

    @pytest.mark.parametrize("seed", range(4))
    def test_halving_preserves_triples(self, seed):
        g = random_graph(seed)
        frags = fragment_by_cs(g)
        target = max(1, (len(frags) + 1) // 2)
        merged, report = merge_to_count(frags, target)
        assert Counter(tr for f in merged for tr in f.triples) == Counter(g.triples)
        assert len(merged) <= len(frags)
        assert report.achieved_count == len(merged)

    def test_infeasible_reported(self):
        g = KnowledgeGraph([
            t("http://ex/a", "http://ex/p1", "http://ex/x"),
            t("http://ex/b", "http://ex/p2", "http://ex/y"),
        ])
        frags = fragment_by_cs(g)
        merged, report = merge_to_count(frags, 1)
        assert not report.feasible
        assert report.achieved_count == 2

    def test_bad_target(self):
        g = random_graph(0)
        frags = fragment_by_cs(g)
        with pytest.raises(ValueError):
            merge_to_count(frags, 0)
        with pytest.raises(ValueError):
            merge_to_count(frags, len(frags) + 1)


def test_manifest_round_trip(tmp_path):
    g = random_graph(9)
    frags = fragment_by_cs(g)
    write_fragments(frags, tmp_path)
    loaded = load_fragments(tmp_path)
    assert {f.id: (f.cs, f.triples, f.subject_count) for f in loaded} == \
           {f.id: (f.cs, f.triples, f.subject_count) for f in frags}


def test_load_fragments_errors_name_the_path(tmp_path):
    with pytest.raises(FragmentStoreError, match="manifest.jsonl"):
        load_fragments(tmp_path / "absent")
    write_fragments(fragment_by_cs(random_graph(9)), tmp_path)
    manifest = tmp_path / "manifest.jsonl"
    first = json.loads(manifest.read_text(encoding="utf-8").splitlines()[0])
    (tmp_path / first["file"]).write_text("<http://ex/s> <http://ex/p\n", encoding="utf-8")
    with pytest.raises(FragmentStoreError, match=first["file"]):
        load_fragments(tmp_path)
    manifest.write_text("\n" + json.dumps({"id": "x"}) + "\n", encoding="utf-8")
    with pytest.raises(FragmentStoreError, match="line 2: missing field 'file'"):
        load_fragments(tmp_path)


def count_parses(monkeypatch) -> list[str]:
    """Record the text of every fragment file parsed from now on."""
    parsed: list[str] = []
    parse = fragments_module.parse_ntriples
    monkeypatch.setattr(fragments_module, "parse_ntriples",
                        lambda text: parsed.append(text) or parse(text))
    return parsed


def test_opened_fragments_parse_on_first_use(tmp_path, monkeypatch):
    frags = fragment_by_cs(random_graph(9))
    write_fragments(frags, tmp_path)
    parsed = count_parses(monkeypatch)
    opened = {f.id: f for f in open_fragments(tmp_path)}
    assert parsed == []
    for f in frags:
        assert opened[f.id].file_digest() == f.file_digest()
    first = opened[frags[0].id]
    graph = first.graph()
    assert first.graph() is graph and first.triples == frags[0].triples
    assert len(parsed) == 1


def test_load_fragments_parses_each_file_once(tmp_path, monkeypatch):
    write_fragments(fragment_by_cs(random_graph(9)), tmp_path)
    parsed = count_parses(monkeypatch)
    loaded = load_fragments(tmp_path)
    for f in loaded:
        assert f.graph() is f.graph()
        assert f.triples == f.graph().triples
    assert len(parsed) == len(loaded)


def test_fragment_file_changed_after_opening(tmp_path):
    write_fragments(fragment_by_cs(random_graph(9)), tmp_path)
    f = open_fragments(tmp_path)[0]
    lines = f.path.read_text(encoding="utf-8").splitlines(keepends=True)
    f.path.write_text("".join(lines[1:]), encoding="utf-8")
    with pytest.raises(FragmentStoreError, match="changed after it was first read"):
        f.graph()
