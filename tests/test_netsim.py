import hashlib
import json
import random
from dataclasses import MISSING, fields
from math import ceil

import pytest

import starbloom.fragments as fragments_module
import starbloom.netsim as netsim_module
from helpers import (RUNNING_ALLOCATION, RUNNING_QUERY, RUNNING_QUERY_DISTINCT,
                     RUNNING_TOPOLOGY, build_running_network, create_connected,
                     plan_fragments, random_graph, random_network, random_star_query,
                     running_fragments)
from starbloom.bloom import BloomParams, spbf_to_bytes
from starbloom.fragments import fragment_by_cs, write_fragments
from starbloom.index import UnknownFragmentError
from starbloom.model import (KnowledgeGraph, Triple, bindings_multiset,
                             evaluate_bgp, iri)
from starbloom.netsim import (MESSAGE_HEADER_BYTES, NetworkConfig,
                              SimulationError, StateFileError, create_network,
                              dump_network, execute_plan, load_network,
                              measure_relevance, network_from_layout,
                              place_fragments, run_query, upload)
from starbloom.planner import explain, optimize
from starbloom.plans import Join, Selection, Union_
from starbloom.sparql import parse_query


def make_config(**kw):
    base = dict(node_count=5, neighbor_count=2, replication_factor=2,
                horizon=5, rng_seed=14, bloom=BloomParams(m=4096, k=3))
    base.update(kw)
    return NetworkConfig(**base)


class TestCreateNetwork:
    def test_seeded_topology_matches_published_neighbors(self):
        # seed 14 reproduces the five-node layout where n5 peers with n2 and n4
        net = create_network(make_config())
        assert set(net.nodes["n5"].neighbors) == {"n2", "n4"}

    def test_singleton(self):
        net = create_network(make_config(node_count=1, neighbor_count=0,
                                         replication_factor=1))
        assert net.node_ids() == ["n1"]
        assert net.nodes["n1"].neighbors == ()

    @pytest.mark.parametrize("seed", range(5))
    def test_structure(self, seed):
        cfg = make_config(rng_seed=seed)
        net = create_network(cfg)
        for nid, node in net.nodes.items():
            assert len(node.neighbors) == cfg.neighbor_count
            assert len(set(node.neighbors)) == cfg.neighbor_count
            assert nid not in node.neighbors

    def test_deterministic(self):
        a = create_network(make_config())
        b = create_network(make_config())
        assert {n: a.nodes[n].neighbors for n in a.nodes} == \
               {n: b.nodes[n].neighbors for n in b.nodes}

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            make_config(replication_factor=9)
        with pytest.raises(ValueError):
            make_config(neighbor_count=5)


class TestUpload:
    def test_running_allocation_factor_two(self):
        net, names = build_running_network(m=4096, k=3)
        assert len(net.fragments) == 5
        for fid, holders in net.allocation.items():
            assert len(holders) == 2
            assert set(holders) <= set(net.nodes)

    def test_full_replication(self):
        graph = KnowledgeGraph([Triple(iri("http://ex/s"), iri("http://ex/p"),
                                       iri("http://ex/o"))])
        net = create_network(make_config(replication_factor=5))
        upload(net, graph, "n1", min_subjects=1)
        for holders in net.allocation.values():
            assert set(holders) == set(net.nodes)

    @pytest.mark.parametrize("seed", range(4))
    def test_index_matches_horizon_oracle(self, seed):
        rng = random.Random(seed)
        cfg = make_config(rng_seed=seed, horizon=rng.choice([1, 2, 5]))
        net = create_network(cfg)
        graph = random_graph(rng, 20, [f"http://ex/p{i}" for i in range(4)])
        upload(net, graph, "n1", min_subjects=1)
        for nid, node in net.nodes.items():
            view = net.reachable(nid, cfg.horizon)
            expected = {fid for fid, holders in net.allocation.items()
                        if any(h in view for h in holders)}
            assert set(node.index.fragment_ids()) == expected
            for fid in expected:
                assert set(node.index.holders(fid)) == \
                       {h for h in net.allocation[fid] if h in view}
                assert node.index.spbf(fid) is net.filters[fid]
            for fid in set(net.allocation) - expected:
                with pytest.raises(UnknownFragmentError):
                    node.index.spbf(fid)

    def test_replication_infeasible(self):
        cfg = make_config(node_count=2, neighbor_count=1, replication_factor=2)
        net = network_from_layout(cfg, {"n1": [], "n2": ["n1"]})
        graph = KnowledgeGraph([Triple(iri("http://ex/s"), iri("http://ex/p"),
                                       iri("http://ex/o"))])
        with pytest.raises(SimulationError):
            upload(net, graph, "n1", min_subjects=1)  # n1 reaches only itself


class TestExecutePlan:
    def test_all_local_plan_is_silent(self):
        net, names = build_running_network(m=4096, k=3)
        f5 = next(fid for fid, name in names.items() if name == "f5")
        q = parse_query(
            "PREFIX dbo: <http://dbpedia.org/ontology/> "
            "SELECT * WHERE { ?publication dbo:publisher ?x . ?publication dbo:language ?y . }")
        rows, metrics, result = run_query(net, q, "n1")
        assert isinstance(result.plan, Selection) and result.plan.node == "n1"
        assert metrics.requests == 0 and metrics.transferred_bytes == 0
        assert len(rows) == 5

    def test_running_query_results_match_oracle(self, running_query):
        net, _ = build_running_network(m=4096, k=3)
        rows, metrics, result = run_query(net, running_query, "n1")
        whole = KnowledgeGraph({t for f in net.fragments.values() for t in f.triples})
        expected = evaluate_bgp(running_query.bgp, whole)
        assert bindings_multiset(rows) == bindings_multiset(expected)
        assert len(rows) == 6

    def test_running_query_message_trace(self, running_query):
        """Two delegated branch joins, each one request plus one result page."""
        net, names = build_running_network(m=4096, k=3)
        rows, metrics, result = run_query(net, running_query, "n1")
        # branch cardinalities from the oracle: 4 rows via n2, 2 rows via n3
        page = net.config.page_size
        expected_requests = (1 + max(1, ceil(4 / page))) + (1 + max(1, ceil(2 / page)))
        assert metrics.requests == expected_requests == 4
        assert metrics.transferred_bytes > 4 * MESSAGE_HEADER_BYTES
        assert metrics.relevant_fragments == 5
        assert metrics.relevant_nodes == 5

    def test_bind_join_batching(self):
        """65 left rows, omega 30: 3 binding batches to the remote holder. With
        a union of a local and a remote right selection only the remote one
        gets the batches, and rows keep the union's order; an empty left side
        sends nothing."""
        p, q, r = "http://ex/p", "http://ex/q", "http://ex/r"

        def network(triples, holders):
            cfg = NetworkConfig(node_count=2, neighbor_count=1, replication_factor=1,
                                horizon=2, rng_seed=1, bloom=BloomParams(m=4096, k=3),
                                omega=30, page_size=100)
            net = network_from_layout(cfg, {"n1": ["n2"], "n2": ["n1"]})
            frags = {f.cs.predicates: f for f in fragment_by_cs(KnowledgeGraph(triples))}
            place_fragments(net, frags.values(), "n1",
                            allocation={frags[preds].id: (node,) for preds, node in holders.items()})
            return net, {preds: f.id for preds, f in frags.items()}

        triples = []
        for i in range(65):
            triples.append(Triple(iri(f"http://ex/s{i}"), iri(p), iri(f"http://ex/m{i}")))
            triples.append(Triple(iri(f"http://ex/m{i}"), iri(q), iri(f"http://ex/o{i}")))
        net, fids = network(triples, {(p,): "n1", (q,): "n2"})
        query = parse_query(f"SELECT * WHERE {{ ?s <{p}> ?m . ?m <{q}> ?o . }}")
        from starbloom.model import star_decompose
        stars = {st.key: st for st in star_decompose(query.bgp)}
        plan = Join(Selection(stars["?s"], fids[(p,)], "n1"),
                    Selection(stars["?m"], fids[(q,)], "n2"), "n1")
        rows, metrics = execute_plan(net, plan, "n1", query)
        assert len(rows) == 65
        # 3 batches + 1 result page; everything else local
        assert metrics.requests == ceil(65 / 30) + ceil(65 / 100)

        # m40..m64 also have r: their ?m rows come from a local fragment
        triples += [Triple(iri(f"http://ex/m{i}"), iri(r), iri(f"http://ex/r{i}"))
                    for i in range(40, 65)]
        net, fids = network(triples, {(p,): "n1", (q,): "n2", (q, r): "n1"})
        local = Selection(stars["?m"], fids[(q, r)], "n1")
        remote = Selection(stars["?m"], fids[(q,)], "n2")
        trace: list[str] = []
        rows, metrics = execute_plan(
            net, Join(Selection(stars["?s"], fids[(p,)], "n1"), Union_((local, remote)), "n1"),
            "n1", query, trace)
        # a bindings row is 36 bytes for a one-digit index and 38 for two; a
        # result row is 54 or 57; each message adds a 64-byte header
        assert trace == ["bindings n1->n2 bytes=1198 rows=30",
                         "bindings n1->n2 bytes=1198 rows=30",
                         "bindings n1->n2 bytes=246 rows=5",
                         "page n2->n1 bytes=2314 rows=40"]
        # left rows come in the N-Triples order of ?s; the local selection's first
        left = sorted(range(65), key=lambda i: f"<http://ex/s{i}>")
        assert [row["m"].lexical for row in rows] == (
            [f"http://ex/m{i}" for i in left if i >= 40] + [f"http://ex/m{i}" for i in left if i < 40])

        # a left side without rows sends no message, not even to a remote selection
        (nothing,) = star_decompose(parse_query(
            f"SELECT * WHERE {{ ?s <{p}> ?m . ?s <{p}> <http://ex/nowhere> . }}").bgp)
        trace = []
        rows, metrics = execute_plan(
            net, Join(Selection(nothing, fids[(p,)], "n1"), Union_((local, remote)), "n1"),
            "n1", trace=trace)
        assert (rows, trace, metrics.requests, metrics.transferred_bytes) == ([], [], 0, 0)

    def test_missing_fragment_guard(self):
        net, names = build_running_network(m=4096, k=3)
        f5 = next(fid for fid, name in names.items() if name == "f5")
        q = parse_query(
            "PREFIX dbo: <http://dbpedia.org/ontology/> "
            "SELECT * WHERE { ?publication dbo:publisher ?x . ?publication dbo:language ?y . }")
        result = optimize(q, net.nodes["n1"].index, "n1")
        bogus = Selection(result.plan.star, result.plan.fragment, "n3")  # n3 lacks f5
        with pytest.raises(SimulationError):
            execute_plan(net, bogus, "n1")

    def test_selection_on_a_node_without_its_fragment_is_refused(self):
        net, names = build_running_network(m=4096, k=3)
        f5 = next(fid for fid, name in names.items() if name == "f5")
        q = parse_query(
            "PREFIX dbo: <http://dbpedia.org/ontology/> "
            "SELECT * WHERE { ?publication dbo:publisher ?x . ?publication dbo:language ?y . }")
        star = optimize(q, net.nodes["n1"].index, "n1").plan.star
        for node in sorted(set(net.nodes) - set(net.allocation[f5])):
            with pytest.raises(SimulationError, match=f"node {node} does not hold fragment {f5}"):
                execute_plan(net, Selection(star, f5, node), node)

    def test_monotone_metrics_and_determinism(self, running_query):
        net, _ = build_running_network(m=4096, k=3)
        rows1, m1, _ = run_query(net, running_query, "n1")
        rows2, m2, _ = run_query(net, running_query, "n1")
        assert bindings_multiset(rows1) == bindings_multiset(rows2)
        assert (m1.requests, m1.transferred_bytes) == (m2.requests, m2.transferred_bytes)
        assert m1.requests >= 0 and m1.transferred_bytes >= 0

    def test_message_trace_is_deterministic_and_complete(self, running_query):
        net, _ = build_running_network(m=4096, k=3)
        result = optimize(running_query, net.nodes["n1"].index, "n1")
        traces = []
        for _ in range(2):
            trace: list[str] = []
            rows, metrics = execute_plan(net, result.plan, "n1", running_query, trace=trace)
            assert len(trace) == metrics.requests
            total = sum(int(line.split("bytes=")[1].split()[0]) for line in trace)
            assert total == metrics.transferred_bytes
            traces.append(tuple(trace))
        assert traces[0] == traces[1]
        # the running plan: one request + one page per delegated branch
        kinds = [line.split()[0] for line in traces[0]]
        assert kinds == ["request", "page", "request", "page"]

    def test_running_plan_seeks_instead_of_scanning(self, running_query, monkeypatch):
        """Indexed star matching: no full scan, and the messages and row
        order of the full-scan executor."""
        scans = []
        full_scan = KnowledgeGraph.sorted_triples
        monkeypatch.setattr(KnowledgeGraph, "sorted_triples",
                            lambda self: scans.append(self) or full_scan(self))
        net, _ = build_running_network(m=4096, k=3)
        result = optimize(running_query, net.nodes["n1"].index, "n1")
        trace: list[str] = []
        rows, _ = execute_plan(net, result.plan, "n1", running_query, trace=trace)
        assert scans == []
        assert trace == ["request n1->n3 bytes=130 rows=0", "page n3->n1 bytes=326 rows=2",
                         "request n1->n2 bytes=130 rows=0", "page n2->n1 bytes=588 rows=4"]
        assert [(r["person"].lexical[-2:], r["publication"].lexical[-2:]) for r in rows] == [
            ("a4", "b5"), ("a5", "b1"), ("a3", "b4"), ("a1", "b1"), ("a1", "b2"), ("a2", "b3")]

    def test_run_query_builds_one_compatibility_graph(self, running_query, monkeypatch):
        import starbloom.netsim as netsim
        import starbloom.planner as planner
        calls = []
        build = planner.compatibility_graph
        monkeypatch.setattr(planner, "compatibility_graph",
                            lambda *a, **kw: calls.append(a) or build(*a, **kw))
        monkeypatch.setattr(netsim, "compatibility_graph", planner.compatibility_graph)
        net, _ = build_running_network(m=4096, k=3)
        _, metrics, _ = run_query(net, running_query, "n1")
        assert len(calls) == 1
        assert (metrics.relevant_fragments, metrics.relevant_nodes) == \
               measure_relevance(net, running_query, "n1") == (5, 5)


class TestMeasureRelevance:
    def test_running_query(self, running_query):
        net, _ = build_running_network(m=4096, k=3)
        nrf, nrn = measure_relevance(net, running_query, "n1")
        assert nrf == 5
        assert nrn == 5  # every node holds at least one surviving fragment

    def test_single_star(self):
        net, names = build_running_network(m=4096, k=3)
        q = parse_query(
            "PREFIX dbo: <http://dbpedia.org/ontology/> "
            "SELECT * WHERE { ?publication dbo:publisher ?x . ?publication dbo:language ?y . }")
        nrf, nrn = measure_relevance(net, q, "n1")
        assert (nrf, nrn) == (1, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_counting_bound(self, seed):
        rng = random.Random(seed + 100)
        cfg = make_config(rng_seed=seed)
        net = create_connected(cfg)
        graph = random_graph(rng, 15, [f"http://ex/p{i}" for i in range(4)])
        upload(net, graph, "n1", min_subjects=1)
        query = random_star_query(rng, [f"http://ex/p{i}" for i in range(4)])
        nrf, nrn = measure_relevance(net, query, "n1")
        assert nrn <= nrf * cfg.replication_factor
        assert nrn <= cfg.node_count


class TestStatePersistence:
    def test_dump_load_round_trip(self, tmp_path, running_query):
        from starbloom.fragments import write_fragments
        config = NetworkConfig(node_count=5, neighbor_count=2, replication_factor=2,
                               horizon=4, rng_seed=3, bloom=BloomParams(m=4096, k=3, seed=11),
                               omega=7, page_size=9)
        for settings in (config, config.bloom):  # every setting must survive the trip
            for f in fields(settings):
                default = f.default if f.default_factory is MISSING else f.default_factory()
                assert getattr(settings, f.name) != default, f.name
        net = network_from_layout(config, RUNNING_TOPOLOGY)
        frags, names = running_fragments()
        place_fragments(net, frags, "n1", {f.id: RUNNING_ALLOCATION[names[f.id]] for f in frags})
        frag_dir = tmp_path / "frags"
        write_fragments(net.fragments.values(), frag_dir)
        state = tmp_path / "net.json"
        dump_network(net, state, fragments_dir=frag_dir)
        loaded = load_network(state)
        assert loaded.config == net.config
        assert loaded.allocation == net.allocation
        assert {n: loaded.nodes[n].neighbors for n in loaded.nodes} == \
               {n: net.nodes[n].neighbors for n in net.nodes}
        rows_a, _, _ = run_query(net, running_query, "n1")
        rows_b, _, _ = run_query(loaded, running_query, "n1")
        assert bindings_multiset(rows_a) == bindings_multiset(rows_b)

    @pytest.mark.parametrize("key", ["node_count", "neighbor_count", "replication_factor",
                                     "horizon", "rng_seed", "bloom", "omega", "page_size",
                                     "bloom.m", "bloom.k", "bloom.seed"])
    def test_config_key_missing_is_a_state_error_and_extra_is_ignored(self, tmp_path, key):
        net, _ = build_running_network(m=4096, k=3)
        write_fragments(net.fragments.values(), tmp_path / "frags")
        state = tmp_path / "net.json"
        dump_network(net, state, fragments_dir=tmp_path / "frags")
        data = json.loads(state.read_text(encoding="utf-8"))
        section = data["config"]["bloom"] if key.startswith("bloom.") else data["config"]
        section["extra"] = 1
        state.write_text(json.dumps(data), encoding="utf-8")
        assert load_network(state).config == net.config
        del section[key.split(".")[-1]]
        state.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(StateFileError, match="malformed state file"):
            load_network(state)

    def test_state_naming_absent_fragments_is_a_state_error(self, tmp_path):
        from starbloom.fragments import write_fragments
        net, _ = build_running_network(m=4096, k=3)
        state = tmp_path / "net.json"
        frag_dir = tmp_path / "frags"
        dump_network(net, state, fragments_dir=frag_dir)
        with pytest.raises(StateFileError, match="cannot read fragments"):
            load_network(state)
        manifest = write_fragments(net.fragments.values(), frag_dir)
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        manifest.write_text("".join(lines[1:]), encoding="utf-8")
        with pytest.raises(StateFileError, match="unknown fragments"):
            load_network(state)


PREDICATES = [f"http://ex/p{i}" for i in range(5)]
PERSISTED_CASES = ["running"] + [(seed, min_subjects) for seed in range(4)
                                 for min_subjects in (1, 3)]


def persisted_case(case):
    """A network placed in process, and queries to run on it: the running
    example, or a seeded random network merged at ``min_subjects``."""
    if case == "running":
        net, _ = build_running_network(m=4096, k=3)
        return net, [parse_query(RUNNING_QUERY), parse_query(RUNNING_QUERY_DISTINCT)]
    seed, min_subjects = case
    rng = random.Random(seed)
    net = random_network(rng, random_graph(rng, 30, PREDICATES), min_subjects)
    return net, [random_star_query(rng, PREDICATES) for _ in range(6)]


def persist(net, tmp_path):
    """Write the network's fragments and its state file; return the state path."""
    frag_dir = tmp_path / "frags"
    write_fragments(net.fragments.values(), frag_dir)
    state = tmp_path / "net.json"
    dump_network(net, state, fragments_dir=frag_dir)
    return state


class TestLoadedNetwork:
    @pytest.mark.parametrize("case", PERSISTED_CASES, ids=lambda case: (
        case if case == "running" else f"seed{case[0]}-merge{case[1]}"))
    def test_same_indexes_plans_rows_and_bytes(self, tmp_path, monkeypatch, case):
        net, queries = persisted_case(case)
        state = persist(net, tmp_path)

        def no_build(*args):
            raise AssertionError("load_network built a filter")

        monkeypatch.setattr(netsim_module, "build_spbf", no_build)
        loaded = load_network(state)
        assert loaded.allocation == net.allocation
        for nid in net.node_ids():
            assert loaded.node(nid).index == net.node(nid).index
        origin = net.node_ids()[0]
        for query in queries:
            rows, metrics, result = run_query(net, query, origin)
            rows2, metrics2, result2 = run_query(loaded, query, origin)
            assert rows2 == rows
            assert explain(result2) == explain(result)
            for name in ("requests", "transferred_bytes", "relevant_fragments",
                         "relevant_nodes"):
                assert getattr(metrics2, name) == getattr(metrics, name)
        assert {fid: f.triples for fid, f in loaded.fragments.items()} == \
               {fid: f.triples for fid, f in net.fragments.items()}

    def test_one_star_query_parses_only_executed_fragments(self, tmp_path, monkeypatch):
        net, _ = build_running_network(m=4096, k=3)
        state = persist(net, tmp_path)
        parsed = []
        parse = fragments_module.parse_ntriples
        monkeypatch.setattr(fragments_module, "parse_ntriples",
                            lambda text, terms: parsed.append(text) or parse(text, terms))
        loaded = load_network(state)
        assert parsed == []
        q = parse_query(
            "PREFIX dbo: <http://dbpedia.org/ontology/> "
            "SELECT * WHERE { ?publication dbo:publisher ?x . ?publication dbo:language ?y . }")
        rows, _, result = run_query(loaded, q, "n1")
        assert len(parsed) == len(plan_fragments(result.plan)) == 1
        assert len(loaded.fragments) == 5
        run_query(loaded, q, "n1")
        assert len(parsed) == 1  # the parsed graph is kept
        assert bindings_multiset(rows) == bindings_multiset(run_query(net, q, "n1")[0])

    def test_edited_fragment_file_is_a_state_error(self, tmp_path):
        net, _ = build_running_network(m=4096, k=3)
        state = persist(net, tmp_path)
        path = tmp_path / "frags" / (min(net.fragments) + ".nt")
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")  # still valid N-Triples
        with pytest.raises(StateFileError, match=path.name):
            load_network(state)

    def test_filter_files_hold_only_filters(self, tmp_path):
        net, _ = build_running_network(m=4096, k=3)
        state = persist(net, tmp_path)
        data = json.loads(state.read_text(encoding="utf-8"))
        encoded = {fid: spbf_to_bytes(net.filters[fid]) for fid in net.allocation}
        files = (tmp_path / data["filters_dir"]).iterdir()
        assert sorted(p.read_bytes() for p in files) == sorted(encoded.values())
        assert data["filter_digests"] == {fid: hashlib.sha256(b).hexdigest()
                                          for fid, b in encoded.items()}
        assert data["allocation"] == {fid: list(h) for fid, h in net.allocation.items()}

    def test_state_without_filters_asks_to_recreate(self, tmp_path):
        net, _ = build_running_network(m=4096, k=3)
        state = persist(net, tmp_path)
        data = json.loads(state.read_text(encoding="utf-8"))
        del data["filters_dir"]
        state.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(StateFileError, match="network create"):
            load_network(state)

    def test_allocation_breaking_replication_is_a_state_error(self, tmp_path):
        net, _ = build_running_network(m=4096, k=3)
        state = persist(net, tmp_path)
        data = json.loads(state.read_text(encoding="utf-8"))
        data["config"]["replication_factor"] = 1
        state.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(StateFileError, match="needs exactly 1 holders"):
            load_network(state)

    def test_allocation_naming_an_unknown_node_is_a_state_error(self, tmp_path):
        net, _ = build_running_network(m=4096, k=3)
        state = persist(net, tmp_path)
        data = json.loads(state.read_text(encoding="utf-8"))
        fid = min(data["allocation"])
        data["allocation"][fid][0] = "n99"
        state.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(StateFileError, match="unknown node n99"):
            load_network(state)
