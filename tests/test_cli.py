import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (NAT, RUNNING_ALLOCATION, RUNNING_DATA, RUNNING_QUERY,
                     RUNNING_TOPOLOGY, running_fragments)
from starbloom.cli import EXIT_DATA, EXIT_OK, EXIT_UNSUPPORTED, main
from starbloom.fragments import load_fragments
from starbloom.model import evaluate_bgp
from starbloom.netsim import (NetworkConfig, dump_network, network_from_layout,
                              place_fragments)
from starbloom.ntriples import parse_ntriples
from starbloom.sparql import parse_query
from starbloom.bloom import BloomParams


@pytest.fixture()
def workspace(tmp_path):
    data = tmp_path / "data.nt"
    data.write_text(RUNNING_DATA, encoding="utf-8")
    query = tmp_path / "query.rq"
    query.write_text(RUNNING_QUERY, encoding="utf-8")
    return tmp_path, data, query


def build_state(tmp_path, frag_dir) -> Path:
    """Hand-assembled five-node network state over the fragment directory."""
    frags = load_fragments(frag_dir)
    _, names = running_fragments()
    config = NetworkConfig(node_count=5, neighbor_count=2, replication_factor=2,
                           horizon=5, rng_seed=7, bloom=BloomParams(m=4096, k=3))
    net = network_from_layout(config, {n: list(v) for n, v in RUNNING_TOPOLOGY.items()})
    allocation = {f.id: RUNNING_ALLOCATION[names[f.id]] for f in frags}
    place_fragments(net, frags, "n1", allocation=allocation)
    state = tmp_path / "network.json"
    dump_network(net, state, fragments_dir=frag_dir)
    return state


def run_cli_subprocess(args: list[str], cwd=None) -> subprocess.CompletedProcess:
    """Run ``python -m starbloom.cli`` in a fresh interpreter, so an uncaught
    exception shows as a traceback on stderr."""
    src = Path(sys.modules["starbloom"].__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "starbloom.cli", *args], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=60)


def oracle_rows() -> str:
    """The running query's canonical result table, from the brute-force oracle."""
    return oracle_table(RUNNING_QUERY, RUNNING_DATA)


def oracle_table(query: str, data: str) -> str:
    """A query's canonical result table over N-Triples text, from the brute-force oracle."""
    rows = evaluate_bgp(parse_query(query).bgp, parse_ntriples(data))
    variables = sorted({v for row in rows for v in row})
    lines = ["\t".join(f"?{v}" for v in variables)]
    lines.extend(sorted("\t".join(row[v].nt() for v in variables) for row in rows))
    return "\n".join(lines) + "\n"


CREATE_ARGS = ["--nodes", "5", "--neighbors", "2", "--replication", "2", "--seed", "14",
               "--bloom-m", "4096", "--bloom-k", "3"]


class TestFragmentCommand:
    def test_running_data_five_fragments(self, workspace, capsys):
        tmp_path, data, _ = workspace
        out = tmp_path / "frags"
        assert main(["fragment", str(data), str(out), "--min-subjects", "1"]) == EXIT_OK
        assert "fragments: 5" in capsys.readouterr().out
        loaded = load_fragments(out)
        assert len(loaded) == 5

    def test_min_subjects_one_is_raw(self, workspace):
        tmp_path, data, _ = workspace
        out = tmp_path / "frags"
        main(["fragment", str(data), str(out), "--min-subjects", "1"])
        from starbloom.fragments import fragment_by_cs
        raw = fragment_by_cs(parse_ntriples(RUNNING_DATA))
        assert {f.id for f in load_fragments(out)} == {f.id for f in raw}

    def test_target_count_matches_predicate_fragmentation(self, tmp_path):
        # one fragment per distinct predicate is the reference point; the
        # characteristic-set count starts higher and merges down to it
        preds = [f"http://ex/p{i}" for i in range(3)]
        lines = []
        combos = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        for si, combo in enumerate(combos):
            for pi in combo:
                lines.append(f"<http://ex/s{si}> <{preds[pi]}> <http://ex/o{si}_{pi}> .")
        data = tmp_path / "many.nt"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        graph = parse_ntriples(data.read_text(encoding="utf-8"))
        n_preds = len({t.p.lexical for t in graph})
        assert len({tuple(sorted({t.p.lexical for t in graph.triples_with_subject(s)}))
                    for s in graph.subjects()}) > n_preds
        out = tmp_path / "frags"
        code = main(["fragment", str(data), str(out), "--target-count", str(n_preds)])
        assert code == EXIT_OK
        assert len(load_fragments(out)) == n_preds

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.nt"
        bad.write_text("this is not ntriples\n", encoding="utf-8")
        assert main(["fragment", str(bad), str(tmp_path / "o")]) == EXIT_DATA

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["fragment"])  # missing required arguments
        assert err.value.code == 2

    def test_byte_identical_outputs(self, workspace):
        tmp_path, data, _ = workspace
        dirs = [tmp_path / "f1", tmp_path / "f2"]
        for d in dirs:
            assert main(["fragment", str(data), str(d), "--min-subjects", "1"]) == EXIT_OK
        a, b = ((d / "manifest.jsonl").read_bytes() for d in dirs)
        assert a == b
        names = sorted(p.name for p in dirs[0].glob("*.nt"))
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.mark.parametrize("command", ["fragment", "query"])
@pytest.mark.parametrize("bad", ["directory", "not utf-8"])
def test_unreadable_input_exit_code(tmp_path, command, bad):
    path = tmp_path / "input"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    args = ([str(path), str(tmp_path / "out")] if command == "fragment" else
            [str(path), "--state", str(tmp_path / "state.json"), "--node", "n1"])
    proc = run_cli_subprocess([command, *args])
    assert proc.returncode == EXIT_DATA
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert str(path) in proc.stderr


@pytest.mark.parametrize("case", ["fragment into a file", "results into a file",
                                  "state below a file", "too few reachable nodes",
                                  "min-subjects 0"])
def test_unwritable_output_or_bad_setting_exit_code(workspace, case):
    tmp_path, data, query = workspace
    frags = tmp_path / "frags"
    assert main(["fragment", str(data), str(frags), "--min-subjects", "1"]) == EXIT_OK
    args, cause = {
        "fragment into a file": (["fragment", str(data), str(data / "out")], data / "out"),
        "results into a file": (
            ["query", str(query), "--state", str(build_state(tmp_path, frags)),
             "--node", "n1", "--results", str(data / "rows.tsv")], data / "rows.tsv"),
        "state below a file": (
            ["network", "create", str(data / "n.json"), *CREATE_ARGS,
             "--fragments", str(frags)], data / "n.json.filters"),
        "too few reachable nodes": (
            ["network", "create", str(tmp_path / "n.json"), "--nodes", "3",
             "--neighbors", "0", "--replication", "2", "--seed", "1",
             "--fragments", str(frags)], "cannot replicate 2x across 1 reachable nodes"),
        "min-subjects 0": (["fragment", str(data), str(tmp_path / "x"), "--min-subjects", "0"],
                           "min_subjects must be >= 1"),
    }[case]
    proc = run_cli_subprocess(args)
    assert proc.returncode == EXIT_DATA
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert str(cause) in proc.stderr


class TestNetworkCommand:
    def test_create_and_load(self, workspace, capsys):
        tmp_path, data, _ = workspace
        frag_dir = tmp_path / "frags"
        main(["fragment", str(data), str(frag_dir), "--min-subjects", "1"])
        state = tmp_path / "net.json"
        code = main(["network", "create", str(state), "--nodes", "5",
                     "--neighbors", "2", "--replication", "2", "--seed", "14",
                     "--fragments", str(frag_dir), "--bloom-m", "4096", "--bloom-k", "3"])
        assert code == EXIT_OK
        capsys.readouterr()
        # seed 14 pins the topology where n5 peers with n2 and n4
        topology = json.loads(state.read_text(encoding="utf-8"))["topology"]
        assert topology["n5"] == ["n2", "n4"]
        assert main(["network", "load", str(state)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nodes: 5" in out and "n5:" in out

    def test_create_identical_for_same_seed(self, workspace):
        tmp_path, _, _ = workspace
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["network", "create", None, "--nodes", "4", "--neighbors", "1",
                "--replication", "1", "--seed", "3"]
        for path in (a, b):
            args[2] = str(path)
            assert main(args) == EXIT_OK
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("broken", [
        "missing directory", "missing manifest",
        "no file", "no id", "no predicates", "no subject_count",
        "predicates not strings", "predicates a string", "id not a string",
        "subject_count negative",
        "subject_count not an int", "other predicates", "duplicate id", "duplicate file"])
    def test_broken_fragment_directory_exit_code(self, workspace, broken):
        tmp_path, data, _ = workspace
        frag_dir = tmp_path / "frags"
        expected = "manifest.jsonl" if broken.startswith("missing") else "line 1"
        if broken != "missing directory":
            main(["fragment", str(data), str(frag_dir), "--min-subjects", "1"])
            manifest = frag_dir / "manifest.jsonl"
            if broken == "missing manifest":
                manifest.unlink()
            else:
                lines = manifest.read_text(encoding="utf-8").splitlines()
                meta = json.loads(lines[0])
                second = json.loads(lines[1])
                if broken.startswith("no "):
                    del meta[broken[3:]]
                elif broken == "duplicate id":
                    meta["id"] = second["id"]
                    expected = f"line 2: duplicate id {second['id']}, as on line 1"
                elif broken == "duplicate file":  # with that file's predicates
                    meta.update(file=second["file"], predicates=second["predicates"])
                    expected = f"line 2: duplicate file {frag_dir / second['file']}, as on line 1"
                else:
                    meta.update({"predicates not strings": {"predicates": [1, 2]},
                                 "predicates a string": {"predicates": meta["predicates"][0]},
                                 "id not a string": {"id": 7},
                                 "subject_count negative": {"subject_count": -1},
                                 "subject_count not an int": {"subject_count": "3"},
                                 "other predicates": {"predicates": ["http://ex/zzz"]}}[broken])
                if broken == "other predicates":  # the file holds other predicates
                    expected = f"{meta['file']}: predicates differ from its manifest entry"
                lines[0] = json.dumps(meta)
                manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = run_cli_subprocess(["network", "create", str(tmp_path / "net.json"),
                                   "--fragments", str(frag_dir), *CREATE_ARGS])
        assert proc.returncode == EXIT_DATA
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert expected in proc.stderr


@pytest.mark.parametrize("command", ["query", "plan"])
@pytest.mark.parametrize("text, code, message", [
    ("SELECT * WHERE { ?s ?p }", EXIT_DATA,
     "bad.rq:1:24: unexpected token '}' in triple pattern"),
    ("SELECT * WHERE { ?s ?p ?o .\n OPTIONAL { ?s ?q ?r } }", EXIT_UNSUPPORTED,
     "bad.rq:2:2: unsupported feature: OPTIONAL"),
])
def test_query_errors_name_path_line_and_column(tmp_path, command, text, code, message):
    (tmp_path / "bad.rq").write_text(text, encoding="utf-8")
    proc = run_cli_subprocess([command, "bad.rq", "--state", "state.json", "--node", "n1"],
                              cwd=tmp_path)
    assert proc.returncode == code
    assert proc.stderr == f"error: {message}\n"


def test_line_separator_literal_through_fragment_network_and_query(tmp_path):
    data_text = RUNNING_DATA + '<http://ex/a1> <http://ex/label> "a\u2028b" .\n'
    query_text = f"SELECT * WHERE {{ ?s <http://ex/label> ?o . ?s <{NAT}> ?c . }}"
    data, query = tmp_path / "data.nt", tmp_path / "label.rq"
    data.write_text(data_text, encoding="utf-8")
    query.write_text(query_text, encoding="utf-8")
    frag_dir, state, results = tmp_path / "frags", tmp_path / "net.json", tmp_path / "rows.tsv"
    assert main(["fragment", str(data), str(frag_dir), "--min-subjects", "1"]) == EXIT_OK
    assert main(["network", "create", str(state), "--fragments", str(frag_dir),
                 *CREATE_ARGS]) == EXIT_OK
    assert main(["query", str(query), "--state", str(state), "--node", "n1",
                 "--results", str(results), "--metrics", str(tmp_path / "m.json")]) == EXIT_OK
    expected = oracle_table(query_text, data_text)
    assert "a\u2028b" in expected
    assert results.read_text(encoding="utf-8") == expected


class TestQueryCommand:
    def test_query_results_match_oracle_bytes(self, workspace, capsys):
        tmp_path, data, query = workspace
        frag_dir = tmp_path / "frags"
        main(["fragment", str(data), str(frag_dir), "--min-subjects", "1"])
        state = build_state(tmp_path, frag_dir)
        results = tmp_path / "rows.tsv"
        metrics = tmp_path / "metrics.json"
        code = main(["query", str(query), "--state", str(state), "--node", "n1",
                     "--results", str(results), "--metrics", str(metrics), "--explain"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "join @n1" in out and "-- subqueries --" in out

        # canonical golden produced by the brute-force oracle
        assert results.read_text(encoding="utf-8") == oracle_rows()

        payload = json.loads(metrics.read_text(encoding="utf-8"))
        assert payload["results"] == 6
        assert payload["relevant_fragments"] == 5
        assert payload["requests"] == 4
        assert list(payload) == sorted(payload)

    def test_idempotent_given_same_inputs(self, workspace, capsys):
        tmp_path, data, query = workspace
        frag_dir = tmp_path / "frags"
        main(["fragment", str(data), str(frag_dir), "--min-subjects", "1"])
        state = build_state(tmp_path, frag_dir)
        outs = []
        for name in ("r1", "r2"):
            results = tmp_path / f"{name}.tsv"
            main(["query", str(query), "--state", str(state), "--node", "n1",
                  "--results", str(results)])
            outs.append(results.read_bytes())
        assert outs[0] == outs[1]

    def test_empty_result_query(self, workspace, capsys):
        tmp_path, data, _ = workspace
        frag_dir = tmp_path / "frags"
        main(["fragment", str(data), str(frag_dir), "--min-subjects", "1"])
        state = build_state(tmp_path, frag_dir)
        q = tmp_path / "empty.rq"
        q.write_text("SELECT * WHERE { ?s <http://nowhere/p> ?o . }", encoding="utf-8")
        results = tmp_path / "rows.tsv"
        metrics = tmp_path / "metrics.json"
        assert main(["query", str(q), "--state", str(state), "--node", "n1",
                     "--results", str(results), "--metrics", str(metrics)]) == EXIT_OK
        payload = json.loads(metrics.read_text(encoding="utf-8"))
        assert payload["results"] == 0
        assert payload["requests"] == 0

    def test_unsupported_feature_exit_code(self, workspace):
        tmp_path, data, _ = workspace
        frag_dir = tmp_path / "frags"
        main(["fragment", str(data), str(frag_dir), "--min-subjects", "1"])
        state = build_state(tmp_path, frag_dir)
        q = tmp_path / "opt.rq"
        q.write_text("SELECT * WHERE { ?s <http://x/p> ?o . "
                     "OPTIONAL { ?s <http://x/q> ?z . } }", encoding="utf-8")
        assert main(["query", str(q), "--state", str(state), "--node", "n1"]) == EXIT_UNSUPPORTED

    def test_unknown_node(self, workspace):
        tmp_path, data, query = workspace
        frag_dir = tmp_path / "frags"
        main(["fragment", str(data), str(frag_dir), "--min-subjects", "1"])
        state = build_state(tmp_path, frag_dir)
        assert main(["query", str(query), "--state", str(state), "--node", "n99"]) == EXIT_DATA

    @pytest.mark.parametrize("state_text", [None, "{}"])
    def test_bad_state_file_exit_code(self, workspace, state_text):
        tmp_path, _, query = workspace
        state = tmp_path / "state.json"
        if state_text is not None:
            state.write_text(state_text, encoding="utf-8")
        src = Path(sys.modules["starbloom"].__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "starbloom.cli", "query", str(query),
             "--state", str(state), "--node", "n1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == EXIT_DATA
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_plan_command_prints_table(self, workspace, capsys):
        tmp_path, data, query = workspace
        frag_dir = tmp_path / "frags"
        main(["fragment", str(data), str(frag_dir), "--min-subjects", "1"])
        state = build_state(tmp_path, frag_dir)
        assert main(["plan", str(query), "--state", str(state), "--node", "n1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "-- subqueries --" in out
        assert "join @n1" in out


class TestPersistedState:
    """``network create`` writes one filter file per fragment beside the state
    file and pins them and the fragment files by digest; ``query`` loads
    both."""

    @pytest.fixture()
    def created(self, workspace):
        tmp_path, data, query = workspace
        frag_dir = tmp_path / "frags"
        main(["fragment", str(data), str(frag_dir), "--min-subjects", "1"])
        state = tmp_path / "net.json"
        assert main(["network", "create", str(state), "--fragments", str(frag_dir),
                     *CREATE_ARGS]) == EXIT_OK
        return tmp_path, state, query

    def test_query_from_loaded_filters_matches_oracle(self, created):
        tmp_path, state, query = created
        assert len(list((tmp_path / "net.json.filters").iterdir())) == 5
        results = tmp_path / "rows.tsv"
        assert main(["query", str(query), "--state", str(state), "--node", "n1",
                     "--results", str(results), "--metrics", str(tmp_path / "m.json")]) == EXIT_OK
        assert results.read_text(encoding="utf-8") == oracle_rows()

    def test_relative_paths_resolve_against_the_state_file(self, workspace):
        tmp_path, data, query = workspace
        work, elsewhere = tmp_path / "work", tmp_path / "elsewhere"
        work.mkdir()
        elsewhere.mkdir()
        shutil.copy(data, work / "data.nt")
        for args in (["fragment", "data.nt", "frags", "--min-subjects", "1"],
                     ["network", "create", "state.json", "--fragments", "frags", *CREATE_ARGS]):
            proc = run_cli_subprocess(args, cwd=work)
            assert proc.returncode == EXIT_OK, proc.stderr
        state = json.loads((work / "state.json").read_text(encoding="utf-8"))
        assert (state["fragments_dir"], state["filters_dir"]) == ("frags", "state.json.filters")
        proc = run_cli_subprocess(["query", str(query), "--state", str(work / "state.json"),
                                   "--node", "n1", "--results", "rows.tsv"], cwd=elsewhere)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (elsewhere / "rows.tsv").read_text(encoding="utf-8") == oracle_rows()

    @pytest.mark.parametrize("broken", [
        "no filter directory", "truncated filter", "flipped filter bit", "other bloom m",
        "no filter directory named", "no filter digests", "old format state",
        "state not utf-8", "state not json", "edited fragment", "missing fragment",
        "unknown neighbour", "holders not names", "holder not a name", "holder twice",
        "manifest predicates not strings"])
    def test_broken_persisted_state_exit_code(self, created, broken):
        tmp_path, state, query = created
        filters = tmp_path / "net.json.filters"
        first = sorted(filters.iterdir())[0]
        fragment = sorted((tmp_path / "frags").glob("*.nt"))[0]
        recreate = "re-run `starbloom network create`"
        expected = first.name
        if broken == "no filter directory":
            shutil.rmtree(filters)
        elif broken == "truncated filter":
            first.write_bytes(first.read_bytes()[:40])
        elif broken == "flipped filter bit":
            data = bytearray(first.read_bytes())
            data[-1] ^= 1  # the last object filter's bits: the file still decodes
            first.write_bytes(bytes(data))
            expected = f"{first.name} does not have its recorded SHA-256; {recreate}"
        elif broken == "state not utf-8":
            state.write_bytes(state.read_bytes().replace(b'"n1"', b'"n\xff"', 1))
            expected = f"state file {state} is not UTF-8 JSON"
        elif broken == "state not json":
            state.write_text(state.read_text(encoding="utf-8").replace('"n1"', '"n\t1"', 1),
                             encoding="utf-8")
            expected = f"state file {state} is not UTF-8 JSON: Invalid control character"
        elif broken in ("edited fragment", "missing fragment"):
            if broken == "edited fragment":
                lines = fragment.read_text(encoding="utf-8").splitlines(keepends=True)
                fragment.write_text("".join(lines[:-1]), encoding="utf-8")  # still valid
            else:
                fragment.unlink()
            expected = fragment.name
        elif broken == "manifest predicates not strings":
            manifest = tmp_path / "frags" / "manifest.jsonl"
            lines = manifest.read_text(encoding="utf-8").splitlines()
            meta = json.loads(lines[0])
            meta["predicates"] = [1, 2]
            lines[0] = json.dumps(meta)
            manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
            expected = f"{manifest} line 1: "
        else:
            data = json.loads(state.read_text(encoding="utf-8"))
            if broken == "other bloom m":
                data["config"]["bloom"]["m"] = 2048
            elif broken == "unknown neighbour":
                data["topology"]["n1"][0] = "n6"
                expected = "unknown neighbours: ['n6']"
            elif broken in ("holders not names", "holder not a name", "holder twice"):
                fid = min(data["allocation"])
                data["allocation"][fid] = {"holders not names": [2, 5],
                                           "holder not a name": [["n2"], "n5"],
                                           "holder twice": ["n2", "n2"]}[broken]
                expected = f"malformed allocation in state file {state}"
            elif broken == "no filter digests":
                del data["filter_digests"]
                expected = f"{first} does not have its recorded SHA-256; {recreate}"
            else:
                if broken == "old format state":
                    data["slices_dir"] = "net.json.slices"
                    data["slice_digests"] = {f"{fid}.slice": digest for fid, digest
                                             in data.pop("filter_digests").items()}
                del data["filters_dir"]
                expected = f"{state} names no filter directory; {recreate}"
            state.write_text(json.dumps(data), encoding="utf-8")
        proc = run_cli_subprocess(["query", str(query), "--state", str(state), "--node", "n1"])
        assert proc.returncode == EXIT_DATA
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert str(tmp_path) in proc.stderr
        assert expected in proc.stderr
