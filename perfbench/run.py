#!/usr/bin/env python3
"""Seeded closed-loop benchmark of starbloom: one client, one process.

    python3 perfbench/run.py --workload plan-heavy --seed 1 --seconds 10 --trace 0

Generates a data set and a query pool from the seed (``workloads.py``), sets
the system up several times, computes every query's expected answers with the
brute-force ``evaluate_bgp`` oracle, then runs whole passes over the pool until
``--seconds`` have passed, checking every operation against the oracle.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
pass and then traced passes, and prints the per-layer metrics (see
``README.md``). The last line of standard output is one JSON object. Spans and
fingerprints go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# the benchmark writes only under perfbench/out/, not bytecode caches into src/
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ORIGIN = "n1"
MIN_SETUPS = 5
# how many per-query samples must lie beyond the reported tail percentile
TAIL_BEYOND = 10
# Host-speed reference: a fixed piece of pure-Python work that never touches
# the engine, timed before every operation and set-up. Each time is scaled by
# REFERENCE_MS / (median of the REFERENCE_WINDOW nearest reference timings), so
# that spells in which a shared host runs everything slower cancel out.
REFERENCE_MS = 6.0
REFERENCE_WINDOW = 9

END_TO_END = [
    ("query_p50_ms", "ms"), ("query_tail_ms", "ms"), ("queries_per_s", "1/s"),
    ("bytes_per_query", "B"), ("requests_per_query", "msgs"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# name, unit, better, what it is measured over, end-to-end metric/workload it should move
PER_LAYER = [
    ("sparql.parse_ms", "ms", "lower", "op", "query_p50_ms on all workloads (a floor)"),
    ("ntriples.parse_s", "s", "lower", "op", "query_p50_ms on cold-cli"),
    ("ntriples.triples_per_s", "1/s", "higher", "all", "query_p50_ms on cold-cli; setup_s"),
    ("fragments.cs_s", "s", "lower", "setup", "setup_s"),
    ("fragments.merge_s", "s", "lower", "setup", "setup_s"),
    ("fragments.count", "count", "lower", "setup", "setup_s"),
    ("fragments.split_pieces", "count", "lower", "setup", "setup_s; error_rate on exec-heavy"),
    ("fragments.load_s", "s", "lower", "op", "query_p50_ms on cold-cli"),
    ("fragments.graph_builds", "count", "lower", "op", "query_p50_ms on exec-heavy"),
    ("fragments.graph_s", "s", "lower", "op", "query_p50_ms on exec-heavy"),
    ("bloom.build_calls", "count", "lower", "op", "query_p50_ms on cold-cli"),
    ("bloom.build_s", "s", "lower", "op", "query_p50_ms on cold-cli"),
    ("bloom.estimate_calls", "count", "lower", "op", "query_p50_ms on plan-heavy"),
    ("bloom.estimate_s", "s", "lower", "op", "query_p50_ms on plan-heavy"),
    ("bloom.intersect_calls", "count", "lower", "op", "query_p50_ms on plan-heavy"),
    ("bloom.filter_bytes", "B", "lower", "setup", "peak_rss_mb"),
    ("index.combine_s", "s", "lower", "op", "query_p50_ms on cold-cli"),
    ("index.relevant_lookups", "count", "lower", "op", "query_p50_ms on plan-heavy"),
    ("index.relevant_s", "s", "lower", "op", "query_p50_ms on plan-heavy"),
    ("cardinality.card_star_calls", "count", "lower", "op",
     "query_p50_ms, query_tail_ms on plan-heavy"),
    ("cardinality.join_calls", "count", "lower", "op", "query_p50_ms, query_tail_ms on plan-heavy"),
    ("cardinality.card_plan_calls", "count", "lower", "op",
     "query_p50_ms, query_tail_ms on plan-heavy"),
    ("cardinality.s", "s", "lower", "op", "query_p50_ms, query_tail_ms on plan-heavy"),
    ("planner.optimize_ms", "ms", "lower", "op", "query_p50_ms, query_tail_ms on plan-heavy"),
    ("planner.compat_ms", "ms", "lower", "op", "query_p50_ms on plan-heavy"),
    ("planner.compat_calls_per_query", "count", "lower", "op", "query_p50_ms on plan-heavy"),
    ("planner.table_entries", "count", "lower", "op", "query_p50_ms on plan-heavy"),
    ("planner.relevant_fragments", "count", "lower", "op",
     "bytes_per_query on exec-heavy, cold-cli"),
    ("planner.relevant_nodes", "count", "lower", "op", "bytes_per_query on exec-heavy, cold-cli"),
    ("planner.qerror_p50", "ratio", "lower", "op", "bytes_per_query on exec-heavy, cold-cli"),
    ("model.match_star_calls", "count", "lower", "op", "query_p50_ms, query_tail_ms on exec-heavy"),
    ("model.match_star_s", "s", "lower", "op", "query_p50_ms, query_tail_ms on exec-heavy"),
    ("model.full_scans", "count", "lower", "op", "query_p50_ms, query_tail_ms on exec-heavy"),
    ("netsim.execute_ms", "ms", "lower", "op", "query_p50_ms on exec-heavy"),
    ("netsim.place_s", "s", "lower", "setup", "setup_s"),
    ("netsim.load_network_s", "s", "lower", "op", "query_p50_ms on cold-cli"),
    ("netsim.bind_batches", "count", "lower", "op", "requests_per_query, bytes_per_query"),
    ("netsim.pages", "count", "lower", "op", "requests_per_query, bytes_per_query"),
    ("netsim.delegations", "count", "lower", "op", "requests_per_query, bytes_per_query"),
    ("cli.main_ms", "ms", "lower", "op", "query_p50_ms on cold-cli"),
    ("setup.ntriples.parse_s", "s", "lower", "setup", "setup_s"),
    ("setup.bloom.build_calls", "count", "lower", "setup", "setup_s"),
    ("setup.bloom.build_s", "s", "lower", "setup", "setup_s"),
    ("setup.index.combine_s", "s", "lower", "setup", "setup_s"),
] + [
    (f"{m}.self_ms", "ms", "lower", "op", "self time per operation; explains query_p50_ms")
    for m in ["bench", "sparql", "ntriples", "fragments", "bloom", "index", "cardinality",
              "planner", "model", "netsim", "cli"]
] + [
    ("trace.overhead_ms", "ms", "lower", "op", "traced minus untraced time per operation"),
] + [
    (f"{layer}.stars{k}", "ms", "lower", "op", "per-star-count roll-up of the same metric")
    for layer in ["planner.optimize_ms", "netsim.execute_ms"] for k in range(1, 6)
]


def _reference_work() -> int:
    counts: dict = {}
    for i in range(30000):
        key = ("k", i % 997)
        counts[key] = counts.get(key, 0) + i
    return sorted(counts.values())[-1]


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, broken set-up)."""


def _import_engine():
    src = ROOT / "src"
    if not (src / "starbloom" / "__init__.py").is_file():
        raise BenchError(f"starbloom sources not found under {src}")
    sys.path.insert(0, str(src))
    import starbloom  # noqa: F401
    from starbloom import (bloom, cli, fragments, model, netsim, ntriples,  # noqa: F401
                           planner, plans, sparql)
    return sys.modules["starbloom"]


# -- systems under test ---------------------------------------------------------


def _oracle_graph(model, graph):
    """The whole graph, with the sorted triple list the brute-force evaluator
    asks for on every unbound-subject pattern computed once."""

    class OracleGraph(model.KnowledgeGraph):
        def sorted_triples(self):
            cached = self.__dict__.get("_sorted")
            if cached is None:
                cached = self.__dict__["_sorted"] = model.KnowledgeGraph.sorted_triples(self)
            return cached

    return OracleGraph(graph.triples)


def _split_subjects(net) -> set[str]:
    """Subjects whose triples ended up in more than one fragment."""
    seen: dict = {}
    for fid, frag in net.fragments.items():
        for t in frag.triples:
            seen.setdefault(t.s, set()).add(fid)
    return {s.nt() for s, fids in seen.items() if len(fids) > 1}


class InProcess:
    """plan-heavy and exec-heavy: the network lives in this process and every
    operation is parse_query + run_query at the origin."""

    def __init__(self, sb, spec, workdir: Path):
        self.sb, self.spec, self.params = sb, spec, spec.params

    def config(self):
        return self.sb.netsim.NetworkConfig(
            node_count=8, neighbor_count=3, replication_factor=2, horizon=5, rng_seed=1,
            bloom=self.sb.bloom.BloomParams(m=self.params["bloom_m"], k=self.params["bloom_k"]))

    def setup(self):
        sb = self.sb
        graph = sb.ntriples.parse_ntriples(self.spec.ntriples)
        frags = sb.fragments.fragment_by_cs(graph)
        if self.params["min_subjects"] > 1:
            frags, _ = sb.fragments.merge_infrequent(frags, self.params["min_subjects"])
        net = sb.netsim.create_network(self.config())
        sb.netsim.place_fragments(net, frags, origin=ORIGIN)
        self.graph, self.net = graph, net

    def reference(self):
        """Facts about the set-up system that the checks need."""
        missing = set(self.net.fragments) - set(self.net.node(ORIGIN).index.fragment_ids())
        if missing:
            raise BenchError(f"{len(missing)} fragments are invisible from the origin")
        self.split_subjects = _split_subjects(self.net)

    def op(self, i: int):
        sb = self.sb
        query = sb.sparql.parse_query(self.spec.queries[i].text)
        return sb.netsim.run_query(self.net, query, ORIGIN)

    def outcome(self, i: int, out) -> dict:
        rows, metrics, result = out
        est = self.sb.cardinality.card_plan(result.plan, result.context)
        return {"rows": self.sb.model.bindings_multiset(rows), "nrows": len(rows),
                "requests": metrics.requests, "bytes": metrics.transferred_bytes,
                "nrf": metrics.relevant_fragments, "nrn": metrics.relevant_nodes,
                "plan": self.sb.plans.render_plan(result.plan), "estimate": est}


class ColdCli(InProcess):
    """cold-cli: set-up writes the data, fragments and a state file through the
    command line; every operation is one ``starbloom query`` call in this
    process, which reloads the whole network."""

    def __init__(self, sb, spec, workdir: Path):
        super().__init__(sb, spec, workdir)
        self.dir = workdir
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.data = self.dir / "data.nt"
        self.data.write_text(spec.ntriples, encoding="utf-8")
        self.qfiles = []
        for q in spec.queries:
            path = self.dir / f"{q.qid}.rq"
            path.write_text(q.text, encoding="utf-8")
            self.qfiles.append(path)
        self.results = self.dir / "results.tsv"
        self.metrics = self.dir / "metrics.json"

    def _cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.sb.cli.main(argv)
        if rc != 0:
            raise BenchError(f"starbloom {' '.join(argv)} exited with {rc}")

    def setup(self):
        frags, state = self.dir / "fragments", self.dir / "state.json"
        self._cli(["fragment", str(self.data), str(frags),
                   "--min-subjects", str(self.params["min_subjects"])])
        self._cli(["network", "create", str(state), "--nodes", "8", "--neighbors", "3",
                   "--replication", "2", "--seed", "1", "--fragments", str(frags),
                   "--bloom-m", str(self.params["bloom_m"]),
                   "--bloom-k", str(self.params["bloom_k"])])
        self.state = state

    def reference(self):
        sb = self.sb
        self.graph = sb.ntriples.parse_ntriples(self.spec.ntriples)
        self.net = sb.netsim.load_network(self.state)
        super().reference()
        # the plan each call runs, for the fingerprint and the q-error
        self.plans = []
        for q in self.spec.queries:
            result = sb.planner.optimize(sb.sparql.parse_query(q.text),
                                         self.net.node(ORIGIN).index, ORIGIN)
            self.plans.append((sb.plans.render_plan(result.plan),
                               sb.cardinality.card_plan(result.plan, result.context)))

    def op(self, i: int):
        return self.sb.cli.main(["query", str(self.qfiles[i]), "--state", str(self.state),
                                 "--node", ORIGIN, "--results", str(self.results),
                                 "--metrics", str(self.metrics)])

    def outcome(self, i: int, rc) -> dict:
        if rc != 0:
            raise BenchError(f"query {self.spec.queries[i].qid} exited with {rc}")
        lines = self.results.read_text(encoding="utf-8").splitlines()
        header = [v[1:] for v in lines[0].split("\t")] if lines and lines[0] else []
        rows: dict = {}
        for line in lines[1:]:
            key = tuple(sorted((v, t) for v, t in zip(header, line.split("\t")) if t))
            rows[key] = rows.get(key, 0) + 1
        m = json.loads(self.metrics.read_text(encoding="utf-8"))
        plan, est = self.plans[i]
        return {"rows": rows, "nrows": len(lines) - 1, "requests": m["requests"],
                "bytes": m["transferred_bytes"], "nrf": m["relevant_fragments"],
                "nrn": m["relevant_nodes"], "plan": plan, "estimate": est}


SYSTEMS = {"plan-heavy": InProcess, "exec-heavy": InProcess, "cold-cli": ColdCli}


# -- checks ------------------------------------------------------------------------


def classify(got: dict, want: dict, subject_vars: set[str], split_subjects: set[str]) -> str:
    """'ok', 'lost-split' (only rows lost, each binding a star subject to a
    subject whose triples merging split across fragments: the known merge
    defect), or 'wrong'."""
    if got == want:
        return "ok"
    for key, n in got.items():
        if n > want.get(key, 0):
            return "wrong"
    for key, n in want.items():
        if n > got.get(key, 0):
            if not any(var in subject_vars and term in split_subjects for var, term in key):
                return "wrong"
    return "lost-split"


def fingerprint(outcome: dict) -> str:
    rows = sorted((repr(k), n) for k, n in outcome["rows"].items())
    text = json.dumps([outcome["plan"], rows, outcome["bytes"], outcome["requests"]])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- measurement -------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the median when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    def __init__(self, sb, spec, seed: int, seconds: float, out: Path = OUT):
        self.sb, self.spec, self.seed, self.seconds, self.out = sb, spec, seed, seconds, out
        self.system = SYSTEMS[spec.name](sb, spec, out / f"{spec.name}-{seed}")
        self.setup_times: list[tuple[float, int]] = []  # (seconds, reference index)
        self.reference_ms: list[float] = []
        self.outcomes: list[dict] = []
        self.attempted = self.failed = self.raised = self.lost = 0
        self.unexplained = False

    def time_reference(self) -> int:
        start = time.perf_counter()
        _reference_work()
        self.reference_ms.append((time.perf_counter() - start) * 1000.0)
        return len(self.reference_ms) - 1

    def scale(self, pos: int) -> float:
        """Factor that brings a time taken next to reference timing ``pos`` to
        the nominal host speed."""
        half = REFERENCE_WINDOW // 2
        near = self.reference_ms[max(0, pos - half):pos + half + 1]
        return REFERENCE_MS / statistics.median(near)

    def timed_setup(self) -> None:
        pos = self.time_reference()
        start = time.perf_counter()
        self.system.setup()
        self.setup_times.append((time.perf_counter() - start, pos))

    def set_up(self, tracer=None) -> None:
        """One timed set-up (traced when a tracer is given), then the facts and
        expected answers the checks need, outside any timed window."""
        if tracer is not None:
            tracer.install()
        self.timed_setup()
        if tracer is not None:
            tracer.remove()
        self.system.reference()
        model = self.sb.model
        graph = _oracle_graph(model, self.system.graph)
        self.expected = []
        self.subject_vars = []
        for q in self.spec.queries:
            query = self.sb.sparql.parse_query(q.text)
            rows = model.evaluate_bgp(query.bgp, graph, distinct=query.distinct,
                                      projection=query.projection)
            self.expected.append(model.bindings_multiset(rows))
            self.subject_vars.append({st.subject.name for st in model.star_decompose(query.bgp)
                                      if isinstance(st.subject, model.Variable)})

    def check(self, i: int, out) -> None:
        """Compare one operation with the oracle and with earlier passes."""
        outcome = self.system.outcome(i, out)
        verdict = classify(outcome["rows"], self.expected[i], self.subject_vars[i],
                           self.system.split_subjects)
        if verdict != "ok":
            self.failed += 1
            self.lost += verdict == "lost-split"
            self.unexplained |= verdict == "wrong"
        outcome["fingerprint"] = fingerprint(outcome)
        if i < len(self.outcomes):
            if self.outcomes[i]["fingerprint"] != outcome["fingerprint"]:
                self.unexplained = True  # same query, different plan, rows or bytes
        else:
            self.outcomes.append(outcome)

    def passes(self, deadline_s: float, tracer=None,
               between=None) -> tuple[dict[int, list[tuple[float, int]]], list[float]]:
        """Whole passes over the pool until ``deadline_s`` of operation time
        has passed (at least one), calling ``between()`` after each pass.
        Returns per query its latencies (ms, each with the index of the
        reference timing taken just before it) and the operation wall time
        (s) of each pass."""
        lat: dict[int, list[tuple[float, int]]] = {}
        pass_times: list[float] = []
        n = len(self.spec.queries)
        while True:
            busy = 0.0
            for i in range(n):
                self.attempted += 1
                op_id = f"{self.spec.queries[i].qid}#{len(lat.get(i, []))}"
                pos = self.time_reference()
                start = time.perf_counter()
                try:
                    if tracer is None:
                        out = self.system.op(i)
                    else:
                        with tracer.operation(op_id):
                            out = self.system.op(i)
                    elapsed = time.perf_counter() - start
                except Exception as e:  # an operation that raises is a failed operation
                    elapsed = time.perf_counter() - start
                    self.failed += 1
                    self.raised += 1
                    self.unexplained = True
                    print(f"operation {op_id} raised {type(e).__name__}: {e}", file=sys.stderr)
                    out = None
                busy += elapsed
                lat.setdefault(i, []).append((elapsed * 1000.0, pos))
                if out is not None:
                    if tracer is not None:
                        tracer.remove()
                    try:
                        self.check(i, out)
                    except Exception as e:
                        self.failed += 1
                        self.unexplained = True
                        print(f"check of {op_id} raised {type(e).__name__}: {e}", file=sys.stderr)
                    if tracer is not None:
                        tracer.install()
            pass_times.append(busy)
            if between is not None:
                between()
            if sum(pass_times) >= deadline_s:
                return lat, pass_times

    def fingerprint_file(self) -> tuple[str, Path]:
        per_query = {q.qid: o["fingerprint"] for q, o in zip(self.spec.queries, self.outcomes)}
        digest = hashlib.sha256(json.dumps(per_query, sort_keys=True).encode()).hexdigest()
        path = self.out / f"fingerprint-{self.spec.name}-{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.spec.name, "seed": self.seed,
                                    "params": self.spec.params, "digest": digest,
                                    "queries": per_query}, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        return digest, path


def end_to_end(run: Run) -> dict:
    # Set-ups are spread over the run, one before and one after each pass, so
    # that a slow spell of the host does not cover all of them.
    run.set_up()
    lat, pass_times = run.passes(run.seconds, between=run.timed_setup)
    while len(run.setup_times) < MIN_SETUPS:
        run.timed_setup()
    scaled = {i: [ms * run.scale(pos) for ms, pos in v] for i, v in lat.items()}
    per_query = [statistics.median(v) for v in scaled.values()]
    raw_per_query = [statistics.median(ms for ms, _ in v) for v in lat.values()]
    ops = sum(len(v) for v in lat.values())
    busy = sum(pass_times)
    tail_ms, pct = tail(per_query)
    n = len(run.outcomes)
    values = {
        "query_p50_ms": statistics.median(per_query),
        "query_tail_ms": tail_ms,
        "queries_per_s": ops / (sum(sum(v) for v in scaled.values()) / 1000.0),
        "bytes_per_query": sum(o["bytes"] for o in run.outcomes) / n,
        "requests_per_query": sum(o["requests"] for o in run.outcomes) / n,
        "setup_s": statistics.median(sec * run.scale(pos) for sec, pos in run.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    digest, path = run.fingerprint_file()
    passes = ops // len(run.spec.queries)
    print(f"# {run.spec.name} seed={run.seed}: {ops} operations, {passes} pass(es) over "
          f"{n} queries, {busy:.2f} s of operations; times below are scaled to a host on "
          f"which the reference work takes {REFERENCE_MS} ms (here its median was "
          f"{statistics.median(run.reference_ms):.4g} ms; unscaled: query_p50_ms "
          f"{statistics.median(raw_per_query):.6g}, queries_per_s {ops / busy:.6g}, setup_s "
          f"{statistics.median(sec for sec, _ in run.setup_times):.6g})")
    for name, unit in END_TO_END:
        note = ""
        if name == "query_tail_ms":
            note = f"  (p{pct:.1f} of {len(per_query)} per-query medians)"
        if name == "setup_s":
            note = f"  (median of {len(run.setup_times)} set-ups)"
        print(f"{name} {values[name]:.6g} {unit}{note}")
    print(f"error_rate {run.failed / run.attempted:.6g} ratio  ({run.failed} of {run.attempted} "
          f"operations: {run.raised} raised, {run.lost} lost answers to split subjects, "
          f"{run.failed - run.raised - run.lost} other wrong results)")
    print(f"fingerprint {digest}  ({path.relative_to(ROOT)})")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run: Run) -> dict:
    from tracing import MODULES, Tracer, diff

    tracer = Tracer()
    run.set_up(tracer)
    setup = tracer.snapshot()
    setup_items = setup["items"]
    index = run.system.net.node(ORIGIN).index
    filter_bytes = sum(len(run.sb.bloom.spbf_to_bytes(index.spbf(fid)))
                       for fid in index.fragment_ids())

    lat_plain, plain_times = run.passes(0.0)  # one untraced pass
    ops_plain = sum(len(v) for v in lat_plain.values())
    with tracer:
        lat, traced_times = run.passes(run.seconds, tracer)
    ops = sum(len(v) for v in lat.values())
    d = diff(tracer.snapshot(), setup)
    calls, incl, items = d["calls"], d["incl_ns"], d["items"]

    def per_op(x: float) -> float:
        return x / ops

    def span_median(name: str, ops_of=None) -> float:
        totals = tracer.op_span_totals(name)
        vals = [v / 1e6 for op, v in totals.items() if op != "setup"
                and (ops_of is None or op.split("#")[0] in ops_of)]
        return statistics.median(vals) if vals else 0.0

    outcomes = run.outcomes
    qerr = []
    for o in outcomes:
        est, act = max(o["estimate"], 1.0), float(max(o["nrows"], 1))
        qerr.append(max(est / act, act / est))
    total_parse_ns = setup["incl_ns"]["ntriples.parse_ntriples"] + incl["ntriples.parse_ntriples"]
    total_triples = setup_items["ntriples.triples"] + items["ntriples.triples"]
    v = {
        "sparql.parse_ms": per_op(incl["sparql.parse_query"]) / 1e6,
        "ntriples.parse_s": per_op(incl["ntriples.parse_ntriples"]) / 1e9,
        "ntriples.triples_per_s": total_triples / (total_parse_ns / 1e9) if total_parse_ns else 0.0,
        "fragments.cs_s": setup["incl_ns"]["fragments.fragment_by_cs"] / 1e9,
        "fragments.merge_s": setup["incl_ns"]["fragments.merge_infrequent"] / 1e9,
        "fragments.count": len(run.system.net.fragments),
        "fragments.split_pieces": setup_items["fragments.split_pieces"],
        "fragments.load_s": per_op(incl["fragments.load_fragments"]) / 1e9,
        "fragments.graph_builds": per_op(calls["fragments.Fragment.graph"]),
        "fragments.graph_s": per_op(incl["fragments.Fragment.graph"]) / 1e9,
        "bloom.build_calls": per_op(calls["bloom.build_spbf"]),
        "bloom.build_s": per_op(incl["bloom.build_spbf"]) / 1e9,
        "bloom.estimate_calls": per_op(calls["bloom.PartitionedBitvector.estimate"]),
        "bloom.estimate_s": per_op(incl["bloom.PartitionedBitvector.estimate"]) / 1e9,
        "bloom.intersect_calls": per_op(calls["bloom.PartitionedBitvector.intersect"]),
        "bloom.filter_bytes": filter_bytes,
        "index.combine_s": per_op(incl["index.combine"]) / 1e9,
        "index.relevant_lookups": per_op(calls["index.SPBFIndex.relevant_fragments"]),
        "index.relevant_s": per_op(incl["index.SPBFIndex.relevant_fragments"]) / 1e9,
        "cardinality.card_star_calls": per_op(calls["cardinality.card_star"]),
        "cardinality.join_calls": per_op(calls["cardinality.card_join_with_selection"]),
        "cardinality.card_plan_calls": per_op(calls["cardinality.card_plan"]),
        "cardinality.s": per_op(d["module_ns"]["cardinality"]) / 1e9,
        "planner.optimize_ms": span_median("planner.optimize"),
        "planner.compat_ms": span_median("planner.compatibility_graph"),
        "planner.compat_calls_per_query": per_op(calls["planner.compatibility_graph"]),
        "planner.table_entries": per_op(items["planner.table_entries"]),
        "planner.relevant_fragments": statistics.mean(o["nrf"] for o in outcomes),
        "planner.relevant_nodes": statistics.mean(o["nrn"] for o in outcomes),
        "planner.qerror_p50": statistics.median(qerr),
        "model.match_star_calls": per_op(calls["model.match_star"]),
        "model.match_star_s": per_op(incl["model.match_star"]) / 1e9,
        "model.full_scans": per_op(calls["model.KnowledgeGraph.sorted_triples"]),
        "netsim.execute_ms": span_median("netsim.execute_plan"),
        "netsim.place_s": setup["incl_ns"]["netsim.place_fragments"] / 1e9,
        "netsim.load_network_s": per_op(incl["netsim.load_network"]) / 1e9,
        "netsim.bind_batches": per_op(items["netsim.messages.bindings"]),
        "netsim.pages": per_op(items["netsim.messages.page"]),
        "netsim.delegations": per_op(items["netsim.messages.request"]),
        "cli.main_ms": span_median("cli.main"),
        "setup.ntriples.parse_s": setup["incl_ns"]["ntriples.parse_ntriples"] / 1e9,
        "setup.bloom.build_calls": setup["calls"]["bloom.build_spbf"],
        "setup.bloom.build_s": setup["incl_ns"]["bloom.build_spbf"] / 1e9,
        "setup.index.combine_s": setup["incl_ns"]["index.combine"] / 1e9,
        "trace.overhead_ms": (sum(traced_times) / ops - sum(plain_times) / ops_plain) * 1000.0,
    }
    for m in ["bench"] + MODULES:
        v[f"{m}.self_ms"] = per_op(d["module_self_ns"][m]) / 1e6
    for k in range(1, 6):
        qids = {q.qid for q in run.spec.queries if q.stars == k}
        for layer, span in (("planner.optimize_ms", "planner.optimize"),
                            ("netsim.execute_ms", "netsim.execute_plan")):
            v[f"{layer}.stars{k}"] = span_median(span, qids) if qids else 0.0

    spans_path = run.out / f"spans-{run.spec.name}-{run.seed}.jsonl"
    tracer.write_spans(spans_path)
    digest, _ = run.fingerprint_file()
    print(f"# {run.spec.name} seed={run.seed} traced: {ops} traced operations after "
          f"{ops_plain} untraced; spans in {spans_path.relative_to(ROOT)}")
    for name, unit, _better, scope, moves in PER_LAYER:
        print(f"{name} {v[name]:.6g} {unit}  [{scope}] -> {moves}")
    print(f"error_rate {run.failed / run.attempted:.6g} ratio  ({run.failed} of {run.attempted})")
    print(f"fingerprint {digest}")
    return {name: {"value": v[name], "unit": unit} for name, unit, *_ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-check")
    args = parser.parse_args(argv)

    from workloads import GENERATORS
    if args.workload not in GENERATORS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(GENERATORS)}")
    try:
        sb = _import_engine()
    except (BenchError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    spec = GENERATORS[args.workload](args.seed, tiny=args.tiny)
    run = Run(sb, spec, args.seed, args.seconds, OUT / "tiny" if args.tiny else OUT)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    correct = not run.unexplained
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
