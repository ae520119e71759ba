"""In-memory tracing of starbloom's public functions, from outside the engine.

``Tracer.install`` replaces each traced function at every place it is looked
up (the defining module, the modules that imported it by name, or the class
that owns it) with a wrapper, and ``Tracer.remove`` puts the originals back.
Every wrapped call adds to a call counter, to its inclusive time and to its
module's self time; operation-level calls also record a span (name, start,
end, parent span, operation id). Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path

# (traced name, defining module, attribute, modules or classes that look it up,
#  record a span?). Hot inner functions get counters only.
TRACED = [
    ("sparql.parse_query", "sparql", "parse_query", ["sparql", "cli"], True),
    ("ntriples.parse_ntriples", "ntriples", "parse_ntriples",
     ["ntriples", "fragments", "cli"], True),
    ("fragments.fragment_by_cs", "fragments", "fragment_by_cs", ["fragments", "cli"], True),
    ("fragments.merge_infrequent", "fragments", "merge_infrequent", ["fragments", "cli"], True),
    ("fragments.load_fragments", "fragments", "load_fragments", ["fragments", "cli"], True),
    ("fragments.write_fragments", "fragments", "write_fragments", ["fragments", "cli"], True),
    ("fragments.Fragment.graph", "fragments", "Fragment.graph", [], False),
    ("bloom.build_spbf", "bloom", "build_spbf", ["bloom", "netsim", "cli"], False),
    ("bloom.PartitionedBitvector.estimate", "bloom", "PartitionedBitvector.estimate", [], False),
    ("bloom.PartitionedBitvector.intersect", "bloom", "PartitionedBitvector.intersect", [], False),
    ("index.combine", "index", "combine", ["index", "netsim"], True),
    ("index.SPBFIndex.relevant_fragments", "index", "SPBFIndex.relevant_fragments", [], False),
    ("cardinality.card_star", "cardinality", "card_star", ["cardinality", "planner"], False),
    ("cardinality.card_join_with_selection", "cardinality", "card_join_with_selection",
     ["cardinality", "planner"], False),
    ("cardinality.card_plan", "cardinality", "card_plan", ["cardinality", "planner"], False),
    ("planner.optimize", "planner", "optimize", ["planner", "netsim"], True),
    ("planner.compatibility_graph", "planner", "compatibility_graph", ["planner", "netsim"], True),
    ("model.match_star", "model", "match_star", ["model", "netsim"], False),
    ("model.KnowledgeGraph.sorted_triples", "model", "KnowledgeGraph.sorted_triples", [], False),
    ("netsim.create_network", "netsim", "create_network", ["netsim", "cli"], True),
    ("netsim.place_fragments", "netsim", "place_fragments", ["netsim", "cli"], True),
    ("netsim.load_network", "netsim", "load_network", ["netsim", "cli"], True),
    ("netsim.run_query", "netsim", "run_query", ["netsim", "cli"], True),
    ("netsim.execute_plan", "netsim", "execute_plan", ["netsim"], True),
    ("netsim.measure_relevance", "netsim", "measure_relevance", ["netsim"], True),
    ("cli.main", "cli", "main", ["cli"], True),
]

MODULES = ["sparql", "ntriples", "fragments", "bloom", "index", "cardinality",
           "planner", "model", "netsim", "cli"]


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        # time spent in a module, entered from another module or the benchmark
        self.module_ns: Counter = Counter()
        self.module_self_ns: Counter = Counter()
        self.items: Counter = Counter()  # parsed triples, messages by kind, ...
        self.spans: list[tuple] = []
        self.op = "setup"
        self._frames: list[list] = []  # [module, child_ns, span index]
        self._patches: list[tuple] = []

    # -- recording

    def _enter(self, module: str, span_name) -> list:
        parent_span = next((f[2] for f in reversed(self._frames) if f[2] >= 0), -1)
        idx = -1
        if span_name is not None:
            idx = len(self.spans)
            self.spans.append([span_name, time.perf_counter_ns(), 0, parent_span, self.op])
        frame = [module, 0, idx]
        self._frames.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: int) -> int:
        end = time.perf_counter_ns()
        elapsed = end - start
        self._frames.pop()
        module = frame[0]
        self.calls[name] += 1
        self.incl_ns[name] += elapsed
        self.module_self_ns[module] += elapsed - frame[1]
        parent = self._frames[-1] if self._frames else None
        if parent is not None:
            parent[1] += elapsed
        if parent is None or parent[0] != module:
            self.module_ns[module] += elapsed
        if frame[2] >= 0:
            self.spans[frame[2]][2] = end
        return elapsed

    def operation(self, op_id: str):
        """Context manager: one benchmark operation, the root span of its calls."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer.op = op_id
                self.frame = tracer._enter("bench", "bench.operation")
                self.start = time.perf_counter_ns()
                return self

            def __exit__(self, *exc):
                tracer._exit("bench.operation", self.frame, self.start)
                return False

        return _Op()

    def wrap(self, name: str, fn, span: bool):
        module = name.split(".")[0]
        span_name = name if span else None
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter(module, span_name)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, frame, start)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_special(self, name: str, fn, span: bool):
        wrapped = self.wrap(name, fn, span)
        items = self.items
        if name == "ntriples.parse_ntriples":
            def parse(*args, **kwargs):
                graph = wrapped(*args, **kwargs)
                items["ntriples.triples"] += len(graph)
                return graph
            return parse
        if name == "fragments.merge_infrequent":
            def merge(*args, **kwargs):
                frags, report = wrapped(*args, **kwargs)
                items["fragments.split_pieces"] += len(report.split)
                return frags, report
            return merge
        if name == "planner.optimize":
            def optimize(*args, **kwargs):
                result = wrapped(*args, **kwargs)
                items["planner.table_entries"] += len(result.table)
                return result
            return optimize
        if name == "netsim.execute_plan":
            # ask for the per-message trace lines and count them by kind
            def execute(net, plan, origin, query=None, trace=None):
                lines = [] if trace is None else trace
                out = wrapped(net, plan, origin, query, lines)
                for line in lines:
                    items["netsim.messages." + line.split(" ", 1)[0]] += 1
                return out
            return execute
        return wrapped

    # -- patching

    def install(self) -> None:
        for name, home, attr, lookups, span in TRACED:
            home_mod = importlib.import_module(f"starbloom.{home}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home_mod, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap_special(name, original, span))
                continue
            original = getattr(home_mod, attr)
            wrapper = self._wrap_special(name, original, span)
            for mod_name in lookups:
                mod = importlib.import_module(f"starbloom.{mod_name}")
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results

    def snapshot(self) -> dict:
        return {
            "calls": Counter(self.calls), "incl_ns": Counter(self.incl_ns),
            "module_ns": Counter(self.module_ns),
            "module_self_ns": Counter(self.module_self_ns), "items": Counter(self.items),
        }

    def op_span_totals(self, name: str) -> dict[str, int]:
        """Per operation id: summed duration of the spans called ``name``."""
        out: Counter = Counter()
        for span_name, start, end, _parent, op in self.spans:
            if span_name == name:
                out[op] += end - start
        return dict(out)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}) + "\n")


def diff(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}
