"""Deterministic single-process simulation of an unstructured P2P network:
replicated fragments, horizon-limited index dissemination, delegated plan
execution with bind joins, and message/byte accounting."""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field, fields, asdict
from math import ceil
from pathlib import Path
from typing import Iterable, Optional

from .bloom import SPBF, BloomParams, build_spbf, spbf_from_bytes, spbf_to_bytes
from .fragments import (Fragment, FragmentStoreError, fragment_by_cs,
                        merge_infrequent, open_fragments)
from .index import SPBFIndex, combine
from .model import (Binding, KnowledgeGraph, Query, match_star,
                    project_bindings)
from .planner import (CompatibilityGraph, OptimizeResult, baseline_plan,
                      compatibility_graph, node_sort_key, optimize)
from .plans import (Cartesian, EmptyPlan, Join, Plan, Selection, Union_,
                    render_plan, right_selections)

MESSAGE_HEADER_BYTES = 64


class SimulationError(RuntimeError):
    pass


class StateFileError(ValueError):
    """A network state file that cannot be read or is malformed."""


@dataclass(frozen=True)
class NetworkConfig:
    node_count: int
    neighbor_count: int
    replication_factor: int
    horizon: int = 5
    rng_seed: int = 0
    bloom: BloomParams = field(default_factory=BloomParams)
    omega: int = 30       # max bindings attached to one request
    page_size: int = 100  # max results returned with one message

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if not 0 <= self.neighbor_count < self.node_count:
            raise ValueError("neighbor_count must be in [0, node_count)")
        if not 1 <= self.replication_factor <= self.node_count:
            raise ValueError("replication_factor must be in [1, node_count]")
        if self.omega < 1 or self.page_size < 1 or self.horizon < 0:
            raise ValueError("omega/page_size/horizon out of range")


@dataclass
class Metrics:
    requests: int = 0
    transferred_bytes: int = 0
    relevant_fragments: int = 0
    relevant_nodes: int = 0
    optimization_ns: int = 0
    execution_ns: int = 0

    def to_dict(self) -> dict:
        return dict(sorted(asdict(self).items()))


@dataclass
class NodeSim:
    id: str
    neighbors: tuple[str, ...]
    index: SPBFIndex = field(default_factory=lambda: SPBFIndex({}, {}))


class Network:
    def __init__(self, config: NetworkConfig, nodes: dict[str, NodeSim]):
        self.config = config
        self.nodes = nodes
        self.fragments: dict[str, Fragment] = {}
        self.allocation: dict[str, tuple[str, ...]] = {}
        self.filters: dict[str, SPBF] = {}

    def node_ids(self) -> list[str]:
        return sorted(self.nodes, key=node_sort_key)

    def node(self, node_id: str) -> NodeSim:
        try:
            return self.nodes[node_id]
        except (KeyError, TypeError):  # TypeError: a name that cannot be a key
            raise SimulationError(f"unknown node {node_id}") from None

    def reachable(self, origin: str, hops: int) -> list[str]:
        """Nodes within ``hops`` hops of ``origin`` along neighbor links, in
        breadth-first order: ``origin`` first, then each node's neighbors in
        ``node_sort_key`` order."""
        order = [origin]
        seen = {origin}
        frontier = [origin]
        for _ in range(hops):
            nxt: list[str] = []
            for nid in frontier:
                for nb in self.node(nid).neighbors:
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            if not nxt:
                break
            order.extend(nxt)
            frontier = nxt
        return order

    def rebuild_indexes(self, filters: dict[str, SPBF]) -> None:
        """Record the given fragment filters; then each node's index becomes
        a view of them over the fragments stored within its horizon."""
        self.filters.update(filters)
        for node in self.nodes.values():
            view = set(self.reachable(node.id, self.config.horizon))
            node.index = combine(self.filters, self.allocation, view)


def create_network(config: NetworkConfig) -> Network:
    """Seeded construction: every node gets ``neighbor_count`` distinct random
    neighbors other than itself."""
    rng = random.Random(config.rng_seed)
    ids = [f"n{i}" for i in range(1, config.node_count + 1)]
    topology = {nid: rng.sample([x for x in ids if x != nid], config.neighbor_count)
                for nid in ids}
    return network_from_layout(config, topology)


def network_from_layout(config: NetworkConfig, topology: dict[str, Iterable[str]]) -> Network:
    """The network whose nodes have the given neighbors (seeded or loaded)."""
    nodes = {nid: NodeSim(id=nid, neighbors=tuple(sorted(nbrs, key=node_sort_key)))
             for nid, nbrs in topology.items()}
    if len(nodes) != config.node_count:
        raise ValueError("topology size does not match config.node_count")
    unknown = {n for node in nodes.values() for n in node.neighbors} - nodes.keys()
    if unknown:
        raise ValueError(f"topology names unknown neighbours: {sorted(unknown, key=node_sort_key)}")
    return Network(config, nodes)


def place_fragments(net: Network, fragments: Iterable[Fragment], origin: str,
                    allocation: Optional[dict[str, Iterable[str]]] = None) -> None:
    """Register fragments and replicate each at ``replication_factor`` nodes,
    chosen from the breadth-first expansion around the origin (seeded),
    unless an explicit allocation is given."""
    frags = sorted(fragments, key=Fragment.sort_key)
    if allocation is None:
        factor = net.config.replication_factor
        candidates = net.reachable(origin, len(net.nodes))
        if len(candidates) < factor:
            raise SimulationError(
                f"cannot replicate {factor}x across {len(candidates)} reachable nodes")
        rng = random.Random((net.config.rng_seed, origin, len(frags)).__repr__())
        allocation = {f.id: rng.sample(candidates, factor) for f in frags}
    _store_fragments(net, frags, allocation)
    net.rebuild_indexes({f.id: build_spbf(f, net.config.bloom) for f in frags})


def _store_fragments(net: Network, frags: list[Fragment],
                     allocation: dict[str, Iterable[str]]) -> None:
    factor = net.config.replication_factor
    for f in frags:
        holders = tuple(allocation[f.id])
        for h in holders:
            net.node(h)  # raises for a holder that is not a node
        if len(holders) != factor or len(set(holders)) != factor:
            raise SimulationError(f"fragment {f.id} needs exactly {factor} holders, "
                                  f"each named once: {list(holders)}")
        net.fragments[f.id] = f
        net.allocation[f.id] = tuple(sorted(holders, key=node_sort_key))


def upload(net: Network, graph: KnowledgeGraph, origin: str,
           min_subjects: int) -> None:
    """Fragment a graph (characteristic sets, then infrequent-set merging) and
    place the fragments on the network."""
    frags, _ = merge_infrequent(fragment_by_cs(graph), min_subjects)
    place_fragments(net, frags, origin)


# -- execution -----------------------------------------------------------------


def _payload_bytes(rows: list[Binding]) -> int:
    total = 0
    for row in rows:
        for var in sorted(row):
            total += len(f"?{var}\t{row[var].nt()}\n".encode("utf-8"))
    return total


class _Executor:
    """Runs a plan over the network, counting every inter-node message."""

    def __init__(self, net: Network, metrics: Metrics,
                 trace: Optional[list[str]] = None):
        self.net = net
        self.metrics = metrics
        self.trace = trace
        self.page_size = net.config.page_size
        self.omega = net.config.omega

    def _message(self, kind: str, src: str, dst: str, payload_bytes: int,
                 rows: int = 0) -> None:
        self.metrics.requests += 1
        self.metrics.transferred_bytes += MESSAGE_HEADER_BYTES + payload_bytes
        if self.trace is not None:
            self.trace.append(
                f"{kind} {src}->{dst} bytes={MESSAGE_HEADER_BYTES + payload_bytes} rows={rows}")

    def _ship_results(self, rows: list[Binding], src: str, dst: str) -> None:
        """Result pages from a remote producer; an empty result still answers."""
        pages = max(1, ceil(len(rows) / self.page_size))
        for page in range(pages):
            chunk = rows[page * self.page_size:(page + 1) * self.page_size]
            self._message("page", src, dst, _payload_bytes(chunk), len(chunk))

    def _local_star(self, sel: Selection, node_id: str) -> KnowledgeGraph:
        if node_id not in self.net.allocation.get(sel.fragment, ()):
            raise SimulationError(f"node {node_id} does not hold fragment {sel.fragment}")
        return self.net.fragments[sel.fragment].graph()

    def run(self, plan: Plan, consumer: str) -> list[Binding]:
        if isinstance(plan, EmptyPlan):
            return []
        if isinstance(plan, Union_):
            out: list[Binding] = []
            for b in plan.branches:  # fixed schedule: branch order
                out.extend(self.run(b, consumer))
            return out
        if isinstance(plan, Selection):
            rows = match_star(plan.star, self._local_star(plan, plan.node))
        elif isinstance(plan, Join):
            rows = self._run_join(plan)
        elif isinstance(plan, Cartesian):
            rows = self._run_cartesian(plan)
        else:
            raise SimulationError(f"cannot execute {type(plan).__name__}")
        if plan.node != consumer:  # the consumer sends the plan and gets the rows back
            self._message("request", consumer, plan.node, len(render_plan(plan).encode("utf-8")))
            self._ship_results(rows, plan.node, consumer)
        return rows

    def _run_join(self, plan: Join) -> list[Binding]:
        """Each right selection matches the left rows in batches of at most
        omega; a remote one gets each batch as a bindings message and pages
        its joined rows back to the delegate."""
        delegate = plan.node
        left_rows = self.run(plan.left, delegate)
        out: list[Binding] = []
        for sel in right_selections(plan.right):
            if not left_rows:
                break
            graph = self._local_star(sel, sel.node)
            remote = sel.node != delegate
            rows: list[Binding] = []
            for i in range(0, len(left_rows), self.omega):
                batch = left_rows[i:i + self.omega]
                if remote:
                    self._message("bindings", delegate, sel.node, _payload_bytes(batch), len(batch))
                for row in batch:
                    rows.extend(match_star(sel.star, graph, seed=row))
            if remote:
                self._ship_results(rows, sel.node, delegate)
            out.extend(rows)
        return out

    def _run_cartesian(self, plan: Cartesian) -> list[Binding]:
        delegate = plan.node
        left_rows = self.run(plan.left, delegate)
        right_rows = self.run(plan.right, delegate)
        out = []
        for lrow in left_rows:
            for rrow in right_rows:
                merged = dict(lrow)
                merged.update(rrow)
                out.append(merged)
        return out


def execute_plan(net: Network, plan: Plan, origin: str,
                 query: Optional[Query] = None,
                 trace: Optional[list[str]] = None) -> tuple[list[Binding], Metrics]:
    """Execute a delegated plan; returns result rows (projected per query, when
    given) and the message/byte metrics. Pass a list as ``trace`` to collect
    one line per inter-node message."""
    metrics = Metrics()
    start = time.perf_counter_ns()
    rows = _Executor(net, metrics, trace).run(plan, origin)
    if query is not None:
        rows = project_bindings(rows, distinct=query.distinct, projection=query.projection)
    metrics.execution_ns = time.perf_counter_ns() - start
    return rows, metrics


def _relevance(compat: CompatibilityGraph, index: SPBFIndex) -> tuple[int, int]:
    fragments = compat.fragments()
    holders: set[str] = set()
    for fid in fragments:
        holders.update(index.holders(fid))
    return len(fragments), len(holders)


def measure_relevance(net: Network, query: Query, origin: str) -> tuple[int, int]:
    """(relevant fragments, relevant nodes) after compatibility pruning at the origin."""
    index = net.node(origin).index
    return _relevance(compatibility_graph(query, index, query.distinct), index)


def run_query(net: Network, query: Query, origin: str) -> tuple[list[Binding], Metrics, OptimizeResult]:
    """Optimize at the origin's index, execute, and fill in all metrics."""
    index = net.node(origin).index
    start = time.perf_counter_ns()
    result = optimize(query, index, origin)
    opt_ns = time.perf_counter_ns() - start
    rows, metrics = execute_plan(net, result.plan, origin, query)
    metrics.optimization_ns = opt_ns
    metrics.relevant_fragments, metrics.relevant_nodes = _relevance(result.compat, index)
    return rows, metrics, result


def run_baseline(net: Network, query: Query, origin: str) -> tuple[list[Binding], Metrics]:
    """Execute the no-pruning reference plan (used to quantify pruning value)."""
    return execute_plan(net, baseline_plan(query, net.node(origin).index, origin), origin, query)


# -- state files ---------------------------------------------------------------

_RECREATE = "re-run `starbloom network create`"


def dump_network(net: Network, path: Path, fragments_dir: Optional[Path] = None) -> None:
    """Write a network's state file. A network holding fragments also gets
    one filter file per fragment in a directory named after the state file
    plus ``.filters``, and the state pins each filter file and each
    fragment's N-Triples file by SHA-256, keyed by fragment id. Holders are
    recorded only in the allocation. Directories are recorded relative to
    the state file's directory."""
    path = Path(path)
    filters_dir, filter_digests = None, {}
    if net.allocation:
        filters_dir = path.with_name(path.name + ".filters")
        filter_digests = write_filters({fid: net.filters[fid] for fid in net.allocation},
                                       filters_dir)
    state = {
        "config": asdict(net.config),
        "topology": {nid: list(net.nodes[nid].neighbors) for nid in net.node_ids()},
        "allocation": {fid: list(holders) for fid, holders in sorted(net.allocation.items())},
        "fragments_dir": (os.path.relpath(os.path.abspath(fragments_dir),
                                          os.path.abspath(path.parent))
                          if fragments_dir else None),
        "filters_dir": filters_dir.name if filters_dir else None,
        "filter_digests": filter_digests,
        "fragment_digests": {fid: net.fragments[fid].file_digest()
                             for fid in sorted(net.allocation)},
    }
    path.write_text(json.dumps(state, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_network(path: Path) -> Network:
    """Rebuild a network from a state file written by ``dump_network``.

    Nodes combine the filters read from the state's filter files, one per
    allocated fragment; no filter is rebuilt. Fragments are opened from the
    state's fragment directory, each file checked against its recorded
    digest, and each parsed only when first used. Directories resolve
    against the state file's directory. A state file that cannot be read,
    is not UTF-8 JSON, lacks a field or names a neighbour that is not a
    node, filter files that ``load_filters`` rejects, and missing or changed
    fragment files raise ``StateFileError``.
    """
    path = Path(path)
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise StateFileError(f"cannot read state file {path}: {e.strerror}") from e
    except ValueError as e:  # not UTF-8, or not JSON
        raise StateFileError(f"state file {path} is not UTF-8 JSON: {e}") from e
    try:
        c = state["config"]
        config = _from_fields(NetworkConfig,
                              {**c, "bloom": _from_fields(BloomParams, c["bloom"])})
        net = network_from_layout(config, state["topology"])
        allocation = {fid: tuple(h) for fid, h in state["allocation"].items()}
        fragments_dir = _beside(path, state.get("fragments_dir"))
        filters_dir = _beside(path, state.get("filters_dir"))
        fragment_digests = dict(state.get("fragment_digests", {}))
        filter_digests = dict(state.get("filter_digests", {}))
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise StateFileError(f"malformed state file {path}: {type(e).__name__} {e}") from e
    if not allocation:
        return net
    if filters_dir is None:
        raise StateFileError(f"state file {path} names no filter directory; {_RECREATE}")
    filters = load_filters(filters_dir, filter_digests, allocation, config.bloom)
    if fragments_dir is None:
        raise StateFileError(f"state file {path} names no fragment directory")
    try:
        fragments = open_fragments(fragments_dir)
    except FragmentStoreError as e:
        raise StateFileError(f"cannot read fragments of state file {path}: {e}") from e
    for f in fragments:
        if f.id in allocation and f.file_digest() != fragment_digests.get(f.id):
            raise StateFileError(f"{f.path} changed after state file {path} was "
                                 f"written; {_RECREATE}")
    by_id = {f.id: f for f in fragments}
    missing = set(allocation) - set(by_id)
    if missing:
        raise StateFileError(f"state file {path} references unknown fragments: "
                             f"{sorted(missing)}")
    try:
        _store_fragments(net, sorted((by_id[fid] for fid in allocation), key=Fragment.sort_key),
                         allocation)
    except SimulationError as e:
        raise StateFileError(f"malformed allocation in state file {path}: {e}") from e
    net.rebuild_indexes(filters)
    return net


def write_filters(filters: dict[str, SPBF], outdir: Path) -> dict[str, str]:
    """One file per fragment holding exactly ``spbf_to_bytes`` of its filter.
    Returns the SHA-256 of each file by fragment id."""
    outdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for fid in sorted(filters):
        data = spbf_to_bytes(filters[fid])
        (outdir / f"{fid}.spbf").write_bytes(data)
        digests[fid] = hashlib.sha256(data).hexdigest()
    return digests


def load_filters(outdir: Path, digests: dict[str, str], fragment_ids: Iterable[str],
                 expected_params: BloomParams) -> dict[str, SPBF]:
    """The filter of each fragment, read from the file ``write_filters``
    wrote and checked against its SHA-256 in ``digests`` before it is
    decoded. A missing file, a file without its recorded digest, and a
    malformed or truncated filter or one with parameters other than
    ``expected_params`` raise ``StateFileError`` naming the file."""
    filters = {}
    for fid in sorted(fragment_ids):
        path = outdir / f"{fid}.spbf"
        try:
            data = path.read_bytes()
        except OSError as e:
            raise StateFileError(f"cannot read {path}: {e.strerror}; {_RECREATE}") from e
        if hashlib.sha256(data).hexdigest() != digests.get(fid):
            raise StateFileError(f"{path} does not have its recorded SHA-256; {_RECREATE}")
        try:
            filters[fid] = spbf_from_bytes(data, expected_params)
        except ValueError as e:
            raise StateFileError(f"{path}: {e}; {_RECREATE}") from e
    return filters


def _from_fields(cls, values: dict):
    """The dataclass ``cls`` made from the entries of ``values`` named after
    its fields; a missing one raises ``KeyError`` and others are ignored."""
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def _beside(state_path: Path, name: Optional[str]) -> Optional[Path]:
    """A directory named in a state file, resolved against the file's directory."""
    return state_path.parent / name if name else None
