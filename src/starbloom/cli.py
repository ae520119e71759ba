"""Command line: fragment data, create networks (state file, filter files)
and load them, plan and run queries."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bloom import BloomParams
from .fragments import (DEFAULT_MIN_SUBJECTS, fragment_by_cs, load_fragments,
                        merge_infrequent, merge_to_count, write_fragments)
from .netsim import (NetworkConfig, SimulationError, create_network, dump_network,
                     load_network, place_fragments, run_query)
from .ntriples import NTriplesError, parse_ntriples
from .planner import explain, optimize
from .sparql import QueryParseError, UnsupportedFeatureError, parse_query

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_UNSUPPORTED = 4


class DataError(RuntimeError):
    pass


def _read_text(path: Path) -> str:
    """An input file's UTF-8 text; a file that cannot be read or decoded is a
    data error naming its path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not UTF-8 text: {e}") from e


def _read_graph(path: Path):
    try:
        return parse_ntriples(_read_text(path))
    except NTriplesError as e:
        raise DataError(f"{path}: {e}") from e


def cmd_fragment(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    frags = fragment_by_cs(graph)
    if args.target_count is not None:
        frags, report = merge_to_count(frags, args.target_count)
        if not report.feasible:
            print(f"warning: target {args.target_count} infeasible, "
                  f"achieved {report.achieved_count}", file=sys.stderr)
    else:
        frags, _ = merge_infrequent(frags, args.min_subjects)
    write_fragments(frags, Path(args.outdir))
    print(f"fragments: {len(frags)}")
    sizes = sorted(f.subject_count for f in frags)
    buckets: dict[str, int] = {}
    for n in sizes:
        upper = 1
        while n > upper:
            upper *= 10
        key = f"<={upper}"
        buckets[key] = buckets.get(key, 0) + 1
    for key in sorted(buckets, key=lambda k: int(k[2:])):
        print(f"  subjects {key}: {buckets[key]} fragment(s)")
    return EXIT_OK


def _network_config(args: argparse.Namespace) -> NetworkConfig:
    return NetworkConfig(
        node_count=args.nodes,
        neighbor_count=args.neighbors,
        replication_factor=args.replication,
        horizon=args.horizon,
        rng_seed=args.seed,
        bloom=BloomParams(m=args.bloom_m, k=args.bloom_k),
        omega=args.omega,
        page_size=args.page_size,
    )


def cmd_network_create(args: argparse.Namespace) -> int:
    net = create_network(_network_config(args))
    frags_dir = None
    if args.fragments:
        frags_dir = Path(args.fragments)
        frags = load_fragments(frags_dir)
        place_fragments(net, frags, origin=net.node_ids()[0])
    dump_network(net, Path(args.state_out), fragments_dir=frags_dir)
    print(f"nodes: {net.config.node_count}, fragments: {len(net.fragments)}")
    return EXIT_OK


def cmd_network_load(args: argparse.Namespace) -> int:
    net = load_network(Path(args.state))
    print(f"nodes: {net.config.node_count}, fragments: {len(net.fragments)}")
    for nid in net.node_ids():
        node = net.nodes[nid]
        stores = sum(nid in holders for holders in net.allocation.values())
        print(f"  {nid}: neighbors={','.join(node.neighbors)} "
              f"stores={stores} indexed={len(node.index)}")
    return EXIT_OK


def _canonical_rows(rows) -> str:
    variables = sorted({v for row in rows for v in row})
    lines = ["\t".join(f"?{v}" for v in variables)]
    rendered = sorted(
        "\t".join(row[v].nt() if v in row else "" for v in variables)
        for row in rows
    )
    lines.extend(rendered)
    return "\n".join(lines) + "\n"


def _run(args: argparse.Namespace, execute: bool) -> int:
    try:
        query = parse_query(_read_text(args.query))
    except QueryParseError as e:  # name the file, as N-Triples errors do
        e.args = (f"{args.query}:{e}",)
        raise
    net = load_network(Path(args.state))
    if args.node not in net.nodes:
        raise DataError(f"unknown node {args.node}")
    if execute:
        rows, metrics, result = run_query(net, query, args.node)
    else:
        result = optimize(query, net.node(args.node).index, args.node)
    if getattr(args, "explain", False) or not execute:
        sys.stdout.write(explain(result))
    if execute:
        text = _canonical_rows(rows)
        if args.results:
            Path(args.results).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        payload = metrics.to_dict()
        payload["results"] = len(rows)
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if args.metrics:
            Path(args.metrics).write_text(out, encoding="utf-8")
        else:
            sys.stdout.write(out)
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    return _run(args, execute=True)


def cmd_plan(args: argparse.Namespace) -> int:
    return _run(args, execute=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starbloom")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fragment", help="split an N-Triples file into fragments")
    p.add_argument("input", type=Path)
    p.add_argument("outdir", type=Path)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--min-subjects", type=int, default=DEFAULT_MIN_SUBJECTS)
    group.add_argument("--target-count", type=int, default=None)
    p.set_defaults(func=cmd_fragment)

    p = sub.add_parser("network", help="create or inspect a simulated network")
    netsub = p.add_subparsers(dest="network_command", required=True)

    pc = netsub.add_parser("create")
    pc.add_argument("state_out", type=Path)
    pc.add_argument("--nodes", type=int, required=True)
    pc.add_argument("--neighbors", type=int, required=True)
    pc.add_argument("--replication", type=int, required=True)
    pc.add_argument("--seed", type=int, required=True)
    pc.add_argument("--horizon", type=int, default=5)
    pc.add_argument("--fragments", type=Path, default=None)
    pc.add_argument("--bloom-m", type=int, default=20000)
    pc.add_argument("--bloom-k", type=int, default=5)
    pc.add_argument("--omega", type=int, default=30)
    pc.add_argument("--page-size", type=int, default=100)
    pc.set_defaults(func=cmd_network_create)

    pl = netsub.add_parser("load")
    pl.add_argument("state", type=Path)
    pl.set_defaults(func=cmd_network_load)

    for name, fn in (("query", cmd_query), ("plan", cmd_plan)):
        p = sub.add_parser(name)
        p.add_argument("query", type=Path)
        p.add_argument("--state", type=Path, required=True)
        p.add_argument("--node", required=True)
        if name == "query":
            p.add_argument("--explain", action="store_true")
            p.add_argument("--results", type=Path, default=None)
            p.add_argument("--metrics", type=Path, default=None)
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedFeatureError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (DataError, QueryParseError, NTriplesError, ValueError, SimulationError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
