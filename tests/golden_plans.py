"""Golden plan corpus: seeded planning instances whose ``render_plan`` and
``explain`` text is pinned by one short digest each in
``tests/data/golden_plans.txt``.

    PYTHONPATH=src python tests/golden_plans.py          # compare; exit 1 on a mismatch
    PYTHONPATH=src python tests/golden_plans.py --write  # regenerate the digests

A mismatch report names the instance and prints its plan text. The script
needs no pytest, so it runs under every Python version the package supports.
Instance ``seed-N`` is a random graph, network (fragment merging off or on),
and 1-5 star query (DISTINCT on or off, possibly with Cartesian components)
drawn from ``random.Random(SEED_BASE + N)``; ``running-*`` are the worked
example over its exact filters and over the real five-node network.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Iterator

from helpers import (RUNNING_QUERY, RUNNING_QUERY_DISTINCT, build_running_network,
                     exact_running_index, golden_compare, golden_main,
                     random_components_query, random_graph, random_network)
from starbloom.planner import explain, optimize
from starbloom.plans import render_plan
from starbloom.sparql import parse_query

CORPUS = Path(__file__).resolve().parent / "data" / "golden_plans.txt"
SEED_BASE = 50_000
SEEDS = 1000


def _random_instance(seed: int):
    rng = random.Random(SEED_BASE + seed)
    preds = [f"http://ex/p{i}" for i in range(rng.randint(3, 4))]
    graph = random_graph(rng, n_subjects=rng.randint(8, 20), predicates=preds,
                         max_triples=120)
    net = random_network(rng, graph, min_subjects=rng.choice([1, 3]))
    query = random_components_query(rng, preds)
    origin = rng.choice(net.node_ids())
    return query, net.nodes[origin].index, origin


def instances() -> Iterator[tuple[str, object, object, str]]:
    """(name, query, index, origin) for every corpus instance, in file order."""
    exact = exact_running_index()
    net, _ = build_running_network()
    for label, text in (("", RUNNING_QUERY), ("-distinct", RUNNING_QUERY_DISTINCT)):
        query = parse_query(text)
        yield f"running-exact{label}", query, exact, "n1"
        yield f"running-net{label}", query, net.nodes["n1"].index, "n1"
    for seed in range(SEEDS):
        yield (f"seed-{seed}", *_random_instance(seed))


def plan_text(query, index, origin: str) -> str:
    result = optimize(query, index, origin)
    return render_plan(result.plan) + "\n" + explain(result)


def texts() -> Iterator[tuple[str, str]]:
    for name, query, index, origin in instances():
        yield name, plan_text(query, index, origin)


def compare() -> list[str]:
    """Regenerate every instance; one message per mismatch, the first one
    followed by that instance's plan text."""
    return golden_compare(CORPUS, texts())


if __name__ == "__main__":
    sys.exit(golden_main(sys.argv[1:], CORPUS, "name digest: sha256 of render_plan + explain "
                         "text, first 16 hex digits", texts()))
