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

import hashlib
import random
import sys
from pathlib import Path
from typing import Iterator

from helpers import (RUNNING_QUERY, RUNNING_QUERY_DISTINCT, build_running_network,
                     exact_running_index, random_components_query, random_graph,
                     random_network)
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


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def read_corpus() -> dict[str, str]:
    out = {}
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            name, value = line.split()
            out[name] = value
    return out


def compare() -> list[str]:
    """Regenerate every instance; one message per mismatch, the first one
    followed by that instance's plan text."""
    want = read_corpus()
    problems = []
    seen = set()
    for name, query, index, origin in instances():
        seen.add(name)
        text = plan_text(query, index, origin)
        got = digest(text)
        if want.get(name) != got:
            msg = f"{name}: digest {got}, corpus {want.get(name)}"
            if not problems:
                msg += "\n" + text
            problems.append(msg)
    problems.extend(f"{name}: in the corpus but not generated"
                    for name in sorted(want.keys() - seen))
    return problems


def write() -> None:
    lines = ["# name digest: sha256 of render_plan + explain text, first 16 hex digits"]
    for name, query, index, origin in instances():
        lines.append(f"{name} {digest(plan_text(query, index, origin))}")
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        write()
        return 0
    problems = compare()
    for msg in problems:
        print(msg)
    print(f"{len(problems)} mismatch(es)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
