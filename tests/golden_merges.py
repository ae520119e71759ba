"""Golden merge corpus: seeded merging instances whose output fragments and
``MergeReport`` are pinned by one short digest each in
``tests/data/golden_merges.txt``.

    PYTHONPATH=src python tests/golden_merges.py          # compare; exit 1 on a mismatch
    PYTHONPATH=src python tests/golden_merges.py --write  # regenerate the digests

A mismatch report names the instance and prints its merge text. The script
needs no pytest. Instances ``seed-N-min`` and ``seed-N-count`` take one random
graph drawn from ``random.Random(SEED_BASE + N)`` through ``merge_infrequent``
at a drawn threshold and through ``merge_to_count`` at a drawn target;
``example-*`` merge the five characteristic sets of the published example.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Iterator

from helpers import example_counts_fixture, golden_compare, golden_main, random_graph
from starbloom.fragments import fragment_by_cs, merge_infrequent, merge_to_count
from starbloom.model import Triple

CORPUS = Path(__file__).resolve().parent / "data" / "golden_merges.txt"
SEED_BASE = 70_000
SEEDS = 500


def _random_instances(seed: int):
    rng = random.Random(SEED_BASE + seed)
    preds = [f"http://ex/p{i}" for i in range(rng.randint(3, 6))]
    graph = random_graph(rng, n_subjects=rng.randint(5, 40), predicates=preds,
                         max_triples=150)
    frags = fragment_by_cs(graph)
    threshold = rng.randint(1, 20)
    target = rng.randint(1, len(frags))
    yield f"seed-{seed}-min", lambda: merge_infrequent(frags, threshold)
    yield f"seed-{seed}-count", lambda: merge_to_count(frags, target)


def instances() -> Iterator[tuple[str, object]]:
    """(name, merge thunk) for every corpus instance, in file order."""
    example = fragment_by_cs(example_counts_fixture())
    for threshold in (2, 3, 50, 501, 1001):
        yield f"example-min-{threshold}", lambda t=threshold: merge_infrequent(example, t)
    for target in (1, 2, 3, 4):
        yield f"example-count-{target}", lambda t=target: merge_to_count(example, t)
    for seed in range(SEEDS):
        yield from _random_instances(seed)


def merge_text(result) -> str:
    """Every output fragment (id, predicates, subject count, sorted triples)
    and the full report."""
    frags, report = result
    lines = []
    for f in frags:
        lines.append(f"fragment {f.id} [{' '.join(f.cs.predicates)}] subjects={f.subject_count}")
        lines.extend("  " + t.nt() for t in sorted(f.triples, key=Triple.sort_key))
    lines.extend(f"absorbed {src} -> {dst}" for src, dst in report.absorbed)
    lines.extend(f"split {src} [{' '.join(preds)}] -> {dst}" for src, preds, dst in report.split)
    lines.append(f"residual {' '.join(report.residual)}")
    lines.append(f"achieved_count={report.achieved_count} feasible={report.feasible}")
    return "\n".join(lines) + "\n"


def texts() -> Iterator[tuple[str, str]]:
    for name, run in instances():
        yield name, merge_text(run())


def compare() -> list[str]:
    """Rerun every instance; one message per mismatch, the first one
    followed by that instance's merge text."""
    return golden_compare(CORPUS, texts())


if __name__ == "__main__":
    sys.exit(golden_main(sys.argv[1:], CORPUS, "name digest: sha256 of the merged fragments "
                         "and report, first 16 hex digits", texts()))
