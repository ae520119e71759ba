"""Seeded generators for the benchmark's workloads.

Each generator returns a ``Spec``: the N-Triples text of the data set, the
SPARQL text of every query in the pool, and the parameters that produced
them. The same (workload, seed, tiny) always yields the same text. Nothing
here imports starbloom: the engine only ever sees the generated text.

As in WatDiv, a workload's data set is fixed by its parameters (its random
choices come from a seed named after the workload), and ``--seed`` draws the
query pool: template instances, predicates and constants. Seeds then differ
in what is asked and not in how large or skewed the data is, so run-to-run
spread measures the engine rather than the luck of one random graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

EX = "http://bench.example/"
TYPE = EX + "type"


@dataclass
class Query:
    qid: str
    template: str
    shape: str  # linear | star | snowflake | complex
    stars: int
    text: str


@dataclass
class Spec:
    name: str
    why: str
    params: dict
    ntriples: str
    queries: list[Query] = field(default_factory=list)


class _Draw:
    """Draws every item of a population once, in a seeded order, before any
    item repeats, so that pools drawn with different seeds cover the
    population alike (sampling without replacement, refilled when empty)."""

    def __init__(self, rng: random.Random, items) -> None:
        self.rng, self.items, self.queue = rng, list(items), []

    def __call__(self):
        if not self.queue:
            self.queue = list(self.items)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def _number(rng: random.Random, spec: "Spec") -> None:
    """Shuffle the pool so that templates interleave within a pass, then name
    the queries by position."""
    rng.shuffle(spec.queries)
    for i, q in enumerate(spec.queries):
        q.qid = f"q{i:03d}"


def _iri(local: str) -> str:
    return f"<{EX}{local}>"


def _select(patterns: list[str]) -> str:
    return "SELECT * WHERE {\n" + "".join(f"  {p} .\n" for p in patterns) + "}\n"


# -- plan-heavy ------------------------------------------------------------------

PLAN_HEAVY = {
    "subjects": 3000,
    "predicates": 8,
    "p_predicate": 0.5,
    "min_subjects": 1,  # merging off: every characteristic set stays a fragment
    "bloom_m": 128,
    "bloom_k": 3,
    "star_predicates": 7,
    # (shape, stars) -> queries per pool; chains and snowflakes alternate
    "mix": {"3": 30, "4": 40, "5": 20},
}
PLAN_HEAVY_TINY = dict(PLAN_HEAVY, subjects=200, predicates=5, star_predicates=4,
                       mix={"3": 3, "4": 2, "5": 1})


def plan_heavy(seed: int, tiny: bool = False) -> Spec:
    """Uniform random graph in which almost every characteristic set occurs,
    so hundreds of fragments remain, and small filters that make nearly every
    fragment pair look joinable. Each query star uses ``star_predicates`` of
    the predicates, so a fixed handful of fragments match each star and the
    planner's cost follows the number and arrangement of stars."""
    p = PLAN_HEAVY_TINY if tiny else PLAN_HEAVY
    rng = random.Random("plan-heavy/data")
    n, preds = p["subjects"], p["predicates"]
    lines = []
    for i in range(n):
        chosen = [k for k in range(preds) if rng.random() < p["p_predicate"]]
        for k in chosen or [rng.randrange(preds)]:
            lines.append(f"{_iri(f's{i}')} {_iri(f'p{k}')} {_iri(f's{rng.randrange(n)}')} .\n")
    spec = Spec("plan-heavy", "planning dominates: chains and snowflakes of 3-5 stars "
                "over hundreds of fragments", dict(p), "".join(lines))
    rng = random.Random(f"plan-heavy/queries/{seed}")
    missing_draw, link_draw = _Draw(rng, range(preds)), _Draw(rng, range(preds))
    for stars_txt, how_many in p["mix"].items():
        stars = int(stars_txt)
        for j in range(how_many):
            shape = "linear" if j % 2 == 0 else "snowflake"
            patterns = []
            for s in range(stars):
                missing: set[int] = set()
                while len(missing) < preds - p["star_predicates"]:
                    missing.add(missing_draw())
                own = [k for k in range(preds) if k not in missing]
                children = ([s + 1] if s + 1 < stars else []) if shape == "linear" else \
                    (list(range(1, stars)) if s == 0 else [])
                links = []
                while len(links) < len(children):
                    k = link_draw()
                    if k in own and k not in links:
                        links.append(k)
                rest = [k for k in own if k not in links]
                rng.shuffle(rest)
                patterns += [f"?v{s} {_iri(f'p{k}')} ?v{c}" for k, c in zip(links, children)]
                patterns += [f"?v{s} {_iri(f'p{k}')} ?o{s}x{k}" for k in rest]
            spec.queries.append(Query("", f"{shape}-{stars}", shape, stars, _select(patterns)))
    _number(rng, spec)
    return spec


# -- typed (WatDiv-style) graph shared by exec-heavy and cold-cli ------------------

# entity type -> (required predicates, optional predicates with probability)
# Link predicates name their target type; fan-out is (low, high) per subject.
SCHEMA = {
    "User": {
        "required": {"name": "lit", "likes": ("Product", 1, 4), "follows": ("User", 1, 4)},
        "optional": {"email": ("lit", 0.6), "age": ("int", 0.5),
                     "nationality": (("Country", 1, 1), 0.4),
                     "friendOf": (("User", 1, 3), 0.2)},
    },
    "Product": {
        "required": {"title": "lit", "hasGenre": ("Genre", 1, 2), "producedBy": ("Retailer", 1, 1)},
        "optional": {"price": ("int", 0.7), "caption": ("lit", 0.4),
                     "keyword": ("lit", 0.3), "similarTo": (("Product", 1, 2), 0.2)},
    },
    "Retailer": {
        "required": {"name": "lit", "offers": ("Product", 4, 12), "country": ("Country", 1, 1)},
        "optional": {"homepage": ("lit", 0.5), "email": ("lit", 0.3)},
    },
    "Review": {
        "required": {"reviewFor": ("Product", 1, 1), "reviewer": ("User", 1, 1), "rating": "int"},
        "optional": {"text": ("lit", 0.5), "title": ("lit", 0.3)},
    },
    "Genre": {"required": {"label": "lit"}, "optional": {}},
    "Country": {"required": {"label": "lit"}, "optional": {}},
}

EXEC_HEAVY = {
    "counts": {"User": 400, "Product": 250, "Retailer": 30, "Review": 500,
               "Genre": 12, "Country": 10},
    "min_subjects": 50,  # the command line's default merge threshold
    "bloom_m": 20000,
    "bloom_k": 5,
    # template -> queries per pool
    "mix": {"star-user": 2, "star-product": 2, "star-optional": 2, "oo-offers": 2,
            "complex-cycle": 2, "linear-genre": 6, "snowflake-review": 8, "linear-follow": 6},
}
EXEC_HEAVY_TINY = dict(EXEC_HEAVY, counts={"User": 60, "Product": 40, "Retailer": 6,
                                           "Review": 80, "Genre": 4, "Country": 3},
                       min_subjects=5, mix={k: 1 for k in EXEC_HEAVY["mix"]})

COLD_CLI = {
    "counts": {"User": 300, "Product": 200, "Retailer": 25, "Review": 400,
               "Genre": 8, "Country": 6},
    "min_subjects": 50,
    "bloom_m": 20000,
    "bloom_k": 5,
    "mix": {"star-product": 6, "linear-genre": 18},
}
COLD_CLI_TINY = dict(COLD_CLI, counts=EXEC_HEAVY_TINY["counts"], min_subjects=5,
                     mix={"star-product": 2, "linear-genre": 2})


def _literal(rng: random.Random, kind: str, pred: str) -> str:
    if kind == "int":
        return f'"{rng.randrange(1, 100)}"^^<http://www.w3.org/2001/XMLSchema#integer>'
    return f'"{pred} {rng.randrange(10_000)}"'


def _typed_graph(rng: random.Random, counts: dict[str, int]) -> tuple[str, dict[str, list[str]]]:
    ids = {t: [f"{t.lower()}{i}" for i in range(n)] for t, n in counts.items()}
    lines = []

    def emit(subj: str, pred: str, spec) -> None:
        if isinstance(spec, str):
            lines.append(f"{_iri(subj)} {_iri(pred)} {_literal(rng, spec, pred)} .\n")
            return
        target, low, high = spec
        pool = ids[target]
        for obj in rng.sample(pool, min(len(pool), rng.randint(low, high))):
            lines.append(f"{_iri(subj)} {_iri(pred)} {_iri(obj)} .\n")

    for t, members in ids.items():
        schema = SCHEMA[t]
        for subj in members:
            lines.append(f"{_iri(subj)} <{TYPE}> {_iri(t)} .\n")
            for pred, spec in schema["required"].items():
                emit(subj, pred, spec)
            for pred, (spec, prob) in schema["optional"].items():
                if rng.random() < prob:
                    emit(subj, pred, spec)
    return "".join(lines), ids


def _typed_query(template: str, pick) -> tuple[str, int, list[str]]:
    """Patterns of one query. Variables are named so that, in alphabetical
    order, each star's subject is bound before its patterns are reached
    wherever the shape allows; the brute-force oracle evaluates in that order."""
    t = f"<{TYPE}>"
    if template == "star-user":
        return "star", 1, [f"?a {t} {_iri('User')}", f"?a {_iri('name')} ?b",
                           f"?a {_iri('likes')} ?c"]
    if template == "star-product":
        return "star", 1, [f"?a {_iri('hasGenre')} {pick('Genre')}", f"?a {_iri('title')} ?b",
                           f"?a {_iri('producedBy')} ?c"]
    if template == "linear-genre":
        return "linear", 2, [f"?a {_iri('likes')} ?b", f"?b {_iri('hasGenre')} {pick('Genre')}"]
    if template == "linear-follow":
        return "linear", 3, [f"?a {_iri('follows')} ?b", f"?b {_iri('likes')} ?c",
                             f"?c {_iri('producedBy')} {pick('Retailer')}"]
    if template == "snowflake-review":
        return "snowflake", 3, [f"?a {_iri('reviewFor')} ?b", f"?a {_iri('reviewer')} ?c",
                                f"?a {_iri('rating')} ?d",
                                f"?b {_iri('hasGenre')} {pick('Genre')}",
                                f"?c {_iri('name')} ?e"]
    if template == "oo-offers":
        # object-object join: the two stars meet only at ?b
        return "linear", 2, [f"?a {_iri('likes')} ?b", f"?a {_iri('name')} ?c",
                             f"{pick('Retailer')} {_iri('offers')} ?b"]
    if template == "complex-cycle":
        return "complex", 3, [f"?a {_iri('reviewFor')} ?b", f"?a {_iri('reviewer')} ?c",
                              f"?b {_iri('producedBy')} {pick('Retailer')}",
                              f"?c {_iri('likes')} ?b"]
    if template == "star-optional":
        return "star", 1, [f"?a {t} {_iri('User')}", f"?a {_iri('email')} ?b",
                           f"?a {_iri('friendOf')} ?c"]
    raise ValueError(f"unknown template {template}")


def _typed(name: str, why: str, p: dict, seed: int) -> Spec:
    text, ids = _typed_graph(random.Random(f"{name}/data"), p["counts"])
    spec = Spec(name, why, dict(p), text)
    rng = random.Random(f"{name}/queries/{seed}")
    for template, how_many in p["mix"].items():
        draws = {kind: _Draw(rng, members) for kind, members in ids.items()}
        for _ in range(how_many):
            shape, stars, patterns = _typed_query(template, lambda kind: _iri(draws[kind]()))
            spec.queries.append(Query("", template, shape, stars, _select(patterns)))
    _number(rng, spec)
    return spec


def exec_heavy(seed: int, tiny: bool = False) -> Spec:
    return _typed("exec-heavy", "execution dominates: typed graph merged at the command "
                  "line's default, 1-3 star queries with large intermediate results",
                  EXEC_HEAVY_TINY if tiny else EXEC_HEAVY, seed)


def cold_cli(seed: int, tiny: bool = False) -> Spec:
    return _typed("cold-cli", "every operation is one command-line query that reloads "
                  "the network from its state file",
                  COLD_CLI_TINY if tiny else COLD_CLI, seed)


GENERATORS = {"plan-heavy": plan_heavy, "exec-heavy": exec_heavy, "cold-cli": cold_cli}
