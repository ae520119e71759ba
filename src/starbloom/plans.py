"""Query execution plan trees: left-deep joins, Cartesian products, unions of
per-fragment selections, each annotated with the node it is delegated to."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .model import StarPattern


class MalformedPlanError(ValueError):
    pass


@dataclass(frozen=True)
class Selection:
    """Evaluate one star pattern over one fragment at one node."""

    star: StarPattern
    fragment: str
    node: str


@dataclass(frozen=True)
class Join:
    left: "Plan"
    right: "Plan"  # a Selection or a Union of Selections (left-deep invariant)
    node: str


@dataclass(frozen=True)
class Cartesian:
    left: "Plan"
    right: "Plan"
    node: str


@dataclass(frozen=True)
class Union_:
    branches: tuple["Plan", ...]

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise MalformedPlanError("union needs at least two branches")


@dataclass(frozen=True)
class EmptyPlan:
    """A provably empty result (pruning removed every candidate)."""


Plan = Union[Selection, Join, Cartesian, Union_, EmptyPlan]


def union_of(branches: list[Plan]) -> Plan:
    """Union constructor that flattens trivial cases."""
    flat: list[Plan] = []
    for b in branches:
        if isinstance(b, Union_):
            flat.extend(b.branches)
        elif isinstance(b, EmptyPlan):
            continue
        else:
            flat.append(b)
    if not flat:
        return EmptyPlan()
    if len(flat) == 1:
        return flat[0]
    return Union_(tuple(flat))


def branches_of(plan: Plan) -> tuple[Plan, ...]:
    if isinstance(plan, Union_):
        return plan.branches
    return (plan,)


def right_selections(right: Plan) -> tuple[Selection, ...]:
    """The selections on the right side of a join; rejects non-left-deep shapes."""
    if isinstance(right, Selection):
        return (right,)
    if isinstance(right, Union_):
        sels = []
        for b in right.branches:
            if not isinstance(b, Selection):
                raise MalformedPlanError("join right side must be selections only")
            sels.append(b)
        return tuple(sels)
    raise MalformedPlanError(f"join right side cannot be {type(right).__name__}")


def iter_selections(plan: Plan) -> Iterator[Selection]:
    if isinstance(plan, Selection):
        yield plan
    elif isinstance(plan, (Join, Cartesian)):
        yield from iter_selections(plan.left)
        yield from iter_selections(plan.right)
    elif isinstance(plan, Union_):
        for b in plan.branches:
            yield from iter_selections(b)


def linked_stars(plan: Plan, star: StarPattern) -> list[tuple[StarPattern, tuple[str, ...]]]:
    """The plan's stars that share a variable with ``star``, in star-key
    order, each with its fragments in the plan, sorted."""
    found: dict[str, tuple[StarPattern, set[str]]] = {}
    for sel in iter_selections(plan):
        if sel.star.variables() & star.variables():
            found.setdefault(sel.star.key, (sel.star, set()))[1].add(sel.fragment)
    return [(st, tuple(sorted(fids))) for _, (st, fids) in sorted(found.items())]


def render_plan(plan: Plan) -> str:
    """Compact single-line rendering, used in plan fingerprints and messages."""
    if isinstance(plan, EmptyPlan):
        return "(empty)"
    if isinstance(plan, Selection):
        return f"[[{plan.star.key}]]_{plan.fragment}^{plan.node}"
    if isinstance(plan, Union_):
        return "(" + " UNION ".join(render_plan(b) for b in plan.branches) + ")"
    if isinstance(plan, Join):
        return f"({render_plan(plan.left)} JOIN^{plan.node} {render_plan(plan.right)})"
    if isinstance(plan, Cartesian):
        return f"({render_plan(plan.left)} CROSS^{plan.node} {render_plan(plan.right)})"
    raise MalformedPlanError(f"unknown plan node {type(plan).__name__}")
