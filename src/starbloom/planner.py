"""Query planning: compatibility-graph source pruning, transfer-cost model,
and delegation-aware construction of left-deep execution plans."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .bloom import ordered_sum
from .cardinality import (PlanContext, card_join_with_selection, card_plan,
                          card_star, position_summary)
from .index import SPBFIndex
from .model import Query, StarPattern, star_decompose
from .plans import (Cartesian, EmptyPlan, Join, MalformedPlanError, Plan,
                    Selection, Union_, branches_of, linked_stars, right_selections,
                    union_of)


def node_sort_key(node_id: str) -> tuple:
    """Natural ordering for node names, so ``n2`` sorts before ``n10``."""
    head = node_id.rstrip("0123456789")
    tail = node_id[len(head):]
    return (head, int(tail) if tail else -1)


@dataclass(frozen=True)
class CompatibilityGraph:
    """Surviving fragments per star, and edges between fragments whose join
    filters overlap (all cross pairs for Cartesian components)."""

    stars: tuple[StarPattern, ...]
    star_fragments: dict[str, tuple[str, ...]]
    edges: frozenset[tuple[str, str]]

    def fragments(self) -> frozenset[str]:
        out: set[str] = set()
        for fids in self.star_fragments.values():
            out.update(fids)
        return frozenset(out)

    def is_empty(self) -> bool:
        return not self.fragments()


def _vars_overlap(a: StarPattern, b: StarPattern) -> bool:
    return bool(a.variables() & b.variables())


def _filters_overlap(index: SPBFIndex, f1: str, star1: StarPattern,
                     f2: str, star2: StarPattern, shared: Iterable[str]) -> bool:
    for v in shared:
        s1 = position_summary(index.spbf(f1), star1, v)
        s2 = position_summary(index.spbf(f2), star2, v)
        if s1 is None or s2 is None:
            return False
        if s1.intersect(s2).is_empty():
            return False
    return True


def compatibility_graph(query: Query, index: SPBFIndex,
                        distinct: bool = False) -> CompatibilityGraph:
    """Source selection: keep only fragments that can contribute to a full
    answer, connecting fragment pairs whose join-variable filters intersect.

    Stars fall into join-connected groups, and each group is walked from its
    star with the lowest estimated cardinality. A fragment of a star survives
    when no star left to visit joins that star, or when some joining star has
    a fragment whose filters overlap it and that survives with that star
    visited; each surviving pair is an edge. Each (stars left, fragment, star)
    state is decided once. Fragments of different groups are connected
    pairwise (a Cartesian product). An empty graph means the answer is
    provably empty.
    """
    stars = star_decompose(query.bgp)
    relevant = {st.key: tuple(index.relevant_fragments(st)) for st in stars}
    kept: dict[str, set[str]] = {st.key: set() for st in stars}
    edges: set[tuple[str, str]] = set()
    decided: dict[tuple[frozenset[str], str, str], bool] = {}

    def survives(left: frozenset[str], fid: str, star: StarPattern) -> bool:
        key = (left, fid, star.key)
        if key not in decided:
            joining = [st for st in stars if st.key in left and _vars_overlap(star, st)]
            alive = not joining
            for nxt in joining:
                shared = sorted(star.variables() & nxt.variables())
                for fid2 in relevant[nxt.key]:
                    if (_filters_overlap(index, fid, star, fid2, nxt, shared)
                            and survives(left - {nxt.key}, fid2, nxt)):
                        kept[nxt.key].add(fid2)
                        edges.add(tuple(sorted((fid, fid2))))
                        alive = True
            decided[key] = alive
        return decided[key]

    groups: list[set[str]] = []  # surviving fragments of each join-connected group
    todo = list(stars)
    while todo:
        group = [todo.pop(0)]
        for st in group:  # grows until no star left in todo joins it
            group += [o for o in todo if _vars_overlap(st, o)]
            todo = [o for o in todo if o not in group]
        seed = min(group, key=lambda st: (ordered_sum(
            card_star(st, index.spbf(fid), distinct) for fid in relevant[st.key]), st.key))
        left = frozenset(st.key for st in group) - {seed.key}
        kept[seed.key].update(fid for fid in relevant[seed.key] if survives(left, fid, seed))
        groups.append(set().union(*(kept[st.key] for st in group)))

    frags = set().union(*groups)
    star_frags = {st.key: tuple(f for f in relevant[st.key] if f in frags) for st in stars}
    if not all(groups) or not all(star_frags.values()):
        # a group or star with no surviving fragment makes the whole answer empty
        return CompatibilityGraph(tuple(stars), {st.key: () for st in stars}, frozenset())
    edges.update(tuple(sorted((a, b)))
                 for one, other in itertools.combinations(groups, 2) for a in one for b in other)
    return CompatibilityGraph(tuple(stars), star_frags, frozenset(edges))


# -- transfer cost -------------------------------------------------------------


def operator_transfer(op: Plan, left_cost: float, ctx: PlanContext) -> float:
    """Transfer inside one join or product at its delegate ``op.node``, given
    ``left_cost``, the cost of bringing its left operand there. A bind join
    fans the left operand out once per right-side fragment and ships back the
    output (duplicates included) joined against each remote right selection;
    a product ships in each remote right selection."""
    sels = right_selections(op.right)
    if isinstance(op, Cartesian):
        return left_cost + ordered_sum(card_plan(s, ctx) for s in sels if s.node != op.node)
    total = left_cost * len(sels)
    for sel in sels:
        if sel.node != op.node:
            for b in branches_of(op.left):
                total += card_join_with_selection(b, sel.star, sel.fragment, ctx,
                                                  distinct=False)
    return total


def transfer_cost(plan: Plan, node: str, ctx: PlanContext) -> float:
    """Estimated intermediate results crossing node boundaries when ``node``
    consumes the plan. Local selections are free; a join or product pays its
    ``operator_transfer``, plus its own output when delegated away from the
    consumer."""
    if isinstance(plan, EmptyPlan):
        return 0.0
    if isinstance(plan, Selection):
        return card_plan(plan, ctx) if node != plan.node else 0.0
    if isinstance(plan, Union_):
        return ordered_sum(transfer_cost(b, node, ctx) for b in plan.branches)
    if isinstance(plan, (Join, Cartesian)):
        total = operator_transfer(plan, transfer_cost(plan.left, plan.node, ctx), ctx)
        if node != plan.node:
            total += card_plan(plan, ctx)
        return total
    raise MalformedPlanError(f"unknown plan node {type(plan).__name__}")


@dataclass(frozen=True)
class PlanCost:
    transfer: float
    cardinality: float
    total: float


def _has_operator(plan: Plan) -> bool:
    if isinstance(plan, (Join, Cartesian)):
        return True
    if isinstance(plan, Union_):
        return any(_has_operator(b) for b in plan.branches)
    return False


def cost(plan: Plan, node: str, ctx: PlanContext) -> PlanCost:
    """Transfer plus cardinality. A plan that only selects (no join/product)
    materializes its rows exactly once, so its cost is the cardinality alone."""
    card = card_plan(plan, ctx)
    xfer = transfer_cost(plan, node, ctx)
    total = card if not _has_operator(plan) else xfer + card
    return PlanCost(transfer=xfer, cardinality=card, total=total)


# -- plan construction ---------------------------------------------------------


@dataclass
class DPEntry:
    stars: frozenset[str]
    order: tuple[str, ...]
    plan: Plan
    cardinality: float
    transfer: float
    cost: float


@dataclass
class OptimizeResult:
    """The chosen plan and the subquery table. ``optimize`` plans only the
    full star set; ``entry`` plans any other subset when first asked for it."""

    plan: Plan
    table: dict[frozenset[str], DPEntry]
    compat: CompatibilityGraph
    context: PlanContext
    origin: str
    planner: Optional[_Planner] = field(default=None, repr=False, compare=False)

    def entry(self, *star_keys: str) -> DPEntry:
        subset = frozenset(star_keys)
        found = self.table.get(subset)
        if found is None:
            if self.planner is None or not subset or not subset <= self.planner.stars.keys():
                raise KeyError(subset)
            found = self.table[subset] = self.planner.subquery(subset)
        return found

    def fill_table(self) -> None:
        """Plan every star subset not yet in the table."""
        if self.planner is not None:
            keys = sorted(self.planner.stars)
            for size in range(1, len(keys) + 1):
                for subset in itertools.combinations(keys, size):
                    self.entry(*subset)


def _chain_order(stars: list[StarPattern], cards: dict[str, float]) -> list[tuple[StarPattern, bool]]:
    """Greedy join order: cheapest star first, then the cheapest star sharing a
    variable with what has been joined; stars sharing nothing are deferred and
    enter as Cartesian products."""
    remaining = {st.key: st for st in stars}
    order: list[tuple[StarPattern, bool]] = []
    joined_vars: set[str] = set()
    while remaining:
        joining = [st for st in remaining.values() if st.variables() & joined_vars]
        if joining:
            nxt = min(joining, key=lambda st: (cards[st.key], st.key))
            cartesian = False
        else:
            nxt = min(remaining.values(), key=lambda st: (cards[st.key], st.key))
            cartesian = bool(order)
        order.append((nxt, cartesian))
        joined_vars |= nxt.variables()
        del remaining[nxt.key]
    return order


def placed_selection(star: StarPattern, fid: str, index: SPBFIndex, origin: str) -> Selection:
    """Selections sit at the origin when it holds the fragment, otherwise at
    the lowest-id holder; placement does not chase join delegates."""
    holders = index.holders(fid)
    return Selection(star, fid, origin if origin in holders else min(holders, key=node_sort_key))


def _deliver(options: dict[str, tuple[float, Plan]], card: float,
             target: str) -> tuple[float, Plan]:
    """The cheapest of a subtree's delegate options for consumption at
    ``target``: its internal transfer plus its output if shipped there."""
    def shipped(node: str) -> float:
        return options[node][0] + (card if node != target else 0.0)
    best = min(options, key=lambda n: (shipped(n), n != target, node_sort_key(n)))
    return shipped(best), options[best][1]


class _Planner:
    """Builds branch-grouped plan skeletons, every operator delegated to the
    origin, and reassigns delegates by dynamic programming over candidate
    nodes per operator."""

    def __init__(self, compat: CompatibilityGraph, index: SPBFIndex,
                 ctx: PlanContext, origin: str):
        self.compat = compat
        self.index = index
        self.ctx = ctx
        self.origin = origin
        self.stars = {st.key: st for st in compat.stars}
        self.cards = {
            key: ordered_sum(card_star(st, ctx.spbfs[fid], ctx.distinct)
                             for fid in compat.star_fragments[key])
            for key, st in self.stars.items()
        }

    def selections(self, star: StarPattern, fids: Iterable[str]) -> list[Selection]:
        return [placed_selection(star, fid, self.index, self.origin) for fid in fids]

    def _compatible_fragments(self, branch: Plan, star: StarPattern,
                              cartesian: bool) -> tuple[str, ...]:
        candidates = self.compat.star_fragments[star.key]
        if cartesian:
            return tuple(candidates)
        linked = linked_stars(branch, star)
        return tuple(fid for fid in candidates
                     if all(any(self.ctx.joins(fid, f) for f in frags) for _, frags in linked))

    def extend(self, branches: list[Plan], star: StarPattern, cartesian: bool) -> list[Plan]:
        """Join (or cross) a new star onto each surviving branch; branches with
        the same compatible right-fragment set share one operator."""
        groups: dict[tuple[str, ...], list[Plan]] = {}
        for b in branches:
            rset = self._compatible_fragments(b, star, cartesian)
            if not rset:
                continue  # provably joins nothing; prune the branch
            groups.setdefault(rset, []).append(b)
        op = Cartesian if cartesian else Join
        return [op(union_of(groups[rset]), union_of(self.selections(star, rset)), self.origin)
                for rset in sorted(groups)]

    def assign(self, plan: Plan) -> dict[str, tuple[float, Plan]]:
        """Per candidate delegate: cheapest transfer cost incurred inside the
        subtree (shipping to the delegate not included) and the plan that
        realizes it."""
        if isinstance(plan, Selection):
            return {plan.node: (0.0, plan)}
        sels = right_selections(plan.right)
        right_holders = {h for sel in sels for h in self.index.holders(sel.fragment)}
        candidates = sorted(right_holders | {self.origin},
                            key=lambda n: (n != self.origin, node_sort_key(n)))
        children = [(self.assign(b), card_plan(b, self.ctx)) for b in branches_of(plan.left)]
        out: dict[str, tuple[float, Plan]] = {}
        for d in candidates:
            left_cost = 0.0
            left_plans: list[Plan] = []
            for options, card in children:
                val, child = _deliver(options, card, d)
                left_cost += val
                left_plans.append(child)
            delegated = type(plan)(union_of(left_plans), plan.right, d)
            out[d] = (operator_transfer(delegated, left_cost, self.ctx), delegated)
        return out

    def subquery(self, subset: frozenset[str]) -> DPEntry:
        """Plan one star subset on its own: greedy order, branch grouping,
        then delegates minimizing transfer into the origin, branch by branch."""
        order = _chain_order([self.stars[k] for k in sorted(subset)], self.cards)
        first = order[0][0]
        branches: list[Plan] = self.selections(first, self.compat.star_fragments[first.key])
        for st, cartesian in order[1:]:
            branches = self.extend(branches, st, cartesian)
        plan = union_of([_deliver(self.assign(b), card_plan(b, self.ctx), self.origin)[1]
                         for b in branches])
        plan_cost = cost(plan, self.origin, self.ctx)
        return DPEntry(
            stars=subset,
            order=tuple(st.key for st, _ in order),
            plan=plan,
            cardinality=plan_cost.cardinality,
            transfer=plan_cost.transfer,
            cost=plan_cost.total,
        )


def optimize(query: Query, index: SPBFIndex, origin: str) -> OptimizeResult:
    """Build the cheapest delegated left-deep plan for a query at ``origin``.

    Join order follows ascending star cardinality with Cartesian products
    last; fragments group into parallel branches along the compatibility
    graph; delegation is optimized over the holders of each operator's
    right-side fragments plus the origin. Only the full star set is planned
    here; each subset is planned independently, so ``OptimizeResult.entry``
    plans any other subset on demand, and ``explain`` fills the whole table.
    """
    compat = compatibility_graph(query, index, query.distinct)
    ctx = PlanContext(spbfs=index.filters, edges=compat.edges, distinct=query.distinct)

    if compat.is_empty():
        return OptimizeResult(EmptyPlan(), {}, compat, ctx, origin)

    planner = _Planner(compat, index, ctx, origin)
    full = frozenset(planner.stars)
    table = {full: planner.subquery(full)}
    return OptimizeResult(table[full].plan, table, compat, ctx, origin, planner)


def baseline_plan(query: Query, index: SPBFIndex, origin: str) -> Plan:
    """No-pruning reference: every relevant fragment per star, one join per
    star in the same greedy order, everything delegated to the origin."""
    stars = star_decompose(query.bgp)
    relevant = {st.key: tuple(index.relevant_fragments(st)) for st in stars}
    if any(not fids for fids in relevant.values()):
        return EmptyPlan()

    def right(star: StarPattern) -> Plan:
        return union_of([placed_selection(star, fid, index, origin) for fid in relevant[star.key]])

    cards = {
        st.key: ordered_sum(card_star(st, index.filters[fid], query.distinct)
                            for fid in relevant[st.key])
        for st in stars
    }
    order = _chain_order(stars, cards)
    plan = right(order[0][0])
    for st, cartesian in order[1:]:
        plan = Cartesian(plan, right(st), origin) if cartesian else Join(plan, right(st), origin)
    return plan


# -- explain -------------------------------------------------------------------


def format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(round(x, 3), ".3f")


def explain(result: OptimizeResult) -> str:
    """Stable text rendering of the chosen plan and the subquery table."""
    result.fill_table()
    ctx, origin = result.context, result.origin
    lines: list[str] = []

    def walk(plan: Plan, depth: int) -> None:
        pad = "  " * depth
        if isinstance(plan, EmptyPlan):
            lines.append(f"{pad}empty [card=0]")
            return
        c = card_plan(plan, ctx)
        x = transfer_cost(plan, origin, ctx)
        stats = f"card={format_number(c)} xfer={format_number(x)} total={format_number(c + x)}"
        if isinstance(plan, Selection):
            lines.append(f"{pad}selection {plan.star.key} fragment={plan.fragment} "
                         f"@{plan.node} [{stats}]")
            return
        if isinstance(plan, Union_):
            lines.append(f"{pad}union [{stats}]")
            for b in plan.branches:
                walk(b, depth + 1)
            return
        op = "join" if isinstance(plan, Join) else "cartesian"
        lines.append(f"{pad}{op} @{plan.node} [{stats}]")
        walk(plan.left, depth + 1)
        walk(plan.right, depth + 1)

    walk(result.plan, 0)
    if result.table:
        lines.append("-- subqueries --")
        for e in sorted(result.table.values(), key=lambda e: (len(e.stars), e.order)):
            name = " JOIN ".join(e.order)
            lines.append(f"{name}: card={format_number(e.cardinality)} "
                         f"cost={format_number(e.cost)}")
    return "\n".join(lines) + "\n"
