"""Query planning: compatibility-graph source pruning, transfer-cost model,
and delegation-aware construction of left-deep execution plans."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .cardinality import (PlanContext, card_join_with_selection, card_plan,
                          card_star, position_summary)
from .index import SPBFIndex
from .model import Query, StarPattern, star_decompose
from .plans import (Cartesian, EmptyPlan, Join, MalformedPlanError, Plan,
                    Selection, Union_, branches_of, right_selections, union_of)


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

    def joins(self, f1: str, f2: str) -> bool:
        return tuple(sorted((f1, f2))) in self.edges


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


def compatibility_graph(query_or_stars, index: SPBFIndex,
                        distinct: bool = False) -> CompatibilityGraph:
    """Source selection: keep only fragments that can contribute to a full
    answer, connecting fragment pairs whose join-variable filters intersect.

    Branches grow recursively from the star with the lowest estimated
    cardinality; fragments on branches that dead-end are dropped. Star groups
    without shared variables combine with all-pairs edges. An empty graph
    means the answer is provably empty.
    """
    if isinstance(query_or_stars, Query):
        stars = star_decompose(query_or_stars.bgp)
    else:
        stars = list(query_or_stars)
    if not stars:
        raise ValueError("cannot plan an empty pattern")

    relevant = {st.key: tuple(index.relevant_fragments(st)) for st in stars}

    def estimated(st: StarPattern) -> float:
        return sum(card_star(st, index.spbf(fid), distinct) for fid in relevant[st.key])

    def build_branch(remaining: list[StarPattern], fid: str,
                     star: StarPattern) -> tuple[set[str], set[tuple[str, str]]]:
        joining = [st for st in remaining if _vars_overlap(star, st)]
        if not joining:
            return {fid}, set()
        frags: set[str] = set()
        edges: set[tuple[str, str]] = set()
        for nxt in joining:
            shared = sorted(star.variables() & nxt.variables())
            rest = [st for st in remaining if st.key != nxt.key]
            for fid2 in relevant[nxt.key]:
                if not _filters_overlap(index, fid, star, fid2, nxt, shared):
                    continue
                sub_frags, sub_edges = build_branch(rest, fid2, nxt)
                if sub_frags:
                    frags |= sub_frags | {fid}
                    edges |= sub_edges | {tuple(sorted((fid, fid2)))}
        return frags, edges

    def component(seed: StarPattern, pool: list[StarPattern]) -> list[StarPattern]:
        todo = [seed]
        seen = {seed.key}
        while todo:
            cur = todo.pop()
            for st in pool:
                if st.key not in seen and _vars_overlap(cur, st):
                    seen.add(st.key)
                    todo.append(st)
        return [st for st in pool if st.key in seen]

    def build(pool: list[StarPattern]) -> tuple[set[str], set[tuple[str, str]]]:
        seed = min(pool, key=lambda st: (estimated(st), st.key))
        comp = component(seed, pool)
        others = [st for st in comp if st.key != seed.key]
        frags: set[str] = set()
        edges: set[tuple[str, str]] = set()
        for fid in relevant[seed.key]:
            sub_frags, sub_edges = build_branch(others, fid, seed)
            frags |= sub_frags
            edges |= sub_edges
        if not frags:
            return set(), set()
        rest = [st for st in pool if st.key not in {c.key for c in comp}]
        if rest:
            sub_frags, sub_edges = build(rest)
            if not sub_frags:
                return set(), set()
            edges |= {tuple(sorted((a, b))) for a in frags for b in sub_frags}
            frags |= sub_frags
            edges |= sub_edges
        return frags, edges

    frags, edges = build(list(stars))
    star_frags = {st.key: tuple(f for f in relevant[st.key] if f in frags) for st in stars}
    if any(not fids for fids in star_frags.values()):
        # a star with no surviving fragment makes the whole answer empty
        return CompatibilityGraph(tuple(stars), {st.key: () for st in stars}, frozenset())
    return CompatibilityGraph(tuple(stars), star_frags, frozenset(edges))


# -- transfer cost -------------------------------------------------------------


def transfer_cost(plan: Plan, node: str, ctx: PlanContext) -> float:
    """Estimated intermediate results crossing node boundaries when ``node``
    consumes the plan. Local selections are free; a join pays for its left
    operand at the join's delegate (once per right-side fragment), for join
    output produced against a remote right selection, and for its own output
    when delegated away from the consumer."""
    if isinstance(plan, EmptyPlan):
        return 0.0
    if isinstance(plan, Selection):
        return card_plan(plan, ctx) if node != plan.node else 0.0
    if isinstance(plan, Union_):
        return sum(transfer_cost(b, node, ctx) for b in plan.branches)
    if isinstance(plan, Cartesian):
        total = transfer_cost(plan.left, plan.node, ctx) + transfer_cost(plan.right, plan.node, ctx)
        if plan.node != node:
            total += card_plan(plan, ctx)
        return total
    if isinstance(plan, Join):
        sels = right_selections(plan.right)
        if len(sels) > 1:
            # a union on the right is costed branch-wise
            return sum(transfer_cost(Join(plan.left, sel, plan.node), node, ctx)
                       for sel in sels)
        sel = sels[0]
        total = transfer_cost(plan.left, plan.node, ctx)
        if sel.node != plan.node:
            # output joined against a remote selection ships back, duplicates included
            for b in branches_of(plan.left):
                total += card_join_with_selection(b, sel.star, sel.fragment, ctx,
                                                  distinct=False)
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
            for subset in _subsets(sorted(self.planner.stars)):
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


class _SelShape:
    __slots__ = ("star", "fragment")

    def __init__(self, star: StarPattern, fragment: str):
        self.star = star
        self.fragment = fragment


class _OpShape:
    __slots__ = ("kind", "left", "right")

    def __init__(self, kind: str, left: list, right: tuple[_SelShape, ...]):
        self.kind = kind  # "join" | "cartesian"
        self.left = left  # branch shapes of the left operand
        self.right = right


def _branch_star_fragments(shape) -> dict[str, set[str]]:
    if isinstance(shape, _SelShape):
        return {shape.star.key: {shape.fragment}}
    out: dict[str, set[str]] = {}
    for b in shape.left:
        for k, v in _branch_star_fragments(b).items():
            out.setdefault(k, set()).update(v)
    for sel in shape.right:
        out.setdefault(sel.star.key, set()).add(sel.fragment)
    return out


def _branch_stars(shape) -> dict[str, StarPattern]:
    if isinstance(shape, _SelShape):
        return {shape.star.key: shape.star}
    out: dict[str, StarPattern] = {}
    for b in shape.left:
        out.update(_branch_stars(b))
    for sel in shape.right:
        out[sel.star.key] = sel.star
    return out


class _Planner:
    """Assembles branch-grouped plan skeletons and assigns delegation nodes by
    dynamic programming over candidate nodes per operator."""

    def __init__(self, compat: CompatibilityGraph, index: SPBFIndex,
                 ctx: PlanContext, origin: str):
        self.compat = compat
        self.index = index
        self.ctx = ctx
        self.origin = origin
        self.stars = {st.key: st for st in compat.stars}
        self.cards = {
            key: sum(card_star(st, ctx.spbfs[fid], ctx.distinct)
                     for fid in compat.star_fragments[key])
            for key, st in self.stars.items()
        }

    def single_star_shapes(self, star: StarPattern) -> list:
        return [_SelShape(star, fid) for fid in self.compat.star_fragments[star.key]]

    def _compatible_fragments(self, branch, star: StarPattern, cartesian: bool) -> tuple[str, ...]:
        candidates = self.compat.star_fragments[star.key]
        if cartesian:
            return tuple(candidates)
        frags_by_star = _branch_star_fragments(branch)
        linked = [k for k, st in _branch_stars(branch).items() if _vars_overlap(st, star)]
        out = []
        for fid in candidates:
            if all(any(self.compat.joins(fid, f) for f in frags_by_star.get(key, ()))
                   for key in linked):
                out.append(fid)
        return tuple(out)

    def extend(self, branches: list, star: StarPattern, cartesian: bool) -> list:
        """Join (or cross) a new star onto each surviving branch; branches with
        the same compatible right-fragment set share one operator."""
        groups: dict[tuple[str, ...], list] = {}
        for b in branches:
            rset = self._compatible_fragments(b, star, cartesian)
            if not rset:
                continue  # provably joins nothing; prune the branch
            groups.setdefault(rset, []).append(b)
        kind = "cartesian" if cartesian else "join"
        return [_OpShape(kind, groups[rset], tuple(_SelShape(star, fid) for fid in rset))
                for rset in sorted(groups)]

    # ---- delegate assignment

    def _holders(self, fid: str) -> tuple[str, ...]:
        return tuple(sorted(self.index.holders(fid), key=node_sort_key))

    def _placement(self, fid: str) -> str:
        # selections sit at the origin when it holds the fragment, otherwise
        # at the lowest-id holder; placement does not chase join delegates
        holders = self._holders(fid)
        return self.origin if self.origin in holders else holders[0]

    def shape_card(self, shape) -> float:
        return card_plan(self._materialize_default(shape), self.ctx)

    def _materialize_default(self, shape) -> Plan:
        if isinstance(shape, _SelShape):
            return Selection(shape.star, shape.fragment, self._placement(shape.fragment))
        left = union_of([self._materialize_default(b) for b in shape.left])
        right = union_of([Selection(s.star, s.fragment, self._placement(s.fragment))
                          for s in shape.right])
        op = Join if shape.kind == "join" else Cartesian
        return op(left, right, self.origin)

    def assign(self, shape) -> dict[str, tuple[float, Plan]]:
        """Per candidate delegate: cheapest transfer cost incurred inside the
        subtree (shipping to the delegate not included) and the plan that
        realizes it."""
        if isinstance(shape, _SelShape):
            placed = self._placement(shape.fragment)
            return {placed: (0.0, Selection(shape.star, shape.fragment, placed))}

        right_holders = [h for sel in shape.right for h in self._holders(sel.fragment)]
        candidates = sorted(set(right_holders) | {self.origin},
                            key=lambda n: (n != self.origin, node_sort_key(n)))

        child_options = [self.assign(b) for b in shape.left]
        child_cards = [self.shape_card(b) for b in shape.left]

        out: dict[str, tuple[float, Plan]] = {}
        for d in candidates:
            left_cost = 0.0
            left_plans: list[Plan] = []
            for options, child_card in zip(child_options, child_cards):
                best_rank: Optional[tuple] = None
                best_node = None
                for cd, (ccost, _) in options.items():
                    val = ccost + (child_card if cd != d else 0.0)
                    rank = (val, cd != d, node_sort_key(cd))
                    if best_rank is None or rank < best_rank:
                        best_rank, best_node = rank, cd
                left_cost += best_rank[0]
                left_plans.append(options[best_node][1])
            left_plan = union_of(left_plans)

            right_sels = [Selection(s.star, s.fragment, self._placement(s.fragment))
                          for s in shape.right]
            right_plan = union_of(right_sels)
            if shape.kind == "join":
                # bind joins fan the left out once per right-side fragment
                total = left_cost * len(right_sels)
                for sel in right_sels:
                    if sel.node != d:
                        for b in branches_of(left_plan):
                            total += card_join_with_selection(
                                b, sel.star, sel.fragment, self.ctx, distinct=False)
                plan: Plan = Join(left_plan, right_plan, d)
            else:
                total = left_cost
                total += sum(card_plan(s, self.ctx) for s in right_sels if s.node != d)
                plan = Cartesian(left_plan, right_plan, d)
            out[d] = (total, plan)
        return out

    def best_plan(self, shapes: list) -> Plan:
        """Choose delegates minimizing transfer into the origin, branch by branch."""
        chosen: list[Plan] = []
        for shape in shapes:
            options = self.assign(shape)
            card = self.shape_card(shape)
            best_rank: Optional[tuple] = None
            best_plan: Optional[Plan] = None
            for d, (internal, plan) in options.items():
                val = internal + (card if d != self.origin else 0.0)
                rank = (val, d != self.origin, node_sort_key(d))
                if best_rank is None or rank < best_rank:
                    best_rank, best_plan = rank, plan
            chosen.append(best_plan)
        return union_of(chosen)

    def subquery(self, subset: frozenset[str]) -> DPEntry:
        """Plan one star subset on its own: greedy order, branch grouping,
        then delegation."""
        order = _chain_order([self.stars[k] for k in sorted(subset)], self.cards)
        shapes = self.single_star_shapes(order[0][0])
        for st, cartesian in order[1:]:
            shapes = self.extend(shapes, st, cartesian)
        plan = self.best_plan(shapes) if shapes else EmptyPlan()
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
    spbfs = {fid: index.spbf(fid) for fid in index.fragment_ids()}
    ctx = PlanContext(spbfs=spbfs, edges=compat.edges, distinct=query.distinct)

    if compat.is_empty():
        return OptimizeResult(EmptyPlan(), {}, compat, ctx, origin)

    planner = _Planner(compat, index, ctx, origin)
    full = frozenset(planner.stars)
    table = {full: planner.subquery(full)}
    return OptimizeResult(table[full].plan, table, compat, ctx, origin, planner)


def _subsets(keys: list[str]) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for mask in range(1, 1 << len(keys)):
        out.append(tuple(keys[i] for i in range(len(keys)) if mask & (1 << i)))
    out.sort(key=lambda s: (len(s), s))
    return out


def baseline_plan(query: Query, index: SPBFIndex, origin: str) -> tuple[Plan, PlanContext]:
    """No-pruning reference: every relevant fragment per star, one join per
    star in the same greedy order, everything delegated to the origin."""
    stars = star_decompose(query.bgp)
    spbfs = {fid: index.spbf(fid) for fid in index.fragment_ids()}
    ctx = PlanContext(spbfs=spbfs, edges=frozenset(), distinct=query.distinct)

    relevant = {st.key: tuple(index.relevant_fragments(st)) for st in stars}
    if any(not fids for fids in relevant.values()):
        return EmptyPlan(), ctx

    def sel(star: StarPattern, fid: str) -> Selection:
        holders = sorted(index.holders(fid), key=node_sort_key)
        return Selection(star, fid, origin if origin in holders else holders[0])

    cards = {
        st.key: sum(card_star(st, spbfs[fid], query.distinct) for fid in relevant[st.key])
        for st in stars
    }
    order = _chain_order(stars, cards)
    plan: Plan = union_of([sel(order[0][0], fid) for fid in relevant[order[0][0].key]])
    for st, cartesian in order[1:]:
        right = union_of([sel(st, fid) for fid in relevant[st.key]])
        plan = Cartesian(plan, right, origin) if cartesian else Join(plan, right, origin)
    return plan, ctx


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
