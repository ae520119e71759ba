"""Cardinality estimation from star filters: single stars, star joins, and
whole execution plans, with and without duplicate elimination."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .bloom import SPBF, Summary, ordered_sum
from .index import SPBFIndex
from .model import StarPattern, Term, Variable
from .plans import (Cartesian, EmptyPlan, Join, MalformedPlanError, Plan,
                    Selection, Union_, branches_of, linked_stars, right_selections)


class IrrelevantFragmentError(ValueError):
    pass


class JoinShapeError(ValueError):
    pass


def _est(summary: Optional[Summary]) -> float:
    return summary.estimate() if summary is not None else 0.0


def _ratio(num: float, den: float) -> float:
    # empty denominator filter means the join/predicate can produce nothing
    if den <= 0.0:
        return 0.0
    return num / den


def position_summary(spbf: SPBF, star: StarPattern, var: str) -> Optional[Summary]:
    """The filter corresponding to a variable's position in a star: the subject
    filter, the object filter of its predicate, or the predicate filter."""
    if isinstance(star.subject, Variable) and star.subject.name == var:
        return spbf.subjects
    for tp in star.patterns:
        if isinstance(tp.o, Variable) and tp.o.name == var:
            if isinstance(tp.p, Term):
                return spbf.objects.get(tp.p.lexical)
            # variable predicate: any object filter could hold the value
            combined: Optional[Summary] = None
            for s in spbf.objects.values():
                combined = s if combined is None else combined.union(s)
            return combined
    for tp in star.patterns:
        if isinstance(tp.p, Variable) and tp.p.name == var:
            return spbf.predicate_bitvector()
    return None


def _predicate_ratios(star: StarPattern, spbf: SPBF, skip: frozenset[str] = frozenset(),
                      join_vars: frozenset[str] = frozenset()) -> float:
    """Product of per-triple-pattern duplicate factors (objects per subject),
    leaving out predicates in ``skip`` and patterns whose object is one of
    ``join_vars``."""
    subj = _est(spbf.subjects)
    factor = 1.0
    for tp in star.patterns:
        if isinstance(tp.p, Term):
            pred = tp.p.lexical
            if pred in skip:
                continue
            if isinstance(tp.o, Variable) and tp.o.name in join_vars:
                continue
            factor *= _ratio(_est(spbf.objects.get(pred)), subj)
        else:
            # variable predicate: average occurrences over the whole predicate set
            if spbf.predicates:
                mean = (ordered_sum(_est(spbf.objects[p]) for p in spbf.predicates)
                        / len(spbf.predicates))
            else:
                mean = 0.0
            factor *= _ratio(mean, subj)
    return factor


def card_star(star: StarPattern, spbf: SPBF, distinct: bool) -> float:
    """Estimated matches of a star over one fragment. With DISTINCT this is the
    subject count; otherwise each predicate contributes its mean multiplicity."""
    for p in star.predicates():
        if not spbf.has_predicate(p):
            raise IrrelevantFragmentError(f"fragment lacks predicate {p}")
    base = _est(spbf.subjects)
    if distinct:
        return base
    return base * _predicate_ratios(star, spbf)


def card_star_indexed(star: StarPattern, index: SPBFIndex, distinct: bool) -> float:
    """Aggregated star estimate over every relevant fragment in the index."""
    return ordered_sum(card_star(star, index.spbf(fid), distinct)
                       for fid in index.relevant_fragments(star))


def _join_predicate(star_k: StarPattern, star_l: StarPattern) -> Optional[str]:
    if not isinstance(star_l.subject, Variable):
        return None
    v = star_l.subject.name
    for tp in star_k.patterns:
        if isinstance(tp.o, Variable) and tp.o.name == v and isinstance(tp.p, Term):
            return tp.p.lexical
    return None


def card_join_pair(star_k: StarPattern, star_l: StarPattern, predicate: str,
                   spbf_k: SPBF, spbf_l: SPBF, distinct: bool) -> float:
    """Join of two stars over one fragment pair, linked by ``predicate`` whose
    object in star_k is star_l's subject variable."""
    if _join_predicate(star_k, star_l) != predicate:
        raise JoinShapeError(
            f"{predicate} does not link the first star's object to the second star's subject")
    subj_k = _est(spbf_k.subjects)
    obj_k = _est(spbf_k.objects.get(predicate))
    inter = _est(spbf_k.objects[predicate].intersect(spbf_l.subjects)) if spbf_k.has_predicate(predicate) else 0.0
    selectivity = _ratio(inter, obj_k)
    card = subj_k * selectivity
    if distinct:
        return card
    card *= _predicate_ratios(star_k, spbf_k, skip=frozenset({predicate}))
    card *= _predicate_ratios(star_l, spbf_l)
    return card


def card_join_indexed(star_k: StarPattern, star_l: StarPattern, predicate: str,
                      index: SPBFIndex, distinct: bool) -> float:
    """Join estimate aggregated over every pair of relevant fragments."""
    total = 0.0
    for fk in index.relevant_fragments(star_k):
        for fl in index.relevant_fragments(star_l):
            total += card_join_pair(star_k, star_l, predicate,
                                    index.spbf(fk), index.spbf(fl), distinct)
    return total


@dataclass
class PlanContext:
    """What plan-level estimation needs to know: each fragment's filter, the
    compatibility edges, and whether the query eliminates duplicates.

    ``card_cache`` memoizes plan cardinalities on ``(plan, distinct)``. A
    context lives for one query, so the cache does too."""

    spbfs: Mapping[str, SPBF]
    edges: frozenset[tuple[str, str]] = frozenset()
    distinct: bool = False
    card_cache: dict[tuple[Plan, bool], float] = field(
        default_factory=dict, repr=False, compare=False)

    def joins(self, f1: str, f2: str) -> bool:
        return tuple(sorted((f1, f2))) in self.edges


def edge_set(pairs) -> frozenset[tuple[str, str]]:
    return frozenset(tuple(sorted(p)) for p in pairs)


def card_join_with_selection(branch: Plan, star: StarPattern, fragment: str,
                             ctx: PlanContext, distinct: bool) -> float:
    """Cardinality of (branch JOIN selection) for one right-side fragment: the
    branch's cardinality times the most selective join-variable ratio.

    For every star in the branch sharing a variable with ``star``, a ratio's
    numerator sums intersections of the right fragment's filter with the
    branch fragments' filters at that variable, over the branch fragments
    joining ``fragment``; its denominator sums those branch filters. Without
    DISTINCT, right-side patterns that do not join the branch add their
    duplicate factors.
    """
    spbf_r = ctx.spbfs[fragment]
    best: Optional[float] = None
    join_vars: set[str] = set()
    for left_star, left_frags in linked_stars(branch, star):
        joining = [f for f in left_frags if ctx.joins(f, fragment)]
        for v in sorted(left_star.variables() & star.variables()):
            join_vars.add(v)
            num = 0.0
            den = 0.0
            right_summary = position_summary(spbf_r, star, v)
            if right_summary is None:
                continue
            for f in joining:
                left_summary = position_summary(ctx.spbfs[f], left_star, v)
                if left_summary is None:
                    continue
                num += _est(right_summary.intersect(left_summary))
                den += _est(left_summary)
            sel = _ratio(num, den)
            best = sel if best is None else min(best, sel)
    card = _card_plan(branch, ctx, distinct) * (best if best is not None else 0.0)
    if distinct:
        return card
    return card * _predicate_ratios(star, spbf_r, join_vars=frozenset(join_vars))


def card_plan(plan: Plan, ctx: PlanContext) -> float:
    """Estimated cardinality of a whole execution plan."""
    return _card_plan(plan, ctx, ctx.distinct)


def _card_plan(plan: Plan, ctx: PlanContext, distinct: bool) -> float:
    key = (plan, distinct)
    card = ctx.card_cache.get(key)
    if card is None:
        card = ctx.card_cache[key] = _estimate_plan(plan, ctx, distinct)
    return card


def _estimate_plan(plan: Plan, ctx: PlanContext, distinct: bool) -> float:
    if isinstance(plan, EmptyPlan):
        return 0.0
    if isinstance(plan, Selection):
        return card_star(plan.star, ctx.spbfs[plan.fragment], distinct)
    if isinstance(plan, Union_):
        return ordered_sum(_card_plan(b, ctx, distinct) for b in plan.branches)
    if isinstance(plan, Cartesian):
        return _card_plan(plan.left, ctx, distinct) * _card_plan(plan.right, ctx, distinct)
    if isinstance(plan, Join):
        sels = right_selections(plan.right)
        total = 0.0
        # joins distribute over unions on both sides; estimating per left
        # branch keeps incompatible fragment combinations out of the estimate
        for b in branches_of(plan.left):
            for sel in sels:
                total += card_join_with_selection(b, sel.star, sel.fragment, ctx, distinct)
        return total
    raise MalformedPlanError(f"unknown plan node {type(plan).__name__}")
