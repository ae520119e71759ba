"""A node's index: a view of the network's fragment filters over the
fragments stored within the node's horizon."""

from __future__ import annotations

from typing import Optional

from .bloom import SPBF
from .model import StarPattern, Term


class UnknownFragmentError(KeyError):
    pass


def relevant_fragment(star: StarPattern, spbf: SPBF) -> bool:
    """May the fragment contain a full match for the star? Constants only are
    checked: subject against the subject filter, predicates against the
    predicate set, objects against the matching object filter."""
    for tp in star.patterns:
        if isinstance(tp.s, Term) and not spbf.maybe_subject(tp.s):
            return False
        pred: Optional[str] = None
        if isinstance(tp.p, Term):
            if not spbf.has_predicate(tp.p.lexical):
                return False
            pred = tp.p.lexical
        if isinstance(tp.o, Term) and not spbf.maybe_object(tp.o, pred):
            return False
    return True


class SPBFIndex:
    """Maps star patterns to possibly-matching fragments and fragments to holders.

    ``filters`` is shared, not copied: it may hold fragments the node cannot
    see. ``holders`` names the visible fragments, each with the holders the
    node can see."""

    def __init__(self, filters: dict[str, SPBF], holders: dict[str, tuple[str, ...]]):
        self.filters = filters
        self._holders = holders
        self._ids = tuple(sorted(holders))

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SPBFIndex) and self._holders == other._holders
                and all(self.filters[f] == other.filters[f] for f in self._ids))

    def fragment_ids(self) -> list[str]:
        return list(self._ids)

    def spbf(self, fragment_id: str) -> SPBF:
        if fragment_id not in self._holders:
            raise UnknownFragmentError(fragment_id)
        return self.filters[fragment_id]

    def relevant_fragments(self, star: StarPattern) -> list[str]:
        return [fid for fid in self._ids if relevant_fragment(star, self.filters[fid])]

    def holders(self, fragment_id: str) -> tuple[str, ...]:
        try:
            return self._holders[fragment_id]
        except KeyError:
            raise UnknownFragmentError(fragment_id) from None


def combine(filters: dict[str, SPBF], allocation: dict[str, tuple[str, ...]],
            view: set[str]) -> SPBFIndex:
    """The index of a node that reaches the nodes in ``view``: every fragment
    with a holder in the view, with those holders."""
    holders = {}
    for fid, hs in allocation.items():
        visible = tuple(h for h in hs if h in view)
        if visible:
            holders[fid] = visible
    return SPBFIndex(filters, holders)
