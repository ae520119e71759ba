"""Per-fragment index slices and their combination into a node's index."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .bloom import SPBF
from .model import StarPattern, Term


class UnknownFragmentError(KeyError):
    pass


@dataclass(frozen=True)
class SPBFSlice:
    """Everything one fragment contributes to an index: its filter and holders."""

    fragment_id: str
    spbf: SPBF
    holders: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.holders:
            raise ValueError("slice requires at least one holder")
        object.__setattr__(self, "holders", tuple(sorted(set(self.holders))))


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
    """Maps star patterns to possibly-matching fragments and fragments to holders."""

    def __init__(self, slices: Optional[dict[str, SPBFSlice]] = None):
        self.slices: dict[str, SPBFSlice] = dict(slices or {})

    def __len__(self) -> int:
        return len(self.slices)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SPBFIndex) and self.slices == other.slices

    def fragment_ids(self) -> list[str]:
        return sorted(self.slices)

    def spbf(self, fragment_id: str) -> SPBF:
        try:
            return self.slices[fragment_id].spbf
        except KeyError:
            raise UnknownFragmentError(fragment_id) from None

    def relevant_fragments(self, star: StarPattern) -> list[str]:
        return [fid for fid in self.fragment_ids()
                if relevant_fragment(star, self.slices[fid].spbf)]

    def holders(self, fragment_id: str) -> tuple[str, ...]:
        try:
            return self.slices[fragment_id].holders
        except KeyError:
            raise UnknownFragmentError(fragment_id) from None


def combine(slices: Iterable[SPBFSlice]) -> SPBFIndex:
    """Union of partial indexes; duplicate fragments merge their holder sets."""
    merged: dict[str, SPBFSlice] = {}
    for s in slices:
        existing = merged.get(s.fragment_id)
        if existing is None:
            merged[s.fragment_id] = s
        else:
            merged[s.fragment_id] = SPBFSlice(
                s.fragment_id, existing.spbf, existing.holders + s.holders)
    return SPBFIndex(merged)
