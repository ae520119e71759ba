"""Prefix-partitioned Bloom bitvectors, star-pattern filters, and an exact-set
stand-in used when tests need known cardinalities instead of hashed ones."""

from __future__ import annotations

import hashlib
import math
import struct
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .model import Term
from .fragments import Fragment

DEFAULT_M = 20000
DEFAULT_K = 5
DEFAULT_SEED = 0x5B10_0F11


class ParameterMismatchError(ValueError):
    pass


class SaturationWarning(UserWarning):
    pass


@dataclass(frozen=True)
class BloomParams:
    m: int = DEFAULT_M  # bits per partition bitvector
    k: int = DEFAULT_K  # hash functions
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.m < 64:
            raise ValueError("m must be >= 64")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def positions(self, data: str) -> list[int]:
        # k index variants derived from one keyed 64+64 bit digest
        key = self.seed.to_bytes(8, "little")
        digest = hashlib.blake2b(data.encode("utf-8"), digest_size=16, key=key).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        return [(h1 + i * h2) % self.m for i in range(self.k)]


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float total. From Python 3.12 on, ``sum()`` compensates
    float rounding, so estimates added with it would differ between versions."""
    total = 0.0
    for v in values:
        total += v
    return total


def _estimate_partition(set_bits: int, m: int, k: int) -> float:
    if set_bits <= 0:
        return 0.0
    if set_bits >= m:
        warnings.warn("saturated filter partition; cardinality estimate capped",
                      SaturationWarning, stacklevel=3)
        return m * math.log(m) / k
    return math.log(1.0 - set_bits / m) / (k * math.log(1.0 - 1.0 / m))


class PartitionedBitvector:
    """Bloom bitvectors grouped by term prefix; partitions appear on first insert.

    ``estimate()`` is computed once and cached; ``insert``, the only
    mutator, clears the cache."""

    __slots__ = ("params", "partitions", "_estimate")

    def __init__(self, params: BloomParams, partitions: Optional[dict[str, int]] = None):
        self.params = params
        self.partitions: dict[str, int] = dict(partitions or {})
        self._estimate: Optional[float] = None

    def insert(self, term: Term) -> "PartitionedBitvector":
        prefix, data = term.filter_key()
        bits = self.partitions.get(prefix, 0)
        for pos in self.params.positions(data):
            bits |= 1 << pos
        self.partitions[prefix] = bits
        self._estimate = None
        return self

    def maybe_contains(self, term: Term) -> bool:
        prefix, data = term.filter_key()
        bits = self.partitions.get(prefix)
        if bits is None:
            return False
        for pos in self.params.positions(data):
            if not (bits >> pos) & 1:
                return False
        return True

    def _check_params(self, other: "PartitionedBitvector") -> None:
        if self.params != other.params:
            raise ParameterMismatchError(
                f"filter parameters differ: {self.params} vs {other.params}")

    def intersect(self, other: "PartitionedBitvector") -> "PartitionedBitvector":
        self._check_params(other)
        common = self.partitions.keys() & other.partitions.keys()
        return PartitionedBitvector(
            self.params, {p: self.partitions[p] & other.partitions[p] for p in common})

    def union(self, other: "PartitionedBitvector") -> "PartitionedBitvector":
        self._check_params(other)
        merged = dict(self.partitions)
        for p, bits in other.partitions.items():
            merged[p] = merged.get(p, 0) | bits
        return PartitionedBitvector(self.params, merged)

    def is_empty(self) -> bool:
        return all(bits == 0 for bits in self.partitions.values())

    def set_bits(self) -> int:
        return sum(bits.bit_count() for bits in self.partitions.values())

    def estimate(self) -> float:
        """Estimated number of distinct inserted values, summed over partitions
        in prefix order: the order a filter file stores them, so a filter read
        back estimates exactly what the built one did."""
        if self._estimate is None:
            m, k = self.params.m, self.params.k
            self._estimate = ordered_sum(
                _estimate_partition(self.partitions[p].bit_count(), m, k)
                for p in sorted(self.partitions))
        return self._estimate

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PartitionedBitvector)
                and self.params == other.params
                and self.partitions == other.partitions)


class ExactBitset:
    """Exact-set summary with the same operations as PartitionedBitvector.

    Backs tests and worked examples where cardinalities must be exact rather
    than hash estimates.
    """

    __slots__ = ("items",)

    params = None

    def __init__(self, items: Iterable = ()):
        self.items: frozenset = frozenset(items)

    def insert(self, term: Term) -> "ExactBitset":
        self.items = self.items | {term.nt()}
        return self

    def maybe_contains(self, term: Term) -> bool:
        return term.nt() in self.items

    def intersect(self, other: "ExactBitset") -> "ExactBitset":
        return ExactBitset(self.items & other.items)

    def union(self, other: "ExactBitset") -> "ExactBitset":
        return ExactBitset(self.items | other.items)

    def is_empty(self) -> bool:
        return not self.items

    def estimate(self) -> float:
        return float(len(self.items))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExactBitset) and self.items == other.items


Summary = Union[PartitionedBitvector, ExactBitset]


@dataclass
class SPBF:
    """Per-fragment star filter: one summary for subjects, one per predicate
    for that predicate's objects. Predicate membership itself is exact."""

    subjects: Summary
    objects: dict[str, Summary]
    params: Optional[BloomParams] = None

    @property
    def predicates(self) -> tuple[str, ...]:
        return tuple(sorted(self.objects))

    def has_predicate(self, predicate: str) -> bool:
        return predicate in self.objects

    def maybe_subject(self, term: Term) -> bool:
        return self.subjects.maybe_contains(term)

    def maybe_object(self, term: Term, predicate: Optional[str] = None) -> bool:
        if predicate is not None:
            summary = self.objects.get(predicate)
            return summary is not None and summary.maybe_contains(term)
        return any(s.maybe_contains(term) for s in self.objects.values())

    def predicate_bitvector(self) -> Summary:
        """A summary holding exactly the fragment's predicate IRIs."""
        if self.params is None:
            return ExactBitset(Term("iri", p).nt() for p in self.predicates)
        pb = PartitionedBitvector(self.params)
        for p in self.predicates:
            pb.insert(Term("iri", p))
        return pb


def build_spbf(fragment: Fragment, params: BloomParams) -> SPBF:
    """Summarize a fragment: every distinct subject, and per predicate every
    object occurring with it."""
    if not fragment.triples:
        raise ValueError("cannot summarize an empty fragment")
    subjects = PartitionedBitvector(params)
    for s in {t.s for t in fragment.triples}:
        subjects.insert(s)
    objects = {p: PartitionedBitvector(params) for p in fragment.cs.predicates}
    for t in fragment.triples:
        objects[t.p.lexical].insert(t.o)
    return SPBF(subjects, objects, params)


# -- binary serialization ----------------------------------------------------

_MAGIC = b"SPBF"
_VERSION = 1
_HEADER = "<HIHQ"  # after the magic: version, m, k, seed
_COUNT = "<I"  # a string's length in bytes, or a number of partitions or predicates


def _pack_str(s: str) -> bytes:
    data = s.encode("utf-8")
    return struct.pack(_COUNT, len(data)) + data


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated filter data")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        return self.take(self.unpack(_COUNT)[0]).decode("utf-8")


def _pack_bitvector(pb: PartitionedBitvector) -> bytes:
    nbytes = (pb.params.m + 7) // 8
    parts = [struct.pack(_COUNT, len(pb.partitions))]
    for prefix in sorted(pb.partitions):
        parts.append(_pack_str(prefix))
        parts.append(pb.partitions[prefix].to_bytes(nbytes, "little"))
    return b"".join(parts)


def _read_bitvector(r: _Reader, params: BloomParams) -> PartitionedBitvector:
    nbytes = (params.m + 7) // 8
    partitions: dict[str, int] = {}
    for _ in range(r.unpack(_COUNT)[0]):
        prefix = r.string()
        partitions[prefix] = int.from_bytes(r.take(nbytes), "little")
    return PartitionedBitvector(params, partitions)


def spbf_to_bytes(spbf: SPBF) -> bytes:
    if spbf.params is None:
        raise ValueError("exact-set summaries are not serializable")
    header = _MAGIC + struct.pack(_HEADER, _VERSION, spbf.params.m, spbf.params.k,
                                  spbf.params.seed)
    parts = [header, _pack_bitvector(spbf.subjects), struct.pack(_COUNT, len(spbf.objects))]
    for p in spbf.predicates:
        parts.append(_pack_str(p))
        parts.append(_pack_bitvector(spbf.objects[p]))
    return b"".join(parts)


def spbf_from_bytes(data: bytes, expected_params: Optional[BloomParams] = None) -> SPBF:
    r = _Reader(data)
    if r.take(4) != _MAGIC:
        raise ValueError("not a star filter stream (bad magic)")
    version, m, k, seed = r.unpack(_HEADER)
    if version != _VERSION:
        raise ValueError(f"unsupported filter version {version}")
    params = BloomParams(m=m, k=k, seed=seed)
    if expected_params is not None and params != expected_params:
        raise ParameterMismatchError(f"filter parameters {params} != expected {expected_params}")
    subjects = _read_bitvector(r, params)
    objects: dict[str, PartitionedBitvector] = {}
    for _ in range(r.unpack(_COUNT)[0]):
        p = r.string()
        objects[p] = _read_bitvector(r, params)
    return SPBF(subjects, objects, params)
