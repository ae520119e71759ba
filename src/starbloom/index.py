"""Per-fragment index slices and their combination into a node's index."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .bloom import BloomParams, SPBF, _Reader, spbf_from_bytes, spbf_to_bytes
from .model import StarPattern, Term


class UnknownFragmentError(KeyError):
    pass


class SliceStoreError(ValueError):
    """A slice directory that cannot be read back."""


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


# -- slice files ---------------------------------------------------------------

_SLICE_MAGIC = b"SLIC"


def slice_to_bytes(s: SPBFSlice) -> bytes:
    fid = s.fragment_id.encode("utf-8")
    parts = [_SLICE_MAGIC, struct.pack("<I", len(fid)), fid,
             struct.pack("<H", len(s.holders))]
    for h in s.holders:
        hb = h.encode("utf-8")
        parts.append(struct.pack("<H", len(hb)))
        parts.append(hb)
    body = spbf_to_bytes(s.spbf)
    parts.append(struct.pack("<I", len(body)))
    parts.append(body)
    return b"".join(parts)


def slice_from_bytes(data: bytes, expected_params: Optional[BloomParams] = None) -> SPBFSlice:
    """Decode one slice; malformed or truncated input raises ``ValueError``."""
    r = _Reader(data)
    if r.take(4) != _SLICE_MAGIC:
        raise ValueError("not an index slice stream (bad magic)")
    fid = r.string()
    n_holders = r.u16()
    holders = tuple(r.take(r.u16()).decode("utf-8") for _ in range(n_holders))
    spbf = spbf_from_bytes(r.take(r.u32()), expected_params)
    return SPBFSlice(fid, spbf, holders)


def write_slices(slices: Iterable[SPBFSlice], outdir: Path) -> dict[str, str]:
    """One binary file per slice plus a manifest listing them. Returns the
    SHA-256 of each slice file by file name."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for s in sorted(slices, key=lambda s: s.fragment_id):
        name = f"{s.fragment_id}.slice"
        data = slice_to_bytes(s)
        (outdir / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    manifest = outdir / "index.manifest"
    manifest.write_text("".join(n + "\n" for n in digests), encoding="utf-8")
    return digests


def load_slices(outdir: Path, digests: dict[str, str],
                expected_params: Optional[BloomParams] = None) -> list[SPBFSlice]:
    """Read slices written by ``write_slices``, each file checked against its
    SHA-256 in ``digests`` (by file name) before it is decoded. A missing or
    unreadable directory, manifest or slice file, a slice file without its
    digest, a malformed or truncated slice, or filter parameters other than
    ``expected_params`` raise ``SliceStoreError`` naming the path."""
    outdir = Path(outdir)
    manifest = outdir / "index.manifest"
    try:
        names = _read_bytes(manifest).decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise SliceStoreError(f"{manifest} is not UTF-8: {e.reason}") from e
    out = []
    for name in names:
        if name.strip():
            path = outdir / name
            data = _read_bytes(path)
            if hashlib.sha256(data).hexdigest() != digests.get(name):
                raise SliceStoreError(f"{path} does not have its recorded SHA-256")
            try:
                out.append(slice_from_bytes(data, expected_params))
            except ValueError as e:
                raise SliceStoreError(f"{path}: {e}") from e
    return out


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as e:
        raise SliceStoreError(f"cannot read {path}: {e.strerror}") from e
