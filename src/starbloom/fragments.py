"""Characteristic-set fragmentation and infrequent-set merging."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .model import KnowledgeGraph, Term, Triple
from .ntriples import NTriplesError, parse_ntriples, serialize_ntriples

DEFAULT_MIN_SUBJECTS = 50


class SubjectNotFoundError(KeyError):
    pass


class FragmentStoreError(ValueError):
    """A fragment directory that cannot be read back."""


@dataclass(frozen=True, order=True)
class CharacteristicSet:
    """The set of predicates occurring with one subject, in canonical order."""

    predicates: tuple[str, ...]

    @staticmethod
    def of(predicates: Iterable[str]) -> "CharacteristicSet":
        return CharacteristicSet(tuple(sorted(set(predicates))))

    def canonical(self) -> str:
        return " ".join(self.predicates)

    def __contains__(self, predicate: str) -> bool:
        return predicate in self.predicates

    def __len__(self) -> int:
        return len(self.predicates)

    def intersection(self, predicates: Iterable[str]) -> tuple[str, ...]:
        other = set(predicates)
        return tuple(p for p in self.predicates if p in other)


def fragment_id(cs: CharacteristicSet) -> str:
    digest = hashlib.sha256(f"g|{cs.canonical()}".encode("utf-8")).hexdigest()
    return digest[:12]


@dataclass(frozen=True)
class Fragment:
    """A disjoint subset of a graph keyed by a (merged) characteristic set."""

    id: str
    cs: CharacteristicSet
    triples: frozenset[Triple]
    subject_count: int

    @staticmethod
    def build(cs: CharacteristicSet, triples: Iterable[Triple]) -> "Fragment":
        ts = frozenset(triples)
        for t in ts:
            if t.p.lexical not in cs:
                raise ValueError(f"triple predicate {t.p.lexical} outside characteristic set")
        return Fragment(
            id=fragment_id(cs),
            cs=cs,
            triples=ts,
            subject_count=len({t.s for t in ts}),
        )

    def graph(self) -> KnowledgeGraph:
        """The fragment's triples as a graph, built on the first call and then
        reused (the fragment is immutable)."""
        graph = self.__dict__.get("_graph")
        if graph is None:
            graph = self._build_graph()
            object.__setattr__(self, "_graph", graph)
        return graph

    def _build_graph(self) -> KnowledgeGraph:
        return KnowledgeGraph(self.triples)

    def file_digest(self) -> str:
        """SHA-256 of the fragment's N-Triples file as ``write_fragments``
        writes it."""
        return _sha256(_ntriples_bytes(self.triples))

    def sort_key(self) -> tuple[str, str]:
        return (self.cs.canonical(), self.id)


class StoredFragment(Fragment):
    """A fragment in a fragment directory, pinned to the SHA-256 of its file.

    The file is parsed on the first use of ``graph()`` or ``triples``, and the
    parsed graph is kept; a file that no longer has the pinned digest raises
    ``FragmentStoreError`` instead.
    """

    def __init__(self, id: str, cs: CharacteristicSet, subject_count: int,
                 path: Path, digest: str):
        for name, value in (("id", id), ("cs", cs), ("subject_count", subject_count),
                            ("path", path), ("digest", digest)):
            object.__setattr__(self, name, value)

    @property
    def triples(self) -> frozenset[Triple]:  # type: ignore[override]
        return self.graph().triples

    def _build_graph(self) -> KnowledgeGraph:
        data = _read_bytes(self.path)
        if _sha256(data) != self.digest:
            raise FragmentStoreError(f"{self.path} changed after it was first read")
        try:
            graph = parse_ntriples(_decode(data, self.path))
        except NTriplesError as e:
            raise FragmentStoreError(f"{self.path}: {e}") from e
        if {t.p.lexical for t in graph} != set(self.cs.predicates):
            raise FragmentStoreError(f"{self.path}: predicates differ from its manifest entry")
        return graph

    def file_digest(self) -> str:
        return self.digest


def characteristic_set(s: Term, graph: KnowledgeGraph) -> CharacteristicSet:
    """Exactly the predicates of triples with subject ``s``."""
    triples = graph.triples_with_subject(s)
    if not triples:
        raise SubjectNotFoundError(s.nt())
    return CharacteristicSet.of(t.p.lexical for t in triples)


def fragment_by_cs(graph: KnowledgeGraph) -> list[Fragment]:
    """One fragment per distinct characteristic set; fragments partition the graph."""
    groups: dict[CharacteristicSet, list[Triple]] = {}
    for s in graph.subjects():
        groups.setdefault(characteristic_set(s, graph), []).extend(
            graph.triples_with_subject(s))
    frags = [Fragment.build(cs, ts) for cs, ts in groups.items()]
    frags.sort(key=Fragment.sort_key)
    return frags


@dataclass
class MergeReport:
    """What happened during a merge pass."""

    absorbed: list[tuple[str, str]] = field(default_factory=list)  # (source id, target id)
    split: list[tuple[str, tuple[str, ...], str]] = field(default_factory=list)  # (src, piece preds, target)
    residual: list[str] = field(default_factory=list)  # fragments left untouched for lack of a target
    achieved_count: Optional[int] = None
    feasible: bool = True


def _split_pieces(frag: Fragment, targets: list[Fragment]) -> tuple[list[tuple[tuple[str, ...], Fragment]], tuple[str, ...]]:
    """The one placement rule of merging: cut ``frag``'s predicates greedily
    into pieces, each going to the target that holds the most of the
    remaining predicates (then the fewest predicates, then the first
    canonical text). A fragment whose predicates some target holds all of is
    therefore one piece, bound for the smallest such target.

    Returns (pieces as (predicates, target) pairs, leftover predicates).
    """
    remaining = set(frag.cs.predicates)
    pieces: list[tuple[tuple[str, ...], Fragment]] = []
    while remaining:
        best: Optional[tuple[int, int, str, Fragment]] = None
        for t in targets:
            overlap = t.cs.intersection(remaining)
            if not overlap:
                continue
            rank = (-len(overlap), len(t.cs), t.cs.canonical())
            if best is None or rank < best[:3]:
                best = (*rank, t)
        if best is None:
            break
        target = best[3]
        piece = target.cs.intersection(remaining)
        pieces.append((piece, target))
        remaining -= set(piece)
    return pieces, tuple(sorted(remaining))


def _move(frag: Fragment, pieces: list[tuple[tuple[str, ...], Fragment]],
          targets: dict[str, Fragment], report: MergeReport) -> frozenset[Triple]:
    """Add each piece of ``frag``'s triples to its target in ``targets`` (by
    id) and return the triples no piece takes. A piece holding every
    predicate is reported as absorbed, any other as split. This is the only
    place where merging divides a subject's triples."""
    left = frag.triples
    for preds, target in pieces:
        whole = len(preds) == len(frag.cs)
        moved = frag.triples if whole else {t for t in left if t.p.lexical in preds}
        left -= moved
        merged = targets[target.id].triples | moved
        targets[target.id] = Fragment(target.id, target.cs, merged, len({t.s for t in merged}))
        if whole:
            report.absorbed.append((frag.id, target.id))
        else:
            report.split.append((frag.id, preds, target.id))
    return left


def merge_infrequent(fragments: Iterable[Fragment], min_subjects: int
                     ) -> tuple[list[Fragment], MergeReport]:
    """Fold fragments with fewer than ``min_subjects`` subjects into larger ones.

    Each small fragment, fewest subjects first, is placed on the surviving
    fragments by ``_split_pieces``: whole when one survivor holds all of its
    predicates, else in pieces. Leftover predicates that no survivor holds
    stay behind as residual fragments. Passes repeat until one places no
    piece, so the operation is idempotent. Triples are never lost or
    duplicated.
    """
    if min_subjects < 1:
        raise ValueError("min_subjects must be >= 1")
    frags = sorted(fragments, key=Fragment.sort_key)
    report = MergeReport()
    for _ in range(max(1, len(frags))):
        survivors = {f.id: f for f in frags if f.subject_count >= min_subjects}
        targets = list(survivors.values())  # placement reads only their predicate sets
        infrequent = sorted((f for f in frags if f.subject_count < min_subjects),
                            key=lambda f: (f.subject_count, f.cs.canonical()))
        residuals: dict[CharacteristicSet, set[Triple]] = {}
        report.residual = []
        placed = False
        for f in infrequent:
            pieces, leftover = _split_pieces(f, targets)
            left = _move(f, pieces, survivors, report)
            placed = placed or bool(pieces)
            if not pieces:
                report.residual.append(f.id)
            elif leftover:
                report.split.append((f.id, leftover, "(residual)"))
            if leftover:
                residuals.setdefault(CharacteristicSet.of(leftover), set()).update(left)
        if not placed:
            break
        frags = list(survivors.values())
        frags.extend(Fragment.build(cs, triples) for cs, triples in residuals.items())
        frags.sort(key=Fragment.sort_key)
    return frags, report


def merge_to_count(fragments: Iterable[Fragment], target_count: int
                   ) -> tuple[list[Fragment], MergeReport]:
    """Repeatedly merge the fragment with the fewest subjects until
    ``target_count`` fragments remain or no further merge is feasible."""
    frags = sorted(fragments, key=Fragment.sort_key)
    if not 1 <= target_count <= len(frags):
        raise ValueError(f"target_count must be in [1, {len(frags)}]")
    report = MergeReport()
    stuck: set[str] = set()

    while len(frags) > target_count:
        candidates = [f for f in frags if f.id not in stuck]
        if not candidates:
            break
        f = min(candidates, key=lambda x: (x.subject_count, x.cs.canonical()))
        others = {x.id: x for x in frags if x.id != f.id}
        pieces, leftover = _split_pieces(f, list(others.values()))
        if not pieces or leftover:
            # placing the fragment would not reduce the fragment count
            stuck.add(f.id)
            report.residual.append(f.id)
            continue
        _move(f, pieces, others, report)
        frags = sorted(others.values(), key=Fragment.sort_key)

    report.achieved_count = len(frags)
    report.feasible = len(frags) <= target_count
    return frags, report


def write_fragments(fragments: Iterable[Fragment], outdir: Path) -> Path:
    """Persist fragments as one N-Triples file each plus a JSON-lines manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = outdir / "manifest.jsonl"
    with manifest.open("w", encoding="utf-8") as mf:
        for f in sorted(fragments, key=Fragment.sort_key):
            name = f"{f.id}.nt"
            (outdir / name).write_bytes(_ntriples_bytes(f.triples))
            mf.write(json.dumps({
                "id": f.id,
                "predicates": list(f.cs.predicates),
                "subject_count": f.subject_count,
                "triple_count": len(f.triples),
                "file": name,
            }, sort_keys=True) + "\n")
    return manifest


def load_fragments(outdir: Path) -> list[StoredFragment]:
    """Read and parse fragments written by ``write_fragments``. Errors are
    those of ``open_fragments``, plus ``FragmentStoreError`` naming a
    malformed fragment file."""
    frags = open_fragments(outdir)
    for f in frags:
        f.graph()
    return frags


def open_fragments(outdir: Path) -> list[StoredFragment]:
    """Read the manifest of a fragment directory and hash each fragment file;
    nothing is parsed until a fragment is used. A missing or unreadable
    directory, manifest or fragment file, or a manifest line lacking a field
    or whose id, file or predicates are not strings or whose subject count is
    not a count, raises ``FragmentStoreError`` naming the path or line."""
    outdir = Path(outdir)
    manifest = outdir / "manifest.jsonl"
    frags: list[StoredFragment] = []
    for lineno, line in enumerate(_decode(_read_bytes(manifest), manifest).splitlines(), 1):
        if not line.strip():
            continue
        where = f"{manifest} line {lineno}"
        try:
            meta = json.loads(line)
            fid, name, preds, subject_count = (meta["id"], meta["file"], meta["predicates"],
                                               meta["subject_count"])
        except json.JSONDecodeError as e:
            raise FragmentStoreError(f"{where}: malformed JSON: {e.msg}") from e
        except KeyError as e:
            raise FragmentStoreError(f"{where}: missing field {e}") from e
        except TypeError as e:
            raise FragmentStoreError(f"{where}: malformed entry: {e}") from e
        if not (isinstance(preds, list) and all(isinstance(x, str) for x in (fid, name, *preds))
                and type(subject_count) is int and subject_count >= 0):
            raise FragmentStoreError(f"{where}: id, file and predicates must be strings "
                                     f"and subject_count a count")
        path = outdir / name
        frags.append(StoredFragment(fid, CharacteristicSet.of(preds), subject_count, path,
                                    _sha256(_read_bytes(path))))
    frags.sort(key=Fragment.sort_key)
    return frags


def _ntriples_bytes(triples: Iterable[Triple]) -> bytes:
    return serialize_ntriples(triples).encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as e:
        raise FragmentStoreError(f"cannot read {path}: {e.strerror}") from e


def _decode(data: bytes, path: Path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FragmentStoreError(f"{path} is not UTF-8: {e.reason}") from e
