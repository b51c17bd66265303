"""Snapshot metadata and ground deltas.

A dataset's history arrives as provenance quads: each snapshot is a
prov:Entity tied to its entity via prov:specializationOf, stamped with
prov:generatedAtTime, and, from the second snapshot on, carrying the
SPARQL update string that produced it from its predecessor.  This module
turns those quads into an ordered EntityHistory, each update narrowed to
the entity it belongs to, and gives deltas their algebra: invert swaps
the two sides, compose folds a sequence into one net delta, apply_delta
runs one against a graph set.

Timestamps are naive UTC at second precision.  Zoned timestamps are
converted, fractional seconds are truncated.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Iterable, Sequence

from .errors import BadDelta, BrokenChain, NoHistory, NoSuchSnapshot
from .rdf_model import GraphSet, Quad, Term, TermTable, escape_iri, quad_line

PROV = "http://www.w3.org/ns/prov#"
PROV_ENTITY = PROV + "Entity"
SPECIALIZATION_OF = PROV + "specializationOf"
GENERATED_AT_TIME = PROV + "generatedAtTime"
INVALIDATED_AT_TIME = PROV + "invalidatedAtTime"
WAS_ATTRIBUTED_TO = PROV + "wasAttributedTo"
WAS_DERIVED_FROM = PROV + "wasDerivedFrom"
# both spellings occur in the wild, so both are recognised
HAD_PRIMARY_SOURCE = PROV + "hadPrimarySource"
HAS_PRIMARY_SOURCE = PROV + "hasPrimarySource"
DCTERMS_DESCRIPTION = "http://purl.org/dc/terms/description"
OCO_HAS_UPDATE_QUERY = "https://w3id.org/oc/ontology/hasUpdateQuery"


def parse_timestamp(lexical: str) -> datetime:
    """Read an xsd:dateTime value into naive UTC, truncated to seconds."""
    s = lexical.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return dt.replace(microsecond=0)


def format_timestamp(dt: datetime) -> str:
    return dt.replace(microsecond=0).isoformat(timespec="seconds")


@dataclass(frozen=True)
class Delta:
    """A ground update: quads to delete and quads to insert.

    source_text keeps the update string the delta was read from (or the
    canonical rendering when built through make_delta; derived deltas
    from invert and compose leave it empty).  It does not take part in
    equality; two deltas are equal when their quad lists are.
    """

    deletes: tuple[Quad, ...]
    inserts: tuple[Quad, ...]
    source_text: str = field(compare=False, default="")

    def is_empty(self) -> bool:
        return not self.deletes and not self.inserts


def render_update(deletes: Sequence[Quad], inserts: Sequence[Quad]) -> str:
    """Canonical SPARQL update text for the given quads.

    Both blocks are always present so that rendering is total; quads are
    grouped by graph in first-appearance order.
    """

    def block(keyword: str, quads: Sequence[Quad]) -> str:
        groups: dict[str | None, list[Quad]] = {}
        for q in quads:
            groups.setdefault(q.graph, []).append(q)
        lines = [f"{keyword} DATA {{"]
        for graph, members in groups.items():
            indent = "  "
            if graph is not None:
                lines.append(f"  GRAPH <{escape_iri(graph)}> {{")
                indent = "    "
            for q in members:
                lines.append(f"{indent}{q.subject.n3()} {q.predicate.n3()} {q.object.n3()} .")
            if graph is not None:
                lines.append("  }")
        lines.append("}")
        return "\n".join(lines)

    return block("DELETE", deletes) + ";\n" + block("INSERT", inserts)


def make_delta(deletes: Iterable[Quad] = (), inserts: Iterable[Quad] = ()) -> Delta:
    d, i = tuple(deletes), tuple(inserts)
    return Delta(d, i, render_update(d, i))


def invert(delta: Delta) -> Delta:
    """Swap the delete and insert sides; applying both is a no-op.

    The result carries no source text: inverted deltas exist to be
    applied, and rendering them dominates reconstruction cost otherwise.
    Call render_update when the text is wanted.
    """
    return Delta(delta.inserts, delta.deletes)


def compose(deltas: Sequence[Delta]) -> Delta:
    """Fold a sequence of deltas into one with the same net effect.

    Within one delta the deletes run before the inserts, and across the
    sequence the last action on a quad wins, so membership of any quad
    after the whole sequence depends only on that last action.
    """
    last_action: dict[Quad, bool] = {}
    for delta in deltas:
        for q in delta.deletes:
            last_action[q] = False
        for q in delta.inserts:
            last_action[q] = True
    deletes = tuple(q for q, kept in last_action.items() if not kept)
    inserts = tuple(q for q, kept in last_action.items() if kept)
    return Delta(deletes, inserts)


def apply_delta(delta: Delta, graphs: Iterable[Quad]) -> GraphSet:
    return frozenset((set(graphs) - set(delta.deletes)) | set(delta.inserts))


@dataclass(frozen=True)
class DeltaPair:
    """The two materialised sides of a change: what appeared, what went."""

    added: GraphSet
    removed: GraphSet

    def __post_init__(self) -> None:
        overlap = self.added & self.removed
        if overlap:
            raise ValueError(f"added and removed overlap on {len(overlap)} quads")


@dataclass(frozen=True)
class Snapshot:
    """One recorded state of an entity, as described by its provenance."""

    id: str
    entity: str
    generated_at: datetime
    invalidated_at: datetime | None = None
    attributed_to: str | None = None
    primary_source: str | None = None
    derived_from: str | None = None
    description: str | None = None
    # the stored update narrowed to this snapshot's entity (see scope_delta);
    # its source_text is still the whole stored string
    update: Delta | None = None


@dataclass(frozen=True)
class EntityHistory:
    """All snapshots of one entity, oldest first."""

    entity: str
    snapshots: tuple[Snapshot, ...]

    def __len__(self) -> int:
        return len(self.snapshots)

    @property
    def creation(self) -> Snapshot:
        return self.snapshots[0]

    @property
    def latest(self) -> Snapshot:
        return self.snapshots[-1]

    def by_id(self, snapshot_id: str) -> Snapshot:
        for snap in self.snapshots:
            if snap.id == snapshot_id:
                return snap
        raise NoSuchSnapshot(f"<{snapshot_id}> is not a snapshot of <{self.entity}>")

    def index_at(self, when: datetime) -> int | None:
        """Index of the newest snapshot generated at or before `when`."""
        found = None
        for k, snap in enumerate(self.snapshots):
            if snap.generated_at <= when:
                found = k
            else:
                break
        return found


def _scope_label(scope: str) -> str:
    return "b" + hashlib.sha1(scope.encode("utf-8")).hexdigest()[:10]


def _one(values: set[str], snapshot: str, what: str) -> str:
    if len(values) > 1:
        raise BrokenChain(f"snapshot <{snapshot}> has conflicting {what} values")
    return next(iter(values))


def scope_delta(delta: Delta, entity: str) -> Delta:
    """Narrow a delta to the quads whose subject is the entity.

    This is the rule current_graph reads the live data by, so every
    rebuilt version holds only quads whose subject is the entity.  When
    nothing falls outside, the delta itself comes back.
    """

    def mine(q: Quad) -> bool:
        return q.subject.is_iri and q.subject.value == entity

    deletes = tuple(q for q in delta.deletes if mine(q))
    inserts = tuple(q for q in delta.inserts if mine(q))
    if len(deletes) == len(delta.deletes) and len(inserts) == len(delta.inserts):
        return delta
    return Delta(deletes, inserts, delta.source_text)


def parse_delta(snapshot_id: str, text: str, terms: TermTable | None = None) -> Delta:
    """Parse the update string stored on one snapshot.

    Blank node labels are scoped to the snapshot.  terms, when given, is
    the term table parse_update reads and fills, so the updates of one
    context share one object per IRI and literal.  Raises BadDelta when
    the text does not parse as a ground update.
    """
    from .sparql_engine import parse_update

    try:
        return parse_update(text, blank_scope=_scope_label(snapshot_id), terms=terms)
    except Exception as exc:  # stored text is outside input: any failure is BadDelta
        raise BadDelta(snapshot_id, exc)


def load_history(
    entity: str,
    provenance: Iterable[Quad],
    parse: Callable[[str, str], Delta] = parse_delta,
) -> EntityHistory:
    """Assemble the ordered snapshot chain of one entity.

    Provenance quads may sit in any graph.  `parse` turns a snapshot id
    and its update string into a Delta; a caller that already parsed the
    string can hand back that result.  An update may mention several
    entities, so each one is narrowed here, once, to the quads of this
    entity (scope_delta); reconstruction and change reports read
    Snapshot.update without narrowing it again.  Raises NoHistory when no snapshot
    specialises the entity, BrokenChain when the metadata does not
    determine a single valid order, and BadDelta when an update string
    does not parse as a ground update.
    """
    by_subject: dict[Term, dict[str, set[Term]]] = {}
    snapshot_ids: list[Term] = []
    seen_ids: set[Term] = set()
    for q in provenance:
        pred = q.predicate.value
        if (
            pred == SPECIALIZATION_OF
            and q.object.is_iri
            and q.object.value == entity
            and q.subject not in seen_ids
        ):
            seen_ids.add(q.subject)
            snapshot_ids.append(q.subject)
        by_subject.setdefault(q.subject, {}).setdefault(pred, set()).add(q.object)
    if not snapshot_ids:
        raise NoHistory(entity)

    snapshots: list[Snapshot] = []
    for sid_term in snapshot_ids:
        if not sid_term.is_iri:
            raise BrokenChain(f"snapshot of <{entity}> has a non-IRI id")
        sid = sid_term.value
        props = by_subject.get(sid_term, {})

        def values(pred: str) -> set[str]:
            return {t.value for t in props.get(pred, set())}

        gen_values = values(GENERATED_AT_TIME)
        if not gen_values:
            raise BrokenChain(f"snapshot <{sid}> lacks a generation time")
        try:
            generated_at = parse_timestamp(_one(gen_values, sid, "generation time"))
        except ValueError as exc:
            raise BrokenChain(f"snapshot <{sid}> has an invalid generation time: {exc}")

        invalidated_at = None
        inv_values = values(INVALIDATED_AT_TIME)
        if inv_values:
            try:
                invalidated_at = parse_timestamp(_one(inv_values, sid, "invalidation time"))
            except ValueError as exc:
                raise BrokenChain(f"snapshot <{sid}> has an invalid invalidation time: {exc}")
            if invalidated_at < generated_at:
                raise BrokenChain(f"snapshot <{sid}> is invalidated before it was generated")

        update = None
        update_values = values(OCO_HAS_UPDATE_QUERY)
        if update_values:
            update = scope_delta(parse(sid, _one(update_values, sid, "update query")), entity)

        source_values = values(HAD_PRIMARY_SOURCE) | values(HAS_PRIMARY_SOURCE)
        derived_values = values(WAS_DERIVED_FROM)
        attributed_values = values(WAS_ATTRIBUTED_TO)
        description_values = values(DCTERMS_DESCRIPTION)
        snapshots.append(
            Snapshot(
                id=sid,
                entity=entity,
                generated_at=generated_at,
                invalidated_at=invalidated_at,
                attributed_to=min(attributed_values) if attributed_values else None,
                primary_source=min(source_values) if source_values else None,
                derived_from=_one(derived_values, sid, "derivation") if derived_values else None,
                description=min(description_values) if description_values else None,
                update=update,
            )
        )

    snapshots.sort(key=lambda s: s.generated_at)
    ordered = _order_ties(entity, snapshots)
    _check_chain(entity, ordered)
    return EntityHistory(entity=entity, snapshots=tuple(ordered))


def _order_ties(entity: str, snapshots: list[Snapshot]) -> list[Snapshot]:
    """Order snapshots that share a generation time by derivation links."""
    ordered: list[Snapshot] = []
    k = 0
    while k < len(snapshots):
        group = [snapshots[k]]
        while k + 1 < len(snapshots) and snapshots[k + 1].generated_at == group[0].generated_at:
            k += 1
            group.append(snapshots[k])
        k += 1
        if len(group) == 1:
            ordered.extend(group)
            continue
        remaining = {s.id: s for s in group}
        derived_ids = {s.derived_from for s in group if s.derived_from is not None}
        while remaining:
            # the snapshot nobody in the group derives from comes last,
            # so peel from the front: a member whose predecessor is
            # outside the remaining group
            heads = [s for s in remaining.values() if s.derived_from not in remaining]
            if len(heads) != 1:
                raise BrokenChain(
                    f"snapshots of <{entity}> share a timestamp and their"
                    " derivation links do not order them"
                )
            ordered.append(heads[0])
            del remaining[heads[0].id]
    return ordered


def _check_chain(entity: str, snapshots: list[Snapshot]) -> None:
    first = snapshots[0]
    if first.update is not None:
        raise BrokenChain(
            f"earliest snapshot <{first.id}> of <{entity}> carries an update query"
        )
    for k, snap in enumerate(snapshots):
        if k == 0:
            continue
        prev = snapshots[k - 1]
        if snap.update is None:
            raise BrokenChain(f"snapshot <{snap.id}> of <{entity}> lacks an update query")
        if snap.derived_from is not None and snap.derived_from != prev.id:
            raise BrokenChain(
                f"snapshot <{snap.id}> derives from <{snap.derived_from}>,"
                f" which is not its predecessor <{prev.id}>"
            )
        if snap.generated_at == prev.generated_at and snap.derived_from is None:
            raise BrokenChain(
                f"snapshots <{prev.id}> and <{snap.id}> of <{entity}> share a"
                " timestamp and no derivation link orders them"
            )
        if prev.invalidated_at is not None and prev.invalidated_at != snap.generated_at:
            raise BrokenChain(
                f"snapshot <{prev.id}> is invalidated at a time that does not"
                f" match the generation of <{snap.id}>"
            )
