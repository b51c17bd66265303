"""Structured queries over changes rather than states.

A delta query names entities through a SPARQL query, optionally narrows
to a set of properties and a time interval, and gets back one record per
snapshot in which a relevant entity changed.  Discovery works like the
version pipeline so that entities deleted from the current data are
still found, but entities surfaced by the stored updates' terms alone
are not materialised; their identity is all a change report needs.

Each record carries the net change of that snapshot for that entity:
what the update inserted minus what it deleted, and the reverse.  A
snapshot that leaves the entity with no quads at all marks a deletion,
and only a snapshot whose update inserted nothing can do that.  Such a
candidate k is decided from the history where it can be: the chain
walk's rule V(k) = (V(k+1) - inserts(k+1)) | deletes(k+1) keeps every
quad the next update deletes, so V(k) is not empty when that update
deletes something, and the latest version is the entity's live quads.
The candidates left undecided are rebuilt by one walk down the chain,
from the newest version to the oldest of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterable

# perfbench/spans.py hooks the chain walker under the name cached_chain
from .materializer import _chain as cached_chain
from .materializer import TimeInterval, UNBOUNDED, current_graph, select
from .provenance import Delta, DeltaPair, EntityHistory, Snapshot
from .rdf_model import GraphSet
from .sources import Context
from .sparql_engine import ParsedQuery, parse_select
from .version_query import classify, explicate


@dataclass(frozen=True)
class ChangeRecord:
    """One snapshot's worth of change for one entity."""

    entity: str
    snapshot: str
    time: datetime
    kind: str  # "modified" or "deleted"
    description: str | None
    attributed_to: str | None
    delta: DeltaPair


@dataclass(frozen=True)
class ChangeReport:
    records: tuple[ChangeRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def entities(self) -> frozenset[str]:
        return frozenset(r.entity for r in self.records)


def touches(delta: Delta, properties: Iterable[str]) -> bool:
    """Whether any insert or delete of the delta uses one of the predicates."""
    wanted = set(properties)
    return any(
        q.predicate.value in wanted for q in delta.deletes + delta.inserts
    )


def net_pair(delta: Delta) -> DeltaPair:
    """The net effect of a delta: inserts and deletes with overlap cancelled."""
    deletes = frozenset(delta.deletes)
    inserts = frozenset(delta.inserts)
    return DeltaPair(added=inserts - deletes, removed=deletes - inserts)


def get_delta(
    entity: str,
    snapshot_id: str,
    data: GraphSet,
    history: EntityHistory,
) -> DeltaPair:
    """The change a named snapshot made to the entity.

    The creation snapshot has no update string; its change is the whole
    first version, rebuilt from the present state.  Raises NoSuchSnapshot
    for unknown ids.
    """
    snap = history.by_id(snapshot_id)
    if snap.update is None:
        k = history.snapshots.index(snap)
        return DeltaPair(added=cached_chain(entity, data, history, k)[k], removed=frozenset())
    return net_pair(snap.update)


def _emptied(
    entity: str, ctx: Context, history: EntityHistory, candidates: list[int]
) -> set[int]:
    """Which of the candidate snapshot indices, given oldest first, mark
    a version that holds no quads.

    A version the next update deletes from is never empty.  The others
    are read from the live quads when only the latest is left, and
    otherwise from one walk down to the oldest of them.
    """
    snaps = history.snapshots
    latest = len(snaps) - 1
    undecided = [k for k in candidates if k == latest or not snaps[k + 1].update.deletes]
    if not undecided:
        return set()
    data = ctx.entity_quads(entity)
    if undecided[0] == latest:
        return set() if current_graph(entity, data) else {latest}
    graphs = cached_chain(entity, data, history, undecided[0])
    return {k for k in undecided if not graphs[k]}


@dataclass(frozen=True)
class DeltaQueryOutcome:
    report: ChangeReport
    relevant_entities: frozenset[str]


def execute_delta_query(
    query: str | ParsedQuery,
    ctx: Context,
    properties: Iterable[str] = (),
    interval: TimeInterval = UNBOUNDED,
) -> DeltaQueryOutcome:
    parsed = parse_select(query) if isinstance(query, str) else query
    explication = explicate(classify(parsed), ctx, interval=interval, delta=True)
    wanted = frozenset(properties)

    records: list[ChangeRecord] = []
    for entity in sorted(explication.relevant):
        history = ctx.history(entity)
        if history is None:
            continue
        changes: list[tuple[int, Snapshot, DeltaPair]] = []
        for k in select(history, interval):
            snap = history.snapshots[k]
            if snap.update is None:
                continue  # a creation is not a change
            if snap.update.is_empty():
                continue  # the update touched other entities only
            if wanted and not touches(snap.update, wanted):
                continue
            changes.append((k, snap, net_pair(snap.update)))
        # nothing inserted: the version may have been emptied out
        deleted = _emptied(
            entity, ctx, history,
            [k for k, _snap, pair in changes if not pair.added and pair.removed],
        )
        for k, snap, pair in changes:
            records.append(
                ChangeRecord(
                    entity=entity,
                    snapshot=snap.id,
                    time=snap.generated_at,
                    kind="deleted" if k in deleted else "modified",
                    description=snap.description,
                    attributed_to=snap.attributed_to,
                    delta=pair,
                )
            )

    records.sort(key=lambda r: (r.time, r.entity, r.snapshot))
    return DeltaQueryOutcome(
        report=ChangeReport(records=tuple(records)),
        relevant_entities=explication.relevant,
    )
