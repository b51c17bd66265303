"""Version reconstruction by applying inverted deltas backwards.

The live dataset holds only the present state.  To recover the state an
entity had at snapshot k, the update strings of snapshots k+1..n-1 are
inverted and applied newest first, starting from the entity's current
graph.  Recovering every version this way walks the chain once, so a
full reconstruction costs exactly n-1 delta applications instead of
rebuilding each version from the present.  select decides which
snapshots a request reads; rebuild turns them into versions with one
walk (_chain) down to the oldest of them, and every caller that
rebuilds versions goes through the two.  A query that reads only some
quads passes a quad test, and the walk narrows the present state and
every update by it, so the versions it builds hold only what the query
can read.

delta_applications is a module level counter bumped on every delta
application; tests use it to pin down the chaining behaviour.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime
from typing import Callable, Iterable, Sequence

from .errors import BeforeCreation, NoHistory
from .provenance import (
    Delta,
    EntityHistory,
    Snapshot,
    apply_delta,
    format_timestamp,
    invert,
    load_history,
)
from .rdf_model import GraphSet, Quad


@dataclass(frozen=True)
class TimeInterval:
    """A closed interval over timestamps; None on either side means open."""

    start: datetime | None = None
    end: datetime | None = None

    def __post_init__(self) -> None:
        if self.start is not None and self.end is not None and self.start > self.end:
            raise ValueError("interval start lies after its end")

    def __contains__(self, when: datetime) -> bool:
        if self.start is not None and when < self.start:
            return False
        if self.end is not None and when > self.end:
            return False
        return True

    @property
    def is_unbounded(self) -> bool:
        return self.start is None and self.end is None


UNBOUNDED = TimeInterval(None, None)


@dataclass(frozen=True)
class VersionedGraph:
    """One state of one entity.

    snapshot is None only for an entity with no recorded history, whose
    current graphs count as its single, always-alive state.
    """

    entity: str
    snapshot: Snapshot | None
    graphs: GraphSet
    reconstructed: bool

    @property
    def time(self) -> datetime | None:
        return self.snapshot.generated_at if self.snapshot is not None else None


@dataclass(frozen=True)
class Materialization:
    version: VersionedGraph
    other_snapshots: tuple[Snapshot, ...]


class _ApplyCounter:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self) -> None:
        self.count += 1

    def reset(self) -> None:
        self.count = 0


delta_applications = _ApplyCounter()


def current_graph(entity: str, data: Iterable[Quad]) -> GraphSet:
    """The quads whose subject is the entity, straight from the dataset."""
    return frozenset(q for q in data if q.subject.is_iri and q.subject.value == entity)


def _as_history(entity: str, provenance) -> EntityHistory:
    if isinstance(provenance, EntityHistory):
        if provenance.entity != entity:
            raise NoHistory(entity)
        return provenance
    return load_history(entity, provenance)


def _chain(
    entity: str,
    data: Iterable[Quad],
    history: EntityHistory,
    floor: int,
    reads: Callable[[Quad], bool] | None = None,
) -> dict[int, GraphSet]:
    """Graphs for snapshot indices floor..n-1, walking the chain once.

    With `reads`, every graph holds only the quads that pass it: the walk
    starts from the narrowed current graph and applies each update
    narrowed the same way, which gives the narrowed full version because
    a per-quad test commutes with apply_delta.  An update that narrows to
    nothing is not applied.
    """
    snaps = history.snapshots
    out: dict[int, GraphSet] = {}
    g = current_graph(entity, data)
    if reads is not None:
        g = frozenset(filter(reads, g))
    for k in range(len(snaps) - 1, floor - 1, -1):
        if k != len(snaps) - 1:
            undo = invert(snaps[k + 1].update)
            if reads is not None:
                undo = Delta(
                    tuple(filter(reads, undo.deletes)), tuple(filter(reads, undo.inserts))
                )
            if reads is None or not undo.is_empty():
                delta_applications.bump()
                g = apply_delta(undo, g)
        out[k] = g
    return out


def select(
    history: EntityHistory,
    interval: TimeInterval = UNBOUNDED,
    boundary: bool = False,
    at: datetime | None = None,
) -> tuple[int, ...]:
    """Which snapshot indices a request reads, oldest first.

    With `at`, the one version live at that instant, none before the
    entity's creation.  Otherwise every version whose time falls in the
    interval, plus, with `boundary`, the one live when the interval opens.
    Snapshot times are sorted, so the versions in the interval are one
    run of indices, found by bisecting history.times.
    """
    if at is not None:
        k = history.index_at(at)
        return () if k is None else (k,)
    times, start, end = history.times, interval.start, interval.end
    lo = 0 if start is None else bisect_left(times, start)
    hi = len(times) if end is None else bisect_right(times, end)
    if boundary and start is not None:
        live = history.index_at(start)
        if live is not None and live < lo:
            # no snapshot falls at the start: the live one precedes the run
            return (live, *range(lo, hi))
    return tuple(range(lo, hi))


def rebuild(
    entity: str,
    data: Iterable[Quad],
    history: EntityHistory,
    chosen: Sequence[int],
    reads: Callable[[Quad], bool] | None = None,
) -> list[VersionedGraph]:
    """The chosen versions, oldest first, from one walk down to chosen[0].

    `chosen` is what select returned; when it is empty nothing is walked.
    With `reads`, each version is built narrowed to the quads that pass
    it (see _chain), never in full.
    """
    if not chosen:
        return []
    snaps = history.snapshots
    graphs = _chain(entity, data, history, chosen[0], reads)
    return [
        VersionedGraph(
            entity=entity,
            snapshot=snaps[k],
            graphs=graphs[k],
            reconstructed=(k != len(snaps) - 1),
        )
        for k in chosen
    ]


def materialize_at(
    entity: str, when: datetime, data: Iterable[Quad], provenance
) -> Materialization:
    """The state the entity had at `when`, plus the snapshots not chosen.

    `provenance` is either a quad set holding the entity's snapshots or
    an already loaded EntityHistory.  Raises BeforeCreation when `when`
    predates the first snapshot and NoHistory when nothing describes the
    entity.
    """
    history = _as_history(entity, provenance)
    chosen = select(history, at=when)
    if not chosen:
        raise BeforeCreation(
            entity,
            format_timestamp(when),
            format_timestamp(history.creation.generated_at),
        )
    (version,) = rebuild(entity, data, history, chosen)
    others = tuple(s for j, s in enumerate(history.snapshots) if j != chosen[0])
    return Materialization(version=version, other_snapshots=others)


def materialize_all(
    entity: str,
    data: Iterable[Quad],
    provenance,
    interval: TimeInterval = UNBOUNDED,
) -> list[VersionedGraph]:
    """Every version of the entity whose snapshot time falls in the interval.

    Versions come back oldest first.  An interval that contains no
    snapshot of the entity yields an empty list.
    """
    history = _as_history(entity, provenance)
    return rebuild(entity, data, history, select(history, interval))


def materialize_span(
    entity: str,
    data: Iterable[Quad],
    provenance,
    interval: TimeInterval = UNBOUNDED,
) -> list[VersionedGraph]:
    """Like materialize_all, but also includes the version that was live
    when the interval opens, so callers can carry unchanged state forward."""
    history = _as_history(entity, provenance)
    return rebuild(entity, data, history, select(history, interval, boundary=True))
