"""Structured queries over version history.

Answering a query against every past state of a dataset without a
time-indexed store takes four steps.  First the query's triple patterns
are classified: a pattern is joined when its subject is an IRI or its
subject variable can reach, through shared terms, an IRI that sits in
subject position somewhere in the query; otherwise it is isolated.
Second, the relevant entities are discovered.  Joined patterns start
from the subject IRIs and recursively promote every IRI bound to a
variable that appears in subject position, materialising versions as
they go.  The chase reads each version only through the quads the
required joined patterns could match, and skips a state the entity has
already been chased through.  Isolated patterns cannot be chased that
way, so their ground terms are looked up in the context's index of the
terms every parsed stored update mentions, which also surfaces entities
that no longer exist in the current data.
Third, each version is narrowed to the quads some pattern of the query
could match, variables counting as wildcards; BGP, OPTIONAL and FILTER
read nothing else.  The narrowed versions are aligned on the global list
of snapshot times: an entity that did not change at time t keeps its
previous state, copied forward, and all states that share a time are
merged into one graph per time.  A narrowed version stays a version even
when it is empty, so the keys are those of the full states.  Last, the
query is evaluated at each key whose merged narrowed state differs from
the previous key's; every other key reuses the previous answer.

A query whose patterns are all isolated and carry no ground term at all
would make the whole dataset relevant; it is rejected as unbounded.
Discovery also refuses to walk past the configured entity limit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Iterable, Mapping, Sequence

from .cache import cached_chain
from .errors import ExplosionLimit, UnboundedQuery
from .materializer import (
    TimeInterval,
    UNBOUNDED,
    VersionedGraph,
    _floor_index,
)
from .provenance import EntityHistory, format_timestamp
from .rdf_model import GraphSet, Term
from .sources import Context
from .sparql_engine import (
    ParsedQuery,
    SolutionSet,
    TripleIndex,
    TriplePattern,
    Variable,
    evaluate,
    match_pattern,
    parse_select,
    readable_by,
)


@dataclass(frozen=True)
class QueryPlan:
    """The classification of one query's patterns."""

    joined: tuple[TriplePattern, ...]
    isolated: tuple[TriplePattern, ...]
    seeds: frozenset[str]
    subject_variables: frozenset[Variable]


def _node(term) -> tuple[str, str]:
    if isinstance(term, Variable):
        return ("var", term.name)
    return (term.kind, term.n3())


def classify(query: ParsedQuery) -> QueryPlan:
    """Split patterns into joined and isolated.

    Connectivity is computed over the undirected graph whose nodes are
    the distinct terms of all patterns and whose edges link the three
    positions of each pattern.  The result depends only on the set of
    patterns, not their order.  Raises UnboundedQuery when every pattern
    is isolated and none holds a single ground term.
    """
    adjacency: dict[tuple[str, str], set[tuple[str, str]]] = {}
    subject_iri_nodes: set[tuple[str, str]] = set()
    for p in query.patterns:
        nodes = [_node(p.subject), _node(p.predicate), _node(p.object)]
        if isinstance(p.subject, Term) and p.subject.is_iri:
            subject_iri_nodes.add(nodes[0])
        for a in nodes:
            adjacency.setdefault(a, set())
            for b in nodes:
                if a != b:
                    adjacency[a].add(b)

    reachable: dict[tuple[str, str], bool] = {}

    def reaches_subject_iri(start: tuple[str, str]) -> bool:
        if start in reachable:
            return reachable[start]
        seen = {start}
        frontier = [start]
        found = False
        while frontier:
            node = frontier.pop()
            if node in subject_iri_nodes:
                found = True
                break
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        reachable[start] = found
        return found

    joined: list[TriplePattern] = []
    isolated: list[TriplePattern] = []
    for p in query.patterns:
        if isinstance(p.subject, Term) and p.subject.is_iri:
            joined.append(p)
        elif reaches_subject_iri(_node(p.subject)):
            joined.append(p)
        else:
            isolated.append(p)

    if isolated and not any(tuple(p.ground_terms()) for p in isolated):
        raise UnboundedQuery(
            "every pattern is isolated and none carries an IRI or literal;"
            " the query would touch the whole dataset at every time"
        )

    seeds = frozenset(
        p.subject.value
        for p in query.patterns
        if isinstance(p.subject, Term) and p.subject.is_iri
    )
    subject_variables = frozenset(
        p.subject for p in query.patterns if isinstance(p.subject, Variable)
    )
    return QueryPlan(
        joined=tuple(joined),
        isolated=tuple(isolated),
        seeds=seeds,
        subject_variables=subject_variables,
    )


def search_deltas(
    known_terms: Iterable[Term],
    postings: Mapping[Term, frozenset[tuple[str, str]]],
) -> frozenset[tuple[str, str]]:
    """(entity, snapshot) pairs whose parsed update mentions every term.

    `postings` maps each term to the pairs whose update mentions it, as
    Context.term_postings builds it; the answer is the intersection of
    the terms' postings, smallest first.
    """
    hits = sorted((postings.get(term, frozenset()) for term in set(known_terms)), key=len)
    if not hits:
        return frozenset()
    found = hits[0]
    for more in hits[1:]:
        found = found & more
    return found


@dataclass(frozen=True)
class Explication:
    """What discovery produced: versions per entity, plus bookkeeping."""

    versions: Mapping[str, tuple[VersionedGraph, ...]]
    relevant: frozenset[str]
    snapshots_involved: int
    warnings: tuple[str, ...]


def _entity_versions(
    ctx: Context,
    entity: str,
    history: EntityHistory | None,
    interval: TimeInterval,
    mode: str,
    at: datetime | None,
) -> tuple[tuple[VersionedGraph, ...], int, tuple[str, ...]]:
    """Materialise the versions one entity contributes, given the mode.

    Cross-version and delta modes rebuild every in-interval version plus
    the one live when the interval opens; single-version mode rebuilds
    only the version live at `at`.  Entities without provenance count as
    one static, always-alive state.  Returns (versions, levels walked,
    warnings).
    """
    if history is None:
        graphs = ctx.entity_quads(entity)
        return (
            (VersionedGraph(entity, None, graphs, reconstructed=False),),
            0,
            (),
        )
    snaps = history.snapshots
    if mode == "single":
        k = history.index_at(at)
        if k is None:
            return ((), 0, ())  # not alive yet at the requested time
        floor = k
    else:
        floor = _floor_index(history, interval, include_boundary=True)
        if floor >= len(snaps):
            return ((), 0, ())
    data = ctx.entity_quads(entity)
    graphs_map, warnings = cached_chain(entity, data, history, floor, ctx.cache)
    versions = []
    for k in sorted(graphs_map):
        if mode == "single" and k != floor:
            continue
        if mode != "single":
            is_boundary = (
                k == floor
                and interval.start is not None
                and snaps[k].generated_at <= interval.start
            )
            if not (snaps[k].generated_at in interval or is_boundary):
                continue
        versions.append(
            VersionedGraph(
                entity=entity,
                snapshot=snaps[k],
                graphs=graphs_map[k],
                reconstructed=(k != len(snaps) - 1),
                warnings=warnings,
            )
        )
    return tuple(versions), len(graphs_map), warnings


def explicate(
    plan: QueryPlan,
    ctx: Context,
    interval: TimeInterval = UNBOUNDED,
    mode: str = "cross",
    at: datetime | None = None,
) -> Explication:
    """Discover the entities a query touches and rebuild their versions.

    Seeds and entities promoted through joined patterns are always
    materialised; entities found through the stored updates' terms are
    only materialised in version modes, because delta queries need just
    their identity.  Raises ExplosionLimit when more entities than
    allowed turn up.
    """
    queue: deque[tuple[str, bool]] = deque((s, True) for s in sorted(plan.seeds))
    # an optional match must never pull in new entities
    searched = [p for p in plan.isolated if p.required]
    postings = ctx.term_postings() if searched else {}
    for pattern in searched:
        found = {e for e, _snap in search_deltas(pattern.ground_terms(), postings)}
        found |= ctx.match_subjects(pattern)
        materialize = mode != "delta"
        for entity in sorted(found):
            queue.append((entity, materialize))

    versions: dict[str, tuple[VersionedGraph, ...] | None] = {}
    snapshots_involved = 0
    warnings: list[str] = []
    required_joined = [p for p in plan.joined if p.required]
    reads_joined = readable_by(required_joined)

    while queue:
        entity, materialize = queue.popleft()
        if entity in versions:
            if versions[entity] is not None or not materialize:
                continue
            # first found through the updates' terms, now reached through
            # a joined pattern as well, so its versions are needed after all
        elif len(versions) >= ctx.explosion_limit:
            raise ExplosionLimit(ctx.explosion_limit)
        if not materialize:
            versions[entity] = None
            continue
        entity_versions, walked, entity_warnings = _entity_versions(
            ctx, entity, ctx.history(entity), interval, mode, at
        )
        versions[entity] = entity_versions
        snapshots_involved += walked
        warnings.extend(entity_warnings)
        # versions with equal narrowed states bind the same IRIs
        chased: set[GraphSet] = set()
        for v in entity_versions:
            state = frozenset(filter(reads_joined, v.graphs))
            if not state or state in chased:
                continue
            chased.add(state)
            index = TripleIndex(state)
            for pattern in required_joined:
                for binding in match_pattern(pattern, {}, index):
                    for var, term in binding.items():
                        if (
                            var in plan.subject_variables
                            and term.is_iri
                            and versions.get(term.value, None) is None
                        ):
                            queue.append((term.value, True))

    return Explication(
        versions={e: v for e, v in versions.items() if v is not None},
        relevant=frozenset(versions),
        snapshots_involved=snapshots_involved,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class Timeline:
    """Merged dataset states keyed by the snapshot times in the interval."""

    times: tuple[datetime, ...]
    datasets: Mapping[datetime, GraphSet]


def align_and_merge(
    versions_by_entity: Mapping[str, Sequence[VersionedGraph]],
    interval: TimeInterval = UNBOUNDED,
) -> Timeline:
    """Copy unchanged entities forward and merge states time by time.

    The timeline's keys are the snapshot times that fall inside the
    interval.  At each key every entity contributes its newest version
    at or before that time; versions live before the interval opened
    supply the starting state.  Running the alignment on its own output
    changes nothing, since each time then holds exactly one version.
    """
    times = sorted({
        v.time
        for vs in versions_by_entity.values()
        for v in vs
        if v.time is not None and v.time in interval
    })

    def sort_key(v: VersionedGraph):
        return (v.time is not None, v.time or datetime.min)

    pointers: dict[str, int] = {}
    ordered: dict[str, list[VersionedGraph]] = {}
    active: dict[str, GraphSet] = {}
    for entity, vs in versions_by_entity.items():
        ordered[entity] = sorted(vs, key=sort_key)
        pointers[entity] = 0

    datasets: dict[datetime, GraphSet] = {}
    for t in times:
        for entity, vs in ordered.items():
            k = pointers[entity]
            while k < len(vs) and (vs[k].time is None or vs[k].time <= t):
                active[entity] = vs[k].graphs
                k += 1
            pointers[entity] = k
        merged: set = set()
        for graphs in active.values():
            merged |= graphs
        datasets[t] = frozenset(merged)
    return Timeline(times=tuple(times), datasets=datasets)


@dataclass(frozen=True)
class VersionQueryOutcome:
    results: dict[str, SolutionSet]
    relevant_entities: frozenset[str]
    snapshots_involved: int
    timeline: Timeline
    plan: QueryPlan
    warnings: tuple[str, ...]


def execute_version_query(
    query: str | ParsedQuery,
    ctx: Context,
    interval: TimeInterval = UNBOUNDED,
    at: datetime | None = None,
) -> VersionQueryOutcome:
    """Full pipeline; `at` selects single-version mode, else cross-version.

    The outcome's timeline holds the merged states narrowed to the quads
    some pattern of the query could match, not every quad of every
    relevant entity.
    """
    parsed = parse_select(query) if isinstance(query, str) else query
    plan = classify(parsed)
    mode = "single" if at is not None else "cross"
    explication = explicate(plan, ctx, interval=interval, mode=mode, at=at)
    reads = readable_by(parsed.patterns)
    # a version narrowed to nothing stays a version: its time is still a
    # key, and it still replaces the entity's earlier state
    versions = {
        entity: [replace(v, graphs=frozenset(filter(reads, v.graphs))) for v in vs]
        for entity, vs in explication.versions.items()
    }

    results: dict[str, SolutionSet] = {}
    if mode == "single":
        merged: set = set()
        chosen_times = []
        for vs in versions.values():
            for v in vs:
                merged |= v.graphs
                if v.time is not None:
                    chosen_times.append(v.time)
        key_time = max(chosen_times) if chosen_times else at
        timeline = Timeline(
            times=(key_time,), datasets={key_time: frozenset(merged)}
        )
        results[format_timestamp(key_time)] = evaluate(parsed, timeline.datasets[key_time])
    else:
        timeline = align_and_merge(versions, interval)
        # the answer can only change where the quads the query reads changed
        previous: GraphSet | None = None
        for t in timeline.times:
            data = timeline.datasets[t]
            if data != previous:
                answer = evaluate(parsed, data)
                previous = data
            results[format_timestamp(t)] = answer

    return VersionQueryOutcome(
        results=results,
        relevant_entities=explication.relevant,
        snapshots_involved=explication.snapshots_involved,
        timeline=timeline,
        plan=plan,
        warnings=tuple(list(ctx.warnings) + list(explication.warnings)),
    )


def run(
    query: str | ParsedQuery,
    ctx: Context,
    interval: TimeInterval = UNBOUNDED,
    at: datetime | None = None,
) -> dict[str, SolutionSet]:
    """Results keyed by RFC 3339 snapshot time; see execute_version_query."""
    return execute_version_query(query, ctx, interval=interval, at=at).results
