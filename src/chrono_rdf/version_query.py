"""Structured queries over version history.

Answering a query against every past state of a dataset without a
time-indexed store takes four steps.  First the query's triple patterns
are classified: a pattern is joined when its subject is an IRI or its
subject variable can reach, through shared terms, an IRI that sits in
subject position somewhere in the query; otherwise it is isolated.
Second, the relevant entities are discovered.  Joined patterns start
from the subject IRIs and recursively promote every IRI bound to a
variable that appears in subject position, materialising versions as
they go.  The chase runs through every joined pattern, OPTIONAL ones
included, whose predicate or object is such a variable; it reads each
version only through the quads those patterns could match, and skips a
state the entity has already been chased through.  It follows patterns
from subject to object only: an entity reached solely backwards, as the
subject of a joined pattern whose object another pattern binds, is not
discovered.  Isolated patterns, OPTIONAL ones included, cannot be
chased that way, so their ground terms are looked up in the context's
index of the terms every parsed stored update mentions, which also
surfaces entities that no longer exist in the current data.
Third, the versions are built narrowed to the quads some pattern of the
query could match, variables counting as wildcards; BGP, OPTIONAL and
FILTER read nothing else.  The chain walk narrows the present state and
each stored update once, so no full version is ever built in a query.
The narrowed versions are aligned on the global list of snapshot times:
an entity that did not change at time t keeps its previous state,
copied forward, and all states that share a time are merged into one
graph per time.  The copying is kept as key stamps, not
copies: each narrowed quad carries an int whose bit k is set when some
entity's version holds it at key k.  A narrowed version stays a version
even when it is empty, so the keys are those of the full states.  Last,
the query is evaluated once over the stamped quads: a join ANDs stamps,
so each solution row knows the keys at which it holds, and the rows are
projected key by key.  A key at which no row starts or stops holding
shares the previous key's answer.

An isolated pattern that carries no ground term at all would make the
whole dataset relevant; a query holding one is rejected as unbounded.
Discovery also refuses to walk past the configured entity limit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import ExplosionLimit, UnboundedQuery
# perfbench/spans.py hooks the chain walker under the name cached_chain;
# discovery walks through rebuild, which calls materializer._chain
from .materializer import _chain as cached_chain
from .materializer import TimeInterval, UNBOUNDED, VersionedGraph, rebuild, select
from .provenance import format_timestamp
from .rdf_model import GraphSet, Quad, Term
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
    patterns, not their order.  Raises UnboundedQuery when some isolated
    pattern holds no ground term.
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

    # the graph is undirected, so a pattern is joined exactly when one
    # search from every subject IRI at once reaches its subject
    reached = set(subject_iri_nodes)
    frontier = list(reached)
    while frontier:
        for nxt in adjacency[frontier.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)

    joined: list[TriplePattern] = []
    isolated: list[TriplePattern] = []
    for p in query.patterns:
        (joined if _node(p.subject) in reached else isolated).append(p)

    if not all(tuple(p.ground_terms()) for p in isolated):
        raise UnboundedQuery(
            "an isolated pattern carries no IRI or literal;"
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
    """What discovery produced: versions per entity, plus bookkeeping.

    Each version holds only the quads the query could read: those some
    pattern could match in version modes, those a chased pattern could
    match in delta mode.  A version narrowed to nothing stays a version,
    so the versions' times are those of the full states.
    """

    versions: Mapping[str, tuple[VersionedGraph, ...]]
    relevant: frozenset[str]
    snapshots_involved: int


def explicate(
    plan: QueryPlan,
    ctx: Context,
    interval: TimeInterval = UNBOUNDED,
    delta: bool = False,
    at: datetime | None = None,
) -> Explication:
    """Discover the entities a query touches and rebuild their versions.

    The chased patterns are the joined ones, OPTIONAL included, whose
    predicate or object is a subject variable: only they can promote an
    entity.  Every isolated pattern, OPTIONAL included, is looked up in
    the term index and the current data.  With `at` each entity keeps
    its one version live at that instant; otherwise every version in the
    interval, plus the one live when it opens.  Every entity found is
    materialised, except with `delta`: a delta query needs only the
    entities' identity, so there versions are rebuilt just to run the
    chase, and only when some pattern is chased; otherwise the seeds are
    recorded unwalked.  Raises ExplosionLimit when more entities than
    allowed turn up.
    """
    subject_variables = plan.subject_variables
    chased = [
        p for p in plan.joined
        if p.predicate in subject_variables or p.object in subject_variables
    ]
    reads_chased = readable_by(chased)
    reads = reads_chased if delta else readable_by(plan.joined + plan.isolated)
    walk_seeds = bool(chased) or not delta
    queue: deque[tuple[str, bool]] = deque((s, walk_seeds) for s in sorted(plan.seeds))
    postings = ctx.term_postings() if plan.isolated else {}
    for pattern in plan.isolated:
        found = {e for e, _snap in search_deltas(pattern.ground_terms(), postings)}
        found |= ctx.match_subjects(pattern)
        for entity in sorted(found):
            queue.append((entity, not delta))

    versions: dict[str, tuple[VersionedGraph, ...] | None] = {}
    snapshots_involved = 0

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
        history = ctx.history(entity)
        if history is None:
            # without provenance the current graphs are one always-alive state
            graphs = frozenset(filter(reads, ctx.entity_quads(entity)))
            entity_versions = [VersionedGraph(entity, None, graphs, reconstructed=False)]
        else:
            chosen = select(history, interval, boundary=True, at=at)
            entity_versions = []
            if chosen:
                entity_versions = rebuild(
                    entity, ctx.entity_quads(entity), history, chosen, reads
                )
                # the walk rebuilt every version from chosen[0] up
                snapshots_involved += len(history.snapshots) - chosen[0]
        versions[entity] = tuple(entity_versions)
        # versions with equal narrowed states bind the same IRIs
        seen: set[GraphSet] = set()
        for v in entity_versions:
            state = frozenset(filter(reads_chased, v.graphs))
            if not state or state in seen:
                continue
            seen.add(state)
            index = TripleIndex(state)
            for pattern in chased:
                for binding, _stamp in match_pattern(pattern, {}, index):
                    for var, term in binding.items():
                        if (
                            var in subject_variables
                            and term.is_iri
                            and versions.get(term.value, None) is None
                        ):
                            queue.append((term.value, True))

    return Explication(
        versions={e: v for e, v in versions.items() if v is not None},
        relevant=frozenset(versions),
        snapshots_involved=snapshots_involved,
    )


@dataclass(frozen=True)
class Timeline:
    """Merged dataset states keyed by the snapshot times in the interval.

    `stamps` maps every quad some key holds to its key stamp: bit k is
    set when the state at times[k] holds the quad.  `datasets` maps each
    time to that state, built on first read in one pass over the stamps.
    """

    times: tuple[datetime, ...]
    stamps: Mapping[Quad, int]

    @cached_property
    def datasets(self) -> dict[datetime, GraphSet]:
        states: list[list[Quad]] = [[] for _ in self.times]
        for q, stamp in self.stamps.items():
            while stamp:
                low = stamp & -stamp
                states[low.bit_length() - 1].append(q)
                stamp ^= low
        return {t: frozenset(state) for t, state in zip(self.times, states)}


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

    The copying is done with key stamps, not copies: a version is live
    from its own key (key 0 when it predates the interval, or has no
    time) up to the next version's key, and each of its quads gets the
    bits of those keys.
    """
    times = sorted({
        v.time
        for vs in versions_by_entity.values()
        for v in vs
        if v.time is not None and v.time in interval
    })

    def sort_key(v: VersionedGraph):
        return (v.time is not None, v.time or datetime.min)

    stamps: dict[Quad, int] = {}
    for vs in versions_by_entity.values():
        ordered = sorted(vs, key=sort_key)
        starts = [0 if v.time is None else bisect_left(times, v.time) for v in ordered]
        for v, start, end in zip(ordered, starts, starts[1:] + [len(times)]):
            live = (1 << end) - (1 << start)
            if live:
                for q in v.graphs:
                    stamps[q] = stamps.get(q, 0) | live
    return Timeline(times=tuple(times), stamps=stamps)


@dataclass(frozen=True)
class VersionQueryOutcome:
    results: dict[str, SolutionSet]
    relevant_entities: frozenset[str]
    snapshots_involved: int
    timeline: Timeline


def execute_version_query(
    query: str | ParsedQuery,
    ctx: Context,
    interval: TimeInterval = UNBOUNDED,
    at: datetime | None = None,
) -> VersionQueryOutcome:
    """Full pipeline; `at` selects single-version mode, else cross-version.

    The outcome's timeline holds the merged states narrowed to the quads
    some pattern of the query could match, not every quad of every
    relevant entity.  In cross-version mode a key at which no solution
    row starts or stops holding shares the previous key's SolutionSet
    object.
    """
    parsed = parse_select(query) if isinstance(query, str) else query
    explication = explicate(classify(parsed), ctx, interval=interval, at=at)
    versions = explication.versions

    results: dict[str, SolutionSet] = {}
    if at is not None:
        merged: set = set()
        chosen_times = []
        for vs in versions.values():
            for v in vs:
                merged |= v.graphs
                if v.time is not None:
                    chosen_times.append(v.time)
        key_time = max(chosen_times) if chosen_times else at
        timeline = Timeline(times=(key_time,), stamps=dict.fromkeys(merged, 1))
        results[format_timestamp(key_time)] = evaluate(parsed, merged)
    else:
        timeline = align_and_merge(versions, interval)
        # one evaluation over the stamped quads answers every key
        answers = evaluate(parsed, timeline.stamps, keys=len(timeline.times))
        for t, answer in zip(timeline.times, answers):
            results[format_timestamp(t)] = answer

    return VersionQueryOutcome(
        results=results,
        relevant_entities=explication.relevant,
        snapshots_involved=explication.snapshots_involved,
        timeline=timeline,
    )
