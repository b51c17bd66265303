"""Canonical answers and the ledger gate.

Every answer, whether it comes from a library call in the worker or from
a CLI child's JSON on stdout, is reduced to one canonical form: the
timeline keys plus one digest per key for version queries, (time, digest)
per version for materialisation, and one digest over the change records
for delta queries.  The gate computes the same form from the generator's
`OracleLedger`, which never touches the engine's reconstruction code,
and reports the first difference.  It works out the relevant entities
from the ledger as well, so an engine that drops an entity together
with its keys and rows still fails.  Digests keep the worker's heap small;
the gate only needs equality.
"""

from __future__ import annotations

import hashlib
from datetime import datetime
from typing import Iterable

from chrono_rdf.benchgen import EntityTruth, OracleLedger
from chrono_rdf.provenance import format_timestamp, parse_timestamp
from chrono_rdf.rdf_model import Quad, Term
from chrono_rdf.sparql_engine import (
    SolutionSet,
    TriplePattern,
    Variable,
    evaluate,
    parse_select,
)

from . import streams


def digest(lines: Iterable[str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for line in sorted(lines):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def quad_line(q: Quad) -> str:
    """One quad as a canonical N-Quads line, as `serialize` writes it."""
    parts = [q.subject.n3(), q.predicate.n3(), q.object.n3()]
    if q.graph is not None:
        parts.append(Term("iri", q.graph).n3())
    return " ".join(parts) + " ."


def row_line(pairs: Iterable[tuple[str, str]]) -> str:
    return "\t".join(f"?{name}={n3}" for name, n3 in sorted(pairs))


def solution_lines(solutions: SolutionSet) -> list[str]:
    return [row_line((name, term.n3()) for name, term in b.values) for b in solutions.rows]


def record_line(entity: str, snapshot: str, time: str, kind: str,
                added: Iterable[str], removed: Iterable[str]) -> str:
    return "\t".join([entity, snapshot, time, kind,
                      "|".join(sorted(added)), "|".join(sorted(removed))])


# -- answers from the engine ---------------------------------------------


def from_versions(versions: Iterable) -> dict:
    """Canonical form of materialised VersionedGraphs, oldest first."""
    return {"versions": [
        [format_timestamp(v.time), digest(quad_line(q) for q in v.graphs)]
        for v in versions
    ]}


def from_version_outcome(outcome, observe: dict | None = None, single: bool = False) -> dict:
    keys = [format_timestamp(t) for t in outcome.timeline.times]
    rows = [digest(solution_lines(outcome.results[k])) for k in keys]
    if observe is not None:
        bound = {
            term.value for k in keys for b in outcome.results[k].rows
            for _, term in b.values if term.is_iri
        }
        _observe_version(observe, rows, bound, outcome.relevant_entities, cross=not single)
    return {"keys": keys, "rows": rows, "relevant": sorted(outcome.relevant_entities)}


def from_delta_outcome(outcome, observe: dict | None = None) -> dict:
    lines = [
        record_line(r.entity, r.snapshot, format_timestamp(r.time), r.kind,
                    (quad_line(q) for q in r.delta.added),
                    (quad_line(q) for q in r.delta.removed))
        for r in outcome.report
    ]
    if observe is not None:
        _observe_delta(observe, {r.entity for r in outcome.report},
                       outcome.relevant_entities, len(lines))
    return {"records": digest(lines), "count": len(lines),
            "relevant": sorted(outcome.relevant_entities)}


def _observe_version(observe: dict, digests: list[str], bound: set[str],
                     relevant, cross: bool) -> None:
    observe["discovery.bound"] = observe.get("discovery.bound", 0) + len(bound & set(relevant))
    observe["discovery.relevant"] = observe.get("discovery.relevant", 0) + len(relevant)
    if cross and digests:
        changed = 1 + sum(1 for a, b in zip(digests, digests[1:]) if a != b)
        observe["answers.keys"] = observe.get("answers.keys", 0) + len(digests)
        observe["answers.changed_keys"] = observe.get("answers.changed_keys", 0) + changed


def _observe_delta(observe: dict, changed: set[str], relevant, records: int) -> None:
    observe["discovery.bound"] = observe.get("discovery.bound", 0) + len(changed & set(relevant))
    observe["discovery.relevant"] = observe.get("discovery.relevant", 0) + len(relevant)
    observe["delta_query.records"] = observe.get("delta_query.records", 0) + records


# -- answers from CLI JSON -------------------------------------------------


def _term(doc: dict) -> Term:
    kind = doc["type"]
    if kind == "uri":
        return Term("iri", doc["value"])
    if kind == "bnode":
        return Term("blank", doc["value"])
    return Term("literal", doc["value"], datatype=doc.get("datatype"),
                language=doc.get("xml:lang"))


def from_cli(req: dict, document: dict, observe: dict | None = None) -> dict:
    """Canonical form of one CLI call's JSON output."""
    op = req["op"]
    if op == "cli_materialize":
        return {"versions": [
            [v["time"], digest(v["graph"].splitlines())] for v in document["versions"]
        ]}
    if op == "cli_query":
        # a result key missing from the timeline, or the reverse, shows up
        # as an extra key the ledger does not expect
        keys = sorted(set(document["timeline"]) | set(document["results"]))
        rows = [
            digest(row_line((name, _term(t).n3()) for name, t in row.items())
                   for row in document["results"].get(k, []))
            for k in keys
        ]
        relevant = document["relevant_entities"]
        if observe is not None:
            bound = {
                t["value"] for found in document["results"].values()
                for row in found for t in row.values() if t["type"] == "uri"
            }
            _observe_version(observe, rows, bound, relevant, cross=True)
        return {"keys": keys, "rows": rows, "relevant": sorted(relevant)}
    lines = [
        record_line(r["entity"], r["snapshot"], r["time"], r["kind"],
                    r["added"].splitlines(), r["removed"].splitlines())
        for r in document["records"]
    ]
    if observe is not None:
        _observe_delta(observe, {r["entity"] for r in document["records"]},
                       document["relevant_entities"], len(lines))
    return {"records": digest(lines), "count": len(lines),
            "relevant": sorted(document["relevant_entities"])}


# -- the gate ----------------------------------------------------------------


def _inside(when: datetime, start: datetime | None, end: datetime | None) -> bool:
    return (start is None or when >= start) and (end is None or when <= end)


def _matchable(parsed, graphs: frozenset) -> frozenset:
    """The quads some pattern of the query can match, variables as wildcards.

    Basic patterns, OPTIONAL and FILTER only ever read matching quads, so
    evaluating over the union of these subsets gives the same rows as over
    the union of whole versions; equal unions at consecutive keys then
    share one evaluation.
    """
    patterns = [(p.subject, p.predicate, p.object) for p in parsed.patterns]

    def fits(term, actual) -> bool:
        return isinstance(term, Variable) or term == actual

    return frozenset(
        q for q in graphs
        if any(fits(s, q.subject) and fits(p, q.predicate) and fits(o, q.object)
               for s, p, o in patterns)
    )


def _binds(pattern: TriplePattern, q: Quad) -> dict | None:
    """The variable bindings under which the pattern matches the quad."""
    binding: dict = {}
    for term, actual in ((pattern.subject, q.subject), (pattern.predicate, q.predicate),
                         (pattern.object, q.object)):
        if isinstance(term, Variable):
            if binding.setdefault(term, actual) != actual:
                return None
        elif term != actual:
            return None
    return binding


def _versions_read(truth: EntityTruth, at: datetime | None, start: datetime | None,
                   end: datetime | None) -> list:
    """The versions discovery reads for one entity.

    At an instant, the version live then.  Over an interval, every
    version inside it plus the one live when it opens.
    """
    if at is not None:
        version = truth.version_at(at)
        return [] if version is None else [version]
    opening = truth.version_at(start) if start is not None else None
    inside = [v for t, v in zip(truth.times, truth.versions) if _inside(t, start, end)]
    return inside if opening is None else [opening, *inside]


class Gate:
    """Checks canonical answers against the ledger; parses each text once."""

    def __init__(self, ledger: OracleLedger):
        self.ledger = ledger
        self._parsed: dict[str, object] = {}
        self._matchable: dict[str, dict[str, EntityTruth]] = {}
        self._holders: dict[tuple[Term, Term], set[str]] | None = None

    def _query(self, text: str):
        parsed = self._parsed.get(text)
        if parsed is None:
            parsed = self._parsed[text] = parse_select(text)
        return parsed

    def _matchable_ledger(self, text: str, parsed, entities: list[str]) -> OracleLedger:
        """The ledger's versions of `entities` cut to what the query can match."""
        cut = self._matchable.setdefault(text, {})
        for entity in entities:
            if entity not in cut:
                truth = self.ledger.entities[entity]
                cut[entity] = EntityTruth(
                    entity, truth.times,
                    [_matchable(parsed, v) for v in truth.versions], truth.snapshots,
                )
        return OracleLedger({e: cut[e] for e in entities})

    def _holders_of(self, pattern: TriplePattern) -> set[str]:
        """Entities with a version or a change holding a quad the pattern matches.

        The isolated patterns of the streams have a variable subject and a
        ground predicate and object, so (predicate, object) finds the quads.
        """
        if self._holders is None:
            self._holders = {}
            for entity, truth in self.ledger.entities.items():
                changed = (snap.added | snap.removed for snap in truth.snapshots)
                for q in set().union(*truth.versions, *changed):
                    self._holders.setdefault((q.predicate, q.object), set()).add(entity)
        return self._holders.get((pattern.predicate, pattern.object), set())

    def relevant(self, parsed, at: datetime | None, start: datetime | None,
                 end: datetime | None) -> list[str]:
        """The entities discovery has to find, worked out from the ledger alone.

        A query with subject IRIs (the known-subject query) is walked from
        them: every IRI a required pattern binds to a subject variable, in
        a version discovery reads, is relevant and is walked in turn.  A
        query without one (the needle and scheme queries) has only isolated
        patterns; an entity is relevant when some version of it, or some
        change it went through, holds a quad one of them matches, whatever
        the time asked for.  Queries mixing both kinds are not covered.
        """
        required = [p for p in parsed.patterns if p.required]
        seeds = {p.subject.value for p in parsed.patterns
                 if isinstance(p.subject, Term) and p.subject.is_iri}
        if not seeds:
            return sorted(set().union(*(self._holders_of(p) for p in required)))
        subject_variables = {p.subject for p in parsed.patterns
                             if isinstance(p.subject, Variable)}
        found: set[str] = set()
        queue = sorted(seeds)
        while queue:
            entity = queue.pop()
            if entity in found:
                continue
            found.add(entity)
            truth = self.ledger.entities.get(entity)
            if truth is None:
                continue  # relevant, but with no history to walk
            for version in _versions_read(truth, at, start, end):
                for q in version:
                    for pattern in required:
                        for var, term in (_binds(pattern, q) or {}).items():
                            if var in subject_variables and term.is_iri:
                                queue.append(term.value)
        return sorted(found)

    def _check_relevant(self, expected: list[str], answer: dict) -> str | None:
        if answer["relevant"] == expected:
            return None
        missing = sorted(set(expected) - set(answer["relevant"]))
        extra = sorted(set(answer["relevant"]) - set(expected))
        return f"relevant entities differ: missing {missing[:3]}, extra {extra[:3]}"

    def check(self, req: dict, answer: dict) -> str | None:
        """None when the answer matches the ledger, else the first difference."""
        kind = req["kind"]
        if kind == "materialize":
            return self._check_materialize(req, answer)
        if kind == "delta":
            return self._check_delta(req, answer)
        return self._check_version(req, answer)

    def _check_materialize(self, req: dict, answer: dict) -> str | None:
        truth = self.ledger.entities[req["entity"]]
        pairs = list(zip(truth.times, truth.versions))
        if "at" in req:
            at = parse_timestamp(req["at"])
            pairs = [p for p in pairs if p[0] <= at][-1:]
        expected = [[format_timestamp(t), digest(quad_line(q) for q in v)] for t, v in pairs]
        got = answer["versions"]
        if [t for t, _ in got] != [t for t, _ in expected]:
            return f"version times differ: got {len(got)}, expected {len(expected)}"
        for (t, d), (_, e) in zip(got, expected):
            if d != e:
                return f"version at {t} differs from the ledger"
        return None

    def _check_version(self, req: dict, answer: dict) -> str | None:
        at, start, end = streams.times(req)
        text = streams.query_text(req)
        parsed = self._query(text)
        expected_relevant = self.relevant(parsed, at, start, end)
        problem = self._check_relevant(expected_relevant, answer)
        if problem:
            return problem
        relevant = [e for e in expected_relevant if e in self.ledger.entities]
        if at is not None:
            live = [t for e in relevant for t in self.ledger.entities[e].times if t <= at]
            keys = [max(live) if live else at]
            probes = [at]
        else:
            keys = sorted({
                t for e in relevant for t in self.ledger.entities[e].times
                if _inside(t, start, end)
            })
            probes = keys
        expected_keys = [format_timestamp(t) for t in keys]
        if answer["keys"] != expected_keys:
            return (f"timeline keys differ: got {len(answer['keys'])},"
                    f" expected {len(expected_keys)}")
        ledger = self._matchable_ledger(text, parsed, relevant)
        rows_of: dict[frozenset, str] = {}
        for key, probe, got in zip(expected_keys, probes, answer["rows"]):
            dataset = ledger.dataset_at(probe, restrict=relevant)
            expected = rows_of.get(dataset)
            if expected is None:
                expected = rows_of[dataset] = digest(solution_lines(evaluate(parsed, dataset)))
            if got != expected:
                return f"rows differ at {key}"
        return None

    def _check_delta(self, req: dict, answer: dict) -> str | None:
        _, start, end = streams.times(req)
        relevant = self.relevant(self._query(streams.query_text(req)), None, start, end)
        problem = self._check_relevant(relevant, answer)
        if problem:
            return problem
        lines = []
        for entity in relevant:
            truth = self.ledger.entities.get(entity)
            if truth is None:
                continue
            for k in range(1, len(truth.snapshots)):
                snap = truth.snapshots[k]
                if not _inside(snap.time, start, end) or not (snap.added or snap.removed):
                    continue
                kind = "deleted" if not truth.versions[k] else "modified"
                lines.append(record_line(
                    entity, snap.id, format_timestamp(snap.time), kind,
                    (quad_line(q) for q in snap.added),
                    (quad_line(q) for q in snap.removed),
                ))
        if answer["count"] != len(lines):
            return f"change records differ: got {answer['count']}, expected {len(lines)}"
        if answer["records"] != digest(lines):
            return "change records differ from the ledger"
        return None
