"""Independent reference implementations the tests check the engine against.

Everything here is written the dumbest correct way: full scans instead
of indexes, union-find instead of graph search, version diffs instead of
stored change sets.  Slow is fine; sharing code with the engine is not,
with one exception: evaluate_every_key runs the engine's own discovery,
alignment and evaluation, so that it differs from the engine only in the
two steps it is there to check.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Mapping

from chrono_rdf import GraphSet, ParsedQuery, SolutionSet, Term, format_timestamp
from chrono_rdf.materializer import UNBOUNDED
from chrono_rdf.sparql_engine import TriplePattern, Variable, parse_update
from chrono_rdf.sparql_engine import evaluate as sparql_evaluate
from chrono_rdf.version_query import align_and_merge, classify, explicate


def _match_term(pattern_term, term: Term, env: dict):
    if isinstance(pattern_term, Variable):
        bound = env.get(pattern_term.name)
        if bound is None:
            extended = dict(env)
            extended[pattern_term.name] = term
            return extended
        return env if bound == term else None
    return env if pattern_term == term else None


def _solutions(patterns, data: GraphSet, env: dict):
    if not patterns:
        yield env
        return
    head = patterns[0]
    rest = patterns[1:]
    for q in data:
        e = _match_term(head.subject, q.subject, env)
        if e is None:
            continue
        e = _match_term(head.predicate, q.predicate, e)
        if e is None:
            continue
        e = _match_term(head.object, q.object, e)
        if e is None:
            continue
        yield from _solutions(rest, data, e)


def _filter_keep(query: ParsedQuery, env: dict) -> bool:
    for f in query.filters:
        term = env.get(f.var.name)
        if term is None or not term.is_literal:
            return False
        if f.kind == "regex":
            if not re.search(f.pattern, term.value):
                return False
        else:
            if f.pattern not in term.value:
                return False
    return True


def brute_evaluate(query: ParsedQuery, data: GraphSet) -> Counter:
    """Exhaustive evaluation; returns a multiset of projected rows."""
    required = [p for p in query.patterns if p.optional_group is None]
    rows = list(_solutions(required, data, {}))
    groups = sorted({
        p.optional_group for p in query.patterns if p.optional_group is not None
    })
    for gid in groups:
        group = [p for p in query.patterns if p.optional_group == gid]
        extended = []
        for env in rows:
            found = list(_solutions(group, data, env))
            extended.extend(found if found else [env])
        rows = extended
    rows = [env for env in rows if _filter_keep(query, env)]
    projected = [v.name for v in (query.projected or query.all_variables())]
    out = Counter()
    seen = set()
    for env in rows:
        key = frozenset((name, env[name]) for name in projected if name in env)
        if query.distinct:
            if key in seen:
                continue
            seen.add(key)
        out[key] += 1
    return out


def solutions_counter(solutions: SolutionSet) -> Counter:
    out = Counter()
    for binding in solutions.rows:
        out[frozenset(binding.values)] += 1
    return out


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _key(term) -> tuple[str, str]:
    if isinstance(term, Variable):
        return ("var", term.name)
    return (term.kind, term.n3())


def oracle_classify(
    query: ParsedQuery,
) -> tuple[list[TriplePattern], list[TriplePattern]]:
    """Union-find split into (joined, isolated) pattern lists."""
    uf = _UnionFind()
    subject_iris = set()
    for p in query.patterns:
        keys = [_key(p.subject), _key(p.predicate), _key(p.object)]
        uf.union(keys[0], keys[1])
        uf.union(keys[1], keys[2])
        if isinstance(p.subject, Term) and p.subject.is_iri:
            subject_iris.add(keys[0])
    good_roots = {uf.find(k) for k in subject_iris}
    joined, isolated = [], []
    for p in query.patterns:
        if isinstance(p.subject, Term) and p.subject.is_iri:
            joined.append(p)
        elif uf.find(_key(p.subject)) in good_roots:
            joined.append(p)
        else:
            isolated.append(p)
    return joined, isolated


def version_diffs(times, versions) -> list[tuple]:
    """(time, added, removed) between consecutive stored versions."""
    diffs = []
    for k in range(1, len(versions)):
        prev, curr = versions[k - 1], versions[k]
        diffs.append((times[k], curr - prev, prev - curr))
    return diffs


def dataset_brute(entities: Mapping, when, restrict: Iterable[str] | None = None) -> GraphSet:
    """Union of the newest stored version at or before `when`, by scan."""
    names = entities.keys() if restrict is None else restrict
    merged = set()
    for name in names:
        truth = entities.get(name)
        if truth is None:
            continue
        best = None
        for t, version in zip(truth.times, truth.versions):
            if t <= when and (best is None or t > best[0]):
                best = (t, version)
        if best:
            merged |= best[1]
    return frozenset(merged)


def _update_terms(text: str) -> set[Term]:
    """Subjects, predicates and objects of the quads an update string
    parses to; none when it does not parse.  Graph names are not terms of
    a quad."""
    try:
        delta = parse_update(text)
    except Exception:
        return set()
    return {t for q in delta.deletes + delta.inserts for t in (q.subject, q.predicate, q.object)}


def parsed_term_search(terms: Iterable[Term], records) -> frozenset[tuple[str, str]]:
    """(entity, snapshot) of every record whose parsed update holds all
    terms, parsing each record anew."""
    wanted = set(terms)
    if not wanted:
        return frozenset()
    return frozenset(
        (r.entity, r.snapshot) for r in records if wanted <= _update_terms(r.text)
    )


def parsed_term_postings(records) -> dict[Term, frozenset[tuple[str, str]]]:
    """Each IRI or literal to the (entity, snapshot) of every record whose
    parsed update holds it, parsing each record anew."""
    out: dict[Term, set] = {}
    for r in records:
        for term in _update_terms(r.text):
            if not term.is_blank:
                out.setdefault(term, set()).add((r.entity, r.snapshot))
    return {term: frozenset(pairs) for term, pairs in out.items()}


def evaluate_every_key(query: ParsedQuery, ctx, interval=UNBOUNDED, at=None) -> dict:
    """Results keyed like execute_version_query's, from the full states.

    Discovery, alignment and evaluation are the engine's own; what this
    leaves out is the narrowing of each version to the quads the query
    can read and the reuse of an answer where those quads did not
    change, so it answers the way every key was evaluated before both.
    """
    mode = "single" if at is not None else "cross"
    explication = explicate(classify(query), ctx, interval=interval, mode=mode, at=at)
    if mode == "single":
        merged = set()
        times = []
        for vs in explication.versions.values():
            for v in vs:
                merged |= v.graphs
                if v.time is not None:
                    times.append(v.time)
        key = max(times) if times else at
        return {format_timestamp(key): sparql_evaluate(query, frozenset(merged))}
    timeline = align_and_merge(explication.versions, interval)
    return {
        format_timestamp(t): sparql_evaluate(query, timeline.datasets[t])
        for t in timeline.times
    }
