"""Independent reference implementations the tests check the engine against.

Everything here is written the dumbest correct way: full scans instead
of indexes, a search over patterns instead of a fixpoint over variables,
version diffs instead of stored change sets.  Slow is fine; sharing code
with the engine is not, with one exception: evaluate_every_key runs the
engine's own discovery, alignment and evaluation, and rebuilds each
discovered entity's versions in full through the engine's unnarrowed
walk, so that it differs from the engine only in the two steps it is
there to check.  CharScanner is the character-loop token reader the
engine's parsers used before their readers became regular expressions;
test_scanner.py plugs it into those parsers in place of
rdf_model.Scanner.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Mapping

from chrono_rdf import (
    GraphSet,
    ParsedQuery,
    ParseError,
    SolutionSet,
    Term,
    format_timestamp,
)
from chrono_rdf.materializer import UNBOUNDED, VersionedGraph, rebuild, select
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


def oracle_classify(
    query: ParsedQuery,
) -> tuple[list[TriplePattern], list[TriplePattern]]:
    """Depth-first split into (joined, isolated) pattern lists.

    The search runs over patterns, not terms.  It starts from every
    pattern whose subject is an IRI, and follows an edge p -> q when q's
    subject is a variable that p holds as its predicate or object.
    """
    patterns = list(query.patterns)
    stack = [
        k for k, p in enumerate(patterns)
        if isinstance(p.subject, Term) and p.subject.is_iri
    ]
    visited = set(stack)
    while stack:
        p = patterns[stack.pop()]
        for k, q in enumerate(patterns):
            if (
                k not in visited
                and isinstance(q.subject, Variable)
                and q.subject in (p.predicate, p.object)
            ):
                visited.add(k)
                stack.append(k)
    joined = [p for k, p in enumerate(patterns) if k in visited]
    isolated = [p for k, p in enumerate(patterns) if k not in visited]
    return joined, isolated


def oracle_select(history, interval=UNBOUNDED, boundary=False, at=None) -> tuple[int, ...]:
    """Snapshot indices a request reads, by the rule stated plainly: with
    `at`, the last snapshot generated at or before it; otherwise every
    snapshot inside the interval, plus, with `boundary` and a start, the
    last one generated at or before the start."""
    times = [s.generated_at for s in history.snapshots]
    return oracle_select_times(times, interval, boundary, at)


def oracle_select_times(times, interval=UNBOUNDED, boundary=False, at=None) -> tuple[int, ...]:
    """oracle_select over the snapshot times alone, oldest first."""
    if at is not None:
        live = [k for k, t in enumerate(times) if t <= at]
        return (live[-1],) if live else ()
    start, end = interval.start, interval.end
    chosen = {
        k
        for k, t in enumerate(times)
        if (start is None or start <= t) and (end is None or t <= end)
    }
    if boundary and start is not None:
        live = [k for k, t in enumerate(times) if t <= start]
        if live:
            chosen.add(live[-1])
    return tuple(sorted(chosen))


def oracle_relevant(
    query: ParsedQuery, entities: Mapping, interval=UNBOUNDED, at=None
) -> frozenset[str]:
    """The relevant entities of a query with no isolated pattern, from
    the ledger's versions alone.

    The walk starts from every IRI in subject position.  For each entity
    reached it reads the ledger versions a request reads (oracle_select's
    rule, the version live when the interval opens included, or the one
    live at `at`), matches every chased pattern, OPTIONAL ones included,
    against each quad on its own, and reaches every IRI the match binds
    to a variable some pattern holds as its subject.  A chased pattern
    is a joined one (oracle_classify) whose predicate or object is such
    a variable.
    """
    joined, isolated = oracle_classify(query)
    assert not isolated, "the walk covers queries without isolated patterns"
    subject_names = {p.subject.name for p in query.patterns if isinstance(p.subject, Variable)}
    chased = [
        p for p in joined
        if any(isinstance(t, Variable) and t.name in subject_names for t in (p.predicate, p.object))
    ]
    reached = {
        p.subject.value for p in query.patterns if isinstance(p.subject, Term) and p.subject.is_iri
    }
    todo = sorted(reached)
    while todo:
        truth = entities.get(todo.pop())
        if truth is None:
            continue
        for k in oracle_select_times(truth.times, interval, boundary=True, at=at):
            for q in truth.versions[k]:
                for p in chased:
                    for env in _solutions([p], [q], {}):
                        for name, term in env.items():
                            if name in subject_names and term.is_iri and term.value not in reached:
                                reached.add(term.value)
                                todo.append(term.value)
    return frozenset(reached)


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


def ledger_reads(query: ParsedQuery):
    """Whether some pattern of the query could match a quad, each
    variable matching any term, even one repeated in the pattern."""
    shapes = [(p.subject, p.predicate, p.object) for p in query.patterns]

    def reads(q) -> bool:
        terms = (q.subject, q.predicate, q.object)
        return any(
            all(isinstance(pt, Variable) or pt == t for pt, t in zip(shape, terms))
            for shape in shapes
        )

    return reads


def answers_over_time(query: ParsedQuery, entities: Mapping, times) -> list[Counter]:
    """brute_evaluate over the union of every entity's newest stored
    version at or before each of the sorted `times`.

    The same states as dataset_brute's, walked forward once and kept to
    the quads some pattern could match (ledger_reads), which no answer
    can do without; a state is evaluated again only when it changed.
    """
    if not times:
        return []
    reads = ledger_reads(query)
    last = times[-1]
    events = sorted(
        (
            (t, name, frozenset(filter(reads, version)))
            for name, truth in entities.items()
            for t, version in zip(truth.times, truth.versions)
            if t <= last
        ),
        key=lambda event: event[:2],
    )
    live: dict[str, frozenset] = {}
    held: Counter = Counter()
    answers: list[Counter] = []
    answer = None
    k = 0
    for when in times:
        while k < len(events) and events[k][0] <= when:
            _t, name, version = events[k]
            old = live.get(name, frozenset())
            if version != old:
                held.subtract(old)
                held.update(version)
                live[name] = version
                answer = None
            k += 1
        if answer is None:
            answer = brute_evaluate(query, frozenset(q for q, n in held.items() if n > 0))
        answers.append(answer)
    return answers


def _update_terms(text: str, entity: str) -> set[Term]:
    """Predicates and objects of the quads an update string parses to
    whose subject is the entity's IRI; none when it does not parse.
    The subject is the entity itself, which an isolated pattern never
    names as its subject, and graph names are not terms of a quad."""
    try:
        delta = parse_update(text)
    except Exception:
        return set()
    return {
        t
        for q in delta.deletes + delta.inserts
        if q.subject.is_iri and q.subject.value == entity
        for t in (q.predicate, q.object)
    }


def parsed_term_search(terms: Iterable[Term], records) -> frozenset[tuple[str, str]]:
    """(entity, snapshot) of every record whose parsed update, narrowed
    to the record's entity, holds all terms, parsing each record anew."""
    wanted = set(terms)
    if not wanted:
        return frozenset()
    return frozenset(
        (r.entity, r.snapshot) for r in records if wanted <= _update_terms(r.text, r.entity)
    )


def parsed_term_postings(records) -> dict[Term, frozenset[tuple[str, str]]]:
    """Each predicate or object to the (entity, snapshot) of every record
    whose parsed update, narrowed to the record's entity, holds it,
    parsing each record anew."""
    out: dict[Term, set] = {}
    for r in records:
        for term in _update_terms(r.text, r.entity):
            if not term.is_blank:
                out.setdefault(term, set()).add((r.entity, r.snapshot))
    return {term: frozenset(pairs) for term, pairs in out.items()}


def evaluate_every_key(query: ParsedQuery, ctx, interval=UNBOUNDED, at=None) -> dict:
    """Results keyed like execute_version_query's, from the full states.

    Discovery, alignment and evaluation are the engine's own; what this
    leaves out is the narrowing of each version to the quads the query
    can read and the one evaluation over key-stamped quads: it takes
    only the entities from explicate, rebuilds each one's versions in
    full, reads every key's full state from the timeline and evaluates
    it on its own, the way every key was evaluated before both.
    """
    explication = explicate(classify(query), ctx, interval=interval, at=at)
    versions = {}
    for entity in explication.versions:
        history = ctx.history(entity)
        if history is None:
            graphs = frozenset(ctx.entity_quads(entity))
            versions[entity] = (VersionedGraph(entity, None, graphs, reconstructed=False),)
        else:
            chosen = select(history, interval, boundary=True, at=at)
            versions[entity] = tuple(rebuild(entity, ctx.entity_quads(entity), history, chosen))
    if at is not None:
        merged = set()
        times = []
        for vs in versions.values():
            for v in vs:
                merged |= v.graphs
                if v.time is not None:
                    times.append(v.time)
        key = max(times) if times else at
        return {format_timestamp(key): sparql_evaluate(query, frozenset(merged))}
    timeline = align_and_merge(versions, interval)
    return {
        format_timestamp(t): sparql_evaluate(query, timeline.datasets[t])
        for t in timeline.times
    }


class CharScanner:
    """The character-loop token reader that rdf_model.Scanner replaced.

    It reads one character at a time and is the reference the regex
    readers are compared against (test_scanner.py).  Two defects of the
    original are mended here as in the engine: a \\u or \\U escape must
    name a Unicode scalar value, and a string whose text ends in a
    backslash is unterminated.
    """

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def location(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        column = pos - self.text.rfind("\n", 0, pos)
        return line, column

    def error(self, message: str, pos: int | None = None) -> ParseError:
        line, column = self.location(pos)
        return ParseError(message, line, column)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else ""

    def skip_space(self) -> None:
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif ch == "#":
                nl = text.find("\n", self.pos)
                self.pos = len(text) if nl < 0 else nl + 1
            else:
                return

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1

    def read_iriref(self) -> str:
        start = self.pos
        self.expect("<")
        out = []
        text = self.text
        while True:
            if self.pos >= len(text):
                raise self.error("unterminated IRI", start)
            ch = text[self.pos]
            if ch == ">":
                self.pos += 1
                return "".join(out)
            if ch in " \n\r\t\"{}|^`":
                raise self.error(f"character {ch!r} not allowed inside an IRI")
            if ch == "<":
                raise self.error("character '<' not allowed inside an IRI")
            if ch == "\\":
                out.append(self._read_uchar())
                continue
            out.append(ch)
            self.pos += 1

    def _read_uchar(self) -> str:
        start = self.pos
        self.pos += 1
        kind = self.peek()
        if kind == "u":
            width = 4
        elif kind == "U":
            width = 8
        else:
            raise self.error("only \\u and \\U escapes are allowed in IRIs", start)
        digits = self.text[self.pos + 1 : self.pos + 1 + width]
        if len(digits) < width or any(d not in "0123456789abcdefABCDEF" for d in digits):
            raise self.error("malformed numeric escape", start)
        code = int(digits, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            escape = self.text[start : start + 2 + width]
            raise self.error(f"numeric escape {escape} is not a Unicode scalar value", start)
        self.pos += 1 + width
        return chr(code)

    def read_string(self) -> str:
        quote = self.peek()
        start = self.pos
        text = self.text
        if text.startswith(quote * 3, self.pos):
            self.pos += 3
            closer = quote * 3
            long_form = True
        else:
            self.pos += 1
            closer = quote
            long_form = False
        out = []
        while True:
            if self.pos >= len(text):
                raise self.error("unterminated string", start)
            if text.startswith(closer, self.pos):
                self.pos += len(closer)
                return "".join(out)
            ch = text[self.pos]
            if ch == "\\":
                if self.pos + 1 >= len(text):
                    raise self.error("unterminated string", start)
                out.append(self._read_string_escape())
                continue
            if ch in "\n\r" and not long_form:
                raise self.error("newline inside single-line string", start)
            out.append(ch)
            self.pos += 1

    def _read_string_escape(self) -> str:
        nxt = self.peek(1)
        simple = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
                  '"': '"', "'": "'", "\\": "\\"}
        if nxt in simple:
            self.pos += 2
            return simple[nxt]
        if nxt in "uU":
            return self._read_uchar()
        self.pos += 2
        return "\\" + nxt

    def read_langtag(self) -> str:
        self.expect("@")
        start = self.pos
        while self.peek().isalnum() or self.peek() == "-":
            self.pos += 1
        tag = self.text[start : self.pos]
        if not re.match(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$", tag):
            raise self.error("malformed language tag", start)
        return tag

    def read_blank_label(self) -> str:
        start = self.pos
        self.expect("_")
        self.expect(":")
        label_start = self.pos
        while True:
            ch = self.peek()
            if ch and (ch.isalnum() or ch in "_-."):
                self.pos += 1
            else:
                break
        while self.pos > label_start and self.text[self.pos - 1] == ".":
            self.pos -= 1
        label = self.text[label_start : self.pos]
        if not label:
            raise self.error("blank node label must be non-empty", start)
        return label

    def read_word(self) -> str:
        start = self.pos
        while True:
            ch = self.peek()
            if ch and (ch.isalnum() or ch in "_-%:."):
                self.pos += 1
            else:
                break
        while self.pos > start and self.text[self.pos - 1] == ".":
            self.pos -= 1
        return self.text[start : self.pos]
