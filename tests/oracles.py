"""Independent reference implementations the tests check the engine against.

Everything here is written the dumbest correct way: full scans instead
of indexes, union-find instead of graph search, version diffs instead of
stored change sets.  Slow is fine; sharing code with the engine is not,
with one exception: evaluate_every_key runs the engine's own discovery,
alignment and evaluation, so that it differs from the engine only in the
two steps it is there to check.  CharScanner is the character-loop token
reader the engine's parsers used before their readers became regular
expressions; test_scanner.py plugs it into those parsers in place of
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


def oracle_select(history, interval=UNBOUNDED, boundary=False, at=None) -> tuple[int, ...]:
    """Snapshot indices a request reads, by the rule stated plainly: with
    `at`, the last snapshot generated at or before it; otherwise every
    snapshot inside the interval, plus, with `boundary` and a start, the
    last one generated at or before the start."""
    times = [s.generated_at for s in history.snapshots]
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


def _update_terms(text: str, entity: str) -> set[Term]:
    """Subjects, predicates and objects of the quads an update string
    parses to whose subject is the entity's IRI; none when it does not
    parse.  Graph names are not terms of a quad."""
    try:
        delta = parse_update(text)
    except Exception:
        return set()
    return {
        t
        for q in delta.deletes + delta.inserts
        if q.subject.is_iri and q.subject.value == entity
        for t in (q.subject, q.predicate, q.object)
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
    """Each IRI or literal to the (entity, snapshot) of every record whose
    parsed update, narrowed to the record's entity, holds it, parsing
    each record anew."""
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
    can read and the one evaluation over key-stamped quads: it reads
    every key's full state from the timeline and evaluates it on its
    own, the way every key was evaluated before both.
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
