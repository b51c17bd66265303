"""A small SPARQL engine for the query shapes the time engine needs.

Two dialects live here.  parse_select reads SELECT queries restricted to
basic graph patterns, non-nested OPTIONAL groups, and FILTER REGEX or
CONTAINS over one variable; anything else raises UnsupportedFeature so
callers can tell "outside the subset" apart from "malformed".
parse_update reads ground update strings, the DELETE DATA / INSERT DATA
form that snapshot provenance carries.  Both read their tokens straight
off an rdf_model.Scanner, front to back, and both read their triples
through rdf_model.read_triples, the statement reader Turtle uses, so ','
and ';' lists read as they do in Turtle.  Each passes its own term
reader: a query's takes variables and declared prefixes and refuses
blank nodes, property paths and relative IRIs; an update's must find
every IRI spelt out and no variables, which PrefixInDelta and
VariableInDelta police.

evaluate runs a parsed query over the union of all graphs in a quad set.
Graph names do not take part in matching.  Solutions form a bag; distinct
collapses it.  FILTER applies last and treats an unbound or non-literal
argument as false, which matches how these filters behave on the string
values they were written for.  Given key-stamped quads, evaluate answers
at every key of a timeline in one pass; a plain quad set is the one-key
case of the same join.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    BadRegex,
    PrefixInDelta,
    UnknownPrefix,
    UnsupportedFeature,
    VariableInDelta,
)
from .provenance import Delta
from .rdf_model import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_STRING,
    Quad,
    Term,
    TermTable,
    Triple,
    Scanner,
    read_number,
    escape_string,
    intern_term,
    read_iri_term,
    read_triples,
)


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def n3(self) -> str:
        return f"?{self.name}"


PatternTerm = Term | Variable


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """One triple pattern; optional_group tags membership in an OPTIONAL."""

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm
    optional_group: int | None = None

    @property
    def required(self) -> bool:
        return self.optional_group is None

    def variables(self) -> Iterator[Variable]:
        for term in (self.subject, self.predicate, self.object):
            if isinstance(term, Variable):
                yield term

    def ground_terms(self) -> Iterator[Term]:
        for term in (self.subject, self.predicate, self.object):
            if isinstance(term, Term):
                yield term


@dataclass(frozen=True, slots=True)
class Filter:
    """FILTER REGEX(?v, "pat") or FILTER CONTAINS(?v, "needle")."""

    kind: str
    var: Variable
    pattern: str


@dataclass(frozen=True)
class ParsedQuery:
    projected: tuple[Variable, ...]
    distinct: bool
    patterns: tuple[TriplePattern, ...]
    filters: tuple[Filter, ...]
    select_star: bool = field(default=False, compare=False)

    def all_variables(self) -> tuple[Variable, ...]:
        seen: list[Variable] = []
        for p in self.patterns:
            for v in p.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)


@dataclass(frozen=True)
class Binding:
    """One solution row: variable name to term."""

    values: tuple[tuple[str, Term], ...]

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Term]) -> "Binding":
        return cls(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, Term]:
        return dict(self.values)

    def get(self, name: str) -> Term | None:
        for key, term in self.values:
            if key == name:
                return term
        return None


@dataclass(frozen=True)
class SolutionSet:
    """A bag of solution rows; equality ignores row order."""

    rows: tuple[Binding, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Binding]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolutionSet):
            return NotImplemented
        return Counter(self.rows) == Counter(other.rows)

    def __hash__(self) -> int:
        return hash(frozenset(Counter(self.rows).items()))

    def sorted_rows(self) -> list[Binding]:
        return sorted(self.rows, key=lambda b: [(k, t.n3()) for k, t in b.values])


_UNSUPPORTED_IN_GROUP = {
    "UNION": "UNION",
    "GRAPH": "GRAPH blocks",
    "BIND": "BIND",
    "VALUES": "VALUES",
    "MINUS": "MINUS",
    "SERVICE": "SERVICE",
    "EXISTS": "EXISTS",
    "NOT": "NOT EXISTS",
}
_GROUP_KEYWORDS = ("OPTIONAL", "FILTER", *_UNSUPPORTED_IN_GROUP)

_UNSUPPORTED_TRAILERS = {
    "ORDER": "ORDER BY",
    "GROUP": "GROUP BY",
    "HAVING": "HAVING",
    "LIMIT": "LIMIT",
    "OFFSET": "OFFSET",
}

_EXPECTED_TERM = {
    "subject": "expected a subject term",
    "predicate": "expected a predicate term",
    "object": "expected an object term",
}


def _read_keyword(sc: Scanner, keywords: Iterable[str]) -> str:
    """The word at sc, upper-cased, when it is one of keywords; else ""
    with sc left where it was."""
    mark = sc.pos
    word = sc.read_word().upper()
    if word in keywords:
        return word
    sc.pos = mark
    return ""


def _expect(sc: Scanner, ch: str) -> None:
    sc.skip_space()
    sc.expect(ch)


def _read_variable(sc: Scanner) -> Variable:
    """The ?name or $name at sc."""
    sc.pos += 1
    name = sc.read_word()
    if not name:
        raise sc.error("empty variable name")
    return Variable(name)


def _read_name(sc: Scanner) -> str:
    """The word or prefixed name at sc, or "" where a '.', a number or a
    blank node label starts instead."""
    ch = sc.peek()
    if ch == "." or ch.isdigit() or (ch == "-" and sc.peek(1).isdigit()) or (
        ch == "_" and sc.peek(1) == ":"
    ):
        return ""
    return sc.read_word()


def _read_query_iri(sc: Scanner, terms: TermTable, prefixes: dict[str, str], expected: str) -> Term:
    """The interned IRI that the <IRI> or prefixed name at sc spells;
    expected is the message of the error where neither is."""
    pos = sc.pos
    if sc.peek() == "<":
        value = sc.read_iriref()
    else:
        prefix, colon, local = _read_name(sc).partition(":")
        if not colon:
            raise sc.error(expected, pos)
        if prefix not in prefixes:
            raise UnknownPrefix(prefix, *sc.location(pos))
        value = prefixes[prefix] + local
    try:
        return terms.get(value) or intern_term(terms, value)
    except ValueError:
        raise sc.error(f"relative IRI {value!r}; queries have no base", pos) from None


def _read_pattern_term(
    sc: Scanner, terms: TermTable, prefixes: dict[str, str], position: str
) -> PatternTerm:
    """One subject, predicate or object term of a triple pattern."""
    ch = sc.peek()
    if ch in ("?", "$"):
        return _read_variable(sc)
    if ch == "_" and sc.peek(1) == ":":
        sc.read_blank_label()
        raise UnsupportedFeature("blank nodes in patterns")
    after = sc.peek(1)
    if ch in ("/", "|") or (ch == "^" and after != "^") or (ch == "+" and not after.isdigit()):
        raise UnsupportedFeature("property paths")
    if position == "object":
        if ch in ('"', "'"):
            value = sc.read_string()
            sc.skip_space()  # SPARQL allows space before the tag or the '^^'
            if sc.peek() == "@":
                key = (value, None, sc.read_langtag())
            elif sc.peek() == "^" and sc.peek(1) == "^":
                sc.pos += 2
                sc.skip_space()
                key = (value, _read_query_iri(sc, terms, prefixes, "expected an IRI").value, None)
            else:
                key = (value, XSD_STRING, None)
            return intern_term(terms, key)
        if ch.isdigit() or (ch in ("+", "-") and after.isdigit()):
            return intern_term(terms, read_number(sc))
    if ch.isalpha():  # the keywords: "a" as a predicate, a boolean as an object
        mark = sc.pos
        word = sc.read_word()
        if word == "a" and position == "predicate":
            return intern_term(terms, RDF_TYPE)
        if word in ("true", "false") and position == "object":
            return intern_term(terms, (word, XSD_BOOLEAN, None))
        sc.pos = mark
    return _read_query_iri(sc, terms, prefixes, _EXPECTED_TERM[position])


def _read_statement(
    sc: Scanner, read_term: Callable[[str], PatternTerm], patterns: list[TriplePattern],
    group: int | None,
) -> None:
    """The triples of one statement, as patterns of group, and its '.'."""
    read_triples(sc, read_term, lambda s, p, o: patterns.append(TriplePattern(s, p, o, group)))
    if sc.peek() == ".":
        sc.pos += 1


def _read_optional(
    sc: Scanner, read_term: Callable[[str], PatternTerm], patterns: list[TriplePattern],
    group: int,
) -> None:
    """The braced statements after an OPTIONAL keyword, as patterns of group."""
    _expect(sc, "{")
    first = len(patterns)
    while True:
        sc.skip_space()
        ch = sc.peek()
        if ch == "}":
            break
        if not ch:
            raise sc.error("unterminated OPTIONAL group")
        keyword = _read_keyword(sc, _GROUP_KEYWORDS)
        if keyword == "OPTIONAL":
            raise UnsupportedFeature("nested OPTIONAL")
        if keyword == "FILTER":
            raise UnsupportedFeature("FILTER inside OPTIONAL")
        if keyword:
            raise UnsupportedFeature(_UNSUPPORTED_IN_GROUP[keyword])
        _read_statement(sc, read_term, patterns, group)
    sc.pos += 1
    if len(patterns) == first:
        sc.skip_space()
        raise sc.error("empty OPTIONAL group")


def _read_filter(sc: Scanner) -> Filter:
    """The REGEX or CONTAINS call after a FILTER keyword."""
    sc.skip_space()
    name = sc.read_word()
    kind = name.upper()
    if kind not in ("REGEX", "CONTAINS"):
        raise UnsupportedFeature(f"FILTER {name or sc.peek()}")
    _expect(sc, "(")
    sc.skip_space()
    wrapped = _read_keyword(sc, ("STR",))
    if wrapped:
        _expect(sc, "(")
        sc.skip_space()
    if sc.peek() not in ("?", "$"):
        raise UnsupportedFeature("FILTER over anything but a plain variable")
    var = _read_variable(sc)
    if wrapped:
        _expect(sc, ")")
    _expect(sc, ",")
    sc.skip_space()
    if sc.peek() not in ('"', "'"):
        raise sc.error("FILTER needs a string pattern")
    pattern = sc.read_string()
    sc.skip_space()
    if sc.peek() == ",":
        raise UnsupportedFeature("FILTER flags argument")
    sc.expect(")")
    if kind == "REGEX":
        try:
            re.compile(pattern)
        except re.error as exc:
            raise BadRegex(f"cannot compile {pattern!r}: {exc}")
    return Filter(kind.lower(), var, pattern)


def parse_select(text: str) -> ParsedQuery:
    """Parse a SELECT query in the supported subset.

    Raises ParseError for malformed text, UnknownPrefix for undeclared
    prefixes, UnsupportedFeature for SPARQL outside the subset, and
    BadRegex when a FILTER REGEX pattern does not compile.  The text is
    read once, front to back, so a text with several faults reports the
    first.  The readers take their state as arguments, so a parse leaves
    no reference cycle for the collector to free.
    """
    sc = Scanner(text)
    prefixes: dict[str, str] = {}
    while True:
        sc.skip_space()
        keyword = _read_keyword(sc, ("PREFIX", "BASE", "SELECT", "ASK", "CONSTRUCT", "DESCRIBE"))
        if keyword != "PREFIX":
            break
        sc.skip_space()
        pos = sc.pos
        label = _read_name(sc)
        if not label.endswith(":"):
            raise sc.error("expected a prefix label ending in ':'", pos)
        sc.skip_space()
        if sc.peek() != "<":
            raise sc.error("expected an IRI after the prefix label")
        prefixes[label[:-1]] = sc.read_iriref()
    if keyword != "SELECT":
        if keyword:
            raise UnsupportedFeature(keyword)
        raise sc.error("expected SELECT")

    sc.skip_space()
    keyword = _read_keyword(sc, ("DISTINCT", "REDUCED"))
    if keyword == "REDUCED":
        raise UnsupportedFeature("REDUCED")
    distinct = keyword == "DISTINCT"
    projected: list[Variable] = []
    sc.skip_space()
    select_star = sc.peek() == "*"
    if select_star:
        sc.pos += 1
    else:
        while sc.peek() in ("?", "$"):
            projected.append(_read_variable(sc))
            sc.skip_space()
        if sc.peek() == "(":
            raise UnsupportedFeature("expressions in the projection")
        if not projected:
            raise sc.error("SELECT needs variables or *")
    sc.skip_space()
    _read_keyword(sc, ("WHERE",))
    _expect(sc, "{")

    read_term = partial(_read_pattern_term, sc, {}, prefixes)
    patterns: list[TriplePattern] = []
    filters: list[Filter] = []
    next_group = 0
    while True:
        sc.skip_space()
        ch = sc.peek()
        if ch == "}":
            break
        if not ch:
            raise sc.error("unterminated group")
        if ch == "{":
            raise UnsupportedFeature("nested groups")
        keyword = _read_keyword(sc, _GROUP_KEYWORDS)
        if keyword == "OPTIONAL":
            _read_optional(sc, read_term, patterns, next_group)
            next_group += 1
        elif keyword == "FILTER":
            filters.append(_read_filter(sc))
        elif keyword:
            raise UnsupportedFeature(_UNSUPPORTED_IN_GROUP[keyword])
        else:
            _read_statement(sc, read_term, patterns, None)
    closing = sc.pos
    sc.pos += 1

    sc.skip_space()
    if not sc.at_end():
        keyword = _read_keyword(sc, _UNSUPPORTED_TRAILERS)
        if keyword:
            raise UnsupportedFeature(_UNSUPPORTED_TRAILERS[keyword])
        raise sc.error("trailing content after the query")

    if not patterns:
        raise sc.error("query has no triple patterns", closing)

    bound = {v for p in patterns for v in p.variables()}
    for f in filters:
        if f.var not in bound:
            raise sc.error(f"FILTER variable ?{f.var.name} never appears in a pattern")

    required_vars = {v for p in patterns if p.required for v in p.variables()}
    group_vars: dict[int, set[Variable]] = defaultdict(set)
    for p in patterns:
        if p.optional_group is not None:
            group_vars[p.optional_group].update(p.variables())
    groups = sorted(group_vars)
    for i, g1 in enumerate(groups):
        for g2 in groups[i + 1 :]:
            shared = (group_vars[g1] & group_vars[g2]) - required_vars
            if shared:
                some = sorted(v.name for v in shared)[0]
                raise UnsupportedFeature(
                    f"OPTIONAL groups sharing variable ?{some} not bound by the required part"
                )

    return ParsedQuery(
        projected=tuple(projected),
        distinct=distinct,
        patterns=tuple(patterns),
        filters=tuple(filters),
        select_star=select_star,
    )


def format_query(query: ParsedQuery) -> str:
    """Render a parsed query back to SPARQL text with all IRIs spelt out."""
    lines = []
    head = "SELECT DISTINCT" if query.distinct else "SELECT"
    if query.select_star:
        vars_text = "*"
    else:
        vars_text = " ".join(v.n3() for v in (query.projected or query.all_variables()))
    lines.append(f"{head} {vars_text}")
    lines.append("WHERE {")
    for p in query.patterns:
        if p.required:
            lines.append(f"  {p.subject.n3()} {p.predicate.n3()} {p.object.n3()} .")
    emitted: set[int] = set()
    for p in query.patterns:
        g = p.optional_group
        if g is None or g in emitted:
            continue
        emitted.add(g)
        lines.append("  OPTIONAL {")
        for member in query.patterns:
            if member.optional_group == g:
                lines.append(
                    f"    {member.subject.n3()} {member.predicate.n3()} {member.object.n3()} ."
                )
        lines.append("  }")
    for f in query.filters:
        fn = f.kind.upper()
        lines.append(f'  FILTER {fn}({f.var.n3()}, "{escape_string(f.pattern)}")')
    lines.append("}")
    return "\n".join(lines)


class TripleIndex:
    """Positional lookup over the distinct triples of a quad set.

    Each triple carries a key stamp: an int whose bit k is set when the
    triple holds at key k.  A plain quad set is the one-key case, every
    stamp 1; a mapping from quads to stamps gives each triple the union
    of the stamps of the quads that hold it, so a triple held in two
    graphs holds wherever either quad does.
    """

    def __init__(self, data: Iterable[Quad] | Mapping[Quad, int]):
        items = data.items() if isinstance(data, Mapping) else ((q, 1) for q in data)
        stamps: dict[Triple, int] = {}
        for q, stamp in items:
            t = q.triple
            stamps[t] = stamps.get(t, 0) | stamp
        self.stamps = stamps
        self.by_subject: dict[Term, list[Triple]] = defaultdict(list)
        self.by_object: dict[Term, list[Triple]] = defaultdict(list)
        self.by_predicate: dict[Term, list[Triple]] = defaultdict(list)
        for t in stamps:
            self.by_subject[t.subject].append(t)
            self.by_object[t.object].append(t)
            self.by_predicate[t.predicate].append(t)

    def candidates(self, s: Term | None, p: Term | None, o: Term | None) -> Iterable[Triple]:
        if s is not None:
            return self.by_subject.get(s, ())
        if o is not None:
            return self.by_object.get(o, ())
        if p is not None:
            return self.by_predicate.get(p, ())
        return self.stamps


def match_pattern(
    pattern: TriplePattern,
    binding: Mapping[Variable, Term],
    index: TripleIndex,
) -> Iterator[tuple[dict[Variable, Term], int]]:
    """All extensions of `binding` that satisfy `pattern` over `index`,
    each with the key stamp of the triple it matched."""

    def resolved(term: PatternTerm) -> Term | None:
        if isinstance(term, Variable):
            return binding.get(term)
        return term

    s, p, o = resolved(pattern.subject), resolved(pattern.predicate), resolved(pattern.object)
    for t in index.candidates(s, p, o):
        new = dict(binding)
        ok = True
        for position, actual in ((pattern.subject, t.subject),
                                 (pattern.predicate, t.predicate),
                                 (pattern.object, t.object)):
            if isinstance(position, Variable):
                bound = new.get(position)
                if bound is None:
                    new[position] = actual
                elif bound != actual:
                    ok = False
                    break
            elif position != actual:
                ok = False
                break
        if ok:
            yield new, index.stamps[t]


def readable_by(patterns: Iterable[TriplePattern]) -> Callable[[Quad], bool]:
    """A test that holds for every quad some pattern could match.

    Variables count as wildcards, so a repeated variable does not
    narrow; graph names never take part.  BGP, OPTIONAL and FILTER read
    only such quads, so evaluating over the quads that pass gives the
    answer evaluating over all of them would.
    """
    shapes = tuple({
        tuple(None if isinstance(t, Variable) else t
              for t in (p.subject, p.predicate, p.object))
        for p in patterns
    })

    def reads(q: Quad) -> bool:
        t = q.triple
        for s, p, o in shapes:
            if ((p is None or p == t.predicate)
                    and (o is None or o == t.object)
                    and (s is None or s == t.subject)):
                return True
        return False

    return reads


def _filter_ok(f: Filter, row: Mapping[Variable, Term]) -> bool:
    term = row.get(f.var)
    if term is None or not term.is_literal:
        return False
    if f.kind == "contains":
        return f.pattern in term.value
    try:
        compiled = re.compile(f.pattern)
    except re.error as exc:
        raise BadRegex(f"cannot compile {f.pattern!r}: {exc}")
    return compiled.search(term.value) is not None


def evaluate(
    query: ParsedQuery,
    data: Iterable[Quad] | Mapping[Quad, int],
    keys: int | None = None,
) -> SolutionSet | list[SolutionSet]:
    """Evaluate a parsed query over the union of all graphs in `data`.

    Without `keys`, `data` is a quad set and the answer one SolutionSet.
    With `keys`, `data` maps each quad to its key stamp (bit k set when
    the quad holds at key k) and the answer is one SolutionSet per key,
    from a single evaluation: every row carries the stamp of the keys
    at which it holds.  A join ANDs the stamps of what it joins and
    drops a row whose stamp is 0; an OPTIONAL group keeps the
    unextended row at the keys where no extension holds; FILTER does not
    depend on the key.  Projection and DISTINCT are then applied key by
    key, and a key at which no row starts or stops holding shares the
    previous key's SolutionSet object.
    """
    width = 1 if keys is None else keys
    index = TripleIndex(data)
    rows: list[tuple[dict[Variable, Term], int]] = [({}, (1 << width) - 1)]
    for pattern in query.patterns:
        if not pattern.required:
            continue
        rows = [
            (ext, live)
            for row, stamp in rows
            for ext, held in match_pattern(pattern, row, index)
            if (live := stamp & held)
        ]
        if not rows:
            break

    groups = sorted({p.optional_group for p in query.patterns if p.optional_group is not None})
    for g in groups:
        members = [p for p in query.patterns if p.optional_group == g]
        joined: list[tuple[dict[Variable, Term], int]] = []
        for row, stamp in rows:
            exts = [(row, stamp)]
            for pattern in members:
                exts = [
                    (e2, live)
                    for e, s in exts
                    for e2, held in match_pattern(pattern, e, index)
                    if (live := s & held)
                ]
            extended = 0
            for _ext, s in exts:
                extended |= s
            joined.extend(exts)
            if stamp & ~extended:
                joined.append((row, stamp & ~extended))
        rows = joined

    if query.filters:
        rows = [(row, s) for row, s in rows if all(_filter_ok(f, row) for f in query.filters)]

    projected = query.projected or query.all_variables()
    out = [
        (Binding.from_dict({v.name: row[v] for v in projected if v in row}), s)
        for row, s in rows
    ]
    # bit k of s ^ (s << 1) is set where the row starts or stops holding
    changes = 1
    for _b, s in out:
        changes |= s ^ (s << 1)
    answers: list[SolutionSet] = []
    for k in range(width):
        if changes >> k & 1:
            live_rows = [b for b, s in out if s >> k & 1]
            if query.distinct:
                live_rows = list(dict.fromkeys(live_rows))
            answer = SolutionSet(tuple(live_rows))
        answers.append(answer)
    return answers[0] if keys is None else answers


def _read_update_term(
    sc: Scanner, terms: TermTable, blank_scope: str | None, position: str
) -> Term:
    """One subject, predicate or object term of a ground update."""
    ch = sc.peek()
    pos = sc.pos
    if ch and ch in "?$":
        raise VariableInDelta(f"variable in update text at offset {pos}")
    if ch == "<":
        return read_iri_term(sc, terms, "relative IRI {!r} in update text")
    if ch == "_" and sc.peek(1) == ":":
        label = sc.read_blank_label()
        if blank_scope:
            label = f"{blank_scope}_{label}"
        return Term("blank", label)
    if ch and ch in "\"'":
        if position != "object":
            raise sc.error(f"literal in {position} position")
        value = sc.read_string()
        if sc.peek() == "@":
            key = (value, None, sc.read_langtag())
        elif sc.peek() == "^" and sc.peek(1) == "^":
            sc.pos += 2
            sc.skip_space()
            if sc.peek() != "<":
                word = sc.read_word()
                if ":" in word:
                    raise PrefixInDelta(f"prefixed datatype {word!r} in update text")
                raise sc.error("expected a datatype IRI")
            dt = read_iri_term(sc, terms, "relative datatype IRI {!r}").value
            key = (value, dt, None)
        else:
            key = (value, XSD_STRING, None)
    elif ch.isdigit() or (ch in "+-" and sc.peek(1).isdigit()):
        if position != "object":
            raise sc.error(f"numeric literal in {position} position")
        key = read_number(sc)
    else:
        word = sc.read_word()
        if word == "a" and position == "predicate":
            key = RDF_TYPE
        elif word in ("true", "false") and position == "object":
            key = (word, XSD_BOOLEAN, None)
        elif ":" in word:
            raise PrefixInDelta(f"prefixed name {word!r} in update text")
        else:
            raise sc.error(_EXPECTED_TERM[position] + (f", found {word!r}" if word else ""))
    return terms.get(key) or intern_term(terms, key)


def _read_update_block(
    sc: Scanner, terms: TermTable, blank_scope: str | None, target: list[Quad]
) -> None:
    """The triples of one DATA block up to its closing brace, left unread.

    Statements are read by read_triples, so a block takes SPARQL's ','
    and ';' lists, and the '.' after a statement is optional.  GRAPH
    groups cannot nest, so the one group open at a time is the only
    state the loop keeps; add reads it when each triple is read.
    """
    graph: str | None = None
    read_term = partial(_read_update_term, sc, terms, blank_scope)

    def add(s: Term, p: Term, o: Term) -> None:
        target.append(Quad(Triple(s, p, o), graph))

    while True:
        sc.skip_space()
        if sc.peek() == "}":
            if graph is None:
                return
            sc.pos += 1
            graph = None
            continue
        if sc.at_end():
            raise sc.error("unterminated block in update text")
        mark = sc.pos
        if sc.peek().isalpha():
            word = sc.read_word()
            if word.upper() == "GRAPH":
                if graph is not None:
                    raise sc.error("nested GRAPH in update text")
                sc.skip_space()
                if sc.peek() and sc.peek() in "?$":
                    raise VariableInDelta("variable graph name in update text")
                if sc.peek() != "<":
                    inner = sc.read_word()
                    if ":" in inner:
                        raise PrefixInDelta(f"prefixed graph name {inner!r}")
                    raise sc.error("expected a graph IRI")
                graph = read_iri_term(sc, terms, "relative graph IRI {!r}").value
                sc.skip_space()
                sc.expect("{")
                continue
            sc.pos = mark
        read_triples(sc, read_term, add)
        if sc.peek() == ".":
            sc.pos += 1


def parse_update(
    text: str, blank_scope: str | None = None, terms: TermTable | None = None
) -> Delta:
    """Parse a ground update string into a delta.

    Only DELETE DATA and INSERT DATA blocks are accepted, separated by
    semicolons, each holding triples in the default graph or inside
    GRAPH <iri> groups.  Variables raise VariableInDelta and prefixed
    names (or a PREFIX prologue) raise PrefixInDelta, because stored
    update strings must stay self-contained.  blank_scope, when given,
    prefixes blank node labels so that labels from different snapshots
    never collide.

    terms is the table of terms already read (see TermTable and
    intern_term): updates parsed with one table share one object per IRI
    or literal, each checked once.  A token that fails its check is not
    entered, so a failed parse leaves the table usable.  Blank nodes are
    never entered.  Without a table, terms are shared within this update.
    The readers take their state as arguments, so a parse leaves no
    reference cycle for the collector to free.
    """
    sc = Scanner(text)
    deletes: list[Quad] = []
    inserts: list[Quad] = []
    terms = {} if terms is None else terms
    while True:
        sc.skip_space()
        if sc.at_end():
            break
        mark = sc.pos
        word = sc.read_word()
        upper = word.upper()
        if upper in ("PREFIX", "BASE"):
            raise PrefixInDelta(f"{upper} prologue in update text")
        if upper not in ("DELETE", "INSERT"):
            raise sc.error(f"expected DELETE or INSERT, found {word!r}", mark)
        sc.skip_space()
        data_mark = sc.pos
        data_word = sc.read_word()
        if data_word.upper() != "DATA":
            raise sc.error(
                "only DELETE DATA and INSERT DATA are supported in update text", data_mark
            )
        sc.skip_space()
        sc.expect("{")
        _read_update_block(sc, terms, blank_scope, deletes if upper == "DELETE" else inserts)
        sc.expect("}")
        sc.skip_space()
        if sc.peek() == ";":
            sc.pos += 1

    return Delta(tuple(deletes), tuple(inserts), text)
