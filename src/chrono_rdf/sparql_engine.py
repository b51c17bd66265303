"""A small SPARQL engine for the query shapes the time engine needs.

Two dialects live here.  parse_select reads SELECT queries restricted to
basic graph patterns, non-nested OPTIONAL groups, and FILTER REGEX or
CONTAINS over one variable; anything else raises UnsupportedFeature so
callers can tell "outside the subset" apart from "malformed".
parse_update reads ground update strings, the DELETE DATA / INSERT DATA
form that snapshot provenance carries.  Their triples are read by
rdf_model.read_triples, the statement reader Turtle uses, so ',' and ';'
lists read as they do in Turtle.  Updates must spell every IRI out and
contain no variables; PrefixInDelta and VariableInDelta police that.

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
    ParseError,
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
    TermKey,
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


_PUNCT_SINGLE = set("{}().;,*=/^|+")


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str
    value: object
    pos: int


def _tokenize(text: str) -> tuple[list[_Tok], Scanner]:
    sc = Scanner(text)
    toks: list[_Tok] = []
    while True:
        sc.skip_space()
        pos = sc.pos
        if sc.at_end():
            toks.append(_Tok("eof", "", pos))
            return toks, sc
        ch = sc.peek()
        if ch == "<":
            toks.append(_Tok("iri", sc.read_iriref(), pos))
        elif ch in "?$":
            sc.pos += 1
            name = sc.read_word()
            if not name:
                raise sc.error("empty variable name")
            toks.append(_Tok("var", name, pos))
        elif ch in "\"'":
            toks.append(_Tok("string", sc.read_string(), pos))
        elif ch == "@":
            toks.append(_Tok("langtag", sc.read_langtag(), pos))
        elif ch == "^" and sc.peek(1) == "^":
            sc.pos += 2
            toks.append(_Tok("punct", "^^", pos))
        elif ch == "_" and sc.peek(1) == ":":
            toks.append(_Tok("blank", sc.read_blank_label(), pos))
        elif ch.isdigit() or (ch in "+-" and sc.peek(1).isdigit()):
            toks.append(_Tok("number", read_number(sc), pos))
        elif ch in _PUNCT_SINGLE:
            sc.pos += 1
            toks.append(_Tok("punct", ch, pos))
        else:
            word = sc.read_word()
            if not word:
                raise sc.error(f"unexpected character {ch!r}")
            kind = "pname" if ":" in word else "word"
            toks.append(_Tok(kind, word, pos))


class _TokenStream:
    def __init__(self, text: str):
        self.toks, self.sc = _tokenize(text)
        self.k = 0

    @property
    def cur(self) -> _Tok:
        return self.toks[self.k]

    def advance(self) -> _Tok:
        tok = self.toks[self.k]
        if tok.kind != "eof":
            self.k += 1
        return tok

    def error(self, message: str, tok: _Tok | None = None) -> ParseError:
        tok = tok or self.cur
        return self.sc.error(message, tok.pos)

    def at_word(self, *words: str) -> bool:
        return self.cur.kind == "word" and str(self.cur.value).upper() in words

    def expect_word(self, word: str) -> None:
        if not self.at_word(word):
            raise self.error(f"expected {word}")
        self.advance()

    def at_punct(self, value: str) -> bool:
        return self.cur.kind == "punct" and self.cur.value == value

    def expect_punct(self, value: str) -> None:
        if not self.at_punct(value):
            raise self.error(f"expected {value!r}")
        self.advance()


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

_UNSUPPORTED_TRAILERS = {
    "ORDER": "ORDER BY",
    "GROUP": "GROUP BY",
    "HAVING": "HAVING",
    "LIMIT": "LIMIT",
    "OFFSET": "OFFSET",
}


def parse_select(text: str) -> ParsedQuery:
    """Parse a SELECT query in the supported subset.

    Raises ParseError for malformed text, UnknownPrefix for undeclared
    prefixes, UnsupportedFeature for SPARQL outside the subset, and
    BadRegex when a FILTER REGEX pattern does not compile.
    """
    ts = _TokenStream(text)
    prefixes: dict[str, str] = {}

    while ts.at_word("PREFIX", "BASE"):
        if ts.at_word("BASE"):
            raise UnsupportedFeature("BASE")
        ts.advance()
        tok = ts.advance()
        if tok.kind != "pname" or not str(tok.value).endswith(":"):
            raise ts.error("expected a prefix label ending in ':'", tok)
        iri_tok = ts.advance()
        if iri_tok.kind != "iri":
            raise ts.error("expected an IRI after the prefix label", iri_tok)
        prefixes[str(tok.value)[:-1]] = str(iri_tok.value)

    if ts.at_word("ASK", "CONSTRUCT", "DESCRIBE"):
        raise UnsupportedFeature(str(ts.cur.value).upper())
    ts.expect_word("SELECT")
    distinct = False
    if ts.at_word("DISTINCT"):
        distinct = True
        ts.advance()
    elif ts.at_word("REDUCED"):
        raise UnsupportedFeature("REDUCED")

    projected: list[Variable] = []
    select_star = False
    if ts.at_punct("*"):
        select_star = True
        ts.advance()
    else:
        while ts.cur.kind == "var":
            projected.append(Variable(str(ts.advance().value)))
        if ts.at_punct("("):
            raise UnsupportedFeature("expressions in the projection")
        if not projected:
            raise ts.error("SELECT needs variables or *")

    if ts.at_word("WHERE"):
        ts.advance()
    ts.expect_punct("{")

    terms: TermTable = {}

    def resolve_term(tok: _Tok) -> Term:
        if tok.kind == "iri":
            value = str(tok.value)
        elif tok.kind == "pname":
            prefix, _, local = str(tok.value).partition(":")
            if prefix not in prefixes:
                line, column = ts.sc.location(tok.pos)
                raise UnknownPrefix(prefix, line, column)
            value = prefixes[prefix] + local
        else:
            raise ts.error("expected an IRI", tok)
        try:
            return intern_term(terms, value)
        except ValueError:
            raise ts.error(f"relative IRI {value!r}; queries have no base", tok) from None

    def read_pattern_term(position: str) -> PatternTerm:
        tok = ts.cur
        if tok.kind == "var":
            ts.advance()
            return Variable(str(tok.value))
        if tok.kind == "blank":
            raise UnsupportedFeature("blank nodes in patterns")
        if tok.kind in ("iri", "pname"):
            ts.advance()
            term = resolve_term(tok)
            if ts.cur.kind == "punct" and ts.cur.value in ("/", "^", "|", "+"):
                raise UnsupportedFeature("property paths")
            return term
        if position == "object":
            if tok.kind == "string":
                ts.advance()
                return intern_term(terms, _query_literal_key(ts, str(tok.value), resolve_term))
            if tok.kind == "number":
                ts.advance()
                return intern_term(terms, tok.value)
            if tok.kind == "word" and str(tok.value) in ("true", "false"):
                ts.advance()
                return intern_term(terms, (str(tok.value), XSD_BOOLEAN, None))
        if position == "predicate" and tok.kind == "word" and tok.value == "a":
            ts.advance()
            return intern_term(terms, RDF_TYPE)
        if tok.kind == "punct" and tok.value in ("/", "^", "|", "+"):
            raise UnsupportedFeature("property paths")
        raise ts.error(f"expected a {position} term", tok)

    patterns: list[TriplePattern] = []
    filters: list[Filter] = []
    next_group = 0

    def read_triple(group: int | None) -> None:
        subject = read_pattern_term("subject")
        if isinstance(subject, Term) and subject.is_literal:
            raise ts.error("literal in subject position")
        while True:
            predicate = read_pattern_term("predicate")
            while True:
                obj = read_pattern_term("object")
                patterns.append(TriplePattern(subject, predicate, obj, group))
                if ts.at_punct(","):
                    ts.advance()
                    continue
                break
            if ts.at_punct(";"):
                while ts.at_punct(";"):
                    ts.advance()
                if ts.at_punct(".") or ts.at_punct("}"):
                    break
                continue
            break
        if ts.at_punct("."):
            ts.advance()

    def read_filter() -> None:
        kind_tok = ts.advance()
        kind = str(kind_tok.value).upper()
        if kind_tok.kind == "punct" or kind not in ("REGEX", "CONTAINS"):
            raise UnsupportedFeature(f"FILTER {kind_tok.value}")
        ts.expect_punct("(")
        wrapped = False
        if ts.at_word("STR"):
            ts.advance()
            ts.expect_punct("(")
            wrapped = True
        var_tok = ts.advance()
        if var_tok.kind != "var":
            raise UnsupportedFeature("FILTER over anything but a plain variable")
        if wrapped:
            ts.expect_punct(")")
        ts.expect_punct(",")
        pat_tok = ts.advance()
        if pat_tok.kind != "string":
            raise ts.error("FILTER needs a string pattern", pat_tok)
        if ts.at_punct(","):
            raise UnsupportedFeature("FILTER flags argument")
        ts.expect_punct(")")
        pattern = str(pat_tok.value)
        if kind == "REGEX":
            try:
                re.compile(pattern)
            except re.error as exc:
                raise BadRegex(f"cannot compile {pattern!r}: {exc}")
        filters.append(Filter(kind.lower(), Variable(str(var_tok.value)), pattern))

    while not ts.at_punct("}"):
        tok = ts.cur
        if tok.kind == "eof":
            raise ts.error("unterminated group")
        if tok.kind == "word":
            upper = str(tok.value).upper()
            if upper == "OPTIONAL":
                ts.advance()
                ts.expect_punct("{")
                group = next_group
                next_group += 1
                while not ts.at_punct("}"):
                    if ts.cur.kind == "eof":
                        raise ts.error("unterminated OPTIONAL group")
                    if ts.cur.kind == "word":
                        inner = str(ts.cur.value).upper()
                        if inner == "OPTIONAL":
                            raise UnsupportedFeature("nested OPTIONAL")
                        if inner == "FILTER":
                            raise UnsupportedFeature("FILTER inside OPTIONAL")
                        if inner in _UNSUPPORTED_IN_GROUP:
                            raise UnsupportedFeature(_UNSUPPORTED_IN_GROUP[inner])
                    read_triple(group)
                ts.advance()
                if not any(p.optional_group == group for p in patterns):
                    raise ts.error("empty OPTIONAL group")
                continue
            if upper == "FILTER":
                ts.advance()
                read_filter()
                continue
            if upper in _UNSUPPORTED_IN_GROUP:
                raise UnsupportedFeature(_UNSUPPORTED_IN_GROUP[upper])
        if tok.kind == "punct" and tok.value == "{":
            raise UnsupportedFeature("nested groups")
        read_triple(None)
    ts.advance()

    if ts.cur.kind == "word":
        upper = str(ts.cur.value).upper()
        if upper in _UNSUPPORTED_TRAILERS:
            raise UnsupportedFeature(_UNSUPPORTED_TRAILERS[upper])
    if ts.cur.kind != "eof":
        raise ts.error("trailing content after the query")

    if not patterns:
        raise ParseError("query has no triple patterns")

    bound = {v for p in patterns for v in p.variables()}
    for f in filters:
        if f.var not in bound:
            raise ts.error(f"FILTER variable ?{f.var.name} never appears in a pattern")

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


def _query_literal_key(ts: _TokenStream, value: str, resolve_term) -> TermKey:
    """The TermTable key of the literal whose string token was just read."""
    if ts.cur.kind == "langtag":
        return value, None, str(ts.advance().value)
    if ts.at_punct("^^"):
        ts.advance()
        dt_tok = ts.advance()
        return value, resolve_term(dt_tok).value, None
    return value, XSD_STRING, None


def format_query(query: ParsedQuery) -> str:
    """Render a parsed query back to SPARQL text with all IRIs spelt out."""

    def term_text(t: PatternTerm) -> str:
        return t.n3()

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
            lines.append(f"  {term_text(p.subject)} {term_text(p.predicate)} {term_text(p.object)} .")
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
                    f"    {term_text(member.subject)} {term_text(member.predicate)}"
                    f" {term_text(member.object)} ."
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
            raise sc.error(
                f"expected a {position} term" + (f", found {word!r}" if word else "")
            )
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
