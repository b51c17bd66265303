"""Immutable RDF terms, statements, and their readers and writers.

The engine treats a dataset as a frozenset of quads.  Graph names matter
for storage and for ground updates, while query matching later ignores
them, so the quad keeps its graph as a plain IRI string next to the
triple.  Literals compare lexically: two literals are the same term only
when their lexical form, datatype, and language tag all agree.  A plain
literal is normalised to xsd:string at construction so that "abc" written
with and without the datatype is one term, which mirrors RDF 1.1.

A quad is hashed once, when it is built, and keeps that hash in a slot:
history walks meet every quad in sets and dicts again and again, and the
generated hash of a quad hashes its triple and three terms each time.
Term and Triple keep the generated hash.  Storing it on them too costs
more memory than it saves time (about 5.5 MB more program peak RSS on
the benchmark's ready context), and most of their hashing came from
re-hashing quads.

Every reader interns its terms through a TermTable (intern_term): a
term is built, and so checked, only the first time its token is read,
and the reader turns the Term's ValueError into a ParseError there.

Turtle and the ground updates of sparql_engine share one statement
reader, read_triples: a subject and its predicate-object list, with ','
between objects and ';' between predicates.  Each format passes its own
term reader, which holds what the formats do not share: Turtle's
prefixes and base, an update's refusal of variables and prefixed names.
N-Quads has no lists and keeps its own flat reader.

Serialisation is canonical N-Quads: one statement per line, lines sorted
bytewise, UTF-8 with a trailing newline on every line.  Two equal graph
sets therefore serialise to identical bytes, which the command line
output relies on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterable
from urllib.parse import urljoin

from .errors import ParseError, UnknownPrefix

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"
XSD_DATETIME = XSD + "dateTime"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_LANGTAG = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")


def is_absolute_iri(value: str) -> bool:
    return bool(_SCHEME.match(value))


@dataclass(frozen=True, slots=True)
class Term:
    """One RDF term: an IRI, a literal, or a blank node.

    kind is "iri", "literal", or "blank".  value holds the IRI, the
    lexical form, or the blank node label.  datatype and language only
    apply to literals and are mutually exclusive.
    """

    kind: str
    value: str
    datatype: str | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.kind == "literal":
            if self.language is not None:
                if self.datatype is not None:
                    raise ValueError("literal cannot carry both datatype and language")
                if not _LANGTAG.match(self.language):
                    raise ValueError(f"malformed language tag {self.language!r}")
            elif self.datatype is None:
                object.__setattr__(self, "datatype", XSD_STRING)
        elif self.kind == "iri":
            if self.datatype is not None or self.language is not None:
                raise ValueError("datatype and language apply to literals only")
            if not is_absolute_iri(self.value):
                raise ValueError(f"IRI is not absolute: {self.value!r}")
        elif self.kind == "blank":
            if self.datatype is not None or self.language is not None:
                raise ValueError("datatype and language apply to literals only")
            if not self.value:
                raise ValueError("blank node label must be non-empty")
        else:
            raise ValueError(f"unknown term kind {self.kind!r}")

    @property
    def is_iri(self) -> bool:
        return self.kind == "iri"

    @property
    def is_literal(self) -> bool:
        return self.kind == "literal"

    @property
    def is_blank(self) -> bool:
        return self.kind == "blank"

    def n3(self) -> str:
        """Render the term in N-Triples syntax.

        The xsd:string datatype stays implicit, so the rendering is
        canonical for equal terms.
        """
        if self.kind == "iri":
            return f"<{escape_iri(self.value)}>"
        if self.kind == "blank":
            return f"_:{self.value}"
        body = f'"{escape_string(self.value)}"'
        if self.language is not None:
            return f"{body}@{self.language}"
        if self.datatype != XSD_STRING:
            return f"{body}^^<{escape_iri(self.datatype)}>"
        return body


def iri(value: str) -> Term:
    return Term("iri", value)


def literal(value: str, datatype: str | None = None, language: str | None = None) -> Term:
    return Term("literal", value, datatype, language)


def blank(label: str) -> Term:
    return Term("blank", label)


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if self.subject.is_literal:
            raise ValueError("triple subject cannot be a literal")
        if not self.predicate.is_iri:
            raise ValueError("triple predicate must be an IRI")


@dataclass(frozen=True, slots=True)
class Quad:
    """A triple plus an optional graph IRI; None means the default graph.

    The hash is computed once, at construction, and stored in _hash; it
    takes no part in equality or repr.  A pickled quad is rebuilt through
    the constructor, so its hash follows the string hashing of the
    process that loads it.  Its Triple and Terms store no hash: doing so
    added about 5.5 MB of peak RSS on the benchmark's ready context.
    """

    triple: Triple
    graph: str | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.graph is not None and not is_absolute_iri(self.graph):
            raise ValueError(f"graph name is not an absolute IRI: {self.graph!r}")
        object.__setattr__(self, "_hash", hash((self.triple, self.graph)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return Quad, (self.triple, self.graph)

    @property
    def subject(self) -> Term:
        return self.triple.subject

    @property
    def predicate(self) -> Term:
        return self.triple.predicate

    @property
    def object(self) -> Term:
        return self.triple.object


GraphSet = frozenset[Quad]
EMPTY_GRAPH: GraphSet = frozenset()

# Terms already read, keyed by token: an IRI string to its Term, and
# (lexical form, datatype, language) to a literal Term, where a plain
# literal's datatype is XSD_STRING.  The keyword `a` reads the entry of
# RDF_TYPE, and a graph name is the value of its IRI's entry.
TermKey = str | tuple[str, str | None, str | None]
TermTable = dict[TermKey, Term]


def intern_term(terms: TermTable, key: TermKey) -> Term:
    """The term of key in terms, built and entered on a miss.

    A hot reader writes `terms.get(key) or intern_term(terms, key)`, so a
    hit costs one dict lookup.  A malformed token raises ValueError from
    the Term's constructor, its one check, and is not entered.
    """
    term = terms.get(key)
    if term is None:
        term = terms[key] = Term("iri", key) if isinstance(key, str) else Term("literal", *key)
    return term


def quad(s: Term, p: Term, o: Term, graph: str | None = None) -> Quad:
    return Quad(Triple(s, p, o), graph)


_STRING_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}


_STRING_UNSAFE = re.compile(r'[\x00-\x1f"\\]')
_IRI_UNSAFE = re.compile(r'[\x00-\x20<>"{}|^`\\]')


def _escape_string_char(m: re.Match) -> str:
    ch = m.group()
    return _STRING_ESCAPES.get(ch, f"\\u{ord(ch):04X}")


def escape_string(value: str) -> str:
    if _STRING_UNSAFE.search(value) is None:
        return value
    return _STRING_UNSAFE.sub(_escape_string_char, value)


def escape_iri(value: str) -> str:
    if _IRI_UNSAFE.search(value) is None:
        return value
    return _IRI_UNSAFE.sub(lambda m: f"\\u{ord(m.group()):04X}", value)


def quad_line(q: Quad) -> str:
    parts = [q.subject.n3(), q.predicate.n3(), q.object.n3()]
    if q.graph is not None:
        parts.append(f"<{escape_iri(q.graph)}>")
    return " ".join(parts) + " ."


def serialize(graphs: Iterable[Quad]) -> str:
    """Canonical N-Quads text for a set of quads.

    Lines are sorted by code point, which equals bytewise order under
    UTF-8, and every line ends with a newline.
    """
    return "".join(line + "\n" for line in sorted(quad_line(q) for q in graphs))


def graph_diff(a: Iterable[Quad], b: Iterable[Quad]) -> tuple[GraphSet, GraphSet]:
    """Return (added, removed) between two graph sets, read as a -> b."""
    sa, sb = frozenset(a), frozenset(b)
    return sb - sa, sa - sb


# Token patterns of the Scanner.  A numeric escape must name a Unicode
# scalar value: at most U+10FFFF and no surrogate (D800-DFFF).
_HEX = "[0-9A-Fa-f]"
_HEX_RUN = re.compile(f"{_HEX}*")
_UCHAR = (
    rf"\\u(?![dD][89a-fA-F]){_HEX}{{4}}"
    rf"|\\U(?:0010|000[1-9A-Fa-f]|0000(?![dD][89a-fA-F])){_HEX}{{4}}"
)
_IRI_BODY = rf'[^ \t\n\r"{{}}|^`<>\\]*(?:(?:{_UCHAR})[^ \t\n\r"{{}}|^`<>\\]*)*'
_IRIREF = re.compile(rf"<({_IRI_BODY})>")
_IRI_PREFIX = re.compile(_IRI_BODY)
# any escape but a malformed \u or \U; an unknown one keeps its backslash
_STRING_ESCAPE = rf"\\[^uU]|{_UCHAR}"
_STRING_BODIES = {
    '"': rf'[^"\\\n\r]*(?:(?:{_STRING_ESCAPE})[^"\\\n\r]*)*',
    "'": rf"[^'\\\n\r]*(?:(?:{_STRING_ESCAPE})[^'\\\n\r]*)*",
    '"""': rf'[^"\\]*(?:(?:"(?!"")|{_STRING_ESCAPE})[^"\\]*)*',
    "'''": rf"[^'\\]*(?:(?:'(?!'')|{_STRING_ESCAPE})[^'\\]*)*",
}
_STRINGS = {
    opener: (re.compile(f"{opener}({body}){opener}"), re.compile(body))
    for opener, body in _STRING_BODIES.items()
}
_ESCAPE = re.compile(rf"\\(?:u({_HEX}{{4}})|U({_HEX}{{8}})|([\s\S]))")
_SIMPLE_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
                   '"': '"', "'": "'", "\\": "\\"}
_SPACE = re.compile(r"[ \t\r\n]*(?:#[^\n]*\n?[ \t\r\n]*)*")
_LANGTAG_TOKEN = re.compile(r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)(?![^\W_]|-)")
# a label or word never ends in a dot: trailing dots end the statement
_BLANK_LABEL = re.compile(r"_:([\w.\-]*[\w\-])")
_WORD = re.compile(r"(?:[\w%:.\-]*[\w%:\-])?")


def _decode_escape(m: re.Match) -> str:
    hex4, hex8, other = m.groups()
    if other is not None:
        # regex patterns like "\.$" travel inside strings, so an unknown
        # escape keeps its backslash instead of failing the document
        return _SIMPLE_ESCAPES.get(other, "\\" + other)
    return chr(int(hex4 or hex8, 16))


def _unescape(body: str) -> str:
    return _ESCAPE.sub(_decode_escape, body) if "\\" in body else body


class Scanner:
    """Token reader shared by every parser of the package.

    The N-Quads and Turtle readers, parse_update and the SPARQL tokenizer
    all read their tokens here.  Each reader matches its whole token with
    one anchored regular expression at pos and decodes escapes with one
    substitution, so valid input never reaches a loop over characters.
    When a match fails, the reader works out which character is at fault
    and raises a ParseError at its line and column.
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
        self.pos = _SPACE.match(self.text, self.pos).end()

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1

    def read_iriref(self) -> str:
        m = _IRIREF.match(self.text, self.pos)
        if m is None:
            raise self._iriref_error()
        self.pos = m.end()
        return _unescape(m.group(1))

    def _iriref_error(self) -> ParseError:
        start = self.pos
        self.expect("<")
        text = self.text
        pos = _IRI_PREFIX.match(text, self.pos).end()
        if pos >= len(text):
            return self.error("unterminated IRI", start)
        ch = text[pos]
        if ch != "\\":
            return self.error(f"character {ch!r} not allowed inside an IRI", pos)
        if text[pos + 1 : pos + 2] not in ("u", "U"):
            return self.error("only \\u and \\U escapes are allowed in IRIs", pos)
        return self._uchar_error(pos)

    def _uchar_error(self, pos: int) -> ParseError:
        """The error of the \\u or \\U escape at pos, which did not match."""
        width = 4 if self.text[pos + 1] == "u" else 8
        escape = self.text[pos : pos + 2 + width]
        if len(escape) < 2 + width or not _HEX_RUN.fullmatch(escape, 2):
            return self.error("malformed numeric escape", pos)
        return self.error(f"numeric escape {escape} is not a Unicode scalar value", pos)

    def read_string(self) -> str:
        text = self.text
        start = self.pos
        quote = text[start : start + 1]
        opener = quote * 3 if text.startswith(quote * 3, start) else quote
        forms = _STRINGS.get(opener)
        m = forms[0].match(text, start) if forms else None
        if m is None:
            raise self._string_error(start, opener)
        self.pos = m.end()
        return _unescape(m.group(1))

    def _string_error(self, start: int, opener: str) -> ParseError:
        text = self.text
        if opener not in _STRINGS:  # only the end of the text has no quote
            return self.error("unterminated string", start)
        pos = _STRINGS[opener][1].match(text, start + len(opener)).end()
        at_fault = text[pos : pos + 2]
        if at_fault in ("", "\\"):  # the text ends inside the string
            return self.error("unterminated string", start)
        if at_fault[0] == "\\":
            return self._uchar_error(pos)
        return self.error("newline inside single-line string", start)

    def read_langtag(self) -> str:
        m = _LANGTAG_TOKEN.match(self.text, self.pos)
        if m is None:
            self.expect("@")
            raise self.error("malformed language tag")
        self.pos = m.end()
        return m.group(1)

    def read_blank_label(self) -> str:
        m = _BLANK_LABEL.match(self.text, self.pos)
        if m is None:
            start = self.pos
            self.expect("_")
            self.expect(":")
            raise self.error("blank node label must be non-empty", start)
        self.pos = m.end()
        return m.group(1)

    def read_word(self) -> str:
        m = _WORD.match(self.text, self.pos)
        self.pos = m.end()
        return m.group()


def read_iri_term(sc: Scanner, terms: TermTable, relative: str) -> Term:
    """The interned term of the <IRI> at sc; relative is the message,
    formatted with the IRI, of the error just past a relative one."""
    value = sc.read_iriref()
    try:
        return terms.get(value) or intern_term(terms, value)
    except ValueError:
        raise sc.error(relative.format(value)) from None


_NUMBER = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")


def read_number(sc: Scanner) -> tuple[str, str, None]:
    """Read a numeric literal at sc and return its TermTable key."""
    m = _NUMBER.match(sc.text, sc.pos)
    if not m:
        raise sc.error("malformed numeric literal")
    lexical = m.group(0)
    sc.pos = m.end()
    if m.group(2):
        dt = XSD_DOUBLE
    elif "." in lexical:
        dt = XSD_DECIMAL
    else:
        dt = XSD_INTEGER
    return lexical, dt, None


def parse_nquads(text: str) -> GraphSet:
    """Parse N-Quads (N-Triples when no graph label is present).

    Prefixed names are not part of N-Quads and raise ParseError.  Graph
    labels must be IRIs because the quad model has no blank graph names.
    Terms are interned per document through one TermTable: each distinct
    IRI or literal is one Term, checked once, and each datatype and graph
    name the value of its IRI's Term, however often it occurs.
    """
    sc = Scanner(text)
    quads: set[Quad] = set()
    terms: TermTable = {}

    def read_literal() -> Term:
        value = sc.read_string()
        datatype, language = XSD_STRING, None
        if sc.peek() == "@":
            datatype, language = None, sc.read_langtag()
        elif sc.peek() == "^" and sc.peek(1) == "^":
            sc.pos += 2
            if sc.peek() != "<":
                raise sc.error("datatype must be a full IRI in N-Quads")
            datatype = read_iri_term(sc, terms, "relative IRI {!r} in N-Quads").value
        key = (value, datatype, language)
        return terms.get(key) or intern_term(terms, key)

    def read_term(position: str) -> Term:
        ch = sc.peek()
        if not ch:
            raise sc.error(f"statement ends before its {position}")
        if ch == "<":
            return read_iri_term(sc, terms, "relative IRI {!r} in N-Quads")
        if ch == "_":
            return Term("blank", sc.read_blank_label())
        if ch in "\"'" and position == "object":
            return read_literal()
        raise sc.error(f"unexpected character {ch!r} in N-Quads statement")

    while True:
        sc.skip_space()
        if sc.at_end():
            return frozenset(quads)
        s = read_term("subject")
        sc.skip_space()
        p = read_term("predicate")
        if not p.is_iri:
            raise sc.error("predicate must be an IRI")
        sc.skip_space()
        o = read_term("object")
        sc.skip_space()
        graph: str | None = None
        if sc.peek() == "<":
            graph = read_iri_term(sc, terms, "relative graph IRI {!r}").value
            sc.skip_space()
        elif sc.peek() == "_":
            raise sc.error("blank node graph labels are not supported")
        sc.expect(".")
        quads.add(Quad(Triple(s, p, o), graph))


def read_triples(
    sc: Scanner, read_term: Callable[[str], Term], add: Callable[[Term, Term, Term], None]
) -> None:
    """Read one subject and its predicate-object list at sc.

    This is the statement grammar Turtle and SPARQL share: ',' between
    objects, ';' between predicates, and a run of ';' that may end the
    list.  read_term(position) reads the "subject", "predicate" or
    "object" term at sc, and add takes each triple read.  The caller
    skips the space before the subject; the space after the list is
    skipped, and what ends the statement is left to the caller.
    """
    subject = read_term("subject")
    while True:
        sc.skip_space()
        predicate = read_term("predicate")
        if not predicate.is_iri:
            raise sc.error("predicate must be an IRI")
        while True:
            sc.skip_space()
            add(subject, predicate, read_term("object"))
            sc.skip_space()
            after = sc.peek()
            if after != ",":
                break
            sc.pos += 1
        if after != ";":
            return
        while sc.peek() == ";":
            sc.pos += 1
            sc.skip_space()
        if sc.peek() in ".}":  # or the text ended, where peek() is ""
            return


def parse_turtle(text: str) -> GraphSet:
    """Parse the Turtle subset used by snapshot documents.

    Supported: @prefix and @base (and their SPARQL spellings), the "a"
    keyword, predicate lists with ";", object lists with ",", typed and
    language-tagged literals in any quote form, numbers, booleans, and
    labelled blank nodes.  Collections, blank node property lists, and
    quoted triples are rejected.  All triples land in the default graph.
    Statements are read by read_triples; terms are interned per document
    through one TermTable.
    """
    sc = Scanner(text)
    prefixes: dict[str, str] = {}
    quads: set[Quad] = set()
    terms: TermTable = {}
    base = ""

    def resolve(raw: str, pos: int) -> str:
        if is_absolute_iri(raw):
            return raw
        joined = urljoin(base, raw)
        if not is_absolute_iri(joined):  # no base, or one such as urn:x that joins nothing
            why = f"does not resolve against <{base}>" if base else "with no base"
            raise sc.error(f"relative IRI {raw!r} {why}", pos)
        return joined

    def read_name(expected: str) -> str:
        """The IRI that the <IRI> or prefixed name at sc spells."""
        pos = sc.pos
        if sc.peek() == "<":
            if sc.peek(1) == "<":
                raise sc.error("quoted triples are not supported")
            return resolve(sc.read_iriref(), pos)
        word = sc.read_word()
        prefix, colon, local = word.partition(":")
        if not colon:
            raise sc.error(f"expected {expected}" + (f", found {word!r}" if word else ""))
        if prefix not in prefixes:
            raise UnknownPrefix(prefix, *sc.location(pos))
        return prefixes[prefix] + local

    def read_term(position: str) -> Term:
        ch = sc.peek()
        if ch == "[":
            raise sc.error("blank node property lists are not supported")
        if ch == "(":
            raise sc.error("collections are not supported")
        if ch == "_":
            return Term("blank", sc.read_blank_label())
        if position == "object":
            if ch and ch in "\"'":
                value = sc.read_string()
                if sc.peek() == "@":
                    return intern_term(terms, (value, None, sc.read_langtag()))
                if sc.peek() == "^" and sc.peek(1) == "^":
                    sc.pos += 2
                    return intern_term(terms, (value, read_name("a datatype IRI"), None))
                return intern_term(terms, (value, XSD_STRING, None))
            if ch.isdigit() or (ch in "+-." and sc.peek(1).isdigit()):
                return intern_term(terms, read_number(sc))
        if ch.isalpha():  # the keywords: "a" as a predicate, a boolean as an object
            mark = sc.pos
            word = sc.read_word()
            if word == "a" and position == "predicate":
                return intern_term(terms, RDF_TYPE)
            if word in ("true", "false") and position == "object":
                return intern_term(terms, (word, XSD_BOOLEAN, None))
            sc.pos = mark
        return intern_term(terms, read_name(f"the {position}"))

    def add(s: Term, p: Term, o: Term) -> None:
        quads.add(Quad(Triple(s, p, o), None))

    while True:
        sc.skip_space()
        if sc.at_end():
            return frozenset(quads)
        # a directive: @prefix or @base, ended by '.', or SPARQL's PREFIX
        # or BASE, in any case and with no '.'
        mark = sc.pos
        at = sc.peek() == "@"
        if at:
            sc.pos += 1
        word = sc.read_word() if at or sc.peek().isalpha() else ""
        directive = word if at else word.lower()
        if directive == "prefix":
            sc.skip_space()
            label = sc.read_word()
            if not label.endswith(":"):
                raise sc.error("prefix declaration must end with ':'")
            pos = sc.pos
            sc.skip_space()
            prefixes[label[:-1]] = resolve(sc.read_iriref(), pos)
        elif directive == "base":
            sc.skip_space()
            pos = sc.pos
            base = resolve(sc.read_iriref(), pos)
        elif at:
            raise sc.error(f"unknown directive @{word}")
        else:
            sc.pos = mark
            read_triples(sc, read_term, add)
            sc.expect(".")
            continue
        if at:
            sc.skip_space()
            sc.expect(".")


def parse_document(text: str, fmt: str) -> GraphSet:
    """Parse a document in the named format ("nquads" or "turtle")."""
    if fmt == "nquads":
        return parse_nquads(text)
    if fmt == "turtle":
        return parse_turtle(text)
    raise ValueError(f"unknown format {fmt!r}")

