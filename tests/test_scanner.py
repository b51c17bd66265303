"""The regex token readers of rdf_model.Scanner against the character loop.

Every parser of the package reads its tokens through the Scanner.  The
differential tests run each parser twice on the same drawn text, once
with the Scanner and once with oracles.CharScanner plugged in, and
require the same result or the same error at the same line and column.
The drawn texts favour the spellings a regex gets wrong: escapes of every
kind in IRIs and strings, long strings holding quotes and newlines,
language tags, blank labels with dots, comments, CRLF, a missing final
newline and malformed tokens.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import CharScanner

from chrono_rdf import ParseError, parse_nquads, parse_turtle, rdf_model, sparql_engine
from chrono_rdf.sparql_engine import parse_select, parse_update


@contextmanager
def _reader(scanner):
    saved = rdf_model.Scanner, sparql_engine.Scanner
    rdf_model.Scanner = sparql_engine.Scanner = scanner
    try:
        yield
    finally:
        rdf_model.Scanner, sparql_engine.Scanner = saved


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # any error must be the reference's error
        where = (exc.line, exc.column) if isinstance(exc, ParseError) else None
        return "error", type(exc), str(exc), where


def assert_same(parse, text):
    with _reader(CharScanner):
        expected = _outcome(parse, text)
    assert _outcome(parse, text) == expected


# -- drawn spellings -----------------------------------------------------------
#
# Each token is drawn clean seven times out of eight and dirty otherwise,
# so that a fair share of documents parse and the rest fail at varied
# places.

def _mostly(clean, dirty):
    return st.sampled_from([clean] * 7 + [dirty]).flatmap(lambda strategy: strategy)


def _pieces(pieces, max_size=4):
    return st.lists(st.sampled_from(pieces), max_size=max_size).map("".join)


_SPACE = st.sampled_from(
    [" ", " ", "  ", "\t", "\n", "\r\n", " # a comment\n", "#c\r\n", "\n\n", ""]
)
_GOOD_ESCAPES = [
    "\\u0041", "\\u00e9", "\\U0001F600", "\\U0010FFFF", "\\u000A", "\\u0022",
    "\\u003E", "\\U0000d7ff", "\\uE000",
]
_BAD_ESCAPES = [
    "\\U00110000", "\\uD800", "\\udfff", "\\U0000D800", "\\UFFFFFFFF",
    "\\u12", "\\uZZZZ", "\\U0001F60", "\\u", "\\U",
]
_IRI_GOOD = _GOOD_ESCAPES + ["a", "b/c", "é", "#frag", ".", "%20", "-", ":", "\x01"]
_IRI_BAD = _BAD_ESCAPES + ["\\x", "\\", " ", "{", "<", ">", '"', "^", "`", "|", "\t", "\n"]

_iris = _mostly(
    _pieces(_IRI_GOOD).map(lambda body: f"<http://a/{body}>"),
    st.one_of(
        st.tuples(_pieces(_IRI_GOOD + _IRI_BAD), st.sampled_from([">", ""])).map(
            lambda t: f"<http://a/{t[0]}{t[1]}"
        ),
        st.sampled_from(["<rel>", "<>", "<", "<http://a/s"]),
    ),
)

_STRING_GOOD = _GOOD_ESCAPES + [
    "a", "é", " ", "#", ".", ">", "<", "@", "\\t", "\\b", "\\n", "\\r", "\\f",
    '\\"', "\\'", "\\\\", "\\.", "\\$", "\\ ",
]
_LONG_GOOD = _STRING_GOOD + ["\n", "\r\n", "\\\n"]
_STRING_BAD = _BAD_ESCAPES + ['"', "'", '""', "''", "\n", "\r", "\\"]


def _string(opener, good):
    return _pieces(good, 6).map(lambda body: opener + body + opener)


_strings = _mostly(
    st.one_of(
        _string('"', _STRING_GOOD),
        _string("'", _STRING_GOOD),
        _string('"' * 3, _LONG_GOOD + ["'", '"', '""']),
        _string("'" * 3, _LONG_GOOD + ['"', "'", "''"]),
    ),
    st.tuples(
        st.sampled_from(['"', "'", '"' * 3, "'" * 3]),
        _pieces(_LONG_GOOD + _STRING_BAD, 6),
        st.booleans(),
    ).map(lambda t: t[0] + t[1] + (t[0] if t[2] else "")),
)
_langtags = _mostly(
    st.sampled_from(["en", "en-GB", "de-1996", "x-y-z1"]),
    st.sampled_from(["en-", "-en", "1en", "en--GB", "é", "", "en_GB", "eé1", "en-GB-"]),
).map(lambda tag: "@" + tag)
_literals = st.tuples(
    _strings, st.one_of(st.just(""), _langtags, _iris.map(lambda i: "^^" + i))
).map("".join)
_blank_labels = _mostly(
    st.sampled_from(["b1", "b.1", "b..c", "b-_x", "é", "B9"]),
    st.sampled_from(["b1.", "..", ".", "", "b%", "b:c"]),
).map(lambda label: "_:" + label)
_junk = st.sampled_from(
    ["<<", "^^", "@", "_", "_x", "?v", '"', "'", ",", ";", "ex:a", ".", "a", "#"]
)
_ends = st.sampled_from([".", ".", ".", " .", "", ". ."])


@st.composite
def _statement(draw, subjects, predicates, objects, graphs):
    parts = [draw(subjects), draw(predicates), draw(objects)]
    graph = draw(graphs)
    if graph:
        parts.append(graph)
    parts.append(draw(_ends))
    return "".join(p + draw(_SPACE) for p in parts)


def _documents(statements, max_size=4):
    return st.tuples(_SPACE, st.lists(statements, max_size=max_size), st.booleans()).map(
        lambda t: t[0] + "".join(t[1]) + ("\n" if t[2] else "")
    )


_nquads_texts = _documents(_statement(
    _mostly(st.one_of(_iris, _blank_labels), st.one_of(_literals, _junk)),
    _mostly(_iris, st.one_of(_blank_labels, _junk)),
    st.one_of(_iris, _literals, _literals, _blank_labels, _junk),
    _mostly(st.one_of(st.just(""), _iris), _blank_labels),
))

_pnames = st.sampled_from(["ex:a", "ex:", "ex:b.c", "ex:b.", "ex:%41", "nope:a"])
_turtle_objects = st.one_of(
    _iris, _literals, _literals, _blank_labels, _pnames,
    st.sampled_from(["true", "false", "42", "-1.5e3", ".5", "+7.", "x"]),
)
_turtle_texts = st.tuples(
    st.sampled_from([
        "", "@prefix ex: <http://e/> .\n", "PREFIX ex: <http://e/>\n",
        "@prefix ex: <http://e/> .\n@base <http://b/> .\n", "BASE <http://b/>\n",
        "@prefix ex <http://e/> .\n", "@prefix ex: <http://e/\\u0041> .\n",
    ]),
    _documents(_statement(
        _mostly(st.one_of(_iris, _blank_labels, _pnames), st.one_of(_literals, _junk)),
        _mostly(st.one_of(_iris, _pnames, st.just("a")), _junk),
        _turtle_objects.flatmap(lambda o: st.sampled_from(
            [o, o, f"{o} , ex:o", f"{o} ; ex:p ex:o", f"{o} ;", f"{o} ; ; ex:p ex:o, {o}",
             f"{o};;"]
        )),
        st.just(""),
    )),
).map("".join)

_update_objects = st.one_of(_iris, _literals, _literals, _blank_labels,
                            st.sampled_from(["true", "42", "-1.5", "ex:o"]))
_update_statements = _statement(
    _mostly(st.one_of(_iris, _blank_labels), st.one_of(_literals, _junk)),
    _mostly(st.one_of(_iris, st.just("a")), _junk),
    _update_objects.flatmap(lambda o: st.sampled_from(
        [o, o, f"{o} , <http://a/o>", f"{o} ; a <http://a/o>", f"{o} ;",
         f"{o} ; ; <http://a/p> {o}, _:b", f"{o};;"]
    )),
    st.just(""),
)


@st.composite
def _update_texts(draw):
    blocks = []
    for _ in range(draw(st.integers(1, 2))):
        body = draw(_documents(_update_statements, max_size=3))
        if draw(st.booleans()):
            body = f"GRAPH {draw(_iris)} {{ {body} }}"
        verb = draw(_mostly(
            st.sampled_from(["INSERT DATA", "DELETE DATA", "insert data"]),
            st.sampled_from(["INSERT", "DELETE WHERE", "PREFIX"]),
        ))
        closer = draw(_mostly(st.just("}"), st.just("")))
        blocks.append(f"{verb} {{{draw(_SPACE)}{body}{closer}")
    return draw(st.sampled_from([" ;\n", ";", "\n"])).join(blocks)


_query_texts = st.tuples(
    _mostly(
        st.sampled_from(["SELECT * WHERE { ", "SELECT ?s WHERE {", "PREFIX ex: <http://e/> SELECT * {"]),
        st.sampled_from(["SELECT", "ASK {", ""]),
    ),
    _documents(_statement(
        _mostly(st.sampled_from(["?s", "$s", "<http://a/s>"]), st.one_of(_iris, _blank_labels, _junk)),
        _mostly(st.one_of(_iris, st.sampled_from(["?p", "a", "ex:p"])), _junk),
        st.one_of(_iris, _literals, _literals, st.sampled_from(["?o", "42", "+7", "ex:o", "?"])),
        st.just(""),
    ), max_size=3),
    _mostly(st.sampled_from(["}", " }\n"]), st.just("")),
).map("".join)


# -- the differential ----------------------------------------------------------

@given(_nquads_texts)
@settings(max_examples=150, deadline=None)
def test_nquads_reads_like_the_character_loop(text):
    assert_same(parse_nquads, text)


@given(_turtle_texts)
@settings(max_examples=100, deadline=None)
def test_turtle_reads_like_the_character_loop(text):
    assert_same(parse_turtle, text)


@given(_update_texts())
@settings(max_examples=100, deadline=None)
def test_update_reads_like_the_character_loop(text):
    assert_same(parse_update, text)


@given(_query_texts)
@settings(max_examples=100, deadline=None)
def test_query_reads_like_the_character_loop(text):
    assert_same(parse_select, text)


def test_a_valid_document_of_every_spelling():
    text = (
        '<http://a/s> <http://a/p> """a "quoted" ""line""\n""" <http://a/g> .\r\n'
        "_:b.1 <http://a/p\\u00E9> 'x\\.y\\t\\b\\n\\r\\f\\\"\\'\\\\'@en-GB .\n"
        "<http://a/s> <http://a/p> '''it's ''a'' b''' .\n"
        '<http://a/s> <http://a/p> "c\\\nd" .\n'
        '<http://a/s> <http://a/p> "\\U0001F600"^^<http://a/dt> .'
    )
    assert {q.object.value for q in parse_nquads(text)} == {
        'a "quoted" ""line""\n', "x\\.y\t\b\n\r\f\"'\\", "it's ''a'' b", "c\\\nd",
        "\U0001F600",
    }
    assert_same(parse_nquads, text)


# -- fixed spellings -----------------------------------------------------------

_S = "<http://a/s> <http://a/p> "


@pytest.mark.parametrize("text", [
    _S + '"abc\\',
    _S + "'''abc\\",
    _S + '"\\u00',
    _S + '"\\U00110000" .',
    _S + '"\\uD800" .',
    _S + '"\\uDBFF\\uDC00" .',
    "<http://a/\\U00110000> <http://a/p> <http://a/o> .",
    "<http://a/\\uDFFF> <http://a/p> <http://a/o> .",
    "<http://a/\\",
    "<http://a/\\n> <http://a/p> <http://a/o> .",
    _S + '"a\nb" .',
    _S + '"""a""" """ .',
    _S + '""""""' + " .",
    _S + '"x"@en- .',
    _S + '"x"@ .',
    "_:. <http://a/p> <http://a/o> .",
    "_:b.. <http://a/p> <http://a/o> .",
    _S,
    _S + "<http://a/o> . # no newline",
], ids=lambda text: repr(text)[:40])
def test_fixed_nquads_spellings(text):
    assert_same(parse_nquads, text)


class TestScalarEscapes:
    """A numeric escape must name a Unicode scalar value."""

    @pytest.mark.parametrize("escape", ["\\U00110000", "\\uD800", "\\U0000DFFF", "\\UFFFFFFFF"])
    def test_string_escape_out_of_range(self, escape):
        text = _S + f'"ab{escape}" .'
        with pytest.raises(ParseError) as err:
            parse_nquads(text)
        assert (err.value.line, err.value.column) == (1, len(_S) + 4)
        assert f"numeric escape {escape} is not a Unicode scalar value" in str(err.value)

    @pytest.mark.parametrize("escape", ["\\U00110000", "\\ud800"])
    def test_iri_escape_out_of_range(self, escape):
        with pytest.raises(ParseError) as err:
            parse_nquads(f"<http://a/{escape}> <http://a/p> <http://a/o> .")
        assert (err.value.line, err.value.column) == (1, 11)
        assert "is not a Unicode scalar value" in str(err.value)

    @pytest.mark.parametrize("escape,char", [
        ("\\U0010FFFF", "\U0010ffff"), ("\\uD7FF", "\ud7ff"), ("\\uE000", "\ue000"),
    ])
    def test_edges_of_the_range_parse(self, escape, char):
        (q,) = parse_nquads(_S + f'"{escape}" .')
        assert q.object.value == char


class TestStringEndingInABackslash:
    """The text ends inside a string: unterminated, at the string's start."""

    def test_nquads(self):
        with pytest.raises(ParseError) as err:
            parse_nquads('<http://a/s> <http://a/p> "abc\\')
        assert "unterminated string" in str(err.value)
        assert (err.value.line, err.value.column) == (1, 27)

    def test_update(self):
        with pytest.raises(ParseError) as err:
            parse_update('INSERT DATA { <http://a/s> <http://a/p> "abc\\')
        assert "unterminated string" in str(err.value)
        assert (err.value.line, err.value.column) == (1, 41)

    def test_query(self):
        with pytest.raises(ParseError) as err:
            parse_select('SELECT * WHERE { ?s ?p "abc\\')
        assert "unterminated string" in str(err.value)
        assert (err.value.line, err.value.column) == (1, 24)
