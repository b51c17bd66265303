"""Terms, quads, canonical serialization, and the two parsers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chrono_rdf import (
    EMPTY_GRAPH,
    ParseError,
    Quad,
    Term,
    UnknownPrefix,
    blank,
    graph_diff,
    iri,
    literal,
    parse_document,
    parse_nquads,
    parse_turtle,
    quad,
    serialize,
)

from conftest import DOI_DATA, DOI_DATA_TURTLE

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"


class TestTerm:
    def test_plain_literal_gets_string_datatype(self):
        t = literal("hello")
        assert t.datatype == XSD_STRING
        assert t.n3() == '"hello"'

    def test_typed_literal_n3(self):
        t = literal("5", "http://www.w3.org/2001/XMLSchema#integer")
        assert t.n3() == '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_language_literal(self):
        t = Term("literal", "ciao", language="it")
        assert t.datatype is None
        assert t.n3() == '"ciao"@it'

    def test_language_and_datatype_conflict(self):
        with pytest.raises(ValueError):
            Term("literal", "x", datatype=XSD_STRING, language="en")

    def test_bad_language_tag(self):
        with pytest.raises(ValueError):
            Term("literal", "x", language="not a tag")

    def test_relative_iri_rejected(self):
        with pytest.raises(ValueError):
            iri("br/86766")

    def test_iri_n3(self):
        assert iri("http://x.example/a").n3() == "<http://x.example/a>"

    def test_blank_label_required(self):
        with pytest.raises(ValueError):
            Term("blank", "")

    def test_string_escapes(self):
        t = literal('say "hi"\n\\done')
        assert t.n3() == '"say \\"hi\\"\\n\\\\done"'

    def test_terms_are_hashable_and_equal_by_value(self):
        assert literal("a") == literal("a", XSD_STRING)
        assert len({literal("a"), literal("a", XSD_STRING)}) == 1


class TestQuad:
    def test_literal_subject_rejected(self):
        with pytest.raises(ValueError):
            quad(literal("no"), iri("http://p.example/"), literal("x"), None)

    def test_blank_predicate_rejected(self):
        with pytest.raises(ValueError):
            quad(iri("http://s.example/"), blank("b"), literal("x"), None)

    def test_relative_graph_rejected(self):
        with pytest.raises(ValueError):
            quad(iri("http://s.example/"), iri("http://p.example/"), literal("x"), "g")

    def test_default_graph_is_none(self):
        q = quad(iri("http://s.example/"), iri("http://p.example/"), literal("x"), None)
        assert q.graph is None


def _sample_quads():
    s = iri("http://x.example/s")
    p = iri("http://x.example/p")
    return frozenset({
        quad(s, p, literal("b"), None),
        quad(s, p, literal("a"), None),
        quad(s, p, iri("http://x.example/o"), "http://g.example/"),
        quad(blank("n0"), p, Term("literal", "x", language="en"), None),
    })


class TestSerialize:
    def test_lines_sorted_and_terminated(self):
        text = serialize(_sample_quads())
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert text.endswith("\n")
        assert len(lines) == 4

    def test_empty_graph(self):
        assert serialize(EMPTY_GRAPH) == ""

    def test_round_trip(self):
        quads = _sample_quads()
        assert parse_nquads(serialize(quads)) == quads

    def test_serialization_is_stable(self):
        quads = _sample_quads()
        assert serialize(quads) == serialize(frozenset(sorted(quads, key=str)))


class TestGraphDiff:
    def test_diff_splits_additions_and_removals(self):
        a = _sample_quads()
        extra = quad(iri("http://y.example/"), iri("http://p.example/"), literal("z"), None)
        b = frozenset(set(a) - {min(a, key=str)}) | {extra}
        added, removed = graph_diff(a, b)
        assert added == {extra}
        assert removed == {min(a, key=str)}

    def test_diff_of_equal_graphs_is_empty(self):
        a = _sample_quads()
        assert graph_diff(a, a) == (frozenset(), frozenset())


_word = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8
)
_iris = _word.map(lambda w: iri(f"http://t.example/{w}"))
_literal_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30
)
_plain = _literal_text.map(literal)
_typed = st.tuples(_literal_text, _word).map(
    lambda t: literal(t[0], f"http://t.example/dt/{t[1]}")
)
_lang = st.tuples(_literal_text, st.sampled_from(["en", "it", "en-GB"])).map(
    lambda t: Term("literal", t[0], language=t[1])
)
_blanks = _word.map(blank)
_objects = st.one_of(_iris, _plain, _typed, _lang, _blanks)
_subjects = st.one_of(_iris, _blanks)
_graphs = st.one_of(st.none(), _word.map(lambda w: f"http://g.example/{w}"))
_quads = st.builds(quad, _subjects, _iris, _objects, _graphs)
_graphsets = st.frozensets(_quads, max_size=20)


@given(_graphsets)
@settings(max_examples=150, deadline=None)
def test_nquads_round_trip(quads):
    assert parse_nquads(serialize(quads)) == quads


@given(_graphsets)
@settings(max_examples=50, deadline=None)
def test_serialize_idempotent(quads):
    text = serialize(quads)
    assert serialize(parse_nquads(text)) == text


@given(_graphsets, _graphsets)
@settings(max_examples=50, deadline=None)
def test_diff_reassembles(a, b):
    added, removed = graph_diff(a, b)
    assert (a - removed) | added == b
    assert not (added & a)
    assert not (removed & b)


class TestParseNquads:
    def test_reports_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_nquads("<http://a.example/> <http://p.example/> <http://o.example/> .\nnot quads\n")
        assert err.value.line == 2

    def test_prefixed_names_rejected(self):
        with pytest.raises(ParseError):
            parse_nquads("ex:s ex:p ex:o .\n")

    def test_relative_iri_rejected(self):
        with pytest.raises(ParseError):
            parse_nquads("<s> <http://p.example/> <http://o.example/> .\n")

    def test_missing_dot_rejected(self):
        with pytest.raises(ParseError):
            parse_nquads("<http://a.example/> <http://p.example/> <http://o.example/>\n")

    @pytest.mark.parametrize("text, column, missing", [
        ("<http://a/s> <http://a/p>", 26, "object"),
        ("<http://a/s> <http://a/p>  ", 28, "object"),
        ("<http://a/s>", 13, "predicate"),
    ])
    def test_statement_cut_short_names_the_missing_term(self, text, column, missing):
        with pytest.raises(ParseError) as err:
            parse_nquads(text)
        assert str(err.value) == f"line 1, column {column}: statement ends before its {missing}"

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\n<http://a.example/> <http://p.example/> \"x\" .\n"
        assert len(parse_nquads(text)) == 1

    def test_blank_nodes_round_trip(self):
        text = '_:a <http://p.example/> _:b .\n'
        quads = parse_nquads(text)
        (q,) = quads
        assert q.subject.kind == "blank" and q.object.kind == "blank"


class TestParseTurtle:
    def test_doi_document_matches_fixture(self):
        parsed = parse_turtle(DOI_DATA_TURTLE)
        triples = {q.triple for q in parsed}
        assert triples == {q.triple for q in DOI_DATA}

    def test_unknown_prefix(self):
        with pytest.raises(UnknownPrefix) as err:
            parse_turtle("ex:s ex:p ex:o .")
        assert err.value.prefix == "ex"

    def test_a_is_rdf_type(self):
        parsed = parse_turtle("<http://s.example/> a <http://c.example/> .")
        (q,) = parsed
        assert q.predicate.value.endswith("#type")

    def test_semicolon_and_comma_lists(self):
        text = (
            "@prefix ex: <http://e.example/> .\n"
            "ex:s ex:p ex:a, ex:b ; ex:q ex:c .\n"
        )
        assert len(parse_turtle(text)) == 3

    def test_base_resolution(self):
        text = "@base <http://b.example/dir/> . <rel> <http://p.example/> <other> ."
        parsed = parse_turtle(text)
        (q,) = parsed
        assert q.subject.value == "http://b.example/dir/rel"
        assert q.object.value == "http://b.example/dir/other"

    def test_relative_iri_without_base(self):
        with pytest.raises(ParseError):
            parse_turtle("<rel> <http://p.example/> <http://o.example/> .")

    def test_numbers_and_booleans(self):
        text = "<http://s.example/> <http://p.example/> 42, 4.2, true ."
        values = {q.object.datatype.rsplit("#", 1)[1] for q in parse_turtle(text)}
        assert values == {"integer", "decimal", "boolean"}

    def test_property_list_unsupported(self):
        with pytest.raises(ParseError):
            parse_turtle("<http://s.example/> <http://p.example/> [ <http://q.example/> 1 ] .")

    def test_collection_unsupported(self):
        with pytest.raises(ParseError):
            parse_turtle("<http://s.example/> <http://p.example/> (1 2) .")


class TestParseDocument:
    def test_dispatch(self):
        nq = '<http://s.example/> <http://p.example/> "v" .\n'
        assert parse_document(nq, "nquads") == parse_nquads(nq)
        ttl = '<http://s.example/> <http://p.example/> "v" .'
        assert {q.triple for q in parse_document(ttl, "turtle")} == {
            q.triple for q in parse_nquads(nq)
        }

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_document("", "rdfxml")
