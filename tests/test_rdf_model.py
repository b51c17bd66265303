"""Terms, quads, canonical serialization, and the two parsers."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

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

import chrono_rdf
from chrono_rdf import rdf_model, sparql_engine
from chrono_rdf.sources import DataEndpoint
from chrono_rdf.sparql_engine import parse_update

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


class TestOneCheckPerTerm:
    """Each reader interns through one TermTable and checks each IRI once."""

    DT = "http://a.example/dt"
    IRIS = ("http://a.example/s", "http://a.example/p", "http://a.example/o", DT)
    NQUADS = (
        "<http://a.example/s> <http://a.example/p> <http://a.example/o> .\n"
        '<http://a.example/o> <http://a.example/p> "1"^^<http://a.example/dt> .\n'
        '<http://a.example/s> <http://a.example/p> "2"^^<http://a.example/dt> .\n'
        "<http://a.example/o> <http://a.example/p> <http://a.example/s> .\n"
    )

    @pytest.fixture()
    def checked(self, monkeypatch):
        """The IRIs handed to rdf_model.is_absolute_iri, in call order."""
        seen: list[str] = []
        check = rdf_model.is_absolute_iri

        def counting(value: str) -> bool:
            seen.append(value)
            return check(value)

        monkeypatch.setattr(rdf_model, "is_absolute_iri", counting)
        # a reader that imported the check by name would call it from there
        monkeypatch.setattr(sparql_engine, "is_absolute_iri", counting, raising=False)
        return seen

    def test_nquads_checks_each_distinct_iri_once(self, checked):
        assert len(parse_nquads(self.NQUADS)) == 4
        assert sorted(checked) == sorted(self.IRIS)

    def test_update_checks_each_distinct_iri_once(self, checked):
        typed = f"<{self.IRIS[0]}> a <{self.IRIS[2]}>"
        text = "INSERT DATA { " + self.NQUADS.replace("\n", " ") + typed + " }"
        assert len(parse_update(text).inserts) == 5
        assert sorted(checked) == sorted(self.IRIS + (rdf_model.RDF_TYPE,))

    def test_nquads_builds_one_object_per_term(self):
        g = "http://a.example/g"
        quads = parse_nquads(
            f'<{self.IRIS[0]}> <{self.IRIS[1]}> "x" <{g}> .\n'
            f'<{self.IRIS[0]}> <{self.IRIS[1]}> "x"^^<{XSD_STRING}> .\n'
            f'<{self.IRIS[2]}> <{self.IRIS[1]}> "x" <{g}> .\n'
            f'<{self.IRIS[2]}> <{self.IRIS[1]}> "1"^^<{self.DT}> <{g}> .\n'
            f'<{self.IRIS[0]}> <{self.IRIS[1]}> "2"^^<{self.DT}> .\n'
            f'<{self.IRIS[0]}> <{self.DT}> <{g}> <{g}> .\n'
        )
        by_value: dict[str, set[int]] = {}
        for q in quads:
            for term in (q.subject, q.predicate, q.object):
                by_value.setdefault(term.n3(), set()).add(id(term))
        assert all(len(ids) == 1 for ids in by_value.values()), by_value
        # "x" and "x"^^xsd:string are one literal
        assert len({id(q.object) for q in quads if q.object.value == "x"}) == 1
        # a datatype and a graph name are the value of their IRI's term
        (dt_iri,) = {id(q.predicate.value) for q in quads if q.predicate.value == self.DT}
        assert {id(q.object.datatype) for q in quads if q.object.value in ("1", "2")} == {dt_iri}
        (g_iri,) = {id(q.object.value) for q in quads if q.object.value == g}
        assert {id(q.graph) for q in quads if q.graph is not None} == {g_iri}

    def test_update_table_is_keyed_by_the_one_rule(self):
        table: dict = {}
        objects = ('"x"', "7", "true", f'"x"^^<{XSD_STRING}>', '"y"@en')
        s = f"<{self.IRIS[0]}>"
        text = f"INSERT DATA {{ GRAPH <{self.IRIS[3]}> {{ {' . '.join(f'{s} a {o}' for o in objects)} }} }}"
        inserts = parse_update(text, terms=table).inserts
        assert len({q.object for q in inserts}) == 4
        assert set(table) == {
            self.IRIS[0], self.IRIS[3], rdf_model.RDF_TYPE, XSD_STRING,
            ("x", XSD_STRING, None), ("7", rdf_model.XSD_INTEGER, None),
            ("true", rdf_model.XSD_BOOLEAN, None), ("y", None, "en"),
        }
        assert all(q.graph is table[self.IRIS[3]].value for q in inserts)


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

    def test_a_run_of_semicolons_separates_predicates(self):
        text = "<http://a/s> <http://a/p> <http://a/o> ; ; <http://a/p2> <http://a/o2> ."
        assert len(parse_turtle(text)) == 2

    def test_base_resolution(self):
        text = "@base <http://b.example/dir/> . <rel> <http://p.example/> <other> ."
        parsed = parse_turtle(text)
        (q,) = parsed
        assert q.subject.value == "http://b.example/dir/rel"
        assert q.object.value == "http://b.example/dir/other"

    def test_relative_iri_without_base(self):
        with pytest.raises(ParseError):
            parse_turtle("<rel> <http://p.example/> <http://o.example/> .")

    @pytest.mark.parametrize("text, position", [
        ("@base <urn:x> . <y> <http://p.example/> <http://o.example/> .", (1, 17)),
        ("@base <urn:x> .\n@prefix e: <y#> .\ne:s <http://p.example/> <http://o.example/> .", (2, 11)),
    ], ids=["iri", "prefix"])
    def test_relative_iri_under_a_base_it_cannot_join(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_turtle(text)
        assert (err.value.line, err.value.column) == position
        assert "does not resolve against <urn:x>" in str(err.value)

    def test_numbers_and_booleans(self):
        text = "<http://s.example/> <http://p.example/> 42, 4.2, true ."
        values = {q.object.datatype.rsplit("#", 1)[1] for q in parse_turtle(text)}
        assert values == {"integer", "decimal", "boolean"}

    @pytest.mark.parametrize("text, value, datatype", [
        ("42.", "42", "integer"),  # the point ends the statement
        ("4.2 .", "4.2", "decimal"),
        (".5 .", ".5", "decimal"),
        ("42.e1 .", "42.e1", "double"),
        ("1E3 .", "1E3", "double"),
    ])
    def test_numbers_follow_the_grammar(self, text, value, datatype):
        (q,) = parse_turtle(f"<http://a/s> <http://a/p> {text}")
        assert (q.object.value, q.object.datatype.rsplit("#", 1)[1]) == (value, datatype)

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


class TestQuadHash:
    """A quad stores its hash; it must still follow equality."""

    S, C, G = "http://x.example/s", "http://x.example/C", "http://x.example/g"
    P, N, L = "http://x.example/p", "http://x.example/n", "http://x.example/l"
    RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"

    def reference(self, graph):
        s = iri(self.S)
        return frozenset({
            quad(s, iri(self.RDF_TYPE), iri(self.C), graph),
            quad(s, iri(self.P), literal("x"), graph),
            quad(s, iri(self.P), literal("\u00e9t\u00e9"), graph),
            quad(s, iri(self.N), literal("42", self.XSD_INTEGER), graph),
            quad(s, iri(self.L), Term("literal", "ciao", language="it"), graph),
        })

    def nquads(self):
        g = f"<{self.G}>"
        return parse_nquads(
            f"<{self.S}> <{self.RDF_TYPE}> <{self.C}> {g} .\n"
            f'<{self.S}> <{self.P}> "x" {g} .\n'
            f'<{self.S}> <{self.P}> "\\u00E9t\\u00e9"^^<{XSD_STRING}> {g} .\n'
            f'<{self.S}> <{self.N}> "42"^^<{self.XSD_INTEGER}> {g} .\n'
            f'<{self.S}> <{self.L}> "ciao"@it {g} .\n'
        )

    def turtle(self):
        return parse_turtle(
            "@prefix x: <http://x.example/> .\n"
            "x:s a x:C ; x:p 'x', \"\u00e9t\u00e9\" ; x:n 42 ; x:l 'ciao'@it .\n"
        )

    def update(self, terms=None):
        text = (
            f"INSERT DATA {{ GRAPH <{self.G}> {{ <{self.S}> a <{self.C}> ."
            f" <{self.S}> <{self.P}> 'x' . <{self.S}> <{self.P}> '\\u00e9t\\u00E9' ."
            f" <{self.S}> <{self.N}> 42 . <{self.S}> <{self.L}> \"ciao\"@it }} }}"
        )
        return frozenset(parse_update(text, terms=terms).inserts)

    def endpoint_rows(self):
        rows = [
            {"p": {"type": "uri", "value": self.RDF_TYPE}, "o": {"type": "uri", "value": self.C}},
            {"p": {"type": "uri", "value": self.P}, "o": {"type": "literal", "value": "x"}},
            {"p": {"type": "uri", "value": self.P},
             "o": {"type": "literal", "value": "\u00e9t\u00e9", "datatype": XSD_STRING}},
            {"p": {"type": "uri", "value": self.N},
             "o": {"type": "typed-literal", "value": "42", "datatype": self.XSD_INTEGER}},
            {"p": {"type": "uri", "value": self.L},
             "o": {"type": "literal", "value": "ciao", "xml:lang": "it"}},
        ]

        class Answered:
            status_code = 200

            def json(self):
                return {"results": {"bindings": [
                    {**row, "g": {"type": "uri", "value": TestQuadHash.G}} for row in rows
                ]}}

        endpoint = DataEndpoint("http://endpoint.example/sparql", 1.0, None)
        endpoint._post = lambda query_text: Answered()
        return endpoint.entity_quads(self.S)

    def test_every_path_builds_equal_quads_with_equal_hashes(self):
        built = {
            "nquads": (self.nquads(), self.G),
            "turtle": (self.turtle(), None),
            "update": (self.update(), self.G),
            "update with a table": (self.update({}), self.G),
            "endpoint": (self.endpoint_rows(), self.G),
        }
        for path, (quads, graph) in built.items():
            reference = {q: q for q in self.reference(graph)}
            assert set(quads) == set(reference), path
            for q in quads:
                assert q == reference[q] and hash(q) == hash(reference[q]), path

    def test_repr_and_equality_ignore_the_stored_hash(self):
        q = quad(iri(self.S), iri(self.P), literal("x"), self.G)
        assert "_hash" not in repr(q)
        assert repr(q) == f"Quad(triple={q.triple!r}, graph={q.graph!r})"
        other = quad(iri(self.S), iri(self.P), literal("x"), self.G)
        object.__setattr__(other, "_hash", hash(q) + 1)
        assert q == other

    def test_pickled_quad_is_found_under_another_hash_seed(self, tmp_path):
        text = serialize(_sample_quads())
        path = tmp_path / "quads.pickle"
        dump = (
            "import pickle, sys\n"
            "from chrono_rdf import parse_nquads\n"
            "quads = sorted(parse_nquads(sys.argv[2]), key=repr)\n"
            "open(sys.argv[1], 'wb').write(pickle.dumps((quads, [hash(q) for q in quads])))\n"
        )
        load = (
            "import pickle, sys\n"
            "from chrono_rdf import parse_nquads\n"
            "quads, hashes = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "fresh = set(parse_nquads(sys.argv[2]))\n"
            "assert [hash(q) for q in quads] != hashes, 'the hash seed did not change'\n"
            "assert all(q in fresh for q in quads), 'a loaded quad is not found'\n"
            "assert set(quads) == fresh\n"
        )
        src = str(Path(chrono_rdf.__file__).resolve().parents[1])
        for seed, script in (("1", dump), ("2", load)):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            done = subprocess.run(
                [sys.executable, "-c", script, str(path), text],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr


def _rebuilt(q: Quad) -> Quad:
    """An equal quad that shares no term object with q."""

    def fresh(t: Term) -> Term:
        return Term(t.kind, t.value, t.datatype, t.language)

    return quad(fresh(q.subject), fresh(q.predicate), fresh(q.object), q.graph)


def _fields(q: Quad) -> tuple:
    return (q.subject, q.predicate, q.object, q.graph)


@given(st.lists(_quads, max_size=12), st.lists(_quads, max_size=12), st.data())
@settings(max_examples=100, deadline=None)
def test_quad_hash_follows_equality(xs, ys, data):
    if xs:
        # equal copies of some drawn quads, so that equal pairs are common
        ys = ys + [_rebuilt(q) for q in data.draw(st.lists(st.sampled_from(xs), max_size=12))]
    for a in xs:
        for b in ys:
            if a == b:
                assert hash(a) == hash(b)
    fx, fy = {_fields(q) for q in xs}, {_fields(q) for q in ys}
    assert {_fields(q) for q in set(xs) - set(ys)} == fx - fy
    assert {_fields(q) for q in set(xs) | set(ys)} == fx | fy
    assert {_fields(q) for q in set(xs) & set(ys)} == fx & fy
