"""Query parsing, evaluation against a brute-force oracle, update parsing,
and the reference cycles update parsing must not leave."""

from __future__ import annotations

import gc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chrono_rdf import (
    BadRegex,
    ParseError,
    PrefixInDelta,
    UnknownPrefix,
    UnsupportedFeature,
    VariableInDelta,
    evaluate,
    execute_delta_query,
    execute_version_query,
    format_query,
    iri,
    literal,
    parse_select,
    parse_update,
    quad,
)
from chrono_rdf.benchgen import known_subject_query
from chrono_rdf.sparql_engine import Variable

from oracles import brute_evaluate, solutions_counter

XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"

EX = "http://ex.example/"


def _people():
    t = iri(EX + "type")
    person = iri(EX + "Person")
    knows = iri(EX + "knows")
    name = iri(EX + "name")
    alice, bob, carol = (iri(EX + n) for n in ("alice", "bob", "carol"))
    return frozenset({
        quad(alice, t, person, None),
        quad(bob, t, person, None),
        quad(carol, t, person, None),
        quad(alice, knows, bob, None),
        quad(bob, knows, carol, None),
        quad(carol, knows, alice, None),
        quad(alice, name, literal("Alice"), None),
        quad(bob, name, literal("Bob"), None),
        quad(alice, name, literal("Ann"), "http://g.example/alt"),
    })


BATTERY = [
    "SELECT * WHERE { ?s ?p ?o }",
    f"SELECT ?s WHERE {{ ?s <{EX}type> <{EX}Person> }}",
    "SELECT DISTINCT ?p WHERE { ?s ?p ?o }",
    f"SELECT ?a ?c WHERE {{ ?a <{EX}knows> ?b . ?b <{EX}knows> ?c }}",
    f"SELECT ?s ?n WHERE {{ ?s <{EX}type> <{EX}Person> . OPTIONAL {{ ?s <{EX}name> ?n }} }}",
    f"SELECT ?s ?n ?k WHERE {{ ?s <{EX}type> <{EX}Person> ."
    f" OPTIONAL {{ ?s <{EX}name> ?n }} OPTIONAL {{ ?s <{EX}knows> ?k }} }}",
    f'SELECT ?s ?n WHERE {{ ?s <{EX}name> ?n . FILTER REGEX(?n, "^A") }}',
    f'SELECT ?s ?n WHERE {{ ?s <{EX}name> ?n . FILTER CONTAINS(STR(?n), "nn") }}',
    f"SELECT ?x WHERE {{ <{EX}alice> <{EX}knows> ?x }}",
    f"SELECT ?x WHERE {{ ?x <{EX}knows> <{EX}carol> }}",
    f'SELECT ?s WHERE {{ ?s <{EX}name> "Ann" }}',
    f"SELECT DISTINCT ?s WHERE {{ ?s <{EX}knows> ?x . ?s <{EX}name> ?n }}",
]


@pytest.mark.parametrize("text", BATTERY)
def test_evaluate_matches_brute_force(text):
    query = parse_select(text)
    got = solutions_counter(evaluate(query, _people()))
    expected = brute_evaluate(query, _people())
    assert got == expected


@pytest.mark.parametrize("text", BATTERY)
def test_format_round_trip(text):
    query = parse_select(text)
    assert parse_select(format_query(query)) == query


_tiny_iris = st.sampled_from([iri(EX + n) for n in "abc"])
_tiny_preds = st.sampled_from([iri(EX + n) for n in ("p", "q", "name")])
_tiny_objects = st.one_of(
    _tiny_iris, st.sampled_from([literal("Ann"), literal("Bob"), literal("x")])
)
_tiny_quads = st.builds(quad, _tiny_iris, _tiny_preds, _tiny_objects, st.none())
_tiny_graphs = st.frozensets(_tiny_quads, max_size=12)

_PROP_QUERIES = [parse_select(t) for t in (
    "SELECT * WHERE { ?s ?p ?o }",
    f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o . ?o <{EX}q> ?x }}",
    f"SELECT ?s WHERE {{ ?s <{EX}p> ?o . OPTIONAL {{ ?o <{EX}name> ?n }} }}",
    f'SELECT DISTINCT ?s ?n WHERE {{ ?s <{EX}name> ?n . FILTER REGEX(?n, "n") }}',
    f"SELECT ?x ?y WHERE {{ ?x <{EX}p> ?y . ?y <{EX}p> ?x }}",
)]


@given(_tiny_graphs)
@settings(max_examples=120, deadline=None)
def test_evaluate_matches_brute_force_on_random_data(data):
    for query in _PROP_QUERIES:
        assert solutions_counter(evaluate(query, data)) == brute_evaluate(query, data)


class TestParseSelect:
    def test_projection_order_kept(self):
        q = parse_select("SELECT ?b ?a WHERE { ?a <http://p.example/> ?b }")
        assert [v.name for v in q.projected] == ["b", "a"]

    def test_star_projects_all_variables(self):
        q = parse_select("SELECT * WHERE { ?a <http://p.example/> ?b }")
        assert q.select_star
        assert {v.name for v in q.all_variables()} == {"a", "b"}

    def test_prefixes_expand(self):
        q = parse_select(
            "PREFIX ex: <http://p.example/> SELECT ?s WHERE { ?s ex:knows ?o }"
        )
        assert q.patterns[0].predicate.value == "http://p.example/knows"

    def test_unknown_prefix(self):
        with pytest.raises(UnknownPrefix):
            parse_select("SELECT ?s WHERE { ?s ex:p ?o }")

    def test_where_keyword_optional(self):
        q = parse_select("SELECT ?s { ?s ?p ?o }")
        assert len(q.patterns) == 1

    def test_semicolon_and_comma_lists(self):
        q = parse_select(
            "SELECT ?se ?t WHERE { ?se <http://p.example/a> ?t ;"
            " <http://p.example/b> ?u , ?v . }"
        )
        assert len(q.patterns) == 3
        assert all(p.subject == Variable("se") for p in q.patterns)

    def test_optional_group_ids(self):
        q = parse_select(BATTERY[5])
        groups = {p.optional_group for p in q.patterns}
        assert groups == {None, 0, 1}

    def test_empty_optional_rejected(self):
        with pytest.raises(ParseError):
            parse_select("SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { } }")

    def test_nested_optional_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse_select(
                "SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s ?q ?r ."
                " OPTIONAL { ?r ?x ?y } } }"
            )

    @pytest.mark.parametrize("text,needle", [
        ("ASK { ?s ?p ?o }", "ASK"),
        ("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }", "CONSTRUCT"),
        ("SELECT REDUCED ?s WHERE { ?s ?p ?o }", "REDUCED"),
        ("SELECT ?s WHERE { { ?s ?p ?o } UNION { ?s ?q ?o } }", "nested"),
        ("SELECT ?s WHERE { ?s ?p ?o . MINUS { ?s ?q ?o } }", "MINUS"),
        ("SELECT ?s WHERE { BIND(1 AS ?x) ?s ?p ?o }", "BIND"),
        ("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s", "ORDER"),
        ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5", "LIMIT"),
        ("SELECT ?s WHERE { ?s <http://p.example/a>/<http://p.example/b> ?o }", "property path"),
        ("SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }", "projection"),
    ])
    def test_unsupported_features(self, text, needle):
        with pytest.raises(UnsupportedFeature) as err:
            parse_select(text)
        assert needle.lower() in str(err.value).lower()

    def test_filter_variable_must_occur(self):
        with pytest.raises(ParseError):
            parse_select('SELECT ?s WHERE { ?s ?p ?o . FILTER REGEX(?zz, "x") }')

    def test_bad_regex_rejected_at_parse_time(self):
        with pytest.raises(BadRegex):
            parse_select('SELECT ?s WHERE { ?s ?p ?o . FILTER REGEX(?o, "[") }')

    def test_filter_functions_limited(self):
        with pytest.raises(UnsupportedFeature):
            parse_select('SELECT ?s WHERE { ?s ?p ?o . FILTER LANGMATCHES(?o, "en") }')

    def test_no_patterns_rejected(self):
        with pytest.raises(ParseError, match="query has no triple patterns") as err:
            parse_select("SELECT ?s WHERE { }")
        # at the group's closing brace
        assert (err.value.line, err.value.column) == (1, 19)

    def test_a_point_after_an_integer_ends_the_pattern(self):
        (pattern,) = parse_select("SELECT * WHERE { ?s ?p 42. }").patterns
        assert pattern.object == literal("42", XSD_INTEGER)

    def test_an_object_term_is_expected_after_a_comma(self):
        with pytest.raises(ParseError, match="expected an object term") as err:
            parse_select("SELECT * WHERE { ?s ?p ?o , }")
        assert (err.value.line, err.value.column) == (1, 29)

    def test_the_first_of_two_faults_is_reported(self):
        # the text is read front to back: ASK is refused before the
        # unterminated string after it is reached
        with pytest.raises(UnsupportedFeature, match="ASK"):
            parse_select('ASK { "abc')

    def test_optionalals_may_not_share_an_unbound_variable(self):
        # two optional groups meeting only in ?x would need a real join
        # between left-joined parts, which the evaluator does not do
        with pytest.raises(UnsupportedFeature):
            parse_select(
                "SELECT ?s ?x WHERE { ?s <http://p.example/> ?o ."
                " OPTIONAL { ?s <http://q.example/> ?x }"
                " OPTIONAL { ?o <http://r.example/> ?x } }"
            )

    def test_filter_on_unbound_is_false(self):
        data = _people()
        q = parse_select(
            f"SELECT ?s ?n WHERE {{ ?s <{EX}type> <{EX}Person> ."
            f' OPTIONAL {{ ?s <{EX}name> ?n }} FILTER REGEX(?n, ".") }}'
        )
        rows = evaluate(q, data).rows
        names = {b.get("s").value for b in rows}
        assert iri(EX + "carol").value not in names


class TestParseUpdate:
    def test_delete_and_insert_blocks(self):
        text = (
            'DELETE DATA { <http://s.example/> <http://p.example/> "old" . };'
            ' INSERT DATA { <http://s.example/> <http://p.example/> "new" . }'
        )
        delta = parse_update(text)
        assert len(delta.deletes) == 1 and len(delta.inserts) == 1
        assert delta.source_text == text

    def test_graph_groups(self):
        text = (
            "INSERT DATA { GRAPH <http://g.example/> {"
            ' <http://s.example/> <http://p.example/> "v" . } }'
        )
        delta = parse_update(text)
        assert delta.inserts[0].graph == "http://g.example/"

    def test_default_graph_quads(self):
        delta = parse_update(
            'INSERT DATA { <http://s.example/> <http://p.example/> "v" }'
        )
        assert delta.inserts[0].graph is None

    def test_mixed_graph_and_default(self):
        text = (
            "INSERT DATA { <http://s.example/> <http://p.example/> <http://o.example/> ."
            " GRAPH <http://g.example/> { <http://s.example/> <http://p.example/> <http://o2.example/> . } }"
        )
        graphs = {q.graph for q in parse_update(text).inserts}
        assert graphs == {None, "http://g.example/"}

    def test_object_and_predicate_lists(self):
        text = (
            "INSERT DATA { <http://a/s> <http://a/p> <http://a/o1> , <http://a/o2> ;"
            ' <http://a/q> "x" . }'
        )
        assert [(q.predicate.value, q.object.value) for q in parse_update(text).inserts] == [
            ("http://a/p", "http://a/o1"), ("http://a/p", "http://a/o2"), ("http://a/q", "x"),
        ]

    def test_an_object_term_is_expected_after_a_comma(self):
        with pytest.raises(ParseError, match="expected an object term") as err:
            parse_update("INSERT DATA { <http://a/s> <http://a/p> <http://a/o> , }")
        assert (err.value.line, err.value.column) == (1, 56)

    def test_a_point_after_an_integer_ends_the_triple(self):
        (q,) = parse_update("INSERT DATA { <http://a/s> <http://a/p> 42. }").inserts
        assert q.object == literal("42", XSD_INTEGER)

    def test_variables_rejected(self):
        with pytest.raises(VariableInDelta):
            parse_update("DELETE DATA { ?s <http://p.example/> ?o }")

    def test_prefixed_names_rejected(self):
        with pytest.raises(PrefixInDelta):
            parse_update("INSERT DATA { ex:s <http://p.example/> ex:o }")

    def test_prefix_prologue_rejected(self):
        with pytest.raises(PrefixInDelta):
            parse_update(
                "PREFIX ex: <http://e.example/> INSERT DATA { ex:s ex:p ex:o }"
            )

    def test_templated_update_rejected(self):
        with pytest.raises(ParseError):
            parse_update("DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }")

    def test_relative_iri_rejected(self):
        with pytest.raises(ParseError):
            parse_update("INSERT DATA { <s> <http://p.example/> <http://o.example/> }")

    def test_blank_scope_applied(self):
        d1 = parse_update("INSERT DATA { _:b <http://p.example/> _:b }", blank_scope="s1")
        d2 = parse_update("INSERT DATA { _:b <http://p.example/> _:b }", blank_scope="s2")
        assert d1.inserts[0].subject != d2.inserts[0].subject
        assert d1.inserts[0].subject == d1.inserts[0].object

    def test_typed_and_language_literals(self):
        text = (
            "INSERT DATA { <http://s.example/> <http://p.example/>"
            ' "5"^^<http://www.w3.org/2001/XMLSchema#integer> .'
            ' <http://s.example/> <http://q.example/> "ciao"@it . }'
        )
        objects = {q.object.n3() for q in parse_update(text).inserts}
        assert '"5"^^<http://www.w3.org/2001/XMLSchema#integer>' in objects
        assert '"ciao"@it' in objects

    def test_a_and_booleans(self):
        text = "INSERT DATA { <http://s.example/> a <http://c.example/> . <http://s.example/> <http://p.example/> true }"
        parsed = parse_update(text)
        predicates = {q.predicate.value for q in parsed.inserts}
        assert "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" in predicates

    def test_empty_update(self):
        delta = parse_update("DELETE DATA { }; INSERT DATA { }")
        assert delta.is_empty

    def test_default_graph_after_a_graph_group(self):
        text = (
            "INSERT DATA { GRAPH <http://g.example/> {"
            " <http://s.example/> <http://p.example/> <http://o.example/> }"
            " <http://s.example/> <http://p.example/> <http://o2.example/> }"
        )
        graphs = [q.graph for q in parse_update(text).inserts]
        assert graphs == ["http://g.example/", None]

    @pytest.mark.parametrize("text, error, message", [
        ("INSERT DATA { GRAPH <http://g.example/> { GRAPH <http://h.example/> { } } }",
         ParseError, "nested GRAPH in update text"),
        ("INSERT DATA { <http://s.example/> <http://p.example/> <http://o.example/>",
         ParseError, "unterminated block in update text"),
        ("INSERT DATA { GRAPH <http://g.example/> { <http://s.example/> <http://p.example/> 1",
         ParseError, "unterminated block in update text"),
        ("INSERT DATA { GRAPH ?g { } }", VariableInDelta, "variable graph name in update text"),
        ("INSERT DATA { GRAPH ex:g { } }", PrefixInDelta, "prefixed graph name 'ex:g'"),
        ("INSERT DATA { GRAPH { } }", ParseError, "expected a graph IRI"),
    ])
    def test_malformed_blocks(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_update(text)


def _of_the_package(o) -> bool:
    module = o.__module__ if isinstance(o, types.FunctionType) else type(o).__module__
    return module.startswith("chrono_rdf")


def test_a_ready_context_leaves_no_reference_cycle(small_world):
    # every parsed update is freed by reference counting alone, so a set-up
    # leaves nothing for the cycle collector to walk and free.  Only the
    # package's objects count: a server thread of another test can end, and
    # leave its own cycle, while this test runs
    entity = sorted(small_world.ledger.entities)[0]
    query = known_subject_query(entity)
    gc.collect()
    gc.disable()
    try:
        ctx = small_world.context()
        for name in small_world.ledger.entities:
            ctx.history(name)
        ctx.term_postings()
        execute_version_query(query, ctx)
        execute_delta_query(query, ctx)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [o for o in gc.garbage if _of_the_package(o)]
        assert not leaked, f"{len(leaked)} unreachable objects, among them {leaked[0]!r}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
