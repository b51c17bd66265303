"""One evaluation over key-stamped quads against evaluation at every key.

align_and_merge gives each quad a key stamp, an int whose bit k is set
when the merged state at key k holds the quad, and evaluate with `keys`
answers every key from one pass over those stamps.  Each case here
checks the answer at every key against oracles.brute_evaluate over that
key's state, rebuilt without the stamps, and against rows written out by
hand.  The generated differential at the end draws small version sets
and queries from a fixed menu.
"""

from __future__ import annotations

from datetime import timedelta
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import brute_evaluate, dataset_brute, solutions_counter

from chrono_rdf import (
    GraphSet,
    Snapshot,
    TimeInterval,
    VersionedGraph,
    align_and_merge,
    iri,
    literal,
    parse_select,
    parse_timestamp,
    quad,
)
from chrono_rdf.materializer import UNBOUNDED
from chrono_rdf.sparql_engine import TripleIndex, evaluate

A = "https://x.example/a"
B = "https://x.example/b"
P = "https://x.example/p"
Q = "https://x.example/q"
G1 = "https://x.example/g1/"
G2 = "https://x.example/g2/"
DAY0 = parse_timestamp("2021-01-01T00:00:00")
T1, T2, T3, T4 = (DAY0 + timedelta(days=d) for d in range(1, 5))


def _version(entity: str, when, *quads) -> VersionedGraph:
    snap = Snapshot(id=f"{entity}/prov/se/{when:%d}", entity=entity, generated_at=when)
    return VersionedGraph(entity=entity, snapshot=snap, graphs=frozenset(quads),
                          reconstructed=True)


def _pv(s: str, o: str, graph: str = G1):
    return quad(iri(s), iri(P), literal(o), graph)


def _in_default_graph(data: GraphSet) -> GraphSet:
    # the engine matches the union of the graphs as a set of triples; the
    # reference counts quads, so a triple held in two graphs is given once
    return frozenset(quad(q.subject, q.predicate, q.object) for q in data)


def _answers(versions, text: str, interval: TimeInterval = UNBOUNDED):
    """The stamped answer at every key, checked against the reference."""
    timeline = align_and_merge(versions, interval)
    parsed = parse_select(text)
    answers = evaluate(parsed, timeline.stamps, keys=len(timeline.times))
    assert len(answers) == len(timeline.times)
    for t, answer in zip(timeline.times, answers):
        expected = brute_evaluate(parsed, _in_default_graph(timeline.datasets[t]))
        assert solutions_counter(answer) == expected, f"diverged at {t}"
    return timeline, answers


def _rows(answer) -> list[tuple[str, ...]]:
    """Each row's values, ordered by variable name."""
    return sorted(tuple(term.value for _name, term in b.values) for b in answer.rows)


def _shared(answers) -> list[bool]:
    return [later is earlier for earlier, later in zip(answers, answers[1:])]


class TestStampedCases:
    def test_one_triple_in_two_graphs_held_by_two_entities(self):
        # A holds the triple in one graph over keys 0-1, B in another over
        # keys 1-2; the union of the graphs holds it once, over keys 0-2
        timeline, answers = _answers(
            {
                A: [_version(A, T1, _pv(A, "v", G1)), _version(A, T3)],
                B: [_version(B, T2, _pv(A, "v", G2)), _version(B, T4)],
            },
            f"SELECT ?o WHERE {{ <{A}> <{P}> ?o }}",
        )
        assert timeline.stamps == {_pv(A, "v", G1): 0b0011, _pv(A, "v", G2): 0b0110}
        assert TripleIndex(timeline.stamps).stamps == {_pv(A, "v").triple: 0b0111}
        assert [_rows(a) for a in answers] == [[("v",)], [("v",)], [("v",)], []]
        assert _shared(answers) == [True, True, False]

    def test_an_entity_created_after_the_interval_opens(self):
        timeline, answers = _answers(
            {
                A: [_version(A, T1, _pv(A, "a1")), _version(A, T2, _pv(A, "a2"))],
                B: [_version(B, T3, _pv(B, "b"))],
            },
            f"SELECT ?s ?o WHERE {{ ?s <{P}> ?o }}",
            TimeInterval(T2, None),
        )
        assert timeline.times == (T2, T3)
        assert timeline.stamps[_pv(B, "b")] == 0b10
        assert [_rows(a) for a in answers] == [[("a2", A)], [("a2", A), ("b", B)]]

    def test_an_entity_emptied_and_then_recreated(self):
        timeline, answers = _answers(
            {A: [_version(A, T1, _pv(A, "a")), _version(A, T2), _version(A, T3, _pv(A, "a"))]},
            f"SELECT ?o WHERE {{ <{A}> <{P}> ?o }}",
        )
        assert timeline.stamps == {_pv(A, "a"): 0b101}
        assert timeline.datasets[T2] == frozenset()
        assert [_rows(a) for a in answers] == [[("a",)], [], [("a",)]]
        assert _shared(answers) == [False, False]

    def test_an_optional_extension_live_over_part_of_its_row(self):
        w1 = quad(iri(A), iri(Q), literal("w1"), G1)
        w2 = quad(iri(A), iri(Q), literal("w2"), G1)
        _timeline, answers = _answers(
            {A: [
                _version(A, T1, _pv(A, "v")),
                _version(A, T2, _pv(A, "v"), w1),
                _version(A, T3, _pv(A, "v"), w1, w2),
                _version(A, T4, _pv(A, "v")),
            ]},
            f"SELECT ?v ?w WHERE {{ <{A}> <{P}> ?v OPTIONAL {{ <{A}> <{Q}> ?w }} }}",
        )
        assert [_rows(a) for a in answers] == [
            [("v",)], [("v", "w1")], [("v", "w1"), ("v", "w2")], [("v",)],
        ]

    def test_distinct_rows_that_coincide_at_some_keys(self):
        versions = {
            A: [_version(A, T1, _pv(A, "x")), _version(A, T3)],
            B: [_version(B, T2, _pv(B, "x")), _version(B, T4)],
        }
        _timeline, answers = _answers(versions, f"SELECT DISTINCT ?o WHERE {{ ?s <{P}> ?o }}")
        assert [_rows(a) for a in answers] == [[("x",)], [("x",)], [("x",)], []]
        _timeline, answers = _answers(versions, f"SELECT ?o WHERE {{ ?s <{P}> ?o }}")
        assert [_rows(a) for a in answers] == [[("x",)], [("x",), ("x",)], [("x",)], []]

    def test_a_boundary_version_older_than_the_first_key(self):
        timeline, answers = _answers(
            {
                A: [_version(A, T1, _pv(A, "a1")), _version(A, T2, _pv(A, "a2")),
                    _version(A, T4, _pv(A, "a4"))],
                B: [_version(B, T3, _pv(B, "b"))],
            },
            f"SELECT ?s ?o WHERE {{ ?s <{P}> ?o }}",
            TimeInterval(T3, None),
        )
        assert timeline.times == (T3, T4)
        # the older of the two versions before the interval is never live
        assert _pv(A, "a1") not in timeline.stamps
        assert [_rows(a) for a in answers] == [[("a2", A), ("b", B)], [("a4", A), ("b", B)]]

    def test_an_empty_timeline(self):
        text = f"SELECT ?o WHERE {{ <{A}> <{P}> ?o }}"
        timeline, answers = _answers({}, text)
        assert timeline.times == () and answers == []
        # every version lies before the interval: state, but no key
        timeline, answers = _answers({A: [_version(A, T1, _pv(A, "a"))]}, text,
                                     TimeInterval(T2, None))
        assert timeline.times == () and not timeline.stamps and answers == []
        assert dict(timeline.datasets) == {}


# -- generated differential ----------------------------------------------------

_ENTITIES = [f"https://x.example/e{i}" for i in range(3)]
_P = ["https://x.example/p0", "https://x.example/p1"]
_OBJECTS = [iri(e) for e in _ENTITIES] + [literal(v) for v in ("a", "b", "ab")]
_QUADS = [
    quad(iri(s), iri(p), o, g)
    for s in _ENTITIES for p in _P for o in _OBJECTS for g in (G1, G2)
]
E0, E1 = _ENTITIES[:2]
P0, P1 = _P

# the menu: joined and isolated patterns, a repeated variable, OPTIONAL,
# FILTER and DISTINCT
QUERY_MENU = {
    "known-subject": f"SELECT ?p ?o WHERE {{ <{E0}> ?p ?o }}",
    "joined-chain": f"SELECT ?y ?z WHERE {{ <{E0}> <{P0}> ?y . ?y <{P1}> ?z }}",
    "isolated": f'SELECT ?s WHERE {{ ?s <{P1}> "a" }}',
    "repeated-variable": f"SELECT ?s WHERE {{ ?s <{P0}> ?s }}",
    "optional": f"SELECT ?s ?o ?w WHERE {{ ?s <{P0}> ?o OPTIONAL {{ ?o <{P1}> ?w }} }}",
    "two-optionals": (
        f"SELECT * WHERE {{ <{E1}> <{P0}> ?o"
        f" OPTIONAL {{ ?o <{P0}> ?x }} OPTIONAL {{ ?o <{P1}> ?y }} }}"
    ),
    "filter": f'SELECT ?s ?v WHERE {{ ?s <{P1}> ?v FILTER CONTAINS(?v, "a") }}',
    "distinct": f"SELECT DISTINCT ?o WHERE {{ ?s ?p ?o }}",
    "distinct-optional": (
        f"SELECT DISTINCT ?s ?w WHERE {{ ?s ?p ?o OPTIONAL {{ ?s <{P1}> ?w }} }}"
    ),
}


@st.composite
def version_sets(draw):
    """At most 3 entities with at most 5 versions each, over 8 days; the
    versions share one small vocabulary, so triples recur across entities,
    graphs and versions, and a version may be empty."""
    out = {}
    for entity in draw(st.lists(st.sampled_from(_ENTITIES), max_size=3, unique=True)):
        days = draw(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True))
        out[entity] = [
            _version(entity, DAY0 + timedelta(days=d),
                     *draw(st.lists(st.sampled_from(_QUADS), max_size=4)))
            for d in sorted(days)
        ]
    return out


@st.composite
def intervals(draw):
    start = draw(st.none() | st.integers(0, 7))
    end = draw(st.none() | st.integers(start or 0, 7))
    return TimeInterval(
        None if start is None else DAY0 + timedelta(days=start),
        None if end is None else DAY0 + timedelta(days=end),
    )


def _reference_keys(versions, interval) -> list:
    return sorted({v.time for vs in versions.values() for v in vs if v.time in interval})


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(versions=version_sets(), interval=intervals(), name=st.sampled_from(sorted(QUERY_MENU)))
def test_stamped_answers_equal_brute_evaluation_at_every_key(versions, interval, name):
    parsed = parse_select(QUERY_MENU[name])
    timeline = align_and_merge(versions, interval)
    answers = evaluate(parsed, timeline.stamps, keys=len(timeline.times))
    assert list(timeline.times) == _reference_keys(versions, interval)
    # the states rebuilt without stamps: each entity's newest version at or
    # before the key
    truth = {
        entity: SimpleNamespace(times=[v.time for v in vs], versions=[v.graphs for v in vs])
        for entity, vs in versions.items()
    }
    for t, answer in zip(timeline.times, answers):
        state = dataset_brute(truth, t)
        assert timeline.datasets[t] == state
        expected = brute_evaluate(parsed, _in_default_graph(state))
        assert solutions_counter(answer) == expected, f"{name} diverged at {t}"
