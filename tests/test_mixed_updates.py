"""An update that mentions a second entity, through the whole pipeline.

Entity A's second snapshot stores an update that changes a quad of A,
inserts a blank-subject quad and deletes a quad of entity B; A's third
snapshot stores an update that touches B only.  B records the same
changes in its own history.  Every reader of A's history, discovery
included, sees A's share of those updates only: the quads whose subject
is A, the rule the live data is read by.

Entity C's second snapshot deletes a blank-subject quad and replaces
C's title; no version of C may hold the blank-subject quad.
"""

from __future__ import annotations

import pytest

from chrono_rdf import (
    blank,
    execute_delta_query,
    execute_version_query,
    get_delta,
    iri,
    literal,
    materialize_all,
    materialize_at,
    memory_context,
    parse_timestamp,
    quad,
    render_update,
)

BASE = "https://mixed.example/"
A = BASE + "br/1"
B = BASE + "br/2"
C = BASE + "br/4"
G = BASE + "br/"
PROV = "http://www.w3.org/ns/prov#"
XSD_DATETIME = "http://www.w3.org/2001/XMLSchema#dateTime"
HAS_UPDATE = "https://w3id.org/oc/ontology/hasUpdateQuery"
TITLE = "http://purl.org/dc/terms/title"
CITES = "http://purl.org/spar/cito/cites"
NOTE = BASE + "note"
LABEL = BASE + "label"

T0, T1, T2, T3 = (f"2022-01-0{d}T00:00:00" for d in (1, 2, 3, 4))

A_OLD = quad(iri(A), iri(TITLE), literal("Old title"), G)
A_NEW = quad(iri(A), iri(TITLE), literal("New title"), G)
A_CITES = quad(iri(A), iri(CITES), iri(BASE + "br/3"), G)
PART = quad(blank("part"), iri(LABEL), literal("part"), G)
B_TITLE = quad(iri(B), iri(TITLE), literal("B"), G)
B_GONE = quad(iri(B), iri(NOTE), literal("b-value"), G)
B_EXTRA = quad(iri(B), iri(NOTE), literal("b-extra"), G)
C_OLD = quad(iri(C), iri(TITLE), literal("Old C"), G)
C_NEW = quad(iri(C), iri(TITLE), literal("New C"), G)
C_PART = quad(blank("c-part"), iri(LABEL), literal("c part"), G)

# (entity, snapshot number, time, update text)
SNAPSHOTS = [
    (A, 1, T1, None),
    (A, 2, T2, render_update([A_OLD, B_GONE], [A_NEW, PART])),
    (A, 3, T3, render_update([], [B_EXTRA])),
    (B, 1, T0, None),
    (B, 2, T2, render_update([B_GONE], [])),
    (B, 3, T3, render_update([], [B_EXTRA])),
]
C_SNAPSHOTS = [
    (C, 1, T1, None),
    (C, 2, T2, render_update([C_OLD, C_PART], [C_NEW])),
]


def _provenance(snapshots=SNAPSHOTS):
    quads = set()
    for entity, n, when, update in snapshots:
        se = iri(f"{entity}/prov/se/{n}")
        quads.add(quad(se, iri(PROV + "specializationOf"), iri(entity), G))
        quads.add(quad(se, iri(PROV + "generatedAtTime"), literal(when, XSD_DATETIME), G))
        if update is not None:
            quads.add(quad(se, iri(PROV + "wasDerivedFrom"), iri(f"{entity}/prov/se/{n - 1}"), G))
            quads.add(quad(se, iri(HAS_UPDATE), literal(update), G))
    return frozenset(quads)


A_VERSIONS = [(T1, {A_OLD, A_CITES}), (T2, {A_NEW, A_CITES}), (T3, {A_NEW, A_CITES})]
B_VERSIONS = [(T0, {B_TITLE, B_GONE}), (T2, {B_TITLE}), (T3, {B_TITLE, B_EXTRA})]


@pytest.fixture()
def ctx():
    return memory_context(frozenset({A_NEW, A_CITES, B_TITLE, B_EXTRA}), _provenance())


def _versions(entity, ctx):
    vs = materialize_all(entity, ctx.entity_quads(entity), ctx.history(entity))
    return [(v.time.isoformat(), set(v.graphs)) for v in vs]


def _subjects(quads):
    return {q.subject.value for q in quads if q.subject.is_iri}


class TestUpdateMentioningASecondEntity:
    def test_versions_of_a_hold_only_a(self, ctx):
        assert _versions(A, ctx) == A_VERSIONS
        for when, graphs in A_VERSIONS:
            got = materialize_at(A, parse_timestamp(when), ctx.entity_quads(A), ctx.history(A))
            assert set(got.version.graphs) == graphs
            assert _subjects(got.version.graphs) == {A}

    def test_versions_of_b_are_its_own(self, ctx):
        assert _versions(B, ctx) == B_VERSIONS

    def test_known_subject_cross_version_query(self, ctx):
        outcome = execute_version_query(f"SELECT ?p ?o WHERE {{ <{A}> ?p ?o }}", ctx)
        rows = {
            key: {(b.get("p").value, b.get("o").value) for b in answer}
            for key, answer in outcome.results.items()
        }
        old = {(TITLE, "Old title"), (CITES, BASE + "br/3")}
        new = {(TITLE, "New title"), (CITES, BASE + "br/3")}
        assert rows == {T1: old, T2: new, T3: new}

    def test_get_delta_is_the_net_change_of_a(self, ctx):
        pair = get_delta(A, A + "/prov/se/2", ctx.entity_quads(A), ctx.history(A))
        assert pair.removed == {A_OLD}
        # the blank-subject quad is out of scope: no version of A holds it
        assert pair.added == {A_NEW}
        untouched = get_delta(A, A + "/prov/se/3", ctx.entity_quads(A), ctx.history(A))
        assert not untouched.added and not untouched.removed

    def test_delta_query_skips_the_update_that_touches_b_only(self, ctx):
        outcome = execute_delta_query(f"SELECT ?p ?o WHERE {{ <{A}> ?p ?o }}", ctx)
        assert [(r.entity, r.snapshot) for r in outcome.report] == [(A, A + "/prov/se/2")]
        (record,) = outcome.report
        assert record.kind == "modified"
        assert _subjects(record.delta.added | record.delta.removed) == {A}

    def test_term_search_reads_each_entitys_share(self, ctx):
        outcome = execute_version_query(f'SELECT ?s WHERE {{ ?s <{NOTE}> "b-value" }}', ctx)
        # A's update deletes B's quad, which is B's share, not A's
        assert outcome.relevant_entities == {B}
        assert {b.get("s").value for answer in outcome.results.values() for b in answer} == {B}


class TestUpdateDeletingABlankSubjectQuad:
    @pytest.fixture()
    def c_ctx(self):
        return memory_context(frozenset({C_NEW}), _provenance(C_SNAPSHOTS))

    def test_every_rebuilt_version_holds_only_the_entity(self, c_ctx):
        history = c_ctx.history(C)
        versions = materialize_all(C, c_ctx.entity_quads(C), history)
        assert [(v.time.isoformat(), set(v.graphs)) for v in versions] == [
            (T1, {C_OLD}),
            (T2, {C_NEW}),
        ]
        for v in versions:
            at = materialize_at(C, v.time, c_ctx.entity_quads(C), history).version
            for graphs in (v.graphs, at.graphs):
                assert all(q.subject.is_iri and q.subject.value == C for q in graphs)

    def test_get_delta_reports_only_quads_some_version_holds(self, c_ctx):
        pair = get_delta(C, C + "/prov/se/2", c_ctx.entity_quads(C), c_ctx.history(C))
        assert (pair.added, pair.removed) == ({C_NEW}, {C_OLD})
