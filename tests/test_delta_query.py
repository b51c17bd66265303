"""Change reports: per-snapshot records, filters, and deletion detection."""

from __future__ import annotations

import pytest

from conftest import (
    BR,
    FIXED_AT,
    HAS_VALUE,
    ID,
    ID_GRAPH,
    RIGHT_DOI,
    TITLE,
    USES_SCHEME,
    WRONG_DOI,
    XSD_STRING,
)
from oracles import version_diffs

from chrono_rdf import (
    Delta,
    DeltaPair,
    NoSuchSnapshot,
    TimeInterval,
    execute_delta_query,
    get_delta,
    iri,
    literal,
    memory_context,
    net_pair,
    parse_timestamp,
    quad,
    touches,
)
from chrono_rdf import delta_query, materializer
from chrono_rdf.benchgen import CITO_CITES, known_subject_query, scheme_query

WRONG_QUAD = quad(iri(ID), iri(HAS_VALUE), literal(WRONG_DOI, XSD_STRING), ID_GRAPH)
RIGHT_QUAD = quad(iri(ID), iri(HAS_VALUE), literal(RIGHT_DOI, XSD_STRING), ID_GRAPH)


class TestNetPair:
    def test_overlap_cancels(self):
        other = quad(iri(ID), iri(HAS_VALUE), literal("x"), ID_GRAPH)
        delta = Delta(deletes=(WRONG_QUAD, other), inserts=(RIGHT_QUAD, other))
        pair = net_pair(delta)
        assert pair == DeltaPair(
            added=frozenset({RIGHT_QUAD}), removed=frozenset({WRONG_QUAD})
        )

    def test_pure_insert(self):
        pair = net_pair(Delta(deletes=(), inserts=(RIGHT_QUAD,)))
        assert pair.added == {RIGHT_QUAD} and not pair.removed


class TestTouches:
    def test_predicate_membership(self):
        delta = Delta(deletes=(WRONG_QUAD,), inserts=(RIGHT_QUAD,))
        assert touches(delta, [HAS_VALUE])
        assert touches(delta, [USES_SCHEME, HAS_VALUE])
        assert not touches(delta, [USES_SCHEME])
        assert not touches(delta, [])


class TestGetDelta:
    @pytest.fixture()
    def ctx(self, doi_data, doi_provenance):
        return memory_context(doi_data, doi_provenance)

    def test_creation_change_is_the_first_version(self, ctx):
        history = ctx.history(ID)
        pair = get_delta(ID, ID + "/prov/se/1", ctx.entity_quads(ID), history)
        assert pair.removed == frozenset()
        assert WRONG_QUAD in pair.added
        assert RIGHT_QUAD not in pair.added
        assert len(pair.added) == 3  # type, scheme, value

    def test_update_change_is_its_net_effect(self, ctx):
        history = ctx.history(ID)
        pair = get_delta(ID, ID + "/prov/se/2", ctx.entity_quads(ID), history)
        assert pair == DeltaPair(
            added=frozenset({RIGHT_QUAD}), removed=frozenset({WRONG_QUAD})
        )

    def test_unknown_snapshot_id(self, ctx):
        history = ctx.history(ID)
        with pytest.raises(NoSuchSnapshot):
            get_delta(ID, ID + "/prov/se/9", ctx.entity_quads(ID), history)


class TestDoiWorldReport:
    @pytest.fixture()
    def ctx(self, doi_data, doi_provenance):
        return memory_context(doi_data, doi_provenance)

    def test_one_record_for_the_correction(self, ctx):
        outcome = execute_delta_query(
            f"SELECT ?v WHERE {{ <{ID}> <{HAS_VALUE}> ?v }}", ctx
        )
        (record,) = outcome.report
        assert record.entity == ID
        assert record.snapshot == ID + "/prov/se/2"
        assert record.time == parse_timestamp(FIXED_AT)
        assert record.kind == "modified"
        assert record.description == f"The entity '{ID}' has been modified."
        assert record.delta == DeltaPair(
            added=frozenset({RIGHT_QUAD}), removed=frozenset({WRONG_QUAD})
        )

    def test_creations_do_not_show_up(self, ctx):
        outcome = execute_delta_query(
            f"SELECT ?t WHERE {{ <{BR}> <{TITLE}> ?t }}", ctx
        )
        assert len(outcome.report) == 0
        assert BR in outcome.relevant_entities

    def test_property_filter_keeps_matching_changes(self, ctx):
        query = f"SELECT ?v WHERE {{ <{ID}> <{HAS_VALUE}> ?v }}"
        kept = execute_delta_query(query, ctx, properties=[HAS_VALUE])
        dropped = execute_delta_query(query, ctx, properties=[USES_SCHEME])
        assert len(kept.report) == 1
        assert len(dropped.report) == 0

    def test_interval_filter(self, ctx):
        query = f"SELECT ?v WHERE {{ <{ID}> <{HAS_VALUE}> ?v }}"
        before = execute_delta_query(
            query, ctx, interval=TimeInterval(None, parse_timestamp("2021-10-15T00:00:00"))
        )
        after = execute_delta_query(
            query, ctx, interval=TimeInterval(parse_timestamp("2021-10-15T00:00:00"), None)
        )
        assert len(before.report) == 0
        assert len(after.report) == 1


class TestGeneratedWorldReport:
    @pytest.fixture()
    def outcome(self, small_world):
        return execute_delta_query(scheme_query(), small_world.context())

    def test_records_match_the_ledger_diffs(self, small_world, outcome):
        by_entity: dict[str, list] = {}
        for record in outcome.report:
            by_entity.setdefault(record.entity, []).append(record)
        checked = 0
        for entity in sorted(outcome.relevant_entities):
            truth = small_world.ledger.entities.get(entity)
            if truth is None:
                continue
            records = by_entity.get(entity, [])
            expected = version_diffs(truth.times, truth.versions)
            assert len(records) == len(expected)
            for record, (t, added, removed) in zip(records, expected):
                assert record.time == t
                assert record.delta.added == added
                assert record.delta.removed == removed
                checked += 1
        assert checked > 0

    def test_deletions_are_named_as_such(self, small_world, outcome):
        dead = {
            e
            for e, h in small_world.ledger.entities.items()
            if h.snapshots[-1].kind == "deleted" and e in outcome.report.entities()
        }
        assert dead, "corpus lost its deleted identifiers"
        for record in outcome.report:
            truth = small_world.ledger.entities[record.entity]
            wants = truth.snapshots[
                truth.times.index(record.time)
            ].kind
            if wants == "deleted":
                assert record.kind == "deleted"
                assert not record.delta.added
            else:
                assert record.kind == "modified"

    def test_records_are_sorted(self, outcome):
        keys = [(r.time, r.entity, r.snapshot) for r in outcome.report]
        assert keys == sorted(keys)

    def test_entities_found_by_search_are_counted(self, small_world, outcome):
        assert outcome.entities_involved == len(outcome.relevant_entities)
        assert outcome.report.entities() <= outcome.relevant_entities

    def test_interval_restricts_records(self, small_world, outcome):
        times = sorted({r.time for r in outcome.report})
        assert len(times) >= 2, "need at least two change moments"
        cut = times[len(times) // 2]
        clipped = execute_delta_query(
            scheme_query(),
            small_world.context(),
            interval=TimeInterval(cut, None),
        )
        expected = [r for r in outcome.report if r.time >= cut]
        got = list(clipped.report)
        assert [(r.entity, r.snapshot) for r in got] == [
            (r.entity, r.snapshot) for r in expected
        ]


class TestDiscoveryWalks:
    """In delta mode discovery walks a chain only to chase a subject variable."""

    @pytest.fixture()
    def walks(self, monkeypatch):
        """(entity, quad test) of every chain walk, in order."""
        seen: list[tuple] = []
        walk = materializer._chain

        def counted(entity, data, history, floor, reads=None):
            seen.append((entity, reads))
            return walk(entity, data, history, floor, reads)

        monkeypatch.setattr(materializer, "_chain", counted)
        monkeypatch.setattr(delta_query, "cached_chain", counted)
        return seen

    def test_no_subject_variable_leaves_only_the_deleted_check(self, small_world, walks):
        entity = next(
            e
            for e, t in sorted(small_world.ledger.entities.items())
            if len(t.times) >= 3 and t.snapshots[-1].kind == "deleted"
        )
        text = f"SELECT ?p ?o WHERE {{ <{entity}> ?p ?o }}"
        outcome = execute_delta_query(text, small_world.context())
        assert outcome.relevant_entities == {entity}
        assert any(r.kind == "deleted" for r in outcome.report)
        # the check rebuilds full versions; discovery walked nothing
        assert walks == [(entity, None)]

    def test_a_subject_variable_is_still_chased(self, small_world, walks):
        seed = next(
            e
            for e, t in sorted(small_world.ledger.entities.items())
            if any(q.predicate.value == CITO_CITES for v in t.versions for q in v)
        )
        outcome = execute_delta_query(known_subject_query(seed), small_world.context())
        entity, reads = walks[0]
        assert entity == seed and reads is not None
        assert outcome.relevant_entities > {seed}
