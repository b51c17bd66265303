"""Version reconstruction from current state plus inverted updates."""

from __future__ import annotations

import json
from datetime import datetime, timedelta

import pytest

from chrono_rdf import (
    BeforeCreation,
    NoHistory,
    TimeInterval,
    UNBOUNDED,
    classify,
    current_graph,
    format_timestamp,
    iri,
    literal,
    load_history,
    make_delta,
    materialize_all,
    materialize_at,
    materialize_span,
    parse_select,
    parse_timestamp,
    quad,
    scope_delta,
    serialize,
)
from chrono_rdf.cli import main
from chrono_rdf.version_query import explicate

from conftest import (
    BR,
    DOI_DATA,
    DOI_PROVENANCE,
    HAS_VALUE,
    ID,
    RIGHT_DOI,
    WRONG_DOI,
    CREATED_AT,
    FIXED_AT,
)


def _doi_value(graphs) -> str:
    values = [q.object.value for q in graphs if q.predicate.value == HAS_VALUE]
    assert len(values) == 1
    return values[0]


class TestInterval:
    def test_contains(self):
        interval = TimeInterval(
            parse_timestamp("2021-01-01T00:00:00"), parse_timestamp("2021-02-01T00:00:00")
        )
        assert parse_timestamp("2021-01-15T12:00:00") in interval
        assert parse_timestamp("2021-01-01T00:00:00") in interval
        assert parse_timestamp("2021-02-01T00:00:00") in interval
        assert parse_timestamp("2021-02-01T00:00:01") not in interval

    def test_half_open_sides(self):
        since = TimeInterval(parse_timestamp("2021-01-01T00:00:00"), None)
        until = TimeInterval(None, parse_timestamp("2021-01-01T00:00:00"))
        assert parse_timestamp("2030-01-01T00:00:00") in since
        assert parse_timestamp("2030-01-01T00:00:00") not in until
        assert parse_timestamp("1999-01-01T00:00:00") in until

    def test_unbounded(self):
        assert UNBOUNDED.is_unbounded
        assert parse_timestamp("1971-01-01T00:00:00") in UNBOUNDED

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(
                parse_timestamp("2021-02-01T00:00:00"),
                parse_timestamp("2021-01-01T00:00:00"),
            )


class TestScoping:
    def test_current_graph_selects_subject(self):
        graphs = current_graph(ID, DOI_DATA)
        assert graphs
        assert all(q.subject.value == ID for q in graphs)

    def test_scope_delta_keeps_own_and_blank_subjects(self):
        mine = quad(iri(ID), iri("http://p.example/"), literal("a"), None)
        other = quad(iri(BR), iri("http://p.example/"), literal("b"), None)
        from chrono_rdf import blank
        anon = quad(blank("x"), iri("http://p.example/"), literal("c"), None)
        delta = make_delta(deletes=[other], inserts=[mine, anon])
        scoped = scope_delta(delta, ID)
        assert set(scoped.deletes) == set()
        assert set(scoped.inserts) == {mine, anon}


class TestDoiCorrection:
    def test_current_state_has_corrected_doi(self):
        assert _doi_value(current_graph(ID, DOI_DATA)) == RIGHT_DOI

    def test_past_version_has_original_doi(self):
        when = parse_timestamp("2021-10-15T00:00:00")
        m = materialize_at(ID, when, DOI_DATA, DOI_PROVENANCE)
        assert _doi_value(m.version.graphs) == WRONG_DOI
        assert m.version.reconstructed
        assert m.version.snapshot.id == ID + "/prov/se/1"
        assert [s.id for s in m.other_snapshots] == [ID + "/prov/se/2"]

    def test_version_at_fix_time_is_current(self):
        m = materialize_at(ID, parse_timestamp(FIXED_AT), DOI_DATA, DOI_PROVENANCE)
        assert _doi_value(m.version.graphs) == RIGHT_DOI
        assert not m.version.reconstructed

    def test_only_value_differs_between_versions(self):
        old = materialize_at(
            ID, parse_timestamp(CREATED_AT), DOI_DATA, DOI_PROVENANCE
        ).version.graphs
        new = current_graph(ID, DOI_DATA)
        assert {q for q in old if q.predicate.value != HAS_VALUE} == {
            q for q in new if q.predicate.value != HAS_VALUE
        }

    def test_before_creation(self):
        with pytest.raises(BeforeCreation) as err:
            materialize_at(
                ID, parse_timestamp("2021-01-01T00:00:00"), DOI_DATA, DOI_PROVENANCE
            )
        assert err.value.entity == ID

    def test_no_history(self):
        with pytest.raises(NoHistory):
            materialize_at(
                "http://unknown.example/", parse_timestamp(FIXED_AT), DOI_DATA, frozenset()
            )

    def test_materialize_all(self):
        versions = materialize_all(ID, DOI_DATA, DOI_PROVENANCE)
        assert [(_doi_value(v.graphs), v.reconstructed) for v in versions] == [
            (WRONG_DOI, True),
            (RIGHT_DOI, False),
        ]
        assert versions[0].time == parse_timestamp(CREATED_AT)
        assert versions[1].time == parse_timestamp(FIXED_AT)

    def test_single_snapshot_entity(self):
        versions = materialize_all(BR, DOI_DATA, DOI_PROVENANCE)
        assert len(versions) == 1
        assert versions[0].graphs == current_graph(BR, DOI_DATA)
        assert not versions[0].reconstructed


class TestIntervals:
    def test_all_respects_interval(self):
        interval = TimeInterval(parse_timestamp("2021-10-12T00:00:00"), None)
        versions = materialize_all(ID, DOI_DATA, DOI_PROVENANCE, interval)
        assert [v.snapshot.id for v in versions] == [ID + "/prov/se/2"]

    def test_span_adds_boundary_version(self):
        interval = TimeInterval(parse_timestamp("2021-10-12T00:00:00"), None)
        versions = materialize_span(ID, DOI_DATA, DOI_PROVENANCE, interval)
        assert [v.snapshot.id for v in versions] == [
            ID + "/prov/se/1",
            ID + "/prov/se/2",
        ]

    def test_empty_interval(self):
        interval = TimeInterval(
            parse_timestamp("2021-10-11T00:00:00"), parse_timestamp("2021-10-12T00:00:00")
        )
        assert materialize_all(ID, DOI_DATA, DOI_PROVENANCE, interval) == []
        span = materialize_span(ID, DOI_DATA, DOI_PROVENANCE, interval)
        assert [v.snapshot.id for v in span] == [ID + "/prov/se/1"]

    def test_interval_before_creation_has_no_boundary(self):
        interval = TimeInterval(None, parse_timestamp("2021-01-01T00:00:00"))
        assert materialize_span(ID, DOI_DATA, DOI_PROVENANCE, interval) == []

    def test_interval_entirely_before_creation_with_start(self):
        interval = TimeInterval(
            parse_timestamp("2020-01-01T00:00:00"), parse_timestamp("2020-06-01T00:00:00")
        )
        assert materialize_span(ID, DOI_DATA, DOI_PROVENANCE, interval) == []


class TestAgainstLedger:
    def test_every_version_of_every_entity(self, small_world):
        ctx = small_world.context()
        for name, truth in small_world.ledger.entities.items():
            history = ctx.history(name)
            versions = materialize_all(name, ctx.entity_quads(name), history)
            assert [v.time for v in versions] == truth.times
            for version, expected in zip(versions, truth.versions):
                assert version.graphs == expected

    def test_spot_times_between_snapshots(self, small_world):
        ctx = small_world.context()
        for name, truth in list(small_world.ledger.entities.items())[:8]:
            if len(truth.times) < 2:
                continue
            between = truth.times[0] + (truth.times[1] - truth.times[0]) / 2
            between = between.replace(microsecond=0)
            m = materialize_at(name, between, ctx.entity_quads(name), ctx.history(name))
            assert m.version.graphs == truth.versions[0]


def _between(a: datetime, b: datetime) -> datetime:
    return (a + (b - a) / 2).replace(microsecond=0)


def _interval_case(times: list[datetime], start_kind: str, end_kind: str) -> TimeInterval:
    """An interval over an entity's snapshot times, named by where it opens.

    A closed end falls between the last two snapshots, or one day after
    the start when the start already lies past them.
    """
    day = timedelta(days=1)
    start = {
        "open": None,
        "at-snapshot": times[1],
        "between": _between(times[0], times[1]),
        "before-creation": times[0] - day,
        "after-last": times[-1] + day,
    }[start_kind]
    if end_kind == "open":
        return TimeInterval(start, None)
    if end_kind == "before-creation":
        return TimeInterval(start, times[0] - day)
    end = _between(times[-2], times[-1])
    if start is not None and start > end:
        end = start + day
    return TimeInterval(start, end)


def _ledger_versions(truth, interval: TimeInterval, boundary: bool) -> list[tuple]:
    """(time, graphs) the ledger holds in the interval, oldest first; with
    `boundary`, also the version live when the interval opens."""
    keep = [k for k, t in enumerate(truth.times) if t in interval]
    if boundary and interval.start is not None:
        live = [k for k, t in enumerate(truth.times) if t <= interval.start]
        if live and live[-1] not in keep:
            keep.insert(0, live[-1])
    return [(truth.times[k], truth.versions[k]) for k in keep]


BOUNDARY_CASES = [
    (start, end)
    for start in ("at-snapshot", "between", "before-creation", "after-last", "open")
    for end in ("closed", "open")
] + [("open", "before-creation")]


@pytest.fixture(scope="module", params=["small_world", "big_world"])
def boundary_world(request):
    """A world and two of its entities with at least three snapshots: one
    that lives on, one that is deleted along the way."""
    world = request.getfixturevalue(request.param)
    long_lived = sorted(
        (e, t) for e, t in world.ledger.entities.items() if len(t.times) >= 3
    )
    alive = next(e for e, t in long_lived if t.snapshots[-1].kind != "deleted")
    deleted = next(e for e, t in long_lived if any(s.kind == "deleted" for s in t.snapshots))
    return world, world.context(), (alive, deleted)


@pytest.mark.parametrize("start_kind,end_kind", BOUNDARY_CASES)
class TestSelectionBoundaries:
    """Every reader of the interval selection agrees with the ledger."""

    def test_materialize_all_and_span(self, boundary_world, start_kind, end_kind):
        world, ctx, entities = boundary_world
        for entity in entities:
            truth = world.ledger.entities[entity]
            interval = _interval_case(truth.times, start_kind, end_kind)
            data, history = ctx.entity_quads(entity), ctx.history(entity)
            for build, boundary in ((materialize_all, False), (materialize_span, True)):
                got = [(v.time, v.graphs) for v in build(entity, data, history, interval)]
                assert got == _ledger_versions(truth, interval, boundary), build.__name__

    def test_explicate_cross_version(self, boundary_world, start_kind, end_kind):
        world, ctx, entities = boundary_world
        for entity in entities:
            truth = world.ledger.entities[entity]
            interval = _interval_case(truth.times, start_kind, end_kind)
            plan = classify(parse_select(f"SELECT ?p ?o WHERE {{ <{entity}> ?p ?o }}"))
            explication = explicate(plan, ctx, interval=interval)
            got = [(v.time, v.graphs) for v in explication.versions[entity]]
            assert got == _ledger_versions(truth, interval, boundary=True)
            if (start_kind, end_kind) == ("open", "before-creation"):
                assert explication.snapshots_involved == 0

    def test_explicate_single_version_at_the_start(
        self, boundary_world, start_kind, end_kind
    ):
        world, ctx, entities = boundary_world
        for entity in entities:
            truth = world.ledger.entities[entity]
            at = _interval_case(truth.times, start_kind, end_kind).start
            if at is None:
                continue  # a single version needs an instant
            plan = classify(parse_select(f"SELECT ?p ?o WHERE {{ <{entity}> ?p ?o }}"))
            explication = explicate(plan, ctx, mode="single", at=at)
            got = [(v.time, v.graphs) for v in explication.versions[entity]]
            live = [(t, g) for t, g in zip(truth.times, truth.versions) if t <= at]
            assert got == live[-1:]

    def test_cli_materialize_all(
        self, boundary_world, start_kind, end_kind, tmp_path, capsys
    ):
        world, ctx, entities = boundary_world
        for entity in entities:
            truth = world.ledger.entities[entity]
            interval = _interval_case(truth.times, start_kind, end_kind)
            # only the entity's own quads and snapshots, so each call parses little
            provenance = ctx.provenance_sources[0].provenance_quads_for(entity)
            (tmp_path / "data.nq").write_text(
                serialize(ctx.entity_quads(entity)), encoding="utf-8"
            )
            (tmp_path / "prov.nq").write_text(serialize(provenance), encoding="utf-8")
            config = tmp_path / "sources.json"
            config.write_text(json.dumps({
                "data": [str(tmp_path / "data.nq")],
                "provenance": [str(tmp_path / "prov.nq")],
            }), encoding="utf-8")
            argv = ["--config", str(config), "materialize", entity, "--all"]
            if interval.start is not None:
                argv += ["--from", format_timestamp(interval.start)]
            if interval.end is not None:
                argv += ["--to", format_timestamp(interval.end)]
            assert main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            got = [(v["time"], v["graph"]) for v in doc["versions"]]
            expected = _ledger_versions(truth, interval, boundary=True)
            assert got == [(format_timestamp(t), serialize(g)) for t, g in expected]
