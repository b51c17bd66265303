"""Version reconstruction from current state plus inverted updates."""

from __future__ import annotations

import json
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chrono_rdf import (
    BeforeCreation,
    EntityHistory,
    NoHistory,
    Snapshot,
    TimeInterval,
    UNBOUNDED,
    apply_delta,
    classify,
    current_graph,
    format_timestamp,
    invert,
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
from chrono_rdf import materializer, version_query
from chrono_rdf.benchgen import (
    CITO_CITES,
    known_subject_query,
    scheme_query,
    value_regex_query,
)
from chrono_rdf.cli import main
from chrono_rdf.materializer import delta_applications, rebuild, select
from chrono_rdf.version_query import explicate

from oracles import ledger_reads, oracle_select
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

    def test_scope_delta_keeps_own_subject_only(self):
        mine = quad(iri(ID), iri("http://p.example/"), literal("a"), None)
        other = quad(iri(BR), iri("http://p.example/"), literal("b"), None)
        from chrono_rdf import blank
        anon = quad(blank("x"), iri("http://p.example/"), literal("c"), None)
        delta = make_delta(deletes=[other], inserts=[mine, anon])
        scoped = scope_delta(delta, ID)
        assert set(scoped.deletes) == set()
        # the rule current_graph reads the live data by: blank subjects too are out
        assert set(scoped.inserts) == {mine}


_HALF_DAY = timedelta(hours=12)
_EPOCH = datetime(2021, 1, 1)


def _moment(steps: int | None) -> datetime | None:
    return None if steps is None else _EPOCH + steps * _HALF_DAY


@st.composite
def _selection_cases(draw):
    """A history whose snapshots may share a time, and one request on it.

    Snapshots fall on whole days, request bounds on half days from
    before the first snapshot to after the last, so intervals open and
    close at, between, before and after snapshot times.
    """
    days = sorted(draw(st.lists(st.integers(0, 5), min_size=1, max_size=8)))
    history = EntityHistory(
        entity=ID,
        snapshots=tuple(
            Snapshot(id=f"{ID}/prov/se/{k + 1}", entity=ID, generated_at=_moment(2 * day))
            for k, day in enumerate(days)
        ),
    )
    bound = st.one_of(st.none(), st.integers(-2, 12))
    start, end = draw(bound), draw(bound)
    if start is not None and end is not None:
        if draw(st.booleans()):
            end = start  # an instant
        start, end = min(start, end), max(start, end)
    at = draw(st.one_of(st.none(), st.integers(-2, 12)))
    return history, TimeInterval(_moment(start), _moment(end)), draw(st.booleans()), _moment(at)


class TestSelect:
    @settings(max_examples=400, deadline=None)
    @given(_selection_cases())
    def test_matches_the_plain_rule(self, case):
        history, interval, boundary, at = case
        assert select(history, interval, boundary, at) == oracle_select(
            history, interval, boundary, at
        )


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


class TestNarrowedWalk:
    """rebuild with a quad test builds each version already narrowed."""

    HISTORY = load_history(ID, DOI_PROVENANCE)

    def test_an_update_that_narrows_to_nothing_is_not_applied(self):
        # the correction touches only the identifier's value
        def reads(q):
            return q.predicate.value != HAS_VALUE

        delta_applications.reset()
        versions = rebuild(ID, DOI_DATA, self.HISTORY, (0, 1), reads)
        assert delta_applications.count == 0
        narrowed = frozenset(filter(reads, current_graph(ID, DOI_DATA)))
        assert narrowed
        assert [v.graphs for v in versions] == [narrowed, narrowed]
        assert [v.reconstructed for v in versions] == [True, False]

    def test_a_narrowed_update_is_applied_narrowed(self):
        def reads(q):
            return q.predicate.value == HAS_VALUE

        delta_applications.reset()
        versions = rebuild(ID, DOI_DATA, self.HISTORY, (0, 1), reads)
        assert delta_applications.count == 1
        assert [_doi_value(v.graphs) for v in versions] == [WRONG_DOI, RIGHT_DOI]
        assert all(len(v.graphs) == 1 for v in versions)


_WALKED = "http://walk.example/e"
_WALK_POOL = [
    quad(iri(_WALKED), iri(f"http://p.example/{n % 3}"), literal(str(n)),
         None if n < 4 else "http://g.example/")
    for n in range(6)
]
_walk_sets = st.frozensets(st.sampled_from(_WALK_POOL), max_size=6)


@given(
    _walk_sets, _walk_sets, _walk_sets,
    st.none() | _walk_sets.map(lambda kept: kept.__contains__),
)
@settings(max_examples=200, deadline=None)
def test_one_chain_step_equals_the_inverted_update_narrowed(state, deletes, inserts, reads):
    # the two sides may share quads, and inserts may be missing from the state
    update = make_delta(deletes, inserts)
    history = EntityHistory(_WALKED, (
        Snapshot("http://walk.example/se/1", _WALKED, _EPOCH),
        Snapshot("http://walk.example/se/2", _WALKED, _EPOCH + _HALF_DAY, update=update),
    ))
    keep = reads or (lambda q: True)
    narrowed = make_delta(filter(keep, update.deletes), filter(keep, update.inserts))
    present = frozenset(filter(keep, state))
    walked = materializer._chain(_WALKED, state, history, 0, reads)
    assert walked == {1: present, 0: apply_delta(invert(narrowed), present)}


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
            explication = explicate(plan, ctx, at=at)
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


NARROWED_QUERIES = ("known-subject", "scheme", "value-regex", "seed ?p ?o")


@pytest.fixture(scope="module", params=["small_world", "big_world"])
def narrowing_world(request):
    """A world, its context, and a seed that cites something and changed."""
    world = request.getfixturevalue(request.param)
    seed = next(
        e
        for e, t in sorted(world.ledger.entities.items())
        if len(t.times) >= 4
        and any(s.kind == "modified" for s in t.snapshots)
        and any(q.predicate.value == CITO_CITES for v in t.versions for q in v)
    )
    return world, world.context(), seed


@pytest.mark.parametrize("which", NARROWED_QUERIES)
class TestNarrowedExplication:
    """explicate builds narrowed versions that equal the ledger's versions
    filtered by the query's patterns, at the same times, and walks exactly
    as far as it did when it built full versions."""

    def test_versions_match_the_filtered_ledger(self, narrowing_world, which, monkeypatch):
        world, ctx, seed = narrowing_world
        text = {
            "known-subject": known_subject_query(seed),
            "scheme": scheme_query(),
            "value-regex": value_regex_query(),
            "seed ?p ?o": f"SELECT ?p ?o WHERE {{ <{seed}> ?p ?o }}",
        }[which]
        query = parse_select(text)
        plan = classify(query)
        reads = ledger_reads(query)
        times = world.ledger.entities[seed].times
        cases = [
            (UNBOUNDED, None),
            (TimeInterval(times[1], times[-2]), None),
            (UNBOUNDED, times[len(times) // 2]),
        ]
        for interval, at in cases:
            got = explicate(plan, ctx, interval=interval, at=at)
            with monkeypatch.context() as patched:
                # the walk as it was before it narrowed: full versions
                patched.setattr(
                    version_query, "rebuild",
                    lambda entity, data, history, chosen, reads=None:
                        materializer.rebuild(entity, data, history, chosen),
                )
                full = explicate(plan, ctx, interval=interval, at=at)
            assert got.relevant == full.relevant
            assert got.snapshots_involved == full.snapshots_involved
            assert got.versions.keys() == full.versions.keys()
            walked = 0
            for entity, versions in got.versions.items():
                truth = world.ledger.entities[entity]
                chosen = oracle_select(ctx.history(entity), interval, boundary=True, at=at)
                assert [v.time for v in versions] == [truth.times[k] for k in chosen]
                assert [v.time for v in versions] == [v.time for v in full.versions[entity]]
                for v, k in zip(versions, chosen):
                    assert v.graphs == frozenset(filter(reads, truth.versions[k]))
                if chosen:
                    walked += len(truth.times) - chosen[0]
            assert got.snapshots_involved == walked
            assert got.versions, (which, interval, at)
