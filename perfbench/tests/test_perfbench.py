"""Tests of the benchmark's own code: streams, tail helper, gate and spans.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from chrono_rdf import cli  # noqa: E402
from chrono_rdf.benchgen import GenSpec, generate  # noqa: E402
from chrono_rdf.sparql_engine import SolutionSet  # noqa: E402
from chrono_rdf.version_query import execute_version_query  # noqa: E402
from chrono_rdf.delta_query import execute_delta_query  # noqa: E402

from perfbench import harness, oracle, spans, stats, streams  # noqa: E402


@pytest.fixture(scope="module")
def world():
    return generate(GenSpec(seed=5, n_entities=24))


def _cited_entity(world) -> str:
    """A work whose known-subject query has rows at some key."""
    for entity in sorted(world.ledger.entities):
        if "/br/" not in entity:
            continue
        outcome = execute_version_query(
            streams.query_text({"entity": entity}), world.context())
        if any(len(rows) for rows in outcome.results.values()):
            return entity
    raise AssertionError("generated world has no citing work")


# -- seeded streams ----------------------------------------------------------


@pytest.mark.parametrize("build", [streams.point_lookups, streams.whole_history])
def test_same_seed_gives_identical_request_list(world, build):
    first = build(world.ledger, 7, count=300)
    assert first == build(world.ledger, 7, count=300)
    assert first != build(world.ledger, 8, count=300)


def test_same_seed_gives_identical_cli_calls(world):
    assert streams.cli_calls(world.ledger, 7) == streams.cli_calls(world.ledger, 7)


def test_seeds_share_the_entities_whose_costs_spread_widely(world):
    def entities(requests, op):
        return sorted(r["entity"] for r in requests if r["op"] == op)

    # one block of the mix: no pool is drawn more than once
    first, second = (streams.whole_history(world.ledger, seed, count=40) for seed in (7, 8))
    for op in ("known_range", "known_delta", "materialize_all"):
        assert entities(first, op) == entities(second, op)
    first, second = (streams.point_lookups(world.ledger, seed, count=40) for seed in (7, 8))
    at = {r["entity"]: r["at"] for r in first if r["op"] == "materialize_at"}
    assert at == {r["entity"]: r["at"] for r in second if r["op"] == "materialize_at"}


def test_streams_draw_mostly_distinct_requests(world):
    requests = streams.point_lookups(world.ledger, 3, count=500)
    distinct = {json.dumps(r, sort_keys=True) for r in requests}
    assert len(distinct) > 0.9 * len(requests)


# -- the tail helper -----------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_percentile_interpolates_between_order_statistics():
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)


# -- rounds ----------------------------------------------------------------------


def test_best_times_keeps_each_requests_fastest_round():
    records = [
        {"pass": "timed", "round": 0, "i": 0, "kind": "delta", "s": 0.3},
        {"pass": "timed", "round": 0, "i": 1, "kind": "materialize", "s": 0.1},
        {"pass": "timed", "round": 0, "i": 2, "kind": "delta", "s": 0.2},
        {"pass": "timed", "round": 1, "i": 0, "kind": "delta", "s": 0.25},
        {"pass": "timed", "round": 1, "i": 1, "kind": "materialize", "s": 0.4},
        {"pass": "timed", "round": 1, "i": 2, "kind": "delta", "error": "boom"},
    ]
    best = harness.best_times(records)
    assert [(r["i"], r["s"]) for r in best] == [(0, 0.25), (1, 0.1)]


def test_gate_fails_a_later_round_that_differs_from_the_first(world):
    entity = _cited_entity(world)
    req = {"op": "known_range", "kind": "version_range", "entity": entity}
    answer = oracle.from_version_outcome(
        execute_version_query(streams.query_text(req), world.context()))
    changed = dict(answer, keys=answer["keys"][1:])
    records = [
        {"pass": "timed", "round": r, "i": 0, "kind": req["kind"], "s": 0.1, "answer": a}
        for r, a in enumerate((answer, answer, changed))
    ]
    failures = harness._gate(records, [req], world.ledger)
    assert failures == [
        "request 0 (version_range, round 2): answer differs from the first round's"]


# -- the gate ------------------------------------------------------------------


def test_gate_accepts_the_engines_answers(world):
    gate = oracle.Gate(world.ledger)
    ctx = world.context()
    entity = _cited_entity(world)
    for req in (
        {"op": "known_range", "kind": "version_range", "entity": entity},
        {"op": "scheme_full", "kind": "version_range", "scheme": streams.SCHEMES[0]},
    ):
        outcome = execute_version_query(streams.query_text(req), ctx)
        assert gate.check(req, oracle.from_version_outcome(outcome)) is None
    req = {"op": "known_delta", "kind": "delta", "entity": entity}
    outcome = execute_delta_query(streams.query_text(req), ctx)
    assert gate.check(req, oracle.from_delta_outcome(outcome)) is None


def test_gate_fails_a_dropped_row(world):
    entity = _cited_entity(world)
    req = {"op": "known_range", "kind": "version_range", "entity": entity}
    outcome = execute_version_query(streams.query_text(req), world.context())
    key = next(k for k, rows in outcome.results.items() if len(rows))
    results = dict(outcome.results)
    results[key] = SolutionSet(results[key].rows[1:])
    corrupted = dataclasses.replace(outcome, results=results)
    problem = oracle.Gate(world.ledger).check(req, oracle.from_version_outcome(corrupted))
    assert problem == f"rows differ at {key}"


def test_gate_fails_a_wrong_timeline_key(world):
    entity = _cited_entity(world)
    req = {"op": "known_range", "kind": "version_range", "entity": entity}
    outcome = execute_version_query(streams.query_text(req), world.context())
    answer = oracle.from_version_outcome(outcome)
    answer["keys"][0] = "1999-01-01T00:00:00"
    assert "timeline keys differ" in oracle.Gate(world.ledger).check(req, answer)


def _needle(world, op: str) -> dict:
    return next(r for r in streams.point_lookups(world.ledger, 3, count=200) if r["op"] == op)


@pytest.mark.parametrize("op", ["needle_at", "needle_all"])
def test_gate_fails_a_needle_whose_holder_discovery_missed(world, monkeypatch, op):
    from chrono_rdf import sources, version_query

    req = _needle(world, op)
    at, _, _ = streams.times(req)
    gate = oracle.Gate(world.ledger)
    outcome = execute_version_query(streams.query_text(req), world.context(), at=at)
    assert gate.check(req, oracle.from_version_outcome(outcome, single=at is not None)) is None
    # discovery finds nothing: no entity, so no keys beyond `at` and no rows
    monkeypatch.setattr(version_query, "search_deltas", lambda *a, **k: frozenset())
    monkeypatch.setattr(sources.Context, "match_subjects", lambda self, pattern: set())
    outcome = execute_version_query(streams.query_text(req), world.context(), at=at)
    assert not outcome.relevant_entities
    problem = gate.check(req, oracle.from_version_outcome(outcome, single=at is not None))
    assert problem is not None and problem.startswith("relevant entities differ: missing")


@pytest.mark.parametrize("op, kind", [("known_range", "version_range"), ("known_delta", "delta")])
def test_gate_fails_cited_works_dropped_with_their_rows(world, monkeypatch, op, kind):
    from chrono_rdf import version_query

    req = {"op": op, "kind": kind, "entity": _cited_entity(world)}
    # no pattern ever promotes an entity: only the seed is relevant, and
    # with the cited works gone the answer has no rows and fewer changes
    monkeypatch.setattr(version_query, "match_pattern", lambda *a, **k: iter(()))
    run = execute_delta_query if kind == "delta" else execute_version_query
    outcome = run(streams.query_text(req), world.context())
    assert outcome.relevant_entities == {req["entity"]}
    canonical = oracle.from_delta_outcome if kind == "delta" else oracle.from_version_outcome
    problem = oracle.Gate(world.ledger).check(req, canonical(outcome))
    assert problem is not None and problem.startswith("relevant entities differ: missing")


def test_gate_fails_a_dropped_change_record(world):
    entity = _cited_entity(world)
    req = {"op": "known_delta", "kind": "delta", "entity": entity}
    outcome = execute_delta_query(streams.query_text(req), world.context())
    report = dataclasses.replace(outcome.report, records=outcome.report.records[1:])
    corrupted = dataclasses.replace(outcome, report=report)
    problem = oracle.Gate(world.ledger).check(req, oracle.from_delta_outcome(corrupted))
    assert problem is not None


def test_cli_output_reduces_to_the_library_answer(world, tmp_path, capsys):
    world.save(tmp_path, include_ledger=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": [str(tmp_path / "data.nq")],
                                  "provenance": [str(tmp_path / "provenance.nq")]}))
    req = {"op": "cli_query", "kind": "version_range", "scheme": streams.SCHEMES[0]}
    query = tmp_path / "q.rq"
    query.write_text(streams.query_text(req))
    assert cli.main(["--config", str(config), "query", "--file", str(query)]) == 0
    from_cli = oracle.from_cli(req, json.loads(capsys.readouterr().out))
    outcome = execute_version_query(streams.query_text(req), world.context())
    assert from_cli == oracle.from_version_outcome(outcome)
    assert oracle.Gate(world.ledger).check(req, from_cli) is None


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    spans_list = [
        ("outer", 0.0, 10.0, -1, 0),
        ("inner", 1.0, 4.0, 0, 0),
        ("inner", 5.0, 6.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
    ]
    summary = spans.summarize(spans_list)
    assert summary["outer"] == {"n": 1, "dur": 10.0, "self": 6.0}
    assert summary["inner"] == {"n": 2, "dur": 4.0, "self": 3.0}


def test_a_missing_hook_target_is_reported_absent():
    recorder = spans.Recorder()
    hooks = spans.Hooks(recorder).install([
        ("version_query", "no_such_function", "version_query.gone", None),
        ("sources", "NoSuchClass.method", "sources.gone", None),
    ])
    try:
        assert hooks.absent == {"version_query.gone", "sources.gone"}
    finally:
        hooks.remove()


def test_hooks_record_spans_and_restore_the_program(world):
    from chrono_rdf import version_query

    original = version_query.evaluate
    recorder = spans.Recorder()
    hooks = spans.Hooks(recorder).install(spans.HOOKS).count_index_builds()
    try:
        execute_version_query(streams.query_text({"scheme": streams.SCHEMES[0]}),
                              world.context())
    finally:
        hooks.remove()
    assert version_query.evaluate is original
    data = recorder.take()
    names = {s[0] for s in data["spans"]}
    assert {"version_query.explicate", "sparql_engine.evaluate"} <= names
    assert data["counts"]["sparql_engine.triple_index_builds"] > 0


def test_delta_applications_come_from_the_programs_counter(world, monkeypatch):
    from chrono_rdf import materializer

    entity = _cited_entity(world)
    ctx = world.context()
    history = ctx.history(entity)
    counts, absent = spans.Counter(), set()
    with spans.DeltaApplications(counts, absent):
        materializer.materialize_all(entity, ctx.entity_quads(entity), history)
    assert not absent
    assert counts[spans.DeltaApplications.NAME] == len(history.snapshots) - 1

    monkeypatch.delattr(materializer, "delta_applications")
    counts, absent = spans.Counter(), set()
    with spans.DeltaApplications(counts, absent):
        pass
    assert absent == {spans.DeltaApplications.NAME} and not counts
    values = spans.layer_metrics(spans.merge([]), 1, spans.merge([]), 1, absent)
    assert "materializer.delta_applications" not in values


def test_peak_rss_is_the_childs_own_not_the_parents():
    import subprocess

    ballast = b"x" * (160 * 2**20)  # written, so resident in this process
    assert spans.peak_rss_mb() > 160
    child = subprocess.run(
        [sys.executable, "-c", "from perfbench import spans; print(spans.peak_rss_mb())"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    del ballast
    assert 1.0 < float(child.stdout) < 80
