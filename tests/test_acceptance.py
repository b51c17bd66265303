"""End-to-end checks over the whole engine, one per shipped guarantee.

Each test prints a PASS line on success so a full run reads as a
checklist.  The generated worlds come from the session fixtures; the
hand-built correction history comes from conftest.
"""

from __future__ import annotations

import json
import random
import time
from datetime import timedelta

import pytest

from conftest import HAS_VALUE, ID, ID_GRAPH, RIGHT_DOI, WRONG_DOI, XSD_STRING
from oracles import oracle_classify, parsed_term_postings, parsed_term_search, version_diffs
from query_corpus import CASES

from chrono_rdf import (
    BeforeCreation,
    TimeInterval,
    UnboundedQuery,
    apply_delta,
    classify,
    compose,
    evaluate,
    execute_delta_query,
    execute_version_query,
    invert,
    iri,
    literal,
    materialize_all,
    materialize_at,
    parse_select,
    parse_timestamp,
    parse_update,
    quad,
    search_deltas,
    serialize,
)
from chrono_rdf import version_query
from chrono_rdf.benchgen import (
    BASE_IRI,
    DATACITE_DOI,
    DATACITE_ISSN,
    DATACITE_ORCID,
    DATACITE_USES_SCHEME,
    LITERAL_HAS_VALUE,
    GenSpec,
    generate,
    known_subject_query,
    scheme_query,
    value_regex_query,
)
from chrono_rdf.cli import main
from chrono_rdf.materializer import delta_applications
from chrono_rdf.rdf_model import quad_line


@pytest.fixture()
def announce(request):
    """Print straight to the terminal, past pytest's capture."""
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(k: int) -> None:
        with manager.global_and_fixture_disabled():
            print(f"ACCEPTANCE {k}: PASS", flush=True)

    return _announce


def _subjects(world, n: int, seed: int) -> list[str]:
    candidates = [
        e
        for e in sorted(world.ledger.entities)
        if "/br/" in e
        and len(world.ledger.entities[e].times) >= 3
        and any(
            q.predicate.value.endswith("cites")
            for v in world.ledger.entities[e].versions
            for q in v
        )
    ]
    return sorted(random.Random(seed).sample(candidates, n))


def _version_query_corpus(small_world, big_world) -> list[tuple]:
    """Twenty (world, query text) pairs mixing anchored and isolated shapes."""
    corpus = []
    for subject in _subjects(big_world, 6, seed=77):
        corpus.append((big_world, known_subject_query(subject)))
    for subject in _subjects(small_world, 6, seed=78):
        corpus.append((small_world, known_subject_query(subject)))
    corpus.extend(
        (small_world, text)
        for text in (
            scheme_query(DATACITE_ORCID),
            scheme_query(DATACITE_DOI),
            scheme_query(DATACITE_ISSN),
            value_regex_query("\\.$"),
            value_regex_query("item\\.3\\."),
            f"SELECT ?s ?v WHERE {{ ?s <{LITERAL_HAS_VALUE}> ?v ."
            f" ?s <{DATACITE_USES_SCHEME}> <{DATACITE_DOI}> }}",
            "SELECT ?br ?id WHERE {"
            f" <{BASE_IRI}br/0> <http://purl.org/spar/cito/cites> ?br ."
            " ?br <http://purl.org/spar/datacite/hasIdentifier> ?id }",
            f"SELECT DISTINCT ?s WHERE {{ ?s <{DATACITE_USES_SCHEME}> ?scheme ."
            f" ?s <{LITERAL_HAS_VALUE}> ?v ."
            ' FILTER CONTAINS(?v, "10.") }',
        )
    )
    assert len(corpus) == 20
    return corpus


def _check_against_ledger(world, text: str) -> int:
    parsed = parse_select(text)
    outcome = execute_version_query(parsed, world.context())
    for key, got in outcome.results.items():
        expected = evaluate(
            parsed,
            world.ledger.dataset_at(
                parse_timestamp(key), restrict=outcome.relevant_entities
            ),
        )
        assert got == expected, f"diverged at {key} for:\n{text}"
    return len(outcome.results)


def test_criterion_1_correction_history_end_to_end(doi_files, tmp_path, capsys, announce):
    data_path, prov_path = doi_files
    config = tmp_path / "sources.json"
    config.write_text(
        json.dumps({"data": [str(data_path)], "provenance": [str(prov_path)]}),
        encoding="utf-8",
    )
    wrong_line = quad_line(
        quad(iri(ID), iri(HAS_VALUE), literal(WRONG_DOI, XSD_STRING), ID_GRAPH)
    )
    right_line = quad_line(
        quad(iri(ID), iri(HAS_VALUE), literal(RIGHT_DOI, XSD_STRING), ID_GRAPH)
    )

    started = time.perf_counter()
    code = main([
        "--config", str(config),
        "materialize", ID, "--at", "2021-10-15T00:00:00", "--format", "nquads",
    ])
    elapsed = time.perf_counter() - started
    earlier = capsys.readouterr().out
    assert code == 0 and elapsed < 1.0

    started = time.perf_counter()
    code = main([
        "--config", str(config),
        "materialize", ID, "--at", "2021-10-20T00:00:00", "--format", "nquads",
    ])
    elapsed = time.perf_counter() - started
    later = capsys.readouterr().out
    assert code == 0 and elapsed < 1.0

    assert [l for l in earlier.splitlines() if HAS_VALUE in l] == [wrong_line]
    assert [l for l in later.splitlines() if HAS_VALUE in l] == [right_line]
    assert WRONG_DOI.endswith(".") and not RIGHT_DOI.endswith(".")
    announce(1)


def test_criterion_2_inversion_and_composition(big_world, announce):
    updates = {}
    for q in big_world.provenance:
        if q.predicate.value == "https://w3id.org/oc/ontology/hasUpdateQuery":
            updates[q.subject.value] = q.object.value

    checked = 0
    for entity in sorted(big_world.ledger.entities):
        truth = big_world.ledger.entities[entity]
        deltas = []
        for snap in truth.snapshots[1:]:
            delta = parse_update(updates[snap.id])
            assert invert(invert(delta)) == delta
            deltas.append(delta)
            checked += 1
        state = truth.versions[0]
        for delta, version in zip(deltas, truth.versions[1:]):
            state = apply_delta(delta, state)
            assert state == version
        assert apply_delta(compose(deltas), truth.versions[0]) == truth.versions[-1]
        if checked >= 1000:
            break
    assert checked >= 1000
    announce(2)


def test_criterion_3_materialization_against_the_ledger(big_world, announce):
    ctx = big_world.context()
    ledger = big_world.ledger
    entities = sorted(ledger.entities)
    all_times = ledger.change_times()
    horizon_start = all_times[0] - timedelta(days=2)
    horizon = (all_times[-1] - horizon_start) + timedelta(days=30)
    rng = random.Random(1234)

    hits = 0
    for _ in range(200):
        entity = rng.choice(entities)
        when = horizon_start + timedelta(seconds=rng.uniform(0, horizon.total_seconds()))
        truth = ledger.entities[entity]
        expected = truth.version_at(when)
        history = ctx.history(entity)
        if expected is None:
            with pytest.raises(BeforeCreation):
                materialize_at(entity, when, ctx.entity_quads(entity), history)
        else:
            got = materialize_at(entity, when, ctx.entity_quads(entity), history)
            assert got.version.graphs == expected
        hits += 1
    assert hits == 200

    for entity in entities[:3]:
        history = ctx.history(entity)
        delta_applications.reset()
        versions = materialize_all(entity, ctx.entity_quads(entity), history)
        assert len(versions) == len(history.snapshots)
        assert delta_applications.count == len(history.snapshots) - 1
    announce(3)


def test_criterion_4_classification_matches_the_oracle(announce):
    assert len(CASES) == 14
    for case in CASES:
        parsed = parse_select(case.text)
        joined, isolated = oracle_classify(parsed)
        if case.unbounded:
            assert isolated and not joined
            with pytest.raises(UnboundedQuery):
                classify(parsed)
            continue
        plan = classify(parsed)
        assert set(plan.joined) == set(joined) == {
            parsed.patterns[i] for i in case.joined
        }
        assert set(plan.isolated) == set(isolated) == {
            parsed.patterns[i] for i in case.isolated
        }
    announce(4)


def test_criterion_5_cross_version_queries_match_the_ledger(small_world, big_world, announce):
    keys_seen = 0
    for world, text in _version_query_corpus(small_world, big_world):
        keys_seen += _check_against_ledger(world, text)
    assert keys_seen > 100
    announce(5)


def test_criterion_6_delta_queries_match_the_diff_oracle(small_world, announce):
    base_queries = [
        scheme_query(DATACITE_ORCID),
        scheme_query(DATACITE_DOI),
        scheme_query(DATACITE_ISSN),
        value_regex_query("\\.$"),
        known_subject_query(f"{BASE_IRI}br/0"),
        known_subject_query(f"{BASE_IRI}br/2"),
        known_subject_query(f"{BASE_IRI}br/4"),
        f"SELECT ?v WHERE {{ <{BASE_IRI}id/1>"
        f" <{LITERAL_HAS_VALUE}> ?v }}",
        f"SELECT ?s ?v WHERE {{ ?s <{LITERAL_HAS_VALUE}> ?v }} ",
        "SELECT ?t WHERE {"
        f" <{BASE_IRI}br/0>"
        " <http://purl.org/dc/terms/title> ?t }",
    ]
    filters = [
        (),
        (LITERAL_HAS_VALUE, "http://purl.org/dc/terms/title"),
    ]
    ledger = small_world.ledger
    current_subjects = {
        q.subject.value for q in small_world.data if q.subject.is_iri
    }

    runs = 0
    deleted_records = 0
    for text in base_queries:
        for wanted in filters:
            outcome = execute_delta_query(
                text, small_world.context(), properties=wanted
            )
            by_entity: dict[str, list] = {}
            for r in outcome.report:
                by_entity.setdefault(r.entity, []).append(r)
            for entity in sorted(outcome.relevant_entities):
                truth = ledger.entities.get(entity)
                if truth is None:
                    continue
                expected = [
                    (k, t, added, removed)
                    for k, (t, added, removed) in enumerate(
                        version_diffs(truth.times, truth.versions), start=1
                    )
                    if not wanted
                    or any(
                        q.predicate.value in wanted for q in added | removed
                    )
                ]
                records = by_entity.get(entity, [])
                assert len(records) == len(expected)
                for record, (k, t, added, removed) in zip(records, expected):
                    assert record.snapshot == truth.snapshots[k].id
                    assert record.time == t
                    assert record.delta.added == added
                    assert record.delta.removed == removed
                    wants = truth.snapshots[k].kind
                    assert record.kind == (
                        "deleted" if wants == "deleted" else "modified"
                    )
                    if wants == "deleted" and entity not in current_subjects:
                        deleted_records += 1
            runs += 1
    assert runs == 20
    assert deleted_records > 0
    announce(6)


def test_criterion_8_text_index_transparency(small_world, announce, monkeypatch):
    """The term index answers exactly like the parsed-term reference.

    Version and delta queries give the same answers whether discovery
    reads the context's index or the reference that parses every stored
    update anew, and the index itself equals the reference, term by term.
    """
    texts = [
        scheme_query(DATACITE_ORCID),
        scheme_query(DATACITE_DOI),
        value_regex_query("\\.$"),
        f"SELECT ?s ?v WHERE {{ ?s <{LITERAL_HAS_VALUE}> ?v ."
        f" ?s <{DATACITE_USES_SCHEME}> <{DATACITE_DOI}> }}",
    ]
    ctx = small_world.context()
    records = ctx.delta_records()
    postings = ctx.term_postings()
    assert postings == parsed_term_postings(records)

    def reference(known_terms, _postings):
        return parsed_term_search(known_terms, records)

    for text in texts:
        indexed = execute_version_query(text, small_world.context())
        indexed_delta = execute_delta_query(text, small_world.context())
        with monkeypatch.context() as patched:
            patched.setattr(version_query, "search_deltas", reference)
            expected = execute_version_query(text, small_world.context())
            expected_delta = execute_delta_query(text, small_world.context())
        assert indexed.results == expected.results
        assert indexed.relevant_entities == expected.relevant_entities
        assert indexed_delta.report == expected_delta.report

        plan = classify(parse_select(text))
        assert plan.isolated
        for pattern in plan.isolated:
            terms = list(pattern.ground_terms())
            assert search_deltas(terms, postings) == parsed_term_search(terms, records)
            for term in terms:
                assert search_deltas([term], postings) == parsed_term_search(
                    [term], records
                )
    announce(8)


def test_criterion_9_per_snapshot_overhead_scales_linearly(announce):
    def runtime_for(snapshots: int) -> float:
        spec = GenSpec(
            seed=9,
            n_entities=12,
            snapshot_mean=float(snapshots),
            snapshot_stdev=1.0,
            snapshot_min=snapshots - 1,
            snapshot_max=snapshots + 1,
            change_mix={"literal-edit": 1.0},
        )
        world = generate(spec)
        entity = next(
            e
            for e in sorted(world.ledger.entities)
            if len(world.ledger.entities[e].times) == snapshots
        )
        ctx = world.context()
        data = ctx.entity_quads(entity)
        history = ctx.history(entity)
        versions = materialize_all(entity, data, history)
        assert len(versions) == snapshots
        best = float("inf")
        for _ in range(30):
            started = time.perf_counter()
            materialize_all(entity, data, history)
            best = min(best, time.perf_counter() - started)
        return best

    t10, t50, t200 = runtime_for(10), runtime_for(50), runtime_for(200)
    assert t200 / t10 <= 40.0, f"scaling broke: {t10=} {t50=} {t200=}"
    overheads = [t / s for t, s in ((t10, 10), (t50, 50), (t200, 200))]
    assert all(o > 0 for o in overheads)
    announce(9)


def test_criterion_10_benchmark_report_shape(tmp_path, capsys, announce):
    out = tmp_path / "bench"
    started = time.perf_counter()
    code = main([
        "bench", "--out", str(out),
        "--seed", "42", "--entities", "1000",
        "--repetitions", "3", "--subjects", "3",
        "--no-ledger",
    ])
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert code == 0
    assert elapsed < 600.0, f"desk-scale run took {elapsed:.1f}s"

    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rows = payload["rows"]
    assert len(rows) == 10
    assert {(r["workload"], r["subject_mode"]) for r in rows} == {
        ("materialize-all-versions", "known-subject"),
        ("materialize-one-version", "known-subject"),
        ("cross-version-query", "known-subject"),
        ("single-version-query", "known-subject"),
        ("cross-delta-query", "known-subject"),
        ("single-delta-query", "known-subject"),
        ("cross-version-query", "unknown-subject"),
        ("single-version-query", "unknown-subject"),
        ("cross-delta-query", "unknown-subject"),
        ("single-delta-query", "unknown-subject"),
    }
    for row in rows:
        for column in (
            "mean_s", "stdev_s", "overhead_s", "snapshots_involved",
            "entities_involved", "baseline_mean_s", "baseline_stdev_s",
        ):
            assert column in row, f"missing {column}"
        basis = row[
            "snapshots_involved" if row["overhead_basis"] == "snapshots" else "entities_involved"
        ]
        if basis:
            assert row["overhead_s"] == pytest.approx(
                row["mean_s"] / basis, rel=1e-3, abs=2e-6
            )

    with open(out / "report.csv", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
    assert "overhead_s" in header and "workload" in header
    announce(10)
