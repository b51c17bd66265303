"""Corpus generation: determinism, realized statistics, ledger round trips."""

from __future__ import annotations

import hashlib
import math
import statistics

import pytest

from oracles import version_diffs

from chrono_rdf import (
    SpecError,
    UnboundedQuery,
    classify,
    parse_select,
    parse_update,
    serialize,
)
from chrono_rdf.benchgen import (
    GenSpec,
    OracleLedger,
    _truncated_normal_loc,
    generate,
    known_subject_query,
    scheme_query,
    value_regex_query,
)


class TestGenSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_entities": 0},
            {"snapshot_min": 0},
            {"snapshot_min": 9, "snapshot_max": 3},
            {"snapshot_stdev": 0.0},
            {"snapshot_mean": 50.0},
            {"change_mix": {"literal-edit": 0.5, "metadata-shuffle": 0.5}},
            {"change_mix": {"literal-edit": -1.0}},
            {"change_mix": {"literal-edit": 0.0}},
        ],
        ids=[
            "no-entities", "min-zero", "min-above-max", "zero-stdev",
            "mean-out-of-range", "unknown-kind", "negative-weight",
            "all-zero-weights",
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SpecError):
            GenSpec(**kwargs).validate()

    def test_defaults_validate(self):
        GenSpec().validate()


class TestTruncatedNormal:
    def test_compensated_centre_hits_the_target(self):
        # a plain normal clipped to [2, 35] would land below 20
        loc = _truncated_normal_loc(20.0, 8.0, 2.0, 35.0)
        assert loc > 20.0

        def pdf(x):
            return math.exp(-x * x / 2) / math.sqrt(2 * math.pi)

        def cdf(x):
            return 0.5 * (1 + math.erf(x / math.sqrt(2)))

        a, b = (2.0 - loc) / 8.0, (35.0 - loc) / 8.0
        realized = loc + 8.0 * (pdf(a) - pdf(b)) / (cdf(b) - cdf(a))
        assert abs(realized - 20.0) < 1e-6

    def test_symmetric_case_needs_no_compensation(self):
        loc = _truncated_normal_loc(10.0, 2.0, 0.0, 20.0)
        assert abs(loc - 10.0) < 1e-6


class TestDeterminism:
    def test_equal_specs_generate_equal_bytes(self):
        a = generate(GenSpec(seed=5, n_entities=10))
        b = generate(GenSpec(seed=5, n_entities=10))
        assert serialize(a.data) == serialize(b.data)
        assert serialize(a.provenance) == serialize(b.provenance)

    def test_the_seed_matters(self):
        a = generate(GenSpec(seed=5, n_entities=10))
        b = generate(GenSpec(seed=6, n_entities=10))
        assert serialize(a.data) != serialize(b.data)

    def test_benchmark_corpus_bytes_are_pinned(self, tmp_path):
        # the corpus the benchmark reads; a change to the generator that
        # moves a single byte of it changes this digest
        generate(GenSpec(seed=42, n_entities=200)).save(tmp_path, include_ledger=False)
        digest = hashlib.sha256()
        for name in ("data.nq", "provenance.nq"):
            digest.update((tmp_path / name).read_bytes())
        assert digest.hexdigest() == (
            "c12fe86c8d424834a17eeb0efde3c550b20dbb94e21b93a5feda76b7c8e7ac17"
        )


class TestRealizedWorld:
    def test_snapshot_counts_respect_the_bounds(self, small_world):
        spec = small_world.spec
        counts = [len(t.times) for t in small_world.ledger.entities.values()]
        assert min(counts) >= spec.snapshot_min
        assert max(counts) <= spec.snapshot_max

    def test_big_world_hits_the_requested_mean(self, big_world):
        spec = big_world.spec
        counts = [len(t.times) for t in big_world.ledger.entities.values()]
        assert len(counts) == spec.n_entities
        tolerance = 2 * spec.snapshot_stdev / math.sqrt(spec.n_entities)
        assert abs(statistics.mean(counts) - spec.snapshot_mean) <= tolerance

    def test_some_entities_die_but_not_too_many(self, big_world):
        kinds = [
            t.snapshots[-1].kind for t in big_world.ledger.entities.values()
        ]
        share = kinds.count("deleted") / len(kinds)
        assert 0.05 <= share <= 0.20

    def test_current_data_is_the_union_of_final_versions(self, small_world):
        assert serialize(small_world.data) == serialize(
            small_world.ledger.final_state()
        )

    def test_deleted_entities_left_no_quads_behind(self, small_world):
        for entity, truth in small_world.ledger.entities.items():
            if truth.snapshots[-1].kind == "deleted":
                assert truth.versions[-1] == frozenset()
                assert not any(
                    q.subject.is_iri and q.subject.value == entity
                    for q in small_world.data
                )

    def test_every_update_string_parses_and_replays(self, small_world):
        # forward replay from each stored version must give the next one
        updates = {}
        for q in small_world.provenance:
            if q.predicate.value == "https://w3id.org/oc/ontology/hasUpdateQuery":
                updates[q.subject.value] = q.object.value
        checked = 0
        for entity, truth in small_world.ledger.entities.items():
            diffs = version_diffs(truth.times, truth.versions)
            for k, (t, added, removed) in enumerate(diffs, start=1):
                delta = parse_update(updates[truth.snapshots[k].id])
                assert frozenset(delta.inserts) == added
                assert frozenset(delta.deletes) == removed
                checked += 1
        assert checked > 0

    def test_histories_load_through_the_engine(self, small_world):
        ctx = small_world.context()
        for entity, truth in small_world.ledger.entities.items():
            history = ctx.history(entity)
            assert history is not None
            assert [s.generated_at for s in history.snapshots] == truth.times


class TestLedgerRoundTrip:
    def test_save_and_load(self, tmp_path, small_world):
        where = tmp_path / "ledger"
        small_world.ledger.save(where)
        loaded = OracleLedger.load(where)
        assert set(loaded.entities) == set(small_world.ledger.entities)
        for entity, truth in small_world.ledger.entities.items():
            twin = loaded.entities[entity]
            assert twin.times == truth.times
            assert twin.versions == truth.versions
            for mine, theirs in zip(truth.snapshots, twin.snapshots):
                assert mine.id == theirs.id
                assert mine.kind == theirs.kind
                assert mine.added == theirs.added
                assert mine.removed == theirs.removed

    def test_world_save_layout(self, tmp_path, small_world):
        where = tmp_path / "world"
        small_world.save(where)
        assert (where / "data.nq").exists()
        assert (where / "provenance.nq").exists()
        assert (where / "ledger" / "index.json").exists()
        assert list((where / "ledger").glob("*-v000.nq"))

    def test_world_save_without_ledger(self, tmp_path, small_world):
        where = tmp_path / "world"
        small_world.save(where, include_ledger=False)
        assert (where / "data.nq").exists()
        assert not (where / "ledger").exists()


class TestQueryBuilders:
    def test_known_subject_shape_is_fully_joined(self):
        parsed = parse_select(known_subject_query("https://chrono.example/br/1"))
        plan = classify(parsed)
        assert not plan.isolated
        assert plan.seeds == {"https://chrono.example/br/1"}

    def test_scheme_shape_is_isolated_but_bounded(self):
        parsed = parse_select(scheme_query())
        plan = classify(parsed)
        assert not plan.joined and len(plan.isolated) == 1

    def test_value_regex_shape_parses(self):
        parsed = parse_select(value_regex_query())
        plan = classify(parsed)
        assert len(plan.isolated) == 1
        assert parsed.filters
