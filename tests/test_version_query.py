"""Pattern classification, discovery, alignment, and timed query runs."""

from __future__ import annotations

import itertools
from datetime import datetime, timedelta

import pytest

from conftest import (
    BR,
    BR_GRAPH,
    CITES,
    CREATED_AT,
    FIXED_AT,
    HAS_IDENTIFIER,
    HAS_VALUE,
    ID,
    RIGHT_DOI,
    TITLE,
    USES_SCHEME,
    WRONG_DOI,
)
from oracles import (
    brute_evaluate,
    evaluate_every_key,
    oracle_classify,
    parsed_term_search,
    solutions_counter,
)
import query_corpus
from query_corpus import CASES, CITES as C_CITES, E, HAS_ID, VALUE

from chrono_rdf import (
    DeltaRecord,
    ExplosionLimit,
    GraphSet,
    Snapshot,
    TimeInterval,
    UnboundedQuery,
    VersionedGraph,
    align_and_merge,
    classify,
    execute_delta_query,
    execute_version_query,
    iri,
    literal,
    memory_context,
    parse_select,
    parse_timestamp,
    quad,
    search_deltas,
)
from chrono_rdf import version_query
from chrono_rdf.benchgen import (
    BASE_IRI,
    CITO_CITES,
    DATACITE_HAS_IDENTIFIER,
    DATACITE_ORCID,
    DATACITE_USES_SCHEME,
    LITERAL_HAS_VALUE,
    GeneratedWorld,
    known_subject_query,
    scheme_query,
)
from chrono_rdf.materializer import delta_applications
from chrono_rdf.provenance import (
    GENERATED_AT_TIME,
    OCO_HAS_UPDATE_QUERY,
    SPECIALIZATION_OF,
    WAS_DERIVED_FROM,
)
from chrono_rdf.rdf_model import RDF_TYPE, XSD_DATETIME, XSD_INTEGER


def plan_for(text: str):
    return classify(parse_select(text))


class TestClassify:
    @pytest.mark.parametrize(
        "case", [c for c in CASES if not c.unbounded], ids=lambda c: c.name
    )
    def test_corpus_against_hand_expectations(self, case):
        parsed = parse_select(case.text)
        plan = classify(parsed)
        assert set(plan.joined) == {parsed.patterns[i] for i in case.joined}
        assert set(plan.isolated) == {parsed.patterns[i] for i in case.isolated}

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_corpus_against_oracle(self, case):
        parsed = parse_select(case.text)
        joined, isolated = oracle_classify(parsed)
        if case.unbounded:
            with pytest.raises(UnboundedQuery):
                classify(parsed)
            assert not joined and isolated
            return
        plan = classify(parsed)
        assert set(plan.joined) == set(joined)
        assert set(plan.isolated) == set(isolated)

    def test_unbounded_message_names_the_reason(self):
        with pytest.raises(UnboundedQuery, match="isolated"):
            plan_for("SELECT * WHERE { ?s ?p ?o }")

    def test_backward_pattern_without_ground_terms_is_unbounded(self):
        # ?c is bound by nothing, so `?c ?p ?b` is isolated although
        # it shares ?b with the anchored pattern
        with pytest.raises(UnboundedQuery, match="isolated"):
            plan_for(f"SELECT ?c WHERE {{ <{E}> <{C_CITES}> ?b . ?c ?p ?b }}")

    def test_ground_predicate_is_enough_to_stay_bounded(self):
        # a lone predicate IRI gives the textual search something to hold on to
        plan = plan_for(f"SELECT ?s ?o WHERE {{ ?s <{VALUE}> ?o }}")
        assert len(plan.isolated) == 1 and not plan.joined

    def test_seeds_are_the_subject_iris(self):
        plan = plan_for(
            f"SELECT ?o ?x WHERE {{ <{E}> <{C_CITES}> ?o . ?x <{VALUE}> ?o }}"
        )
        assert plan.seeds == frozenset({E})

    def test_subject_variables_cover_all_patterns(self):
        plan = plan_for(
            f"SELECT ?id WHERE {{ <{E}> <{C_CITES}> ?br . ?br <{HAS_ID}> ?id }}"
        )
        assert {v.name for v in plan.subject_variables} == {"br"}

    @pytest.mark.parametrize(
        "parts",
        [
            (
                f"<{E}> <{C_CITES}> ?br",
                f"?br <{HAS_ID}> ?id",
                f"?x <{VALUE}> ?z",
            ),
            (
                f"?a <{VALUE}> ?b",
                f"?b <{HAS_ID}> ?c",
                f"<{E}> <{C_CITES}> ?q",
            ),
        ],
    )
    def test_order_of_patterns_does_not_matter(self, parts):
        outcomes = set()
        for perm in itertools.permutations(parts):
            text = "SELECT * WHERE { " + " . ".join(perm) + " }"
            plan = plan_for(text)
            outcomes.add(
                (
                    frozenset((p.subject, p.predicate, p.object) for p in plan.joined),
                    frozenset(
                        (p.subject, p.predicate, p.object) for p in plan.isolated
                    ),
                )
            )
        assert len(outcomes) == 1

    def test_optional_patterns_are_classified_too(self):
        plan = plan_for(
            f"SELECT ?v WHERE {{ <{E}> <{C_CITES}> ?br ."
            f" OPTIONAL {{ ?br <{VALUE}> ?v }} }}"
        )
        assert len(plan.joined) == 2 and not plan.isolated


class TestSearchDeltas:
    RECORDS = (
        DeltaRecord(
            "https://x.example/e1",
            "https://x.example/e1/prov/se/2",
            'DELETE DATA { GRAPH <https://x.example/g/> { <https://x.example/e1>'
            ' <http://v.example/value> "10.1/old" . } }; INSERT DATA { GRAPH'
            ' <https://x.example/g/> { <https://x.example/e1>'
            ' <http://v.example/value> "10.1/new" . } }',
        ),
        DeltaRecord(
            "https://x.example/e2",
            "https://x.example/e2/prov/se/2",
            "INSERT DATA { <https://x.example/e2> <http://v.example/scheme>"
            " <http://v.example/orcid> . }",
        ),
        DeltaRecord(
            "https://x.example/e2",
            "https://x.example/e2/prov/se/3",
            'INSERT DATA { <https://x.example/e2> <http://v.example/value>'
            ' "10.1/new" . }',
        ),
    )

    @pytest.fixture()
    def postings(self):
        return _records_context(self.RECORDS).term_postings()

    def test_single_term_hits(self, postings):
        found = search_deltas([iri("http://v.example/orcid")], postings)
        assert found == {("https://x.example/e2", "https://x.example/e2/prov/se/2")}

    def test_literal_terms_match_their_quoted_form(self, postings):
        found = search_deltas([literal("10.1/new")], postings)
        assert {e for e, _ in found} == {"https://x.example/e1", "https://x.example/e2"}

    def test_conjunction_needs_every_term(self, postings):
        found = search_deltas(
            [literal("10.1/new"), iri("http://v.example/scheme")], postings
        )
        assert found == frozenset()

    def test_no_terms_means_no_hits(self, postings):
        assert search_deltas([], postings) == frozenset()

    def test_index_answers_like_a_scan(self, postings):
        probes = [
            [iri("http://v.example/orcid")],
            [literal("10.1/new")],
            [literal("10.1/new"), iri("http://v.example/value")],
            [iri("https://x.example/e1")],
            [literal("not present anywhere")],
            [literal("10.1/new", language="en")],
            [iri("https://x.example/g/")],  # a graph name, not a term of any quad
        ]
        for terms in probes:
            assert search_deltas(terms, postings) == parsed_term_search(
                terms, self.RECORDS
            )


def _records_context(records):
    """A context with no live data whose provenance holds just the given records."""
    provenance = set()
    for r in records:
        provenance.add(quad(iri(r.snapshot), iri(SPECIALIZATION_OF), iri(r.entity)))
        provenance.add(quad(iri(r.snapshot), iri(OCO_HAS_UPDATE_QUERY), literal(r.text)))
    return memory_context(frozenset(), frozenset(provenance))


GONE = "https://x.example/e9"
GONE_TYPE = "https://x.example/T"
GONE_P = "https://x.example/p"


class TestDiscoveryReadsTheParsedUpdate:
    """Every spelling the update grammar accepts finds the deleted entity."""

    def _world(self, deleted_triple: str):
        e = GONE
        prov = set()
        for k, when in ((1, "2021-01-01T00:00:00"), (2, "2021-02-01T00:00:00")):
            se = iri(f"{e}/prov/se/{k}")
            prov.add(quad(se, iri(SPECIALIZATION_OF), iri(e)))
            prov.add(quad(se, iri(GENERATED_AT_TIME), literal(when, XSD_DATETIME)))
        prov.add(quad(iri(f"{e}/prov/se/2"), iri(WAS_DERIVED_FROM), iri(f"{e}/prov/se/1")))
        prov.add(quad(
            iri(f"{e}/prov/se/2"), iri(OCO_HAS_UPDATE_QUERY),
            literal(f"DELETE DATA {{ {deleted_triple} }}"),
        ))
        # the entity is gone from the live data, so only its update can name it
        return memory_context(frozenset(), frozenset(prov))

    @pytest.mark.parametrize(
        "deleted, pattern",
        [
            (f"<{GONE}> <{RDF_TYPE}> <{GONE_TYPE}> .", f"<{RDF_TYPE}> <{GONE_TYPE}>"),
            (f"<{GONE}> a <{GONE_TYPE}> .", f"<{RDF_TYPE}> <{GONE_TYPE}>"),
            (f"<{GONE}> <{GONE_P}> 42 .", f'<{GONE_P}> "42"^^<{XSD_INTEGER}>'),
            (f"<{GONE}> <{GONE_P}> 'x' .", f'<{GONE_P}> "x"'),
            (f"<{GONE}> <{RDF_TYPE}> <https://x.example/\\u0054> .",
             f"<{RDF_TYPE}> <{GONE_TYPE}>"),
            (f'<{GONE}> <{GONE_P}> "caf\\u00E9" .', f'<{GONE_P}> "caf\u00e9"'),
        ],
        ids=["canonical", "a-keyword", "bare-integer", "single-quotes",
             "iri-escape", "string-escape"],
    )
    def test_deleted_entity_is_found_whatever_the_spelling(self, deleted, pattern):
        ctx = self._world(deleted)
        outcome = execute_version_query(f"SELECT ?s WHERE {{ ?s {pattern} }}", ctx)
        assert outcome.relevant_entities == {GONE}
        earlier, later = "2021-01-01T00:00:00", "2021-02-01T00:00:00"
        assert list(outcome.results) == [earlier, later]
        assert [b.as_dict()["s"].value for b in outcome.results[earlier].rows] == [GONE]
        assert outcome.results[later].rows == ()

    ONE_TRIPLE_PER_STATEMENT = (
        f"<{GONE}> a <{GONE_TYPE}> . <{GONE}> <{GONE_P}> 42 . <{GONE}> <{GONE_P}> 'x' ."
    )

    @pytest.mark.parametrize("listed", [
        f"<{GONE}> a <{GONE_TYPE}> . <{GONE}> <{GONE_P}> 42 , 'x'",
        f"<{GONE}> a <{GONE_TYPE}> ; <{GONE_P}> 42 ; <{GONE_P}> 'x' ; .",
    ], ids=["comma-list", "semicolon-list"])
    def test_listed_triples_read_as_one_triple_per_statement(self, listed):
        one, other = self._world(self.ONE_TRIPLE_PER_STATEMENT), self._world(listed)
        assert len(one.history(GONE).snapshots[1].update.deletes) == 3
        assert other.history(GONE).snapshots[1].update == one.history(GONE).snapshots[1].update
        assert other.term_postings() == one.term_postings()
        assert other.history(GONE) == one.history(GONE)


def _snap(entity: str, k: int, when: str) -> Snapshot:
    return Snapshot(
        id=f"{entity}/prov/se/{k}",
        entity=entity,
        generated_at=parse_timestamp(when),
    )


def _vg(entity: str, k: int, when: str | None, graphs: GraphSet) -> VersionedGraph:
    snap = None if when is None else _snap(entity, k, when)
    return VersionedGraph(
        entity=entity, snapshot=snap, graphs=graphs, reconstructed=True
    )


A = "https://x.example/a"
B = "https://x.example/b"
P = "http://v.example/p"
T1, T2, T3 = "2021-01-01T00:00:00", "2021-02-01T00:00:00", "2021-03-01T00:00:00"


def _g(s: str, o: str) -> GraphSet:
    return frozenset({quad(iri(s), iri(P), literal(o), "https://x.example/g/")})


class TestAlignAndMerge:
    def test_unchanged_entities_are_copied_forward(self):
        timeline = align_and_merge(
            {
                A: [_vg(A, 1, T1, _g(A, "a1")), _vg(A, 2, T3, _g(A, "a2"))],
                B: [_vg(B, 1, T2, _g(B, "b1"))],
            }
        )
        t1, t2, t3 = (parse_timestamp(t) for t in (T1, T2, T3))
        assert timeline.times == (t1, t2, t3)
        assert timeline.datasets[t1] == _g(A, "a1")
        assert timeline.datasets[t2] == _g(A, "a1") | _g(B, "b1")
        assert timeline.datasets[t3] == _g(A, "a2") | _g(B, "b1")

    def test_version_before_the_interval_gives_state_but_no_key(self):
        interval = TimeInterval(parse_timestamp(T2), None)
        timeline = align_and_merge(
            {
                A: [_vg(A, 1, T2, _g(A, "a1")), _vg(A, 2, T3, _g(A, "a2"))],
                B: [_vg(B, 1, T1, _g(B, "b0"))],
            },
            interval,
        )
        t2, t3 = parse_timestamp(T2), parse_timestamp(T3)
        assert timeline.times == (t2, t3)
        assert timeline.datasets[t2] == _g(A, "a1") | _g(B, "b0")
        assert timeline.datasets[t3] == _g(A, "a2") | _g(B, "b0")

    def test_static_entity_contributes_everywhere(self):
        timeline = align_and_merge(
            {
                A: [_vg(A, 1, T1, _g(A, "a1"))],
                B: [_vg(B, 0, None, _g(B, "fixed"))],
            }
        )
        t1 = parse_timestamp(T1)
        assert timeline.times == (t1,)
        assert timeline.datasets[t1] == _g(A, "a1") | _g(B, "fixed")

    def test_alignment_is_idempotent(self):
        first = align_and_merge(
            {
                A: [_vg(A, 1, T1, _g(A, "a1")), _vg(A, 2, T3, _g(A, "a2"))],
                B: [_vg(B, 1, T2, _g(B, "b1"))],
            }
        )
        # the merged timeline, replayed as the history of a single entity
        rewrapped = {
            "dataset": [
                _vg("dataset", k, t.isoformat(), first.datasets[t])
                for k, t in enumerate(first.times, start=1)
            ]
        }
        second = align_and_merge(rewrapped)
        assert second.times == first.times
        assert {t: second.datasets[t] for t in second.times} == dict(first.datasets)

    def test_no_versions_no_times(self):
        timeline = align_and_merge({})
        assert timeline.times == () and timeline.datasets == {}


class TestDoiWorldQueries:
    """The correction history must be visible at each of its two moments."""

    @pytest.fixture()
    def ctx(self, doi_data, doi_provenance):
        return memory_context(doi_data, doi_provenance)

    def test_cross_version_value_history(self, ctx):
        outcome = execute_version_query(
            f"SELECT ?v WHERE {{ <{ID}> <{HAS_VALUE}> ?v }}", ctx
        )
        assert sorted(outcome.results) == [CREATED_AT, FIXED_AT]
        first = [b.get("v").value for b in outcome.results[CREATED_AT]]
        second = [b.get("v").value for b in outcome.results[FIXED_AT]]
        assert first == [WRONG_DOI]
        assert second == [RIGHT_DOI]

    def test_joined_variable_promotes_the_identifier(self, ctx):
        outcome = execute_version_query(
            f"SELECT ?v WHERE {{ <{BR}> <{HAS_IDENTIFIER}> ?id ."
            f" ?id <{HAS_VALUE}> ?v }}",
            ctx,
        )
        assert outcome.relevant_entities == {BR, ID}
        assert sorted(outcome.results) == [CREATED_AT, FIXED_AT]
        assert [b.get("v").value for b in outcome.results[CREATED_AT]] == [WRONG_DOI]
        assert [b.get("v").value for b in outcome.results[FIXED_AT]] == [RIGHT_DOI]
        assert outcome.snapshots_involved == 3

    def test_single_version_between_the_two_snapshots(self, ctx):
        outcome = execute_version_query(
            f"SELECT ?v WHERE {{ <{ID}> <{HAS_VALUE}> ?v }}",
            ctx,
            at=parse_timestamp("2021-10-15T00:00:00"),
        )
        assert list(outcome.results) == [CREATED_AT]
        assert [b.get("v").value for b in outcome.results[CREATED_AT]] == [WRONG_DOI]

    def test_single_version_after_the_fix(self, ctx):
        outcome = execute_version_query(
            f"SELECT ?v WHERE {{ <{ID}> <{HAS_VALUE}> ?v }}",
            ctx,
            at=parse_timestamp("2022-01-01T00:00:00"),
        )
        assert list(outcome.results) == [FIXED_AT]
        assert [b.get("v").value for b in outcome.results[FIXED_AT]] == [RIGHT_DOI]

    def test_interval_opening_mid_history_keeps_one_key(self, ctx):
        outcome = execute_version_query(
            f"SELECT ?v WHERE {{ <{ID}> <{HAS_VALUE}> ?v }}",
            ctx,
            interval=TimeInterval(parse_timestamp("2021-10-12T00:00:00"), None),
        )
        assert list(outcome.results) == [FIXED_AT]
        assert [b.get("v").value for b in outcome.results[FIXED_AT]] == [RIGHT_DOI]

    def test_interval_before_creation_is_empty(self, ctx):
        outcome = execute_version_query(
            f"SELECT ?v WHERE {{ <{ID}> <{HAS_VALUE}> ?v }}",
            ctx,
            interval=TimeInterval(None, parse_timestamp("2021-10-01T00:00:00")),
        )
        assert outcome.results == {}
        assert outcome.snapshots_involved == 0

    def test_isolated_scheme_lookup_finds_the_identifier(self, ctx):
        outcome = execute_version_query(
            f"SELECT ?s WHERE {{ ?s <{USES_SCHEME}>"
            " <http://purl.org/spar/datacite/doi> }",
            ctx,
        )
        assert ID in outcome.relevant_entities
        for key in (CREATED_AT, FIXED_AT):
            assert [b.get("s").value for b in outcome.results[key]] == [ID]

    def test_citation_rows_stay_stable_across_keys(self, ctx):
        outcome = execute_version_query(
            f"SELECT ?t ?c WHERE {{ <{BR}> <{TITLE}> ?t . <{BR}> <{CITES}> ?c }}",
            ctx,
        )
        assert list(outcome.results) == [CREATED_AT]
        assert len(outcome.results[CREATED_AT]) == 5

    def test_unbounded_query_is_refused(self, ctx):
        with pytest.raises(UnboundedQuery):
            execute_version_query("SELECT * WHERE { ?s ?p ?o }", ctx)


def _ledger_rows(world: GeneratedWorld, parsed, when: datetime, relevant):
    dataset = world.ledger.dataset_at(when, restrict=relevant)
    return brute_evaluate(parsed, dataset)


def _assert_keys_match_ledger(world: GeneratedWorld, outcome, parsed):
    for key, sols in outcome.results.items():
        expected = _ledger_rows(
            world, parsed, parse_timestamp(key), outcome.relevant_entities
        )
        assert solutions_counter(sols) == expected, f"diverged at {key}"


class TestSmallWorldQueries:
    def _subject(self, world: GeneratedWorld) -> str:
        for entity in sorted(world.ledger.entities):
            history = world.ledger.entities[entity]
            if "/br/" not in entity or len(history.times) < 3:
                continue
            if any(q.predicate.value.endswith("cites") for q in history.versions[-1]):
                return entity
        raise AssertionError("corpus lost its multi-snapshot citing subject")

    def test_known_subject_rows_match_the_ledger_at_every_key(self, small_world):
        query = known_subject_query(self._subject(small_world))
        parsed = parse_select(query)
        outcome = execute_version_query(parsed, small_world.context())
        assert outcome.results
        _assert_keys_match_ledger(small_world, outcome, parsed)

    def test_scheme_scan_rows_match_the_ledger_at_every_key(self, small_world):
        parsed = parse_select(scheme_query())
        outcome = execute_version_query(parsed, small_world.context())
        assert outcome.results
        _assert_keys_match_ledger(small_world, outcome, parsed)

    def test_textual_search_surfaces_a_deleted_entity(self, small_world):
        dead = [
            e
            for e, h in small_world.ledger.entities.items()
            if h.snapshots[-1].kind == "deleted"
            and any(
                q.object.value == DATACITE_ORCID
                for v in h.versions
                for q in v
            )
        ]
        assert dead, "corpus lost its deleted orcid identifier"
        parsed = parse_select(scheme_query())
        outcome = execute_version_query(parsed, small_world.context())
        gone = dead[0]
        assert gone in outcome.relevant_entities
        removal = small_world.ledger.entities[gone].times[-1]
        seen_alive = seen_dead = False
        for key, sols in outcome.results.items():
            held = any(b.get("s").value == gone for b in sols)
            if parse_timestamp(key) >= removal:
                assert not held, f"{gone} still answered at {key}"
                seen_dead = True
            elif held:
                seen_alive = True
        assert seen_alive and seen_dead

    def test_single_version_matches_the_ledger_mid_history(self, small_world):
        subject = self._subject(small_world)
        times = small_world.ledger.entities[subject].times
        at = times[1] + (times[2] - times[1]) / 2
        parsed = parse_select(known_subject_query(subject))
        outcome = execute_version_query(parsed, small_world.context(), at=at)
        (key,) = outcome.results
        assert parse_timestamp(key) <= at
        expected = _ledger_rows(small_world, parsed, at, outcome.relevant_entities)
        assert solutions_counter(outcome.results[key]) == expected

    def test_explosion_limit_guards_wide_scans(self, small_world):
        ctx = small_world.context(explosion_limit=2)
        with pytest.raises(ExplosionLimit):
            execute_version_query(parse_select(scheme_query()), ctx)


def _limit_query(world: GeneratedWorld, shape: str) -> str:
    citing = min(e for e in world.ledger.entities if "/br/" in e)
    if shape == "isolated":
        return scheme_query()
    if shape == "known-subject":
        return known_subject_query(citing)
    return f"SELECT ?b ?c WHERE {{ <{citing}> <{CITO_CITES}> ?b . ?c <{CITO_CITES}> ?b }}"


def _run(text: str, ctx, delta: bool):
    if delta:
        return execute_delta_query(text, ctx)
    return execute_version_query(text, ctx)


class TestExplosionLimit:
    """The limit counts relevant entities, and is checked before each wave."""

    @pytest.mark.parametrize("delta", [False, True], ids=["version", "delta"])
    @pytest.mark.parametrize("query", ["isolated", "backward-join"])
    def test_refused_before_any_walk(self, small_world, query, delta):
        text = _limit_query(small_world, query)
        relevant = _run(text, small_world.context(), delta).relevant_entities
        ctx = small_world.context(explosion_limit=len(relevant) - 1)
        before = delta_applications.count
        with pytest.raises(ExplosionLimit):
            _run(text, ctx, delta)
        assert ctx._histories == {}
        assert delta_applications.count == before

    @pytest.mark.parametrize("delta", [False, True], ids=["version", "delta"])
    @pytest.mark.parametrize("query", ["known-subject", "backward-join"])
    def test_the_limit_is_the_relevant_count(self, small_world, query, delta):
        text = _limit_query(small_world, query)
        relevant = _run(text, small_world.context(), delta).relevant_entities
        assert len(relevant) > 2
        ctx = small_world.context(explosion_limit=len(relevant))
        assert _run(text, ctx, delta).relevant_entities == relevant
        with pytest.raises(ExplosionLimit):
            _run(text, small_world.context(explosion_limit=len(relevant) - 1), delta)


def _corpus_in(world: GeneratedWorld) -> tuple[str, dict[str, str]]:
    """The classification corpus spelt in the world's vocabulary, plus a
    repeated variable and a ground object under a variable predicate;
    returns the subject that stands in for the corpus's anchor, and the
    texts by name."""
    entities = world.ledger.entities
    subject = next(
        e for e in sorted(entities)
        if "/br/" in e and len(entities[e].times) >= 3
        and any(q.predicate.value == CITO_CITES for q in entities[e].versions[-1])
    )
    cited = min(
        q.object.value for q in entities[subject].versions[-1]
        if q.predicate.value == CITO_CITES
    )
    past_value = next(
        q.object.value
        for e in sorted(entities) if "/id/" in e
        for q in entities[e].versions[0]
        if q.predicate.value == LITERAL_HAS_VALUE and q not in entities[e].versions[-1]
    )
    spelling = {
        f"<{query_corpus.E}>": f"<{subject}>",
        f"<{query_corpus.E2}>": f"<{cited}>",
        f"<{query_corpus.CITES}>": f"<{CITO_CITES}>",
        f"<{query_corpus.KNOWS}>": f"<{CITO_CITES}>",
        f"<{query_corpus.HAS_ID}>": f"<{DATACITE_HAS_IDENTIFIER}>",
        f"<{query_corpus.VALUE}>": f"<{LITERAL_HAS_VALUE}>",
        f"<{query_corpus.SCHEME}>": f"<{DATACITE_USES_SCHEME}>",
        f"<{query_corpus.ORCID}>": f"<{DATACITE_ORCID}>",
        '"10.1111/x"': f'"{past_value}"',
    }
    texts = {}
    for case in CASES:
        if case.unbounded:
            continue
        text = case.text
        for old, new in spelling.items():
            text = text.replace(old, new)
        assert ".example/" not in text.replace(BASE_IRI, ""), text
        texts[case.name] = text
    texts["repeated-variable"] = f"SELECT ?x WHERE {{ ?x <{CITO_CITES}> ?x }}"
    texts["ground-object"] = f"SELECT ?s ?p WHERE {{ ?s ?p <{cited}> }}"
    return subject, texts


_CORPUS_NAMES = [c.name for c in CASES if not c.unbounded] + [
    "repeated-variable", "ground-object",
]


@pytest.fixture(scope="module", params=["small_world", "big_world"])
def corpus_world(request):
    """A world, one context reused by every query, and where to ask.

    The small world is asked over all time; the big one over a one-day
    window around a change of the anchor, which also puts a boundary
    state before the first key.
    Single versions are asked a third of the way in and after the end.
    """
    world = request.getfixturevalue(request.param)
    subject, texts = _corpus_in(world)
    times = world.ledger.change_times()
    if request.param == "small_world":
        interval = TimeInterval(None, None)
    else:
        anchor_times = world.ledger.entities[subject].times
        middle = anchor_times[len(anchor_times) // 2]
        interval = TimeInterval(middle - timedelta(hours=12), middle + timedelta(hours=12))
    instants = (times[len(times) // 3], times[-1] + timedelta(days=1))
    return world.context(), interval, instants, texts


class TestIncrementalEvaluation:
    """Narrowing and answer reuse against evaluation of every full state."""

    @pytest.mark.parametrize("name", _CORPUS_NAMES)
    def test_cross_version_equals_every_key_evaluated(self, corpus_world, name):
        ctx, interval, _instants, texts = corpus_world
        parsed = parse_select(texts[name])
        outcome = execute_version_query(parsed, ctx, interval=interval)
        expected = evaluate_every_key(parsed, ctx, interval=interval)
        assert list(outcome.results) == list(expected)
        assert outcome.results == expected

    @pytest.mark.parametrize("name", _CORPUS_NAMES)
    def test_single_version_equals_the_full_state(self, corpus_world, name):
        ctx, _interval, instants, texts = corpus_world
        parsed = parse_select(texts[name])
        for at in instants:
            outcome = execute_version_query(parsed, ctx, at=at)
            expected = evaluate_every_key(parsed, ctx, at=at)
            assert list(outcome.results) == list(expected)
            assert outcome.results == expected

    def test_the_corpus_reads_something(self, small_world):
        # a differential over empty answers would show nothing
        ctx = small_world.context()
        _subject, texts = _corpus_in(small_world)
        answered = {
            name for name, text in texts.items()
            if any(execute_version_query(text, ctx).results.values())
        }
        assert answered == set(texts) - {"repeated-variable"}


X = "https://x.example/x"
X_P = "https://x.example/p"
X_O = "https://x.example/o"
X_Q = "https://x.example/q"


def _lived(live: GraphSet, updates: list[str]):
    """A context whose one entity, X, holds `live` now and got there
    through `updates`: snapshot 1 is dated 2021-01-01 and snapshot k + 1,
    a month after snapshot k, applied updates[k - 1]."""
    prov = set()
    for k in range(1, len(updates) + 2):
        se = iri(f"{X}/prov/se/{k}")
        prov.add(quad(se, iri(SPECIALIZATION_OF), iri(X)))
        prov.add(quad(se, iri(GENERATED_AT_TIME),
                      literal(f"2021-{k:02d}-01T00:00:00", XSD_DATETIME)))
        if k > 1:
            prov.add(quad(se, iri(WAS_DERIVED_FROM), iri(f"{X}/prov/se/{k - 1}")))
            prov.add(quad(se, iri(OCO_HAS_UPDATE_QUERY), literal(updates[k - 2])))
    return memory_context(frozenset(live), frozenset(prov))


def _swap(old: str, new: str) -> str:
    return f"DELETE DATA {{ {old} }}; INSERT DATA {{ {new} }}"


def _x(p: str, o) -> object:
    return quad(iri(X), iri(p), o)


@pytest.fixture()
def evaluations(monkeypatch):
    """The data version_query hands to evaluate, in call order."""
    seen = []
    real = version_query.evaluate

    def counted(query, data, *args, **kwargs):
        seen.append(data)
        return real(query, data, *args, **kwargs)

    monkeypatch.setattr(version_query, "evaluate", counted)
    return seen


def _rows(solutions) -> list[dict[str, str]]:
    return [{k: t.value for k, t in b.values} for b in solutions.sorted_rows()]


def _shared(outcome) -> list[bool]:
    """For each key after the first, whether it shares the previous key's
    SolutionSet object."""
    answers = list(outcome.results.values())
    return [later is earlier for earlier, later in zip(answers, answers[1:])]


class TestAnswerReuse:
    """One evaluation per request; unchanged keys share one answer object."""

    def _run(self, ctx, text):
        parsed = parse_select(text)
        outcome = execute_version_query(parsed, ctx)
        expected = evaluate_every_key(parsed, ctx)
        assert list(outcome.results) == list(expected)
        assert outcome.results == expected
        return outcome

    def test_unrelated_changes_reuse_one_answer(self, evaluations):
        ctx = _lived(
            {_x(X_P, literal("v")), _x(X_Q, literal("u3"))},
            [_swap(f'<{X}> <{X_Q}> "u{k}" .', f'<{X}> <{X_Q}> "u{k + 1}" .')
             for k in range(3)],
        )
        outcome = self._run(ctx, f"SELECT ?v WHERE {{ <{X}> <{X_P}> ?v }}")
        assert len(outcome.results) == 4
        assert len(evaluations) == 1
        assert _shared(outcome) == [True, True, True]
        assert all(_rows(s) == [{"v": "v"}] for s in outcome.results.values())
        # the timeline holds what the query can read, not the entity's whole state
        assert set(outcome.timeline.datasets.values()) == {frozenset({_x(X_P, literal("v"))})}

    def test_a_change_only_optional_sees_gets_a_new_answer(self, evaluations):
        ctx = _lived(
            {_x(X_P, literal("v")), _x(X_O, literal("w")), _x(X_Q, literal("u1"))},
            [f'INSERT DATA {{ <{X}> <{X_O}> "w" . }}',
             _swap(f'<{X}> <{X_Q}> "u0" .', f'<{X}> <{X_Q}> "u1" .')],
        )
        outcome = self._run(
            ctx, f"SELECT ?v ?w WHERE {{ <{X}> <{X_P}> ?v OPTIONAL {{ <{X}> <{X_O}> ?w }} }}"
        )
        assert len(evaluations) == 1
        assert _shared(outcome) == [False, True]
        assert [_rows(s) for s in outcome.results.values()] == [
            [{"v": "v"}], [{"v": "v", "w": "w"}], [{"v": "v", "w": "w"}],
        ]

    def test_a_changed_filtered_literal_gets_a_new_answer(self, evaluations):
        ctx = _lived(
            {_x(X_P, literal("keep-3"))},
            [_swap(f'<{X}> <{X_P}> "keep-1" .', f'<{X}> <{X_P}> "drop-2" .'),
             _swap(f'<{X}> <{X_P}> "drop-2" .', f'<{X}> <{X_P}> "keep-3" .')],
        )
        outcome = self._run(
            ctx, f'SELECT ?v WHERE {{ <{X}> <{X_P}> ?v FILTER REGEX(?v, "^keep") }}'
        )
        assert len(evaluations) == 1
        assert _shared(outcome) == [False, False]
        assert [_rows(s) for s in outcome.results.values()] == [
            [{"v": "keep-1"}], [], [{"v": "keep-3"}],
        ]

    def test_a_repeated_variable_narrows_as_a_wildcard(self, evaluations):
        y = "https://x.example/y"
        ctx = _lived(
            {_x(X_P, iri(y)), _x(X_Q, literal("u"))},
            [_swap(f"<{X}> <{X_P}> <{X}> .", f"<{X}> <{X_P}> <{y}> .")],
        )
        outcome = self._run(ctx, f"SELECT ?s WHERE {{ ?s <{X_P}> ?s }}")
        assert len(evaluations) == 1
        assert [_rows(s) for s in outcome.results.values()] == [[{"s": X}], []]
        # both quads are read, each at its own key; <q> is narrowed away
        assert evaluations[-1] == {_x(X_P, iri(X)): 0b01, _x(X_P, iri(y)): 0b10}
        last = outcome.timeline.times[-1]
        assert outcome.timeline.datasets[last] == frozenset({_x(X_P, iri(y))})
