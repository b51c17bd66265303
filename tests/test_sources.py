"""Configuration, file sources, contexts, and the SPARQL protocol client."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    BR,
    CITED,
    CITES,
    CREATED_AT,
    DOI_DATA_TURTLE,
    DOI_UPDATE,
    FIXED_AT,
    HAS_VALUE,
    ID,
    ID_GRAPH,
    RIGHT_DOI,
    TITLE,
    USES_SCHEME,
    WRONG_DOI,
    XSD_DATETIME,
)
from sparql_server import SparqlServer

from chrono_rdf import (
    BadDelta,
    ConfigError,
    Context,
    DeltaRecord,
    NetworkError,
    SourceConfig,
    execute_version_query,
    iri,
    literal,
    load_sources,
    memory_context,
    parse_select,
    quad,
)
import chrono_rdf
from chrono_rdf import sparql_engine
from chrono_rdf.provenance import (
    GENERATED_AT_TIME,
    OCO_HAS_UPDATE_QUERY,
    SPECIALIZATION_OF,
    WAS_DERIVED_FROM,
)
from chrono_rdf.sources import (
    DataEndpoint,
    FileProvenanceSource,
    FileSource,
    ProvenanceEndpoint,
)


class TestSourceConfig:
    GOOD = {"data": ["data.nq"], "provenance": ["prov.nq"]}

    def test_defaults(self):
        config = SourceConfig.from_mapping(self.GOOD)
        assert config.data == ("data.nq",)
        assert config.provenance == ("prov.nq",)
        assert config.explosion_limit == 10_000
        assert config.http_timeout == 30.0

    def test_mapping_round_trip(self):
        config = SourceConfig.from_mapping(
            dict(self.GOOD, explosion_limit=5, http_timeout=1.5)
        )
        assert SourceConfig.from_mapping(config.to_mapping()) == config

    @pytest.mark.parametrize(
        "raw",
        [
            {"data": ["d.nq"], "provenance": ["p.nq"], "accelerator": True},
            {"provenance": ["p.nq"]},
            {"data": [], "provenance": ["p.nq"]},
            {"data": "d.nq", "provenance": ["p.nq"]},
            {"data": ["d.nq", ""], "provenance": ["p.nq"]},
            {"data": ["d.nq"], "provenance": ["p.nq"], "cache_dir": 3},
            {"data": ["d.nq"], "provenance": ["p.nq"], "text_index": "yes"},
            {"data": ["d.nq"], "provenance": ["p.nq"], "explosion_limit": 0},
            {"data": ["d.nq"], "provenance": ["p.nq"], "explosion_limit": True},
            {"data": ["d.nq"], "provenance": ["p.nq"], "http_timeout": 0},
        ],
        ids=[
            "unknown-key", "missing-data", "empty-data", "data-not-a-list",
            "empty-entry", "cache-dir-type", "text-index-type",
            "limit-zero", "limit-bool", "timeout-zero",
        ],
    )
    def test_bad_mappings(self, raw):
        with pytest.raises(ConfigError):
            SourceConfig.from_mapping(raw)

    @pytest.mark.parametrize("value", ["cache", 3])
    def test_cache_dir_is_an_unknown_key(self, value):
        with pytest.raises(ConfigError, match="unknown configuration keys: cache_dir"):
            SourceConfig.from_mapping(dict(self.GOOD, cache_dir=value))

    def test_from_file(self, tmp_path):
        path = tmp_path / "sources.json"
        path.write_text(json.dumps(self.GOOD), encoding="utf-8")
        assert SourceConfig.from_file(path).data == ("data.nq",)

    def test_from_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            SourceConfig.from_file(tmp_path / "absent.json")

    def test_from_broken_json(self, tmp_path):
        path = tmp_path / "sources.json"
        path.write_text("{half a", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            SourceConfig.from_file(path)

    def test_from_non_object_json(self, tmp_path):
        path = tmp_path / "sources.json"
        path.write_text('["data.nq"]', encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            SourceConfig.from_file(path)


class TestFileSource:
    def test_nquads_by_extension(self, doi_files, doi_data):
        data_path, _ = doi_files
        source = FileSource(str(data_path))
        assert source.graphs == doi_data

    def test_turtle_by_extension(self, tmp_path, doi_data):
        path = tmp_path / "data.ttl"
        path.write_text(DOI_DATA_TURTLE, encoding="utf-8")
        source = FileSource(str(path))
        # the Turtle twin names no graphs, so compare triples only
        assert {q.triple for q in source.graphs} == {q.triple for q in doi_data}

    def test_entity_quads_filters_by_subject(self, doi_files):
        data_path, _ = doi_files
        source = FileSource(str(data_path))
        assert {q.subject.value for q in source.entity_quads(BR)} == {BR}
        assert source.entity_quads("https://nowhere.example/e") == frozenset()

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "data.xml"
        path.write_text("<rdf/>", encoding="utf-8")
        with pytest.raises(ConfigError, match="format"):
            FileSource(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            FileSource(str(tmp_path / "absent.nq"))

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "data.nq"
        path.write_text("<https://a.example/s> <https://a.example/p> .\n")
        with pytest.raises(ConfigError, match="does not parse"):
            FileSource(str(path))


class TestFileProvenanceSource:
    def test_quads_are_scoped_to_the_entity(self, doi_files, doi_provenance):
        _, prov_path = doi_files
        source = FileProvenanceSource(str(prov_path))
        mine = source.provenance_quads_for(ID)
        assert mine < doi_provenance
        assert all(q.subject.value.startswith(ID + "/prov/") for q in mine)
        assert source.provenance_quads_for("https://nowhere.example/e") == frozenset()

    def test_delta_records(self, doi_files):
        _, prov_path = doi_files
        source = FileProvenanceSource(str(prov_path))
        assert source.delta_records() == [
            DeltaRecord(entity=ID, snapshot=ID + "/prov/se/2", text=DOI_UPDATE)
        ]

    def test_file_and_memory_sources_agree_on_every_entity(self, small_world, tmp_path):
        small_world.save(tmp_path, include_ledger=False)
        from_file = FileProvenanceSource(str(tmp_path / "provenance.nq"))
        in_memory = memory_context(small_world.data, small_world.provenance).provenance_sources[0]
        entities = {
            q.object.value for q in small_world.provenance if q.predicate.value == SPECIALIZATION_OF
        }
        assert len(entities) > 1
        for entity in entities:
            mine = from_file.provenance_quads_for(entity)
            assert mine and mine == in_memory.provenance_quads_for(entity)
        assert from_file.delta_records() == in_memory.delta_records()
        for source in (from_file, in_memory):
            # only the groups are kept, not the file's quad set
            assert not any(isinstance(v, (set, frozenset)) for v in vars(source).values())
            assert not isinstance(source, FileSource)


class TestContext:
    def test_entity_quads_memoises(self, doi_data, doi_provenance):
        ctx = memory_context(doi_data, doi_provenance)
        first = ctx.entity_quads(ID)
        assert first is ctx.entity_quads(ID)
        assert {q.subject.value for q in first} == {ID}

    def test_history_is_none_without_provenance(self, doi_data, doi_provenance):
        ctx = memory_context(doi_data, doi_provenance)
        assert ctx.history("https://nowhere.example/e") is None
        assert ctx.history(ID) is not None

    def test_match_subjects(self, doi_data, doi_provenance):
        ctx = memory_context(doi_data, doi_provenance)
        parsed = parse_select(
            f"SELECT ?s WHERE {{ ?s <{USES_SCHEME}>"
            " <http://purl.org/spar/datacite/doi> }"
        )
        assert ctx.match_subjects(parsed.patterns[0]) == {ID}

    def test_evaluate_current(self, doi_data, doi_provenance):
        ctx = memory_context(doi_data, doi_provenance)
        parsed = parse_select(f"SELECT DISTINCT ?c WHERE {{ <{BR}> <{CITES}> ?c }}")
        assert len(ctx.evaluate_current(parsed)) == 5

    def test_term_postings_come_from_the_parsed_updates(self, doi_data, doi_provenance):
        ctx = memory_context(doi_data, doi_provenance)
        postings = ctx.term_postings()
        hit = frozenset({(ID, ID + "/prov/se/2")})
        assert postings[iri(ID)] == hit
        assert postings[iri(HAS_VALUE)] == hit
        assert postings[literal(WRONG_DOI)] == hit
        assert postings[literal(RIGHT_DOI)] == hit
        # graph names are not terms of any quad, and nothing else is indexed
        assert set(postings) == {iri(ID), iri(HAS_VALUE), literal(WRONG_DOI), literal(RIGHT_DOI)}

    def test_histories_reuse_the_parse_that_built_the_index(
        self, doi_data, doi_provenance, monkeypatch
    ):
        ctx = memory_context(doi_data, doi_provenance)
        ctx.delta_records()
        calls = []
        real = sparql_engine.parse_update
        monkeypatch.setattr(
            sparql_engine, "parse_update", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        history = ctx.history(ID)
        assert calls == []
        assert history.snapshots[1].update.inserts == (
            quad(iri(ID), iri(HAS_VALUE), literal(RIGHT_DOI), ID_GRAPH),
        )
        # the update mentions its entity only, so the history keeps that parse
        assert history.snapshots[1].update is ctx._deltas[history.snapshots[1].id]

    def test_an_update_that_does_not_parse(self, doi_data, doi_provenance):
        broken = literal("DELETE DATA { <" + ID + "> ?p ?o . }")
        provenance = frozenset(
            quad(q.subject, q.predicate, broken, q.graph)
            if q.predicate.value == OCO_HAS_UPDATE_QUERY else q
            for q in doi_provenance
        )
        ctx = memory_context(doi_data, provenance)
        # left out of the index, so discovery through it finds nothing
        assert ctx.term_postings() == {}
        assert len(ctx.delta_records()) == 1
        # and the entity's history still refuses to load
        with pytest.raises(BadDelta):
            ctx.history(ID)


def _one_update(entity: str, text: str) -> frozenset:
    """Provenance of an entity created once and changed by one stored update."""
    first, second = entity + "/prov/se/1", entity + "/prov/se/2"
    return frozenset({
        quad(iri(first), iri(SPECIALIZATION_OF), iri(entity)),
        quad(iri(first), iri(GENERATED_AT_TIME), literal(CREATED_AT, XSD_DATETIME)),
        quad(iri(second), iri(SPECIALIZATION_OF), iri(entity)),
        quad(iri(second), iri(GENERATED_AT_TIME), literal(FIXED_AT, XSD_DATETIME)),
        quad(iri(second), iri(WAS_DERIVED_FROM), iri(first)),
        quad(iri(second), iri(OCO_HAS_UPDATE_QUERY), literal(text)),
    })


class TestTermTable:
    """Each context parses its stored updates with one table of terms."""

    A, B = CITED[:2]

    def update(self, entity: str) -> str:
        return (
            f"INSERT DATA {{ GRAPH <{ID_GRAPH}> {{ <{entity}> <{CITES}> <{BR}> ."
            f' <{entity}> <{TITLE}> "shared title" . <{entity}> <{HAS_VALUE}> _:b . }} }}'
        )

    def inserted(self, ctx: Context, entity: str) -> dict:
        """The entity's inserted quads by predicate IRI."""
        update = ctx.history(entity).snapshots[1].update
        return {q.predicate.value: q for q in update.inserts}

    def context(self, *provenance) -> Context:
        return memory_context(frozenset(), frozenset().union(*provenance))

    def test_updates_of_one_context_share_each_term(self):
        ctx = self.context(
            _one_update(self.A, self.update(self.A)), _one_update(self.B, self.update(self.B))
        )
        a, b = self.inserted(ctx, self.A), self.inserted(ctx, self.B)
        assert a[CITES].predicate is b[CITES].predicate
        assert a[CITES].object is b[CITES].object
        assert a[TITLE].object is b[TITLE].object
        assert a[TITLE].object == literal("shared title")
        assert a[CITES].graph is b[CITES].graph == ID_GRAPH

    def test_contexts_share_no_term(self):
        provenance = (
            _one_update(self.A, self.update(self.A)), _one_update(self.B, self.update(self.B))
        )
        first, second = self.context(*provenance), self.context(*provenance)

        def term_ids(ctx: Context) -> set[int]:
            return {
                id(term)
                for entity in (self.A, self.B)
                for q in self.inserted(ctx, entity).values()
                for term in (q.subject, q.predicate, q.object)
            }

        assert self.inserted(first, self.A) == self.inserted(second, self.A)
        assert term_ids(first).isdisjoint(term_ids(second))

    def test_a_failed_update_leaves_the_table_usable(self):
        def relative_iri(entity: str) -> str:
            return f"INSERT DATA {{ <{entity}> <{CITES}> <br/1> . }}"

        def relative_datatype(entity: str) -> str:
            return f'INSERT DATA {{ <{entity}> <{TITLE}> "t"^^<dt> . }}'

        # each failing token twice: one that failed validation is not kept
        failing = [(e, relative_iri if n % 2 else relative_datatype)
                   for n, e in enumerate(CITED[1:])]
        ctx = self.context(
            *(_one_update(e, text(e)) for e, text in failing),
            _one_update(self.A, self.update(self.A)),
        )
        for entity, _ in failing:
            with pytest.raises(BadDelta):
                ctx.history(entity)
        assert self.inserted(ctx, self.A)[CITES] == quad(iri(self.A), iri(CITES), iri(BR), ID_GRAPH)

    def test_blank_labels_of_two_snapshots_stay_distinct(self):
        ctx = self.context(
            _one_update(self.A, self.update(self.A)), _one_update(self.B, self.update(self.B))
        )
        a = self.inserted(ctx, self.A)[HAS_VALUE].object
        b = self.inserted(ctx, self.B)[HAS_VALUE].object
        assert a.is_blank and b.is_blank
        assert a != b


class TestLoadSources:
    def test_files(self, doi_files):
        data_path, prov_path = doi_files
        config = SourceConfig.from_mapping({
            "data": [str(data_path)],
            "provenance": [str(prov_path)],
        })
        ctx = load_sources(config)
        assert isinstance(ctx, Context)
        assert ctx.history(ID) is not None

    def test_files_alone_do_not_import_requests(self, doi_files, tmp_path):
        data_path, prov_path = doi_files
        config = tmp_path / "sources.json"
        config.write_text(
            json.dumps({"data": [str(data_path)], "provenance": [str(prov_path)]}),
            encoding="utf-8",
        )
        script = (
            "import sys\n"
            "from chrono_rdf.cli import SourceConfig, load_sources\n"
            f"ctx = load_sources(SourceConfig.from_file({str(config)!r}))\n"
            f"assert ctx.history({ID!r}) is not None\n"
            "assert 'requests' not in sys.modules, 'requests was imported'\n"
        )
        src = str(Path(chrono_rdf.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr


@pytest.fixture()
def server(doi_data, doi_provenance):
    with SparqlServer(doi_data, doi_provenance) as srv:
        yield srv


@pytest.fixture()
def endpoint_ctx(server):
    config = SourceConfig.from_mapping({
        "data": [server.url],
        "provenance": [server.url],
        "http_timeout": 5.0,
    })
    return load_sources(config)


class TestEndpointContext:
    def test_entity_quads_match_the_files(self, endpoint_ctx, doi_data, doi_provenance):
        local = memory_context(doi_data, doi_provenance)
        assert endpoint_ctx.entity_quads(ID) == local.entity_quads(ID)
        assert endpoint_ctx.entity_quads(BR) == local.entity_quads(BR)

    def test_history_matches_the_files(self, endpoint_ctx, doi_data, doi_provenance):
        local = memory_context(doi_data, doi_provenance)
        assert endpoint_ctx.history(ID) == local.history(ID)

    def test_delta_records_match_the_files(
        self, endpoint_ctx, doi_data, doi_provenance
    ):
        local = memory_context(doi_data, doi_provenance)
        assert set(endpoint_ctx.delta_records()) == set(local.delta_records())

    def test_version_query_answers_identically(
        self, endpoint_ctx, doi_data, doi_provenance
    ):
        local = memory_context(doi_data, doi_provenance)
        query = f"SELECT ?v WHERE {{ <{ID}> <{HAS_VALUE}> ?v }}"
        remote_outcome = execute_version_query(query, endpoint_ctx)
        local_outcome = execute_version_query(query, local)
        assert remote_outcome.results == local_outcome.results

    @pytest.mark.parametrize("query", [
        f"SELECT ?s WHERE {{ ?s <{USES_SCHEME}> <http://purl.org/spar/datacite/doi> }}",
        f"SELECT ?x WHERE {{ ?x <{USES_SCHEME}> <http://purl.org/spar/datacite/doi> }}",
        # the object variable is named s, the subject variable is not
        f"SELECT ?x ?s WHERE {{ ?x <{HAS_VALUE}> ?s }}",
    ])
    def test_isolated_query_discovers_remotely(
        self, endpoint_ctx, doi_data, doi_provenance, query
    ):
        local = memory_context(doi_data, doi_provenance)
        pattern = parse_select(query).patterns[0]
        assert endpoint_ctx.match_subjects(pattern) == local.match_subjects(pattern) == {ID}
        remote_outcome = execute_version_query(query, endpoint_ctx)
        local_outcome = execute_version_query(query, local)
        assert remote_outcome.results == local_outcome.results
        assert ID in remote_outcome.relevant_entities

    def test_evaluate_current_round_trips_the_query_text(self, endpoint_ctx):
        parsed = parse_select(f"SELECT ?t WHERE {{ <{BR}> <{TITLE}> ?t }}")
        rows = endpoint_ctx.evaluate_current(parsed)
        assert [b.get("t").value for b in rows] == [
            "Referring Expressions And Their Use"
        ]


class TestEndpointFailures:
    def test_http_error_carries_the_status(self, server, endpoint_ctx):
        server.fail_next = 1
        with pytest.raises(NetworkError) as info:
            endpoint_ctx.entity_quads(ID)
        assert info.value.status == 500
        assert "500" in str(info.value)

    def test_malformed_results_document(self, server, endpoint_ctx):
        server.garbage_next = 1
        with pytest.raises(NetworkError, match="malformed"):
            endpoint_ctx.entity_quads(ID)

    def test_one_timeout_is_retried(self, server, doi_data, doi_provenance):
        config = SourceConfig.from_mapping({
            "data": [server.url],
            "provenance": [server.url],
            "http_timeout": 0.4,
        })
        ctx = load_sources(config)
        server.slow_seconds = 1.2
        server.slow_next = 1
        local = memory_context(doi_data, doi_provenance)
        assert ctx.entity_quads(ID) == local.entity_quads(ID)
        assert server.requests_seen == 2

    def test_two_timeouts_fail(self, server):
        config = SourceConfig.from_mapping({
            "data": [server.url],
            "provenance": [server.url],
            "http_timeout": 0.4,
        })
        ctx = load_sources(config)
        server.slow_seconds = 1.2
        server.slow_next = 2
        with pytest.raises(NetworkError, match="twice"):
            ctx.entity_quads(ID)

    def test_unreachable_endpoint(self):
        config = SourceConfig.from_mapping({
            "data": ["http://127.0.0.1:9/sparql"],  # discard port, nothing listens
            "provenance": ["http://127.0.0.1:9/sparql"],
            "http_timeout": 0.4,
        })
        ctx = load_sources(config)
        with pytest.raises(NetworkError):
            ctx.entity_quads(ID)


class TestMalformedResults:
    """Terms an endpoint answers with are checked like every other input."""

    URL = "http://endpoint.example/sparql"

    def endpoint(self, kind, rows):
        class Answered:
            status_code = 200

            def json(self):
                return {"results": {"bindings": rows}}

        endpoint = kind(self.URL, 1.0, None)
        endpoint._post = lambda query_text: Answered()
        return endpoint

    @pytest.mark.parametrize("node", [
        {"type": "uri", "value": "relative/x"},
        {"type": "literal", "value": "x", "xml:lang": "not a tag"},
        {"type": "bnode", "value": ""},
    ], ids=["relative-iri", "bad-language", "empty-bnode-label"])
    def test_malformed_node(self, node):
        endpoint = self.endpoint(DataEndpoint, [{"p": node}])
        with pytest.raises(NetworkError, match="malformed term in results") as info:
            endpoint.select("SELECT * WHERE { ?s ?p ?o }")
        assert info.value.url == self.URL and info.value.status is None

    def test_literal_predicate(self):
        row = {"p": {"type": "literal", "value": "p"}, "o": {"type": "literal", "value": "o"}}
        with pytest.raises(NetworkError, match="malformed term in results"):
            self.endpoint(DataEndpoint, [row]).entity_quads(ID)

    def test_literal_subject(self):
        row = {
            "s": {"type": "literal", "value": "s"},
            "p": {"type": "uri", "value": TITLE},
            "o": {"type": "literal", "value": "o"},
        }
        with pytest.raises(NetworkError, match="malformed term in results"):
            self.endpoint(ProvenanceEndpoint, [row]).provenance_quads_for(ID)
