"""The command line, run in process through main(argv), and in a fresh
interpreter where a test needs standard streams of its own."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    CREATED_AT,
    FIXED_AT,
    HAS_UPDATE,
    HAS_VALUE,
    ID,
    RIGHT_DOI,
    USES_SCHEME,
    WRONG_DOI,
)

from sparql_server import SparqlServer

import chrono_rdf
from chrono_rdf import Term, literal, materialize_at, parse_timestamp, quad, serialize
from chrono_rdf.cli import main
from chrono_rdf.sources import EndpointSource

VALUE_QUERY = f"SELECT ?v WHERE {{ <{ID}> <{HAS_VALUE}> ?v }}"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CHRONO_RDF_CONFIG", raising=False)
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)


@pytest.fixture()
def config_path(doi_files, tmp_path):
    data_path, prov_path = doi_files
    path = tmp_path / "sources.json"
    path.write_text(
        json.dumps({"data": [str(data_path)], "provenance": [str(prov_path)]}),
        encoding="utf-8",
    )
    return str(path)


def stdin(data: bytes) -> io.TextIOWrapper:
    """A standard input whose bytes the command reads through `.buffer`."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def run_cli(argv, **streams) -> subprocess.CompletedProcess:
    """`python -m chrono_rdf.cli` with the given standard streams; stderr
    is captured unless given."""
    src = str(Path(chrono_rdf.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "chrono_rdf.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, text=True,
        **{"stderr": subprocess.PIPE, **streams},
    )


def stream_error(done: subprocess.CompletedProcess) -> str:
    """The message of the one ConfigError object a failed stream leaves."""
    assert done.returncode == 3, done.stderr
    error = json.loads(done.stderr)
    assert error["error"] == "ConfigError"
    return error["message"]


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


class TestMaterialize:
    def test_at_json(self, capsys, config_path):
        doc = run_json(capsys, [
            "--config", config_path,
            "materialize", ID, "--at", "2021-10-15T00:00:00",
        ])
        assert doc["entity"] == ID
        assert doc["at"] == "2021-10-15T00:00:00"
        assert doc["snapshot"]["id"] == ID + "/prov/se/1"
        assert doc["snapshot"]["has_update"] is False
        assert WRONG_DOI in doc["graph"]
        assert f'"{RIGHT_DOI}"' not in doc["graph"]

    def test_at_nquads_is_byte_identical(
        self, capsys, config_path, doi_data, doi_provenance
    ):
        when = parse_timestamp("2021-10-15T00:00:00")
        expected = serialize(
            materialize_at(ID, when, doi_data, doi_provenance).version.graphs
        )
        code = main([
            "--config", config_path,
            "materialize", ID, "--at", "2021-10-15T00:00:00",
            "--format", "nquads",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == expected

    def test_all_versions_oldest_first(self, capsys, config_path):
        doc = run_json(capsys, [
            "--config", config_path, "materialize", ID, "--all",
        ])
        times = [v["time"] for v in doc["versions"]]
        assert times == [CREATED_AT, FIXED_AT]
        assert WRONG_DOI in doc["versions"][0]["graph"]
        assert f'"{RIGHT_DOI}"' in doc["versions"][1]["graph"]

    def test_bare_dates_cover_whole_days(self, capsys, config_path):
        doc = run_json(capsys, [
            "--config", config_path,
            "materialize", ID, "--all",
            "--from", "2021-10-10", "--to", "2021-10-10",
        ])
        # creation happened at 23:44:45, so --to must reach the end of the day
        assert [v["time"] for v in doc["versions"]] == [CREATED_AT]


class TestQuery:
    def test_cross_version(self, capsys, config_path, tmp_path):
        query_file = tmp_path / "q.rq"
        query_file.write_text(VALUE_QUERY, encoding="utf-8")
        doc = run_json(capsys, [
            "--config", config_path, "query", "--file", str(query_file),
        ])
        assert doc["mode"] == "cross"
        assert doc["timeline"] == [CREATED_AT, FIXED_AT]
        assert sorted(doc["results"]) == [CREATED_AT, FIXED_AT]
        assert doc["results"][CREATED_AT] == [
            {"v": {"type": "literal", "value": WRONG_DOI}}
        ]
        assert doc["results"][FIXED_AT] == [
            {"v": {"type": "literal", "value": RIGHT_DOI}}
        ]
        assert ID in doc["relevant_entities"]

    def test_single_version_from_stdin(self, capsys, config_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin(VALUE_QUERY.encode()))
        doc = run_json(capsys, [
            "--config", config_path, "query", "--file", "-",
            "--at", "2021-10-15T00:00:00",
        ])
        assert doc["mode"] == "single"
        assert list(doc["results"]) == [CREATED_AT]
        assert doc["results"][CREATED_AT][0]["v"]["value"] == WRONG_DOI

    def test_interval_narrowing(self, capsys, config_path, tmp_path):
        query_file = tmp_path / "q.rq"
        query_file.write_text(VALUE_QUERY, encoding="utf-8")
        doc = run_json(capsys, [
            "--config", config_path, "query", "--file", str(query_file),
            "--from", "2021-10-12",
        ])
        assert list(doc["results"]) == [FIXED_AT]


class TestDelta:
    def test_change_report(self, capsys, config_path, tmp_path):
        query_file = tmp_path / "q.rq"
        query_file.write_text(VALUE_QUERY, encoding="utf-8")
        doc = run_json(capsys, [
            "--config", config_path, "delta", "--file", str(query_file),
        ])
        (record,) = doc["records"]
        assert record["entity"] == ID
        assert record["kind"] == "modified"
        assert record["time"] == FIXED_AT
        assert f'"{RIGHT_DOI}"' in record["added"]
        assert WRONG_DOI in record["removed"]

    def test_entities_involved_counts_the_relevant_entities(
        self, capsys, config_path, tmp_path
    ):
        query_file = tmp_path / "q.rq"
        query_file.write_text(
            f"SELECT ?s WHERE {{ ?s <{USES_SCHEME}> <http://purl.org/spar/datacite/doi> }}",
            encoding="utf-8",
        )
        doc = run_json(capsys, ["--config", config_path, "delta", "--file", str(query_file)])
        assert doc["relevant_entities"] == [ID]
        assert doc["entities_involved"] == len(doc["relevant_entities"])

    def test_properties_filter(self, capsys, config_path, tmp_path):
        query_file = tmp_path / "q.rq"
        query_file.write_text(VALUE_QUERY, encoding="utf-8")
        doc = run_json(capsys, [
            "--config", config_path, "delta", "--file", str(query_file),
            "--properties", USES_SCHEME,
        ])
        assert doc["records"] == []


def with_updates(provenance, text: str):
    """The provenance with every stored update string replaced by text."""
    return frozenset(
        quad(q.subject, q.predicate, literal(text), q.graph)
        if q.predicate.value == HAS_UPDATE else q
        for q in provenance
    )


def saved_config(tmp_path, data_text: str, provenance) -> str:
    """Save the data text and the provenance, and a config naming both files."""
    (tmp_path / "data.nq").write_text(data_text, encoding="utf-8")
    (tmp_path / "prov.nq").write_text(serialize(provenance), encoding="utf-8")
    path = tmp_path / "saved.json"
    path.write_text(json.dumps({
        "data": [str(tmp_path / "data.nq")],
        "provenance": [str(tmp_path / "prov.nq")],
    }), encoding="utf-8")
    return str(path)


def usage_error(capsys) -> str:
    """The message of the one JSON usage error on stderr; nothing on stdout."""
    captured = capsys.readouterr()
    error = json.loads(captured.err)
    assert error["error"] == "UsageError"
    assert captured.out == ""
    return error["message"]


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main([]) == 2
        assert "required: command" in usage_error(capsys)
        assert main(["materialize"]) == 2  # entity and --at/--all missing
        assert "required: entity" in usage_error(capsys)

    def test_unknown_flag_is_2(self, capsys, config_path):
        code = main(["--config", config_path, "query", "--file", "-", "--bogus"])
        assert code == 2
        assert "unrecognized arguments: --bogus" in usage_error(capsys)

    def test_missing_file_is_2(self, capsys, config_path):
        assert main(["--config", config_path, "query"]) == 2
        assert "required: --file" in usage_error(capsys)

    def test_help_exits_0_with_help_text(self, capsys):
        assert main(["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: chrono-rdf")
        assert captured.err == ""

    def test_bad_timestamp_is_2(self, capsys, config_path):
        code = main([
            "--config", config_path,
            "materialize", ID, "--at", "the other day",
        ])
        assert code == 2
        assert "argument --at" in usage_error(capsys)

    def test_nquads_without_at_is_2(self, capsys, config_path):
        code = main([
            "--config", config_path,
            "materialize", ID, "--all", "--format", "nquads",
        ])
        assert code == 2
        assert usage_error(capsys) == "--format nquads requires --at"

    def test_missing_config_is_3(self, capsys):
        code = main(["materialize", ID, "--at", "2021-10-15T00:00:00"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.err)["error"] == "ConfigError"

    def test_unreadable_config_is_3(self, capsys, tmp_path):
        code = main([
            "--config", str(tmp_path / "absent.json"),
            "materialize", ID, "--at", "2021-10-15T00:00:00",
        ])
        assert code == 3
        capsys.readouterr()

    def test_unknown_entity_is_4(self, capsys, config_path):
        code = main([
            "--config", config_path,
            "materialize", "https://nowhere.example/e", "--at", "2021-10-15T00:00:00",
        ])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.err)["error"] == "NoHistory"

    def test_before_creation_is_4(self, capsys, config_path):
        code = main([
            "--config", config_path,
            "materialize", ID, "--at", "2019-01-01T00:00:00",
        ])
        captured = capsys.readouterr()
        assert code == 4
        error = json.loads(captured.err)
        assert error["error"] == "BeforeCreation"
        # both instants in the same ISO form the library reports
        assert f"at 2019-01-01T00:00:00; first snapshot is {CREATED_AT}" in error["message"]

    @pytest.mark.parametrize("command", [
        ["query", "--file", "-"],
        ["delta", "--file", "-"],
        ["materialize", ID, "--all"],
    ], ids=["query", "delta", "materialize"])
    def test_from_after_to_is_2(self, capsys, config_path, monkeypatch, command):
        monkeypatch.setattr("sys.stdin", stdin(VALUE_QUERY.encode()))
        code = main([
            "--config", config_path, *command,
            "--from", "2021-10-20", "--to", "2021-10-10",
        ])
        assert code == 2
        assert usage_error(capsys) == (
            "--from 2021-10-20T00:00:00 lies after --to 2021-10-10T23:59:59"
        )

    @pytest.mark.parametrize("flag", ["--from", "--to"])
    @pytest.mark.parametrize("command", [
        ["query", "--file", "-"],
        ["materialize", ID],
    ], ids=["query", "materialize"])
    def test_at_with_a_range_is_2(self, capsys, config_path, monkeypatch, command, flag):
        monkeypatch.setattr("sys.stdin", stdin(VALUE_QUERY.encode()))
        code = main([
            "--config", config_path, *command,
            "--at", "2021-10-15T00:00:00", flag, "2021-10-12",
        ])
        assert code == 2
        assert "cannot be combined with --from or --to" in usage_error(capsys)

    def test_text_index_key_is_unknown_3(self, capsys, doi_files, tmp_path):
        data_path, prov_path = doi_files
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "data": [str(data_path)],
            "provenance": [str(prov_path)],
            "text_index": True,
        }), encoding="utf-8")
        code = main(["--config", str(path), "materialize", ID, "--all"])
        captured = capsys.readouterr()
        assert code == 3
        error = json.loads(captured.err)
        assert error["error"] == "ConfigError"
        assert "unknown configuration keys: text_index" in error["message"]

    def test_cache_dir_key_is_unknown_3(self, capsys, doi_files, tmp_path):
        data_path, prov_path = doi_files
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "data": [str(data_path)],
            "provenance": [str(prov_path)],
            "cache_dir": str(tmp_path / "cache"),
        }), encoding="utf-8")
        code = main(["--config", str(path), "materialize", ID, "--all"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ConfigError"
        assert "unknown configuration keys: cache_dir" in error["message"]

    @pytest.mark.parametrize("argv,message", [
        (["cache", "clear"], "invalid choice: 'cache'"),
        (["--quiet", "materialize", ID, "--all"], "unrecognized arguments: --quiet"),
    ], ids=["cache-clear", "quiet"])
    def test_removed_commands_are_usage_errors_2(self, capsys, config_path, argv, message):
        assert main(["--config", config_path, *argv]) == 2
        assert message in usage_error(capsys)

    def test_update_that_does_not_parse_is_4(
        self, capsys, doi_data, doi_provenance, tmp_path
    ):
        provenance = with_updates(doi_provenance, "DELETE DATA { <" + ID + "> ?p ?o . }")
        path = saved_config(tmp_path, serialize(doi_data), provenance)
        code = main(["--config", path, "materialize", ID, "--all"])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.err)["error"] == "BadDelta"

    @pytest.mark.parametrize("escape", ["\\U00110000", "\\uD800"])
    def test_source_with_a_non_scalar_escape_is_3(
        self, capsys, doi_data, doi_provenance, tmp_path, escape
    ):
        data = serialize(doi_data) + f'<{ID}> <{HAS_VALUE}> "bad {escape}" .\n'
        path = saved_config(tmp_path, data, doi_provenance)
        code = main(["--config", path, "materialize", ID, "--all"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ConfigError"
        assert f"numeric escape {escape} is not a Unicode scalar value" in error["message"]

    def test_turtle_iri_that_cannot_resolve_is_3(self, capsys, doi_files, tmp_path):
        _, prov_path = doi_files
        data_path = tmp_path / "data.ttl"
        data_path.write_text(
            f"@base <urn:x> .\n<y> <{HAS_VALUE}> \"v\" .\n", encoding="utf-8"
        )
        path = tmp_path / "turtle.json"
        path.write_text(json.dumps({
            "data": [str(data_path)], "provenance": [str(prov_path)],
        }), encoding="utf-8")
        code = main(["--config", str(path), "materialize", ID, "--all"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ConfigError"
        assert "relative IRI 'y' does not resolve against <urn:x>" in error["message"]

    @pytest.mark.parametrize("escape", ["\\U00110000", "\\uD800"])
    def test_update_with_a_non_scalar_escape_is_4(
        self, capsys, doi_data, doi_provenance, tmp_path, escape
    ):
        update = f'INSERT DATA {{ <{ID}> <{HAS_VALUE}> "bad {escape}" . }}'
        path = saved_config(tmp_path, serialize(doi_data), with_updates(doi_provenance, update))
        code = main(["--config", path, "materialize", ID, "--all"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "BadDelta"
        assert f"numeric escape {escape} is not a Unicode scalar value" in error["message"]

    def test_malformed_endpoint_results_are_3(self, capsys, doi_files, tmp_path, monkeypatch):
        def answer(self, query_text):
            return [{"p": Term("literal", "not a predicate"), "o": Term("literal", "o")}]

        monkeypatch.setattr(EndpointSource, "select", answer)
        _, prov_path = doi_files
        path = tmp_path / "endpoint.json"
        path.write_text(json.dumps({
            "data": ["http://endpoint.example/sparql"], "provenance": [str(prov_path)],
        }), encoding="utf-8")
        code = main(["--config", str(path), "materialize", ID, "--all"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "NetworkError"
        assert "malformed term in results" in error["message"]

    @pytest.mark.parametrize("kind", ["query", "source", "configuration"])
    def test_file_that_is_not_utf8_is_3(self, capsys, doi_files, tmp_path, kind):
        data_path, prov_path = doi_files
        bad = tmp_path / "bad.nq"  # a suffix the source reader accepts
        bad.write_bytes(b"\xff\xfe not UTF-8\n")
        query = tmp_path / "q.rq"
        query.write_text(VALUE_QUERY, encoding="utf-8")
        config = tmp_path / "sources.json"
        config.write_text(json.dumps({
            "data": [str(bad if kind == "source" else data_path)],
            "provenance": [str(prov_path)],
        }), encoding="utf-8")
        code = main([
            "--config", str(bad if kind == "configuration" else config),
            "query", "--file", str(bad if kind == "query" else query),
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ConfigError"
        assert f"cannot read {kind} file {bad}" in error["message"]

    def test_endpoint_timeout_too_large_for_a_socket_is_3(
        self, capsys, doi_data, doi_provenance, tmp_path
    ):
        # requests would raise OverflowError from the socket it opened
        with SparqlServer(doi_data, doi_provenance) as server:
            path = tmp_path / "endpoint.json"
            path.write_text(json.dumps({
                "data": [server.url], "provenance": [server.url], "http_timeout": 1e12,
            }), encoding="utf-8")
            code = main(["--config", str(path), "materialize", ID, "--all"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ConfigError"
        assert "'http_timeout' must be a positive number of seconds" in error["message"]
        assert server.requests_seen == 0

    def test_query_on_stdin_that_is_not_utf8_is_3(self, capsys, config_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin(b"\xff\xfe SELECT"))
        code = main(["--config", config_path, "query", "--file", "-"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ConfigError"
        assert error["message"].startswith("cannot read query from standard input: ")

    @pytest.mark.parametrize("epoch", ["abc", "99999999999999"])
    def test_unusable_source_date_epoch_is_3(self, capsys, config_path, monkeypatch, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        code = main(["--config", config_path, "materialize", ID, "--at", "2021-10-15"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ConfigError"
        assert "SOURCE_DATE_EPOCH" in error["message"]

    def test_unbounded_query_is_4(self, capsys, config_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin(b"SELECT * WHERE { ?s ?p ?o }"))
        code = main(["--config", config_path, "query", "--file", "-"])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.err)["error"] == "UnboundedQuery"

    def test_query_without_patterns_names_its_place(self, capsys, config_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin(b"SELECT ?s WHERE { }"))
        code = main(["--config", config_path, "query", "--file", "-"])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.err) == {
            "error": "ParseError",
            "message": "line 1, column 19: query has no triple patterns",
        }

    @pytest.fixture()
    def query_argv(self, config_path, tmp_path):
        path = tmp_path / "value.rq"
        path.write_text(VALUE_QUERY, encoding="utf-8")
        return ["--config", config_path, "query", "--file", str(path)]

    def test_closed_stdin_is_3(self, config_path):
        done = run_cli(["--config", config_path, "query", "--file", "-"],
                       stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(0))
        assert stream_error(done) == "cannot read query from standard input: it is closed"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("command", ["query", "nquads"])
    def test_full_stdout_is_3(self, config_path, query_argv, command):
        argv = query_argv if command == "query" else [
            "--config", config_path, "materialize", ID, "--at", FIXED_AT, "--format", "nquads"
        ]
        with open("/dev/full", "w", encoding="utf-8") as full:
            done = run_cli(argv, stdout=full)
        assert stream_error(done).startswith("cannot write to standard output: ")

    def test_stdout_into_a_closed_pipe_is_3(self, query_argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_cli(query_argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert stream_error(done).startswith("cannot write to standard output: ")

    def test_stdout_and_stderr_into_a_closed_pipe_is_3(self, query_argv):
        # the error object cannot be written either; the exit code still says why
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_cli(query_argv, stdout=write_end, stderr=write_end)
        finally:
            os.close(write_end)
        assert done.returncode == 3

    def test_closed_stdout_is_3(self, query_argv):
        done = run_cli(query_argv, preexec_fn=lambda: os.close(1))
        assert stream_error(done) == "cannot write to standard output: it is closed"


class TestDeterminism:
    def test_source_date_epoch_pins_the_output(
        self, capsys, config_path, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")
        query_file = tmp_path / "q.rq"
        query_file.write_text(VALUE_QUERY, encoding="utf-8")
        argv = ["--config", config_path, "query", "--file", str(query_file)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["generated_at"] == "2000-01-01T00:00:00+00:00"

    def test_config_can_come_from_the_environment(
        self, capsys, config_path, monkeypatch
    ):
        monkeypatch.setenv("CHRONO_RDF_CONFIG", config_path)
        doc = run_json(capsys, [
            "materialize", ID, "--at", "2021-10-15T00:00:00",
        ])
        assert doc["entity"] == ID


class TestBench:
    def test_small_run_writes_the_reports(self, capsys, tmp_path):
        out = tmp_path / "bench"
        doc = run_json(capsys, [
            "bench", "--out", str(out),
            "--seed", "2", "--entities", "24",
            "--repetitions", "1", "--subjects", "1",
        ])
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "data.nq").exists()
        assert (out / "provenance.nq").exists()
        workloads = {row["workload"] for row in doc["rows"]}
        assert len(doc["rows"]) == 10
        assert any("materialize" in w for w in workloads)

    @pytest.mark.parametrize("flag", ["--subjects", "--repetitions"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_counts_below_one_are_usage_errors_2(self, capsys, tmp_path, flag, value):
        out = tmp_path / "bench"
        code = main(["bench", "--out", str(out), "--entities", "24", flag, value])
        assert code == 2
        assert usage_error(capsys) == f"{flag} must be at least 1"
        assert not out.exists()

    def test_output_under_a_regular_file_is_3(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main(["bench", "--out", str(blocker / "sub"), "--entities", "24"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ConfigError"
        assert error["message"].startswith(f"cannot write to output directory {blocker / 'sub'}: ")
