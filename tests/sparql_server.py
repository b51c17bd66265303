"""A small in-process SPARQL endpoint for exercising the HTTP sources.

The server answers the exact query shapes the engine sends: the entity
fetch, the subject match, the snapshot listing, the per-entity provenance
dump, and, as a fallback, any query the engine's own parser accepts.  It
can be told to answer slowly or with an error to provoke the client's
retry and failure paths.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from chrono_rdf import GraphSet, Term, evaluate, parse_select
from chrono_rdf.rdf_model import quad_line

SPECIALIZATION_OF = "http://www.w3.org/ns/prov#specializationOf"
HAS_UPDATE_QUERY = "https://w3id.org/oc/ontology/hasUpdateQuery"
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"

_ENTITY_FETCH = re.compile(r"^SELECT \?p \?o \?g WHERE \{ \{ <(.*?)> \?p \?o \}")
_SUBJECT_MATCH = re.compile(r"^SELECT DISTINCT \?\w+ WHERE \{ \{ (.*?) \} UNION ")
_PROV_FOR = re.compile(
    r"^SELECT \?s \?p \?o WHERE \{ \?s <" + re.escape(SPECIALIZATION_OF) + r"> <(.*?)> \."
)


def _term_json(term: Term) -> dict:
    if term.is_iri:
        return {"type": "uri", "value": term.value}
    if term.is_blank:
        return {"type": "bnode", "value": term.value}
    node: dict = {"type": "literal", "value": term.value}
    if term.language is not None:
        node["xml:lang"] = term.language
    elif term.datatype != XSD_STRING:
        node["datatype"] = term.datatype
    return node


class _Handler(BaseHTTPRequestHandler):
    """Answers a POSTed query for the SparqlServer that self.server serves."""

    def log_message(self, *args):
        pass

    def do_POST(self):
        outer: SparqlServer = self.server.owner
        outer.requests_seen += 1
        if outer.slow_next > 0:
            outer.slow_next -= 1
            time.sleep(outer.slow_seconds)
        if outer.fail_next > 0:
            outer.fail_next -= 1
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"no luck today")
            return
        if outer.garbage_next > 0:
            outer.garbage_next -= 1
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"<html>surprise</html>")
            return
        length = int(self.headers.get("Content-Length", "0"))
        form = parse_qs(self.rfile.read(length).decode("utf-8"))
        query = form.get("query", [""])[0]
        try:
            rows = outer.answer(query)
        except Exception as exc:  # a bad query is the client's fault
            self.send_response(400)
            self.end_headers()
            self.wfile.write(str(exc).encode("utf-8"))
            return
        body = json.dumps(
            {"head": {"vars": []}, "results": {"bindings": rows}}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/sparql-results+json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class SparqlServer:
    """Serves one data graph set and one provenance graph set over HTTP.

    The HTTP server reaches this object through its owner attribute; a
    closed server drops that link, so the two form no reference cycle.
    """

    def __init__(self, data: GraphSet, provenance: GraphSet):
        self.data = frozenset(data)
        self.provenance = frozenset(provenance)
        self.fail_next = 0  # answer this many requests with a 500
        self.slow_next = 0  # sleep through this many requests first
        self.garbage_next = 0  # answer this many requests with non-JSON
        self.slow_seconds = 2.0
        self.requests_seen = 0
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.owner = self
        self._server.handle_error = lambda *a: None  # client hangups are expected
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    # -- the query shapes the engine sends ------------------------------

    def answer(self, query: str) -> list[dict]:
        m = _ENTITY_FETCH.match(query)
        if m:
            return self._entity_fetch(m.group(1))
        m = _SUBJECT_MATCH.match(query)
        if m:
            return self._evaluate(
                "SELECT * WHERE { " + m.group(1) + " }", self.data
            )
        m = _PROV_FOR.match(query)
        if m:
            return self._prov_for(m.group(1))
        if "<" + HAS_UPDATE_QUERY + "> ?text" in query:
            return self._delta_list()
        return self._evaluate(query, self.data)

    def _entity_fetch(self, entity: str) -> list[dict]:
        rows = []
        for q in sorted(self.data, key=quad_line):
            if q.subject.is_iri and q.subject.value == entity:
                row = {"p": _term_json(q.predicate), "o": _term_json(q.object)}
                if q.graph is not None:
                    row["g"] = {"type": "uri", "value": q.graph}
                rows.append(row)
        return rows

    def _prov_for(self, entity: str) -> list[dict]:
        snapshots = {
            q.subject
            for q in self.provenance
            if q.predicate.value == SPECIALIZATION_OF
            and q.object.is_iri
            and q.object.value == entity
        }
        return [
            {
                "s": _term_json(q.subject),
                "p": _term_json(q.predicate),
                "o": _term_json(q.object),
            }
            for q in sorted(self.provenance, key=quad_line)
            if q.subject in snapshots
        ]

    def _delta_list(self) -> list[dict]:
        entity_of: dict[Term, list[Term]] = {}
        for q in self.provenance:
            if q.predicate.value == SPECIALIZATION_OF and q.object.is_iri:
                entity_of.setdefault(q.subject, []).append(q.object)
        rows = []
        for q in sorted(self.provenance, key=quad_line):
            if q.predicate.value == HAS_UPDATE_QUERY and q.object.is_literal:
                for entity in entity_of.get(q.subject, ()):
                    rows.append({
                        "snapshot": _term_json(q.subject),
                        "entity": _term_json(entity),
                        "text": _term_json(q.object),
                    })
        return rows

    @staticmethod
    def _evaluate(text: str, graphs: GraphSet) -> list[dict]:
        solutions = evaluate(parse_select(text), graphs)
        return [
            {name: _term_json(term) for name, term in binding.values}
            for binding in solutions
        ]

    # -- lifecycle -------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/sparql"

    def __enter__(self) -> "SparqlServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
        self._server.owner = None
