"""Where datasets and provenance come from, and the context queries run in.

A source is either a local file (N-Quads or Turtle, by extension) or a
SPARQL endpoint (http or https URL).  Data sources hold the live state;
provenance sources hold the snapshot metadata.  A file source parses
and groups its file once, when it is built.  A Context bundles any
number of both behind one memoising facade: per-entity quads, loaded
histories, each stored update as its entity reads it, and an index from
each term those updates mention to the snapshots that mention it.

Endpoint access keeps to the SPARQL 1.1 protocol: queries go out as
POST form data and answers come back as application/sparql-results+json.
Entity graphs are fetched with a fixed template that covers the default
graph and named graphs in one UNION, because ground deltas are graph
scoped and reconstruction needs to know where each quad lives.  The
`requests` package is imported only when some source is an endpoint.
A term in an endpoint's results is checked as any other input is, and a
malformed one is a NetworkError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from threading import TIMEOUT_MAX
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .errors import BadDelta, ConfigError, NetworkError, NoHistory, ParseError
from .provenance import (
    OCO_HAS_UPDATE_QUERY,
    SPECIALIZATION_OF,
    Delta,
    EntityHistory,
    load_history,
    parse_delta,
)
from .rdf_model import GraphSet, Quad, Term, TermTable, parse_document, quad
from .sparql_engine import (
    Binding,
    ParsedQuery,
    SolutionSet,
    TripleIndex,
    TriplePattern,
    Variable,
    evaluate,
    format_query,
    match_pattern,
    parse_select,
)

if TYPE_CHECKING:
    import requests

DEFAULT_EXPLOSION_LIMIT = 10_000

_FORMATS = {
    ".nq": "nquads",
    ".nquads": "nquads",
    ".nt": "nquads",
    ".ntriples": "nquads",
    ".ttl": "turtle",
    ".turtle": "turtle",
}


@dataclass(frozen=True)
class SourceConfig:
    """Parsed configuration: where to read data and provenance from."""

    data: tuple[str, ...]
    provenance: tuple[str, ...]
    explosion_limit: int = DEFAULT_EXPLOSION_LIMIT
    http_timeout: float = 30.0

    @classmethod
    def from_mapping(cls, raw: Mapping) -> "SourceConfig":
        known = {"data", "provenance", "explosion_limit", "http_timeout"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown configuration keys: {', '.join(sorted(unknown))}")
        for key in ("data", "provenance"):
            value = raw.get(key)
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigError(f"'{key}' must be a non-empty list of sources")
            if not all(isinstance(v, str) and v for v in value):
                raise ConfigError(f"'{key}' entries must be non-empty strings")
        limit = raw.get("explosion_limit", DEFAULT_EXPLOSION_LIMIT)
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ConfigError("'explosion_limit' must be a positive integer")
        timeout = raw.get("http_timeout", 30.0)
        numeric = isinstance(timeout, (int, float)) and not isinstance(timeout, bool)
        # the bounds also refuse NaN and Infinity, which json accepts, and a
        # timeout the socket layer cannot hold (it raises OverflowError there)
        if not numeric or not 0 < timeout <= TIMEOUT_MAX:
            raise ConfigError(
                f"'http_timeout' must be a positive number of seconds, at most {TIMEOUT_MAX:.0f}"
            )
        return cls(
            data=tuple(raw["data"]),
            provenance=tuple(raw["provenance"]),
            explosion_limit=limit,
            http_timeout=float(timeout),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "SourceConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read configuration file {path}: {exc}")
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"configuration file {path} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        return cls.from_mapping(raw)


@dataclass(frozen=True)
class DeltaRecord:
    """One stored update string: which snapshot of which entity said what."""

    entity: str
    snapshot: str
    text: str


def _is_endpoint(location: str) -> bool:
    return location.startswith("http://") or location.startswith("https://")


def _read_file(location: str) -> GraphSet:
    """Parse one local source file, in the format its suffix names.

    Every failure to tell the format, read the file or parse it is a
    ConfigError naming the file.
    """
    path = Path(location)
    fmt = _FORMATS.get(path.suffix.lower())
    if fmt is None:
        raise ConfigError(
            f"cannot tell the format of {location}; expected one of"
            f" {', '.join(sorted(set(_FORMATS)))}"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read source file {location}: {exc}")
    try:
        return parse_document(text, fmt)
    except ParseError as exc:
        raise ConfigError(f"source file {location} does not parse: {exc}")


class FileSource:
    """Quads parsed from one local file, grouped by subject IRI when built."""

    def __init__(self, location: str, graphs: GraphSet | None = None):
        self.location = location
        self.graphs: GraphSet = _read_file(location) if graphs is None else frozenset(graphs)
        self._by_subject: dict[str, set[Quad]] = {}
        for q in self.graphs:
            if q.subject.is_iri:
                self._by_subject.setdefault(q.subject.value, set()).add(q)

    def entity_quads(self, entity: str) -> frozenset[Quad]:
        return frozenset(self._by_subject.get(entity, ()))


class EndpointSource:
    """One SPARQL endpoint spoken to over the standard protocol."""

    def __init__(self, url: str, timeout: float, session: requests.Session):
        self.url = url
        self.timeout = timeout
        self.session = session

    def select(self, query_text: str) -> list[dict[str, Term]]:
        response = self._post(query_text)
        try:
            payload = response.json()
            rows = payload["results"]["bindings"]
        except (ValueError, KeyError) as exc:
            raise NetworkError(self.url, response.status_code,
                               f"malformed SPARQL results document: {exc}")
        out = []
        for row in rows:
            converted: dict[str, Term] = {}
            for name, node in row.items():
                converted[name] = _term_from_json(self.url, node)
            out.append(converted)
        return out

    def _post(self, query_text: str) -> requests.Response:
        import requests

        attempts = 0
        while True:
            attempts += 1
            try:
                response = self.session.post(
                    self.url,
                    data={"query": query_text},
                    headers={"Accept": "application/sparql-results+json"},
                    timeout=self.timeout,
                )
            except requests.Timeout as exc:
                if attempts == 1:
                    continue  # one retry after a timeout
                raise NetworkError(self.url, None, f"timed out twice: {exc}")
            except requests.RequestException as exc:
                raise NetworkError(self.url, None, str(exc))
            if response.status_code != 200:
                snippet = response.text[:200]
                raise NetworkError(
                    self.url, response.status_code,
                    f"endpoint answered {response.status_code}: {snippet}",
                )
            return response


def _checked(url: str, build: Callable, *args):
    """build(*args), where a ValueError means a malformed term in results."""
    try:
        return build(*args)
    except ValueError as exc:
        raise NetworkError(url, None, f"malformed term in results: {exc}") from None


def _term_from_json(url: str, node: Mapping) -> Term:
    kind = node.get("type")
    value = node.get("value", "")
    if kind == "uri":
        return _checked(url, Term, "iri", value)
    if kind in ("literal", "typed-literal"):
        lang = node.get("xml:lang")
        if lang:
            return _checked(url, Term, "literal", value, None, lang)
        return _checked(url, Term, "literal", value, node.get("datatype"))
    if kind == "bnode":
        return _checked(url, Term, "blank", value)
    raise NetworkError(url, None, f"unknown term type {kind!r} in results")


def _pattern_text(pattern: TriplePattern) -> tuple[str, str]:
    """Render a pattern for remote matching; returns (text, subject name)."""

    def part(term) -> str:
        if isinstance(term, Variable):
            return f"?{term.name}"
        return term.n3()

    name = pattern.subject.name if isinstance(pattern.subject, Variable) else "s"
    return f"{part(pattern.subject)} {part(pattern.predicate)} {part(pattern.object)}", name


ENTITY_FETCH_TEMPLATE = (
    "SELECT ?p ?o ?g WHERE {{ {{ <{entity}> ?p ?o }}"
    " UNION {{ GRAPH ?g {{ <{entity}> ?p ?o }} }} }}"
)

SUBJECT_MATCH_TEMPLATE = (
    "SELECT DISTINCT ?{name} WHERE {{ {{ {pattern} }}"
    " UNION {{ GRAPH ?anygraph {{ {pattern} }} }} }}"
)

DELTA_LIST_QUERY = (
    "SELECT ?snapshot ?entity ?text WHERE {"
    f" ?snapshot <{SPECIALIZATION_OF}> ?entity ."
    f" ?snapshot <{OCO_HAS_UPDATE_QUERY}> ?text . }}"
)


class DataEndpoint(EndpointSource):
    def entity_quads(self, entity: str) -> frozenset[Quad]:
        rows = self.select(ENTITY_FETCH_TEMPLATE.format(entity=entity))
        quads = set()
        subject = Term("iri", entity)
        for row in rows:
            if "p" not in row or "o" not in row:
                continue
            graph = row.get("g")
            quads.add(_checked(
                self.url, quad, subject, row["p"], row["o"],
                graph.value if graph is not None and graph.is_iri else None,
            ))
        return frozenset(quads)

    def match_subjects(self, pattern: TriplePattern) -> set[str]:
        text, name = _pattern_text(pattern)
        rows = self.select(SUBJECT_MATCH_TEMPLATE.format(pattern=text, name=name))
        return {
            row[name].value
            for row in rows
            if name in row and row[name].is_iri
        }


class ProvenanceEndpoint(EndpointSource):
    def provenance_quads_for(self, entity: str) -> frozenset[Quad]:
        query = (
            "SELECT ?s ?p ?o WHERE {"
            f" ?s <{SPECIALIZATION_OF}> <{entity}> . ?s ?p ?o . }}"
        )
        rows = self.select(query)
        quads = set()
        for row in rows:
            if {"s", "p", "o"} <= row.keys():
                quads.add(_checked(self.url, quad, row["s"], row["p"], row["o"]))
        return frozenset(quads)

    def delta_records(self) -> list[DeltaRecord]:
        rows = self.select(DELTA_LIST_QUERY)
        records = []
        for row in rows:
            if {"snapshot", "entity", "text"} <= row.keys():
                records.append(DeltaRecord(
                    entity=row["entity"].value,
                    snapshot=row["snapshot"].value,
                    text=row["text"].value,
                ))
        return records


class FileProvenanceSource:
    """Snapshot metadata from one local file, grouped when built into each
    subject's quads and each entity's snapshots; only the groups are kept."""

    def __init__(self, location: str, graphs: GraphSet | None = None):
        self.location = location
        self._snapshots_of: dict[str, set[Term]] = {}
        self._quads_of: dict[Term, list[Quad]] = {}
        for q in _read_file(location) if graphs is None else graphs:
            self._quads_of.setdefault(q.subject, []).append(q)
            if q.predicate.value == SPECIALIZATION_OF and q.object.is_iri:
                self._snapshots_of.setdefault(q.object.value, set()).add(q.subject)

    def provenance_quads_for(self, entity: str) -> frozenset[Quad]:
        collected: set[Quad] = set()
        for snapshot in self._snapshots_of.get(entity, ()):
            collected.update(self._quads_of[snapshot])
        return frozenset(collected)

    def delta_records(self) -> list[DeltaRecord]:
        """One record per update text and entity of each snapshot."""
        records = []
        for snapshot, quads in self._quads_of.items():
            if not snapshot.is_iri:
                continue
            entities = [
                q.object.value
                for q in quads
                if q.predicate.value == SPECIALIZATION_OF and q.object.is_iri
            ]
            for q in quads:
                if q.predicate.value == OCO_HAS_UPDATE_QUERY and q.object.is_literal:
                    records += [DeltaRecord(e, snapshot.value, q.object.value) for e in entities]
        return sorted(records, key=lambda r: (r.entity, r.snapshot))


class Context:
    """Everything one query run needs to reach data and provenance."""

    def __init__(
        self,
        data_sources: Sequence,
        provenance_sources: Sequence,
        explosion_limit: int = DEFAULT_EXPLOSION_LIMIT,
    ):
        self.data_sources = list(data_sources)
        self.provenance_sources = list(provenance_sources)
        self.explosion_limit = explosion_limit
        self._entity_quads: dict[str, frozenset[Quad]] = {}
        self._histories: dict[str, EntityHistory | None] = {}
        self._records: tuple[DeltaRecord, ...] | None = None
        self._deltas: dict[str, dict[str, Delta]] = {}
        self._terms: TermTable = {}
        self._postings: dict[Term, frozenset[tuple[str, str]]] = {}
        self._local_index: TripleIndex | None = None

    # -- data ---------------------------------------------------------

    def entity_quads(self, entity: str) -> frozenset[Quad]:
        cached = self._entity_quads.get(entity)
        if cached is None:
            quads: set[Quad] = set()
            for source in self.data_sources:
                quads |= source.entity_quads(entity)
            cached = frozenset(quads)
            self._entity_quads[entity] = cached
        return cached

    def _file_quads(self) -> GraphSet:
        quads: set[Quad] = set()
        for source in self.data_sources:
            if isinstance(source, FileSource):
                quads |= source.graphs
        return frozenset(quads)

    def match_subjects(self, pattern: TriplePattern) -> set[str]:
        """IRIs that satisfy the pattern's subject in the current data."""
        out: set[str] = set()
        if any(isinstance(s, FileSource) for s in self.data_sources):
            if self._local_index is None:
                self._local_index = TripleIndex(self._file_quads())
            assert isinstance(pattern.subject, Variable)
            for binding, _stamp in match_pattern(pattern, {}, self._local_index):
                term = binding[pattern.subject]
                if term.is_iri:
                    out.add(term.value)
        for source in self.data_sources:
            if isinstance(source, DataEndpoint):
                out |= source.match_subjects(pattern)
        return out

    def evaluate_current(self, query: ParsedQuery) -> SolutionSet:
        """Run the query against the live state of every data source."""
        rows: list[Binding] = []
        if any(isinstance(s, FileSource) for s in self.data_sources):
            rows.extend(evaluate(query, self._file_quads()).rows)
        for source in self.data_sources:
            if isinstance(source, DataEndpoint):
                for row in source.select(format_query(query)):
                    rows.append(Binding.from_dict(row))
        if query.distinct:
            seen: set[Binding] = set()
            unique = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            rows = unique
        return SolutionSet(tuple(rows))

    # -- provenance ----------------------------------------------------

    def history(self, entity: str) -> EntityHistory | None:
        """The entity's snapshot chain, or None when nothing records it."""
        if entity in self._histories:
            return self._histories[entity]
        quads: set[Quad] = set()
        for source in self.provenance_sources:
            quads |= source.provenance_quads_for(entity)
        history: EntityHistory | None = None
        if quads:
            try:
                history = load_history(entity, frozenset(quads), parse=self._delta)
            except NoHistory:
                pass
        self._histories[entity] = history
        return history

    def _delta(self, entity: str, snapshot: str, text: str) -> Delta:
        """parse_delta's result, made once per context for each entity and text.

        The term index and load_history both read this one object; a
        snapshot that specialises two entities is narrowed once for each.
        Every update is parsed with the context's one term table, so an
        IRI or literal that many updates name is built once and shared.
        """
        mine = self._deltas.setdefault(entity, {})
        delta = mine.get(snapshot)
        if delta is None or delta.source_text != text:
            delta = mine[snapshot] = parse_delta(entity, snapshot, text, self._terms)
        return delta

    def delta_records(self) -> tuple[DeltaRecord, ...]:
        """Every stored update string; the first call also builds term_postings."""
        if self._records is None:
            records: list[DeltaRecord] = []
            for source in self.provenance_sources:
                records.extend(source.delta_records())
            self._records = tuple(records)
            self._postings = self._index_terms(self._records)
        return self._records

    def term_postings(self) -> dict[Term, frozenset[tuple[str, str]]]:
        """Each predicate or object to the (entity, snapshot) pairs whose update holds it.

        Terms are read from the record's update as its entity reads it
        (_delta), the same object its history holds, so an update only
        makes its own entity relevant; every spelling the update grammar
        accepts for a term lands under that one term.  Subjects are not
        indexed: a narrowed quad's subject is its entity, and an isolated
        pattern, which reads the index, never has a ground subject.
        Updates that do not parse are left out; loading the history of
        their entity raises BadDelta.
        """
        self.delta_records()
        return self._postings

    def _index_terms(
        self, records: Sequence[DeltaRecord]
    ) -> dict[Term, frozenset[tuple[str, str]]]:
        postings: dict[Term, set[tuple[str, str]]] = {}
        for record in records:
            try:
                delta = self._delta(record.entity, record.snapshot, record.text)
            except BadDelta:
                continue
            pair = (record.entity, record.snapshot)
            for q in delta.deletes + delta.inserts:
                postings.setdefault(q.predicate, set()).add(pair)
                if not q.object.is_blank:
                    postings.setdefault(q.object, set()).add(pair)
        return {term: frozenset(pairs) for term, pairs in postings.items()}


def load_sources(config: SourceConfig) -> Context:
    """Open every configured source and assemble the run context."""
    session = None
    if any(map(_is_endpoint, (*config.data, *config.provenance))):
        import requests

        session = requests.Session()
    data_sources: list = []
    for location in config.data:
        if _is_endpoint(location):
            data_sources.append(DataEndpoint(location, config.http_timeout, session))
        else:
            data_sources.append(FileSource(location))
    provenance_sources: list = []
    for location in config.provenance:
        if _is_endpoint(location):
            provenance_sources.append(
                ProvenanceEndpoint(location, config.http_timeout, session)
            )
        else:
            provenance_sources.append(FileProvenanceSource(location))
    return Context(
        data_sources=data_sources,
        provenance_sources=provenance_sources,
        explosion_limit=config.explosion_limit,
    )


def memory_context(
    data: GraphSet,
    provenance: GraphSet,
    explosion_limit: int = DEFAULT_EXPLOSION_LIMIT,
) -> Context:
    """A context over in-memory quad sets; the library-level entry point."""
    data_source = FileSource("<memory>", graphs=frozenset(data))
    prov_source = FileProvenanceSource("<memory>", graphs=frozenset(provenance))
    return Context(
        data_sources=[data_source],
        provenance_sources=[prov_source],
        explosion_limit=explosion_limit,
    )
